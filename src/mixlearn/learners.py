"""End-to-end learning pipelines and the seeded experiment runner."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Dict, Optional, Sequence, Tuple

from .distributions import mixture_moment_exact, mixture_pmf_exact
from .errors import (
    CapExceededError,
    ContractError,
    DomainError,
    MomentInconsistencyError,
    ReconstructionError,
)
from .grids import (
    ANALYTIC_FAMILIES,
    Family,
    MixtureSpec,
    ParameterGrid,
    SharedParams,
    uniform_spec,
)
from .moments import (
    estimate_moments,
    estimate_pmf,
    moment_lattice_spacing,
    round_to_lattice,
)
from .powersums import (_ceil_sqrt_ratio, moments_to_power_sums, pmf_to_power_sums,
                        reconstruct_multiset)
from . import sampling
from .sampling import SampleDataset, sample
from .scheffe import candidate_family, mde_select, precompute_mde


def moments_order_binomial(eps: Fraction, k: int) -> int:
    """T = max(k, ceil(4 / sqrt(eps))): enough for uniqueness and for the
    constructive Newton path."""
    eps = Fraction(eps)
    return max(k, _ceil_sqrt_ratio(16 * eps.denominator, eps.numerator))


def moments_order_geometric_u(n: int, k: int) -> int:
    """T = max(k, ceil(4 sqrt(n)))."""
    return max(k, _ceil_sqrt_ratio(16 * n, 1))


@dataclass(frozen=True)
class LearnResult:
    recovered: Tuple[int, ...]
    method: str  # moments | pmf | mde
    diagnostics: Dict[str, float]
    exact_match: Optional[bool] = None


def _finish(
    recovered: Tuple[int, ...],
    method: str,
    diagnostics: Dict[str, float],
    truth: Optional[Sequence[int]],
) -> LearnResult:
    match = None if truth is None else tuple(sorted(truth)) == recovered
    return LearnResult(recovered, method, diagnostics, match)


def _learn_algebraic(
    data: Optional[SampleDataset],
    grid: ParameterGrid,
    shared: SharedParams,
    k: int,
    T: int,
    oracle_spec: Optional[MixtureSpec],
    truth: Optional[Sequence[int]],
) -> LearnResult:
    """Estimate -> lattice-round -> triangular solve -> Newton reconstruction.

    The observables are the pmf values P_0..P_T on the geometric p-grid, and
    the raw moments M_0..M_T on every other grid.  Observable ell is a
    polynomial in the grid index of degree ell (moments) or ell + 1 (pmf
    values), so distinct mixtures put it on a lattice of spacing
    step^degree / k.  M_0 = 1 is exact and is not rounded.
    """
    if k < 1:
        raise DomainError(f"k must be at least 1, got {k}")
    if T < 0:
        raise DomainError(f"T must be nonnegative, got {T}")
    pmf = grid.family is Family.GEOMETRIC_P
    sampled = oracle_spec is None
    if not sampled:
        exact = mixture_pmf_exact if pmf else mixture_moment_exact
        values = [exact(oracle_spec, ell) for ell in range(T + 1)]
    elif data is None:
        raise ContractError("provide data or an oracle spec")
    elif pmf:
        values = estimate_pmf(data, T)
    else:
        values = list(estimate_moments(data, T).values)
    max_residual = 0.0
    if grid.inverse_step_integral:
        for ell in range(0 if pmf else 1, T + 1):
            spacing = moment_lattice_spacing(grid.step, k, ell + 1 if pmf else ell)
            r = round_to_lattice(values[ell], spacing)
            values[ell] = r.rounded
            max_residual = max(max_residual, float(r.residual))
    truncate = k if sampled else None
    if pmf:
        psums, residuals = pmf_to_power_sums(values, grid, k, truncate_after=truncate)
    else:
        psums, residuals = moments_to_power_sums(
            values, grid.family, shared, grid, k, truncate_after=truncate
        )
    recovered = reconstruct_multiset(psums, grid.indices(), verify_orders=truncate)
    diag = {
        "max_lattice_residual": max_residual,
        "max_solve_residual": max(float(r) for r in residuals),
        "samples": float(len(data) if sampled else 0),
        "T": float(T),
    }
    return _finish(recovered, "pmf" if pmf else "moments", diag, truth)


def learn_binomial_moments(
    data: Optional[SampleDataset],
    n: int,
    eps: Fraction,
    k: int,
    oracle_spec: Optional[MixtureSpec] = None,
    truth: Optional[Sequence[int]] = None,
    T: Optional[int] = None,
    grid: Optional[ParameterGrid] = None,
) -> LearnResult:
    """Moment pipeline for Bin(n, p) mixtures on the p-grid of step eps:
    ``grid`` when given (its step must be eps), else indices 0..1/eps.  The
    recovered indices lie in the grid's index range."""
    eps = Fraction(eps)
    if eps <= 0:
        raise DomainError("grid step must be positive")
    if grid is None:
        grid = ParameterGrid(Family.BINOMIAL_P, eps, 0, int(1 / eps))
    elif grid.family is not Family.BINOMIAL_P or grid.step != eps:
        raise ContractError("binomial moments need a binomial-p grid of step eps")
    shared = SharedParams(n=n)
    if T is None:
        T = moments_order_binomial(eps, k)
    if n is None:
        raise ContractError("binomial-p moments need the shared trial count n")
    if n < T:
        raise DomainError(f"need n >= T = {T} trials, got {n}")
    return _learn_algebraic(data, grid, shared, k, T, oracle_spec, truth)


def learn_geometric(
    data: Optional[SampleDataset],
    grid: ParameterGrid,
    k: int,
    variant: str,
    oracle_spec: Optional[MixtureSpec] = None,
    truth: Optional[Sequence[int]] = None,
    T: Optional[int] = None,
) -> LearnResult:
    """Geometric mixtures: ``moments`` on the u-grid, ``pmf`` on the p-grid."""
    if variant == "moments":
        if grid.family is not Family.GEOMETRIC_U:
            raise ContractError("moments variant needs the u-grid")
        if T is None:
            T = moments_order_geometric_u(grid.max_index, k)
    elif variant == "pmf":
        if grid.family is not Family.GEOMETRIC_P:
            raise ContractError("pmf variant needs the p-grid")
        if T is None:
            T = moments_order_binomial(grid.step, k)
    else:
        raise ContractError(f"unknown geometric variant {variant!r}")
    return _learn_algebraic(data, grid, SharedParams(), k, T, oracle_spec, truth)


@lru_cache(maxsize=4)
def _candidates(grid: ParameterGrid, k: int, shared: SharedParams) -> Tuple[MixtureSpec, ...]:
    """``candidate_family(grid, k, shared)``, built once while it is among
    the last four asked for (a family can hold ``CANDIDATE_CAP`` specs)."""
    return tuple(candidate_family(grid, k, shared))


def learn_mde(
    data: Optional[SampleDataset],
    family: Family,
    grid: ParameterGrid,
    k: int,
    shared: SharedParams = SharedParams(),
    oracle_spec: Optional[MixtureSpec] = None,
    truth: Optional[Sequence[int]] = None,
    precomputed=None,
) -> LearnResult:
    """Minimum-distance estimation over all distinct k-subsets of the grid."""
    if family not in ANALYTIC_FAMILIES:
        raise ContractError(f"MDE learner covers the analytic families only")
    candidates = _candidates(grid, k, shared)
    if oracle_spec is not None:
        result = mde_select(candidates, truth=oracle_spec, precomputed=precomputed)
        samples_used = 0
    else:
        if data is None or len(data) == 0:
            raise DomainError("MDE needs a nonempty dataset")
        result = mde_select(candidates, data=data, precomputed=precomputed)
        samples_used = len(data)
    recovered = candidates[result.winner].indices
    diag = {
        "delta": result.delta,
        "samples": float(samples_used),
        "candidates": float(len(candidates)),
        "tie_broken": float(result.tie_broken),
    }
    return _finish(recovered, "mde", diag, truth)


#: The (method, family) pairs ``learn`` serves, in the order the CLI lists
#: methods.  Each entry calls a public learner by its module-global name at
#: call time, so a wrapper installed on that name sees the call.
ROUTES = {
    ("moments", Family.BINOMIAL_P): lambda data, grid, k, shared, pre, **kw:
        learn_binomial_moments(data, shared.n, grid.step, k, grid=grid, **kw),
    ("moments", Family.GEOMETRIC_U): lambda data, grid, k, shared, pre, **kw:
        learn_geometric(data, grid, k, "moments", **kw),
    ("pmf", Family.GEOMETRIC_P): lambda data, grid, k, shared, pre, **kw:
        learn_geometric(data, grid, k, "pmf", **kw),
    **{
        ("mde", family): lambda data, grid, k, shared, pre, **kw:
            learn_mde(data, grid.family, grid, k, shared, precomputed=pre, **kw)
        for family in Family if family in ANALYTIC_FAMILIES
    },
}


def _route(method: str, family: Family):
    route = ROUTES.get((method, family))
    if route is None:
        raise ContractError(f"method {method!r} does not apply to family {family.value}")
    return route


def learn(
    method: str,
    data: Optional[SampleDataset],
    grid: ParameterGrid,
    k: int,
    shared: SharedParams,
    oracle_spec: Optional[MixtureSpec] = None,
    truth: Optional[Sequence[int]] = None,
    precomputed=None,
) -> LearnResult:
    """Run the ``ROUTES`` learner for (method, grid.family); ``precomputed``
    (a ``precompute_mde`` table) reaches MDE only.  A dataset must be of
    ``grid.family``."""
    route = _route(method, grid.family)
    if data is not None and data.family is not grid.family:
        # the dataset's values were checked against its own family only
        raise DomainError(
            f"dataset family {data.family.value} disagrees with the learned "
            f"family {grid.family.value}"
        )
    return route(data, grid, k, shared, precomputed,
                 oracle_spec=oracle_spec, truth=truth)


def mde_sample_size(n_candidates: int, delta: float, constant: float = 8.0) -> int:
    """m = C log|Theta| / delta^2 with the unspecified constant exposed."""
    if not 0 < delta:
        raise DomainError("delta must be positive")
    return math.ceil(constant * math.log(n_candidates) / (delta * delta))


@dataclass(frozen=True)
class ExperimentConfig:
    family: Family
    method: str  # moments | pmf | mde
    eps: Fraction
    min_index: int
    max_index: int
    k: int
    truth: Tuple[int, ...]
    samples: int
    trials: int
    seed: int
    n: Optional[int] = None
    sigma: Optional[float] = None
    p: Optional[Fraction] = None
    oracle: bool = False

    def grid(self) -> ParameterGrid:
        return ParameterGrid(self.family, Fraction(self.eps), self.min_index, self.max_index)

    def shared(self) -> SharedParams:
        return SharedParams(n=self.n, sigma=self.sigma, p=self.p)

    def truth_spec(self) -> MixtureSpec:
        return uniform_spec(self.grid(), self.truth, self.shared())


@dataclass(frozen=True)
class TrialRow:
    """One trial's outcome.  A trial whose learner raises
    ``MomentInconsistencyError`` or ``ReconstructionError`` (a sample too
    small for the lattice) is a failed row: nothing recovered, a NaN score,
    and the error's class name in ``error``."""

    trial: int
    seed: int
    recovered: Tuple[int, ...]
    success: bool
    delta_or_residual: float
    error: Optional[str] = None


@dataclass(frozen=True)
class ExperimentReport:
    config: ExperimentConfig
    rows: Tuple[TrialRow, ...]
    successes: int
    trials: int
    wall_clock: float


#: Most trials of one experiment.  ``pool.map`` submits every trial before the
#: first result, and a pending trial holds 1,856 bytes (its future and work
#: item, traced with tracemalloc on CPython 3.11), so the cap bounds that
#: queue at about 186 MB.
_TRIAL_CAP = 100_000


def _run_trial(config: ExperimentConfig, trial: int, precomputed) -> TrialRow:
    dataset = None
    if not config.oracle:
        dataset = sample(config.truth_spec(), config.samples, config.seed, stream=trial)
    try:
        result = learn(
            config.method, dataset, config.grid(), config.k, config.shared(),
            oracle_spec=config.truth_spec() if config.oracle else None,
            truth=config.truth, precomputed=precomputed,
        )
    except (MomentInconsistencyError, ReconstructionError) as exc:
        # errors a sample can cause; any other (contract, domain, cap) aborts
        return TrialRow(trial=trial, seed=config.seed, recovered=(), success=False,
                        delta_or_residual=math.nan, error=type(exc).__name__)
    diag = result.diagnostics
    score = diag.get("delta", diag.get("max_solve_residual", 0.0))
    return TrialRow(
        trial=trial,
        seed=config.seed,
        recovered=result.recovered,
        success=bool(result.exact_match),
        delta_or_residual=score,
    )


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Per-trial sample -> learn -> compare; deterministic in the base seed
    (trial i uses sampling stream i).

    Trials run on ``min(CPUs, trials, SAMPLE_CAP // sample_bytes)`` threads
    (``min(CPUs, trials)`` in oracle mode), sharing the MDE tables, and each
    draws on ``CPUs // threads`` of the CPUs; the rows come back in trial
    order.  An aborting error in a trial is raised once the running trials
    end, and the trials not yet started are cancelled.
    """
    start = time.monotonic()
    _route(config.method, config.family)  # before any precompute or sampling
    if config.trials < 0:
        raise DomainError(f"trials must be nonnegative, got {config.trials}")
    if config.trials > _TRIAL_CAP:
        raise CapExceededError(f"{config.trials} trials exceed the cap {_TRIAL_CAP}")
    if len(config.truth) != config.k:
        raise DomainError(f"k={config.k} disagrees with {len(config.truth)} true indices")
    workers = max(1, min(sampling._sampling_threads, config.trials))
    if not config.oracle:  # the sample count too, and the draws held at once
        workers = min(workers, sampling.SAMPLE_CAP
                      // sampling._check_count(config.truth_spec(), config.samples))
    precomputed = None
    if config.method == "mde":
        precomputed = precompute_mde(_candidates(config.grid(), config.k, config.shared()))
    share = max(1, sampling._sampling_threads // workers)

    def run_trial(trial: int) -> TrialRow:
        sampling._draw_threads.set(share)  # in this pool thread's own context
        return _run_trial(config, trial, precomputed)

    from concurrent.futures import ThreadPoolExecutor  # not at import: it costs ~10 ms

    # map cancels the trials not yet started once a result raises, and the
    # pool's exit waits for the running ones
    with ThreadPoolExecutor(workers) as pool:
        rows = list(pool.map(run_trial, range(config.trials)))
    return ExperimentReport(
        config=config,
        rows=tuple(rows),
        successes=sum(r.success for r in rows),
        trials=config.trials,
        wall_clock=time.monotonic() - start,
    )
