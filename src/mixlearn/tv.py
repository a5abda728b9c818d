"""Certified total-variation distances, G-transforms, characteristic-function
lower bounds, and the pairwise separation survey."""

from __future__ import annotations

import cmath
import functools
import math
import sys
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .distributions import _component_pmf, _mix, cdf, char_fn, mgf_a2x, pdf_array, pmf_or_pdf
from .errors import (
    CapExceededError,
    CertificateUnavailableError,
    ContractError,
    DomainError,
    FamilyMismatchError,
)
from .grids import (
    ANALYTIC_FAMILIES,
    DISCRETE_FAMILIES,
    Family,
    MixtureSpec,
    ParameterGrid,
    SharedParams,
    candidate_family,
)

#: Most candidates a survey takes: C(C-1)/2 <= 200,000 pairs exactly when
#: C <= 632.
SURVEY_CAP = 632
#: Most t grid points of one characteristic-function certificate.
CHARFN_GRID_CAP = 2**20
#: Most entries of one discrete mass table (``mass_table``): 32 MB of float64.
MASS_TABLE_CAP = 2**22
#: Most points of one crossing scan (``density_crossings``): 32 MB of float64.
#: At the cap, ``density_crossings`` of a Gaussian pair 41,900 sigma apart
#: takes 0.24 s (Python 3.11, numpy 2.4, 2 vCPU): the run of 4.2 million
#: cells where both densities are 0 is bisected once at each end.
SCAN_GRID_CAP = 2**22


@dataclass(frozen=True)
class TvInterval:
    lo: float
    hi: float
    x_max: float
    tail_bound: float

    def __post_init__(self):
        if not 0.0 <= self.lo <= self.hi <= 1.0 + 1e-12:
            raise DomainError("TV interval must satisfy 0 <= lo <= hi <= 1")


@dataclass(frozen=True)
class TvCertificate:
    method: str  # "charfn" or "g-transform"
    witness_t: float
    value: float
    tail_term: float
    L: float


def _check_pair(a: MixtureSpec, b: MixtureSpec) -> None:
    if a.family is not b.family or a.shared != b.shared:
        raise FamilyMismatchError(
            "TV operations need matching family and shared parameters"
        )


def tail_certificate(
    family: Family, shared, params: Sequence, a: float, r: float,
    weights: Optional[Sequence] = None,
) -> float:
    """Bound on sum_{x >= r} a^x f(x), namely E[a^(2X)] / a^(r-1)."""
    if not 1.0 < a < math.inf or not math.isfinite(r):
        raise DomainError("tail certificate needs a finite a > 1 and a finite r")
    if not params:
        raise DomainError("tail certificate needs at least one parameter")
    if weights is None:
        weights = [1.0 / len(params)] * len(params)
    if len(weights) != len(params) or not all(0 <= w <= 1 for w in weights):
        raise DomainError("tail certificate needs one weight in [0, 1] per parameter")
    total = 0.0
    for w, v in zip(weights, params):
        e = mgf_a2x(family, shared, v, a)
        if math.isinf(e):
            raise CertificateUnavailableError(
                f"E[a^2X] diverges or passes the float range for {family.value} "
                f"at a={a}"
            )
        total += float(w) * e
    return _quotient_up(total, lambda: (math.log(total),), a, r - 1.0)


def _mass_tail_bound(spec: MixtureSpec, r: int) -> float:
    """Upper bound on the mixture mass at or beyond r (discrete families)."""
    fam = spec.family
    if fam is Family.BINOMIAL_P:
        return 0.0 if r > spec.shared.n else 1.0
    total = 0.0
    for w, v in spec.components():
        if fam in (Family.GEOMETRIC_P, Family.GEOMETRIC_U):
            p = float(v) if fam is Family.GEOMETRIC_P else 1.0 / float(v)
            total += float(w) * ((1.0 - p) ** r if p > 0.0 else 0.0)
            continue
        # E[a^2X] is exp(v * growth): it passes the float range for Poisson
        # rates above 236 and negative-binomial counts from 1024 on, its log
        # does not
        if fam is Family.POISSON:
            a, growth = 2.0, 3.0
        elif fam is Family.NEG_BINOMIAL:
            a = math.sqrt(0.5 * (1.0 + 1.0 / float(spec.shared.p)))
            growth = math.log(2.0)
        else:
            raise ContractError(f"no tail rule for {fam.value}")
        mgf = mgf_a2x(fam, spec.shared, v, a)
        log_mgf = math.log(mgf) if mgf < math.inf else float(v) * growth
        total += _quotient_up(
            float(w) * mgf,
            lambda: (math.log(w.numerator) - math.log(w.denominator), log_mgf),
            a, 2 * r - 1,
        )
    return total


def _quotient_up(
    numerator: float, logs: Callable[[], Tuple[float, ...]], a: float, power: float
) -> float:
    """numerator / a^power for a > 1, an upper bound on it past the float range.

    ``logs()`` gives the logs of the numerator's factors, which stay finite
    where the numerator itself overflows.  Where the float quotient
    overflows or leaves the normal range it is taken in log space, widened
    by a margin for the rounding of the logs and rounded up by one ulp: an
    underflow gives the smallest positive float, never 0, so the result
    stays an upper bound, and a quotient past the float range gives inf.
    """
    if numerator == 0.0:
        return 0.0
    try:
        bound = numerator / a ** power
        if sys.float_info.min <= bound < math.inf:
            return bound
    except (OverflowError, ZeroDivisionError):  # a^power left the float range
        pass
    terms = (*logs(), -power * math.log(a))
    margin = 8 * sys.float_info.epsilon * sum(map(abs, terms))
    try:
        return math.nextafter(math.exp(sum(terms) + margin), math.inf)
    except OverflowError:
        return math.inf


def discrete_truncation(spec: MixtureSpec, target: float) -> int:
    """Smallest truncation point r >= 1 with certified omitted mass <= target.

    ``_mass_tail_bound`` is nonincreasing in r, so doubling brackets the
    answer in (lo, hi] and bisection narrows it: about 2 log2(r) bounds.
    """
    if spec.family is Family.BINOMIAL_P:
        return spec.shared.n + 1
    limit = 10_000_000
    lo, hi = 0, 1
    while _mass_tail_bound(spec, hi) > target:
        if hi > limit:
            raise DomainError("truncation point search diverged")
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _mass_tail_bound(spec, mid) > target:
            lo = mid
        else:
            hi = mid
    if hi > limit:
        raise DomainError("truncation point search diverged")
    return hi


def mass_table(specs: Sequence[MixtureSpec], x_max: int) -> np.ndarray:
    """len(specs) x (x_max+1) table of the masses at 0..x_max of specs of one family
    and shared parameters, mixed by ``_mix`` from one row per distinct component.
    A table over ``MASS_TABLE_CAP`` entries is refused before any mass is evaluated."""
    if x_max < 0:
        raise DomainError(f"mass table end {x_max} is negative")
    width = x_max + 1
    if len(specs) * width > MASS_TABLE_CAP:
        raise CapExceededError(f"a {len(specs)} x {width} mass table exceeds the "
                               f"cap {MASS_TABLE_CAP}")
    fam, shared = specs[0].family, specs[0].shared
    component = lambda v: np.fromiter(
        (_component_pmf(fam, shared, v, x) for x in range(width)), float, width)
    return _mix(specs, component, np.zeros((len(specs), width)))


def _continuous_range(spec: MixtureSpec, target: float) -> Tuple[float, float]:
    if spec.family is Family.GAUSSIAN:
        s = spec.shared.sigma
        z = math.sqrt(2.0 * math.log(2.0 / target)) + 1.0
        mus = [float(v) for v in spec.values()]
        return min(mus) - z * s, max(mus) + z * s
    # chi-squared: expand until the CDF certifies the right tail
    hi = 8.0 * max(int(v) for v in spec.values()) + 16.0
    while 1.0 - cdf(spec, hi) > target:
        hi *= 2.0
    return 0.0, hi


def _scan_grid(lo: float, hi: float, step: float) -> np.ndarray:
    """lo, lo+step, (lo+step)+step, ... summed in sequence, ending at the first
    point that reaches hi, clipped to hi.  A grid of more than ``SCAN_GRID_CAP``
    points is refused before anything is allocated."""
    # refuses a step of 0 and an infinite or nan end too
    if not hi - lo <= (SCAN_GRID_CAP - 3) * step:
        raise CapExceededError(f"a crossing scan of [{lo:.6g}, {hi:.6g}] in steps of "
                               f"{step:.6g} exceeds the cap {SCAN_GRID_CAP} points")
    # one step more than needed: rounding in the running sum drifts by far
    # less than a step over the grid
    n = int((hi - lo) / step) + 2
    xs = np.full(n + 1, step)
    xs[0] = lo
    np.add.accumulate(xs, out=xs)  # in place: one grid-sized array
    end = int(np.argmax(xs >= hi))
    xs = xs[: end + 1]
    xs[end] = hi
    return xs


def _bisect(f: Callable[[float], float], a: float, b: float, tol: float) -> float:
    fa = f(a)
    for _ in range(200):
        if b - a <= tol:
            break
        mid = 0.5 * (a + b)
        fm = f(mid)
        if fm == 0.0:
            a = b = mid
            break
        if (fa < 0.0) == (fm < 0.0):
            a, fa = mid, fm
        else:
            b = mid
    return 0.5 * (a + b)


def density_crossings(a: MixtureSpec, b: MixtureSpec) -> List[float]:
    """Zero crossings of a - b located by sign scan plus bisection.

    The scan evaluates a - b on the grid lo, lo+step, ... (clipped at hi); each
    cell where a - b < 0 or a - b == 0 flips is bisected with the same density
    down to 1e-9 (times sigma for Gaussians).  A run of exact zeros, where
    both densities underflow or agree to the last bit, is bisected once at
    each end, except that one zero scan point between strictly positive and
    strictly negative neighbours is itself the crossing, reported once.
    """
    _check_pair(a, b)
    step = (a.shared.sigma / 100.0) if a.family is Family.GAUSSIAN else 0.05
    lo, hi = _continuous_range(a, 1e-12)
    lo2, hi2 = _continuous_range(b, 1e-12)
    lo, hi = min(lo, lo2), max(hi, hi2)
    if a.family is Family.CHI_SQUARED and min(a.values() + b.values()) == 1:
        # the chi-squared(1) density diverges at 0: start just inside
        lo = float(np.nextafter(0.0, 1.0))
    diff = lambda x: pmf_or_pdf(a, x) - pmf_or_pdf(b, x)
    scale = a.shared.sigma if a.family is Family.GAUSSIAN else 1.0
    xs = _scan_grid(lo, hi, step)
    d = pdf_array(a, xs)
    d -= pdf_array(b, xs)
    neg, zero = d < 0.0, d == 0.0
    flips = (neg[:-1] != neg[1:]) | (zero[:-1] != zero[1:])
    # both cells beside such a zero point flip, and it stands for them
    points = np.flatnonzero(zero[1:-1] & ~zero[:-2] & ~zero[2:] & (neg[:-2] != neg[2:])) + 1
    flips[points - 1] = flips[points] = False
    return sorted(
        [float(xs[i]) for i in points.tolist()]
        + [_bisect(diff, float(xs[i]), float(xs[i + 1]), 1e-9 * scale)
           for i in np.flatnonzero(flips).tolist()]
    )


def _tv_continuous(a: MixtureSpec, b: MixtureSpec, tol: float) -> TvInterval:
    target = tol / 4.0
    lo_a, hi_a = _continuous_range(a, target)
    lo_b, hi_b = _continuous_range(b, target)
    lo, hi = min(lo_a, lo_b), max(hi_a, hi_b)
    cuts = [lo] + [c for c in density_crossings(a, b) if lo < c < hi] + [hi]
    total = 0.0
    for x0, x1 in zip(cuts, cuts[1:]):
        # within one sign region the L1 mass is a CDF difference
        total += abs((cdf(a, x1) - cdf(a, x0)) - (cdf(b, x1) - cdf(b, x0)))
    partial = 0.5 * total
    tail = tol / 2.0  # omitted range mass plus CDF evaluation error budget
    return TvInterval(
        lo=max(partial - 1e-10, 0.0),
        hi=min(partial + tail, 1.0),
        x_max=hi,
        tail_bound=tail,
    )


def _tv_intervals(specs: Sequence[MixtureSpec], pairs: Sequence[Tuple[int, int]],
                  tol: float) -> Iterator[TvInterval]:
    """TV intervals of width <= tol for the pairs (i, j) of specs of one
    family.  A discrete pair reads its partial sum off the one mass table:
    the running sum of its |mass difference| row at its truncation point,
    added left to right by ``np.cumsum`` as by a plain loop."""
    if specs[0].family not in DISCRETE_FAMILIES:
        yield from (_tv_continuous(specs[i], specs[j], tol) for i, j in pairs)
        return
    rs = [discrete_truncation(spec, tol / 2.0) for spec in specs]
    masses = mass_table(specs, max(rs) - 1)
    tail_of = functools.lru_cache(None)(lambda i, r: _mass_tail_bound(specs[i], r))
    for i, j in pairs:
        r = max(rs[i], rs[j])
        partial = 0.5 * float(np.cumsum(np.abs(masses[i] - masses[j]))[r - 1])
        tail = 0.5 * (tail_of(i, r) + tail_of(j, r))
        yield TvInterval(min(partial, 1.0), min(partial + tail, 1.0), r, tail)


def tv_exact(a: MixtureSpec, b: MixtureSpec, tol: float = 1e-9) -> TvInterval:
    """Two-sided interval of width <= tol around the true TV distance."""
    _check_pair(a, b)
    if not 0.0 < tol < math.inf:
        raise DomainError("tolerance must be positive and finite")
    return next(_tv_intervals((a, b), [(0, 1)], tol))


@dataclass(frozen=True)
class GTransform:
    """Family-specific G_t with E[G_t(X)] = z^theta (times a family factor)."""

    family: Family
    t: float
    evaluate: Callable[[float], complex]
    modulus_bound: Callable[[float], float]
    expected: Callable[[float], complex]


def g_transform(family: Family, shared, t: float) -> GTransform:
    z = cmath.exp(1j * t)
    if family is Family.GAUSSIAN:
        sigma = shared.sigma
        factor = math.exp(-0.5 * sigma * sigma * t * t)
        return GTransform(
            family, t,
            evaluate=lambda x: cmath.exp(1j * t * x),
            modulus_bound=lambda x: 1.0,
            expected=lambda theta: factor * z**theta,
        )
    if family is Family.POISSON:
        w = 1.0 + 1j * t
        return GTransform(
            family, t,
            evaluate=lambda x: w**x,
            modulus_bound=lambda x: (1.0 + t * t) ** (x / 2.0),
            expected=lambda theta: z**theta,
        )
    if family is Family.CHI_SQUARED:
        half = 0.5 - 0.5 * cmath.exp(-2j * t)
        growth = 0.5 * (1.0 - math.cos(2.0 * t))  # exact |G_t(x)| exponent / x
        return GTransform(
            family, t,
            evaluate=lambda x: cmath.exp(half * x),
            modulus_bound=lambda x: math.exp(growth * x),
            expected=lambda theta: z**theta,
        )
    if family is Family.NEG_BINOMIAL:
        p = float(shared.p)
        w = 1.0 / p - (1.0 / p - 1.0) * cmath.exp(-1j * t)
        wmod = math.sqrt(
            (p * p + 4.0 * (1.0 - p) * math.sin(t / 2.0) ** 2) / (p * p)
        )
        return GTransform(
            family, t,
            evaluate=lambda x: w**x,
            modulus_bound=lambda x: wmod**x,
            expected=lambda theta: z**theta,
        )
    raise ContractError(f"no G-transform for family {family.value}")


def _charfn_certificates(specs: Sequence[MixtureSpec], pairs: Sequence[Tuple[int, int]],
                         L: float, grid_points: int = 1024) -> Iterator[TvCertificate]:
    """Certificates for the pairs (i, j), read off one char-fn row per spec."""
    if not 0.0 < L < math.inf:
        raise DomainError("L must be positive and finite")
    if grid_points < 3:
        raise DomainError("need at least 3 grid points")
    if grid_points > CHARFN_GRID_CAP:
        raise CapExceededError(
            f"{grid_points} grid points exceed the cap {CHARFN_GRID_CAP}"
        )
    ts = np.linspace(-math.pi / L, math.pi / L, grid_points)
    rows = [char_fn(spec, ts) for spec in specs]
    for i, j in pairs:
        # fmax turns a nan (a closed form overflowed at huge |t|) into 0,
        # which never becomes the witness
        vals = np.fmax(0.5 * np.abs(rows[i] - rows[j]), 0.0)
        best = int(np.argmax(vals))
        best_t = float(ts[best]) if vals[best] > 0.0 else 0.0
        yield TvCertificate("charfn", best_t, float(vals[best]), tail_term=0.0, L=L)


def tv_lower_bound_charfn(
    a: MixtureSpec, b: MixtureSpec, L: float, grid_points: int = 1024
) -> TvCertificate:
    """Max of |C_a(t) - C_b(t)| / 2 on a uniform t grid over [-pi/L, pi/L];
    any grid point is a valid TV lower bound, so no optimality is claimed.
    The witness is the first grid point attaining the maximum (0.0 when
    every value is 0)."""
    _check_pair(a, b)
    return next(_charfn_certificates((a, b), [(0, 1)], L, grid_points))


@dataclass(frozen=True)
class SurveyRow:
    pair_a: Tuple[int, ...]
    pair_b: Tuple[int, ...]
    tv_lo: float
    tv_hi: float
    charfn_bound: float
    witness_t: float


@dataclass(frozen=True)
class SurveySummary:
    rows: Tuple[SurveyRow, ...]
    min_tv_lo: float
    implied_constant: float  # c in min TV = k^-1 exp(-c N^(1/3))
    L: float


def separation_survey(
    family: Family,
    shared: SharedParams,
    grid: ParameterGrid,
    k: int,
    L: Optional[float] = None,
) -> SurveySummary:
    """Exact TV and characteristic-function bound for every pair of distinct
    k-subsets on the grid."""
    if family not in ANALYTIC_FAMILIES:
        raise ContractError("survey applies to the analytic families")
    N = grid.max_index
    if N < 1:
        raise DomainError("the survey needs a grid reaching index 1 or more")
    if L is None:
        L = max(1.0, float(N) ** (1.0 / 3.0))
    specs = candidate_family(grid, k, shared, cap=SURVEY_CAP)
    if len(specs) < 2:
        raise DomainError("the survey needs at least two candidates")
    pairs = list(combinations(range(len(specs)), 2))
    # the certificates come first: they check L before any TV work
    rows = [
        SurveyRow(specs[i].indices, specs[j].indices, interval.lo, interval.hi,
                  cert.value, cert.witness_t)
        for (i, j), cert, interval in zip(
            pairs, _charfn_certificates(specs, pairs, L), _tv_intervals(specs, pairs, 1e-9))
    ]
    min_tv = min(r.tv_lo for r in rows)
    implied = (
        -math.log(max(min_tv * k, 1e-300)) / float(N) ** (1.0 / 3.0)
        if min_tv > 0
        else math.inf
    )
    return SurveySummary(
        rows=tuple(rows), min_tv_lo=min_tv, implied_constant=implied, L=L
    )
