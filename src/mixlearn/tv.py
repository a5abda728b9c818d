"""Certified total-variation distances, G-transforms, characteristic-function
lower bounds, and the pairwise separation survey."""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .distributions import cdf, char_fn, mgf_a2x, pdf_array, pmf_or_pdf
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
    if a <= 1.0:
        raise DomainError("tail certificate needs a > 1")
    if weights is None:
        weights = [1.0 / len(params)] * len(params)
    total = 0.0
    for w, v in zip(weights, params):
        e = mgf_a2x(family, shared, v, a)
        if math.isinf(e):
            raise CertificateUnavailableError(
                f"E[a^2X] diverges for {family.value} at a={a}"
            )
        total += float(w) * e
    return total / a ** (r - 1.0)


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
        if fam is Family.POISSON:
            a = 2.0
        elif fam is Family.NEG_BINOMIAL:
            a = math.sqrt(0.5 * (1.0 + 1.0 / float(spec.shared.p)))
        else:
            raise ContractError(f"no tail rule for {fam.value}")
        total += _certificate_tail(w, mgf_a2x(fam, spec.shared, v, a), a, r)
    return total


def _certificate_tail(weight: Fraction, mgf: float, a: float, r: int) -> float:
    """weight * E[a^2X] / a^(2r-1): the a^x certificate's bound on one
    component's mass at or beyond r.

    Where the float quotient overflows or leaves the normal range it is
    taken in log space, widened by a margin for the rounding of the logs and
    rounded up by one ulp: an underflow gives the smallest positive float,
    never 0, so the result stays an upper bound.
    """
    try:
        bound = float(weight) * mgf / a ** (2 * r - 1)
        if bound >= sys.float_info.min:
            return bound
    except OverflowError:
        pass
    logs = (
        math.log(weight.numerator) - math.log(weight.denominator),
        math.log(mgf),
        -(2 * r - 1) * math.log(a),
    )
    margin = 8 * sys.float_info.epsilon * sum(map(abs, logs))
    return math.nextafter(math.exp(sum(logs) + margin), math.inf)


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


def _tv_discrete(a: MixtureSpec, b: MixtureSpec, tol: float) -> TvInterval:
    target = tol / 2.0
    r = max(discrete_truncation(a, target), discrete_truncation(b, target))
    total = 0.0  # a plain loop: ``sum`` compensates from Python 3.12 on
    for x in range(r):
        total += abs(pmf_or_pdf(a, x) - pmf_or_pdf(b, x))
    partial = 0.5 * total
    tail = 0.5 * (_mass_tail_bound(a, r) + _mass_tail_bound(b, r))
    return TvInterval(
        lo=min(partial, 1.0), hi=min(partial + tail, 1.0), x_max=r, tail_bound=tail
    )


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
    point that reaches hi, clipped to hi."""
    # one step more than needed: rounding in the running sum drifts by far
    # less than a step over the grid
    n = int((hi - lo) / step) + 2
    xs = np.add.accumulate(np.r_[lo, np.full(n, step)])
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
    cell whose left value is zero or whose ends differ in sign is bisected
    with the same density down to 1e-9 (times sigma for Gaussians).
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
    d = pdf_array(a, xs) - pdf_array(b, xs)
    neg = d < 0.0
    cells = np.flatnonzero((d[:-1] == 0.0) | (neg[:-1] != neg[1:]))
    return [
        _bisect(diff, float(xs[i]), float(xs[i + 1]), 1e-9 * scale)
        for i in cells.tolist()
    ]


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


def tv_exact(a: MixtureSpec, b: MixtureSpec, tol: float = 1e-9) -> TvInterval:
    """Two-sided interval of width <= tol around the true TV distance."""
    _check_pair(a, b)
    if not 0.0 < tol < math.inf:
        raise DomainError("tolerance must be positive and finite")
    if a.family in DISCRETE_FAMILIES:
        return _tv_discrete(a, b, tol)
    return _tv_continuous(a, b, tol)


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


def tv_lower_bound_charfn(
    a: MixtureSpec, b: MixtureSpec, L: float, grid_points: int = 1024
) -> TvCertificate:
    """Max of |C_a(t) - C_b(t)| / 2 on a uniform t grid over [-pi/L, pi/L];
    any grid point is a valid TV lower bound, so no optimality is claimed.
    The witness is the first grid point attaining the maximum (0.0 when
    every value is 0)."""
    _check_pair(a, b)
    if not 0.0 < L < math.inf:
        raise DomainError("L must be positive and finite")
    if grid_points < 3:
        raise DomainError("need at least 3 grid points")
    if grid_points > CHARFN_GRID_CAP:
        raise CapExceededError(
            f"{grid_points} grid points exceed the cap {CHARFN_GRID_CAP}"
        )
    ts = np.linspace(-math.pi / L, math.pi / L, grid_points)
    # fmax turns a nan (a closed form overflowed at huge |t|) into 0, which
    # never becomes the witness
    vals = np.fmax(0.5 * np.abs(char_fn(a, ts) - char_fn(b, ts)), 0.0)
    best = int(np.argmax(vals))
    best_t = float(ts[best]) if vals[best] > 0.0 else 0.0
    return TvCertificate(
        method="charfn", witness_t=best_t, value=float(vals[best]), tail_term=0.0, L=L
    )


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
    rows: List[SurveyRow] = []
    for a, b in combinations(specs, 2):
        interval = tv_exact(a, b)
        cert = tv_lower_bound_charfn(a, b, L)
        rows.append(
            SurveyRow(
                pair_a=a.indices,
                pair_b=b.indices,
                tv_lo=interval.lo,
                tv_hi=interval.hi,
                charfn_bound=cert.value,
                witness_t=cert.witness_t,
            )
        )
    min_tv = min(r.tv_lo for r in rows)
    implied = (
        -math.log(max(min_tv * k, 1e-300)) / float(N) ** (1.0 / 3.0)
        if min_tv > 0
        else math.inf
    )
    return SurveySummary(
        rows=tuple(rows), min_tv_lo=min_tv, implied_constant=implied, L=L
    )
