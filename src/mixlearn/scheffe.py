"""Scheffe sets and the minimum distance estimator over a finite candidate
family."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .distributions import cdf, pmf_or_pdf
from .errors import (
    CapExceededError,
    ContractError,
    DomainError,
    FamilyMismatchError,
)
from .grids import (  # perfbench/tracer.py wraps mixlearn.scheffe.candidate_family
    CANDIDATE_CAP,
    DISCRETE_FAMILIES,
    Family,
    MixtureSpec,
    candidate_family,
)
from .sampling import SampleDataset
from .tv import density_crossings, discrete_truncation, mass_table


#: Most entries C * C(C-1)/2 of ``precompute_mde``'s candidate x set table,
#: so C <= 322.  Measured on Poisson k = 2 candidates (Python 3.11, 2 vCPU):
#: C = 210 takes 1.8 s with a 90 MB traced peak, C = 300 4.5 s with 249 MB
#: (a 103 MB table).
MDE_TABLE_CAP = 2**24


@dataclass(frozen=True)
class ScheffeSet:
    """{x : M(x) >= M'(x)} for a candidate pair; discrete sets are the
    points of [0, x_max] where the inequality holds, continuous sets a
    union of disjoint closed intervals."""

    kind: str  # "discrete" | "intervals"
    points: Tuple[int, ...] = ()
    x_max: int = 0
    intervals: Tuple[Tuple[float, float], ...] = ()
    provenance: Optional[Tuple[int, int]] = None

    def __post_init__(self):
        if self.kind not in ("discrete", "intervals"):
            raise ContractError(f"unknown Scheffe set kind {self.kind!r}")
        if self.kind == "intervals":
            prev = -math.inf
            for lo, hi in self.intervals:
                if lo > hi or lo < prev:
                    raise DomainError("intervals must be disjoint and sorted")
                prev = hi


def _set_x_max(spec: MixtureSpec) -> int:
    """Largest point a discrete Scheffe set covers: the truncation point,
    capped at the binomial's trial count, where its support ends."""
    r = discrete_truncation(spec, 1e-9)
    return min(r, spec.shared.n) if spec.family is Family.BINOMIAL_P else r


def scheffe_set(
    a: MixtureSpec,
    b: MixtureSpec,
    x_max: Optional[int] = None,
    provenance: Optional[Tuple[int, int]] = None,
    masses: Optional[Tuple[np.ndarray, np.ndarray]] = None,
) -> ScheffeSet:
    """The set {x : a(x) >= b(x)}.

    ``masses`` is internal to ``precompute_mde``: a's and b's masses at
    0..x_max, already evaluated as two equal-length rows of its density
    table, from which the discrete set is read instead of evaluating the
    masses point by point.  It fixes x_max, so it excludes ``x_max``.
    """
    if a.family is not b.family or a.shared != b.shared:
        raise FamilyMismatchError("Scheffe sets need matching families")
    if masses is not None:
        mass_a, mass_b = masses
        if a.family not in DISCRETE_FAMILIES:
            raise ContractError("masses apply to discrete families only")
        if x_max is not None:
            raise ContractError("give x_max or masses, not both")
        if len(mass_a) != len(mass_b) or len(mass_a) == 0:
            raise ContractError("masses must be two equal-length, non-empty rows")
    if a.family in DISCRETE_FAMILIES:
        if masses is not None:
            pts = tuple(np.flatnonzero(mass_a >= mass_b).tolist())
            return ScheffeSet(kind="discrete", points=pts, x_max=len(mass_a) - 1,
                              provenance=provenance)
        if x_max is None:
            x_max = max(_set_x_max(a), _set_x_max(b))
        pts = tuple(
            x for x in range(x_max + 1) if pmf_or_pdf(a, x) >= pmf_or_pdf(b, x)
        )
        return ScheffeSet(kind="discrete", points=pts, x_max=x_max,
                          provenance=provenance)
    crossings = density_crossings(a, b)
    if not crossings:
        # no crossing: either identical (full support by convention) or one
        # density dominates everywhere in the scanned range
        probe = float(sum(a.values()) / len(a.values()))
        full = pmf_or_pdf(a, probe) >= pmf_or_pdf(b, probe)
        ivs = ((-math.inf, math.inf),) if full else ()
        return ScheffeSet(kind="intervals", intervals=ivs, provenance=provenance)
    edges = [-math.inf] + crossings + [math.inf]
    ivs: List[Tuple[float, float]] = []
    for lo, hi in zip(edges, edges[1:]):
        if math.isinf(lo) and math.isinf(hi):
            mid = crossings[0]
        elif math.isinf(lo):
            # chi-squared densities live on [0, inf): probe inside the support
            mid = 0.5 * hi if a.family is Family.CHI_SQUARED else hi - 1.0
        elif math.isinf(hi):
            mid = lo + 1.0
        else:
            mid = 0.5 * (lo + hi)
        if pmf_or_pdf(a, mid) >= pmf_or_pdf(b, mid):
            if ivs and ivs[-1][1] == lo:
                ivs[-1] = (ivs[-1][0], hi)
            else:
                ivs.append((lo, hi))
    return ScheffeSet(kind="intervals", intervals=tuple(ivs),
                      provenance=provenance)


def empirical_measure(data: SampleDataset, s: ScheffeSet) -> Fraction:
    """Exact fraction of the samples falling in the set."""
    if len(data) == 0:
        raise DomainError("empty dataset")
    vals = data.values
    if s.kind == "discrete":
        if not s.points:
            return Fraction(0)
        lut = np.zeros(s.x_max + 1, dtype=bool)
        lut[list(s.points)] = True
        in_range = vals <= s.x_max
        hits = int(lut[vals[in_range]].sum())
        return Fraction(hits, len(data))
    hits = 0
    xs = np.sort(vals)
    for lo, hi in s.intervals:
        hits += int(np.searchsorted(xs, hi, side="right")
                    - np.searchsorted(xs, lo, side="left"))
    return Fraction(hits, len(data))


def set_probability(spec: MixtureSpec, s: ScheffeSet) -> float:
    """Candidate probability of the set: the pmf summed in point order, or a
    sum of CDF differences in interval order.

    The sum is a plain left-to-right float loop, not ``sum``, which uses
    compensated summation from Python 3.12 on; so results do not depend on
    the Python version, and ``precompute_mde``'s table sums match them bit
    for bit.
    """
    total = 0.0
    if s.kind == "discrete":
        for x in s.points:
            total += pmf_or_pdf(spec, x)
        return total
    for lo, hi in s.intervals:
        hi_v = 1.0 if math.isinf(hi) else cdf(spec, hi)
        lo_v = 0.0 if math.isinf(lo) else cdf(spec, lo)
        total += hi_v - lo_v
    return total


#: MDE tie rule: every candidate scoring within TIE_ULPS units in the last
#: place of 1.0 (TIE_ULPS * 2**-52) of the smallest score is tied, and the
#: smallest index tuple among them wins.  Scores and set probabilities lie in
#: [0, 1], and summing a set probability in another order moves it by a few
#: such units, so closer scores are not told apart.
TIE_ULPS = 8


@dataclass(frozen=True)
class MdeResult:
    """``delta`` is the winner's score: its largest discrepancy to the
    empirical (or true) measure over the Scheffe sets; ``tie_broken`` says
    that another candidate scored within the TIE_ULPS tolerance of it."""

    winner: int
    delta: float
    scores: Tuple[float, ...]
    tie_broken: bool
    sets: Tuple[ScheffeSet, ...] = ()


def _membership(sets: Sequence[ScheffeSet]) -> np.ndarray:
    """(x_max+1) x len(sets) 0/1 matrix of the discrete sets' points."""
    sizes = [len(s.points) for s in sets]
    rows = np.fromiter(chain.from_iterable(s.points for s in sets),
                       dtype=np.intp, count=sum(sizes))
    member = np.zeros((max(s.x_max for s in sets) + 1, len(sets)), dtype=np.int64)
    member[rows, np.repeat(np.arange(len(sets)), sizes)] = 1
    return member


def _table_set_probabilities(masses: np.ndarray, member: np.ndarray) -> np.ndarray:
    """masses @ member, each entry summed in point order as set_probability
    sums it: adding the masses of the points outside a set adds exact
    zeros, which leaves every partial sum unchanged."""
    total = np.zeros((masses.shape[0], member.shape[1]))
    for x in range(member.shape[0]):
        total += masses[:, x, None] * member[x]
    return total


def _discrete_hits(values: np.ndarray, sets: Sequence[ScheffeSet]) -> np.ndarray:
    member = _membership(sets)
    # numpy 1.x bincount refuses uint64; the kept values fit in intp
    kept = values[values < member.shape[0]].astype(np.intp, copy=False)
    hist = np.bincount(kept, minlength=member.shape[0])
    return hist @ member


def _interval_hits(values: np.ndarray, sets: Sequence[ScheffeSet]) -> np.ndarray:
    xs = np.sort(values)
    los = np.array([lo for s in sets for lo, _ in s.intervals])
    his = np.array([hi for s in sets for _, hi in s.intervals])
    counts = (np.searchsorted(xs, his, side="right")
              - np.searchsorted(xs, los, side="left"))
    hits = np.zeros(len(sets), dtype=np.int64)
    np.add.at(hits, np.repeat(np.arange(len(sets)), [len(s.intervals) for s in sets]),
              counts)
    return hits


def precompute_mde(
    candidates: Sequence[MixtureSpec],
) -> Tuple[List[ScheffeSet], np.ndarray]:
    """Scheffe sets for every unordered candidate pair and the candidate
    set-probability matrix, computed once and shared across repeated
    selections (read-only).

    Complements carry the same discrepancy, so unordered pairs suffice.  For
    discrete families each candidate's masses at 0..x_max are evaluated once
    into one table; the sets and set probabilities are read off it.
    """
    if len(candidates) < 2:
        raise ContractError("MDE needs at least 2 candidates")
    fam, shared = candidates[0].family, candidates[0].shared
    for c in candidates[1:]:
        if c.family is not fam or c.shared != shared:
            raise FamilyMismatchError("candidates must share family/parameters")
    count = len(candidates)
    entries = count * (count * (count - 1) // 2)
    if entries > MDE_TABLE_CAP:
        raise CapExceededError(
            f"{count} candidates make a {entries}-entry set-probability table, "
            f"over the cap {MDE_TABLE_CAP}"
        )
    pairs = list(combinations(range(count), 2))
    if fam not in DISCRETE_FAMILIES:
        sets = [scheffe_set(candidates[i], candidates[j], provenance=(i, j))
                for i, j in pairs]
        probs = np.array([[set_probability(c, s) for s in sets] for c in candidates])
        return sets, probs
    x_max = max(_set_x_max(c) for c in candidates)
    masses = mass_table(candidates, x_max)
    sets = [
        scheffe_set(candidates[i], candidates[j], provenance=(i, j),
                    masses=(masses[i], masses[j]))
        for i, j in pairs
    ]
    return sets, _table_set_probabilities(masses, _membership(sets))


def mde_select(
    candidates: Sequence[MixtureSpec],
    data: Optional[SampleDataset] = None,
    truth: Optional[MixtureSpec] = None,
    precomputed: Optional[Tuple[List[ScheffeSet], np.ndarray]] = None,
) -> MdeResult:
    """Minimum distance estimator: pick the candidate minimizing the largest
    discrepancy to the empirical measure over all pairwise Scheffe sets.

    Oracle mode (``truth`` given instead of ``data``) scores against the true
    set probabilities, isolating the selection rule from sampling noise.

    The empirical measure of every set comes from one pass over the data: a
    histogram times the sets' membership matrix for discrete sets, one sort
    and one searchsorted over all interval ends for continuous sets.  It
    equals ``empirical_measure`` set by set.
    """
    if (data is None) == (truth is None):
        raise ContractError("provide exactly one of data or truth")
    sets, probs = precomputed if precomputed is not None else precompute_mde(candidates)
    if truth is not None:
        emp = np.array([set_probability(truth, s) for s in sets])
    else:
        if len(data) == 0:
            raise DomainError("empty dataset")
        discrete = sets[0].kind == "discrete"  # one family, so one kind
        hits = (_discrete_hits if discrete else _interval_hits)(data.values, sets)
        emp = hits / len(data)
    scores = np.abs(probs - emp[None, :]).max(axis=1)
    tol = TIE_ULPS * np.finfo(np.float64).eps
    tied = np.flatnonzero(scores <= scores.min() + tol).tolist()
    winner = min(tied, key=lambda i: candidates[i].indices)
    return MdeResult(
        winner=winner,
        delta=float(scores[winner]),
        scores=tuple(float(s) for s in scores),
        tie_broken=len(tied) > 1,
        sets=tuple(sets),
    )
