"""Scheffe sets and the minimum distance estimator over a finite candidate
family."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import chain, combinations
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .distributions import cdf, pmf_or_pdf
from .errors import (
    CapExceededError,
    ContractError,
    DomainError,
    FamilyMismatchError,
)
from .grids import (  # perfbench/tracer.py wraps mixlearn.scheffe.candidate_family
    DISCRETE_FAMILIES,
    Family,
    MixtureSpec,
    candidate_family,
)
from .moments import _histogram
from .sampling import SampleDataset
from .tv import density_crossings, discrete_truncation, mass_table


#: Most entries C * C(C-1)/2 of ``precompute_mde``'s candidate x set table,
#: so C <= 322.  Measured on Poisson k = 2 candidates (Python 3.11, 2 vCPU):
#: C = 300 takes about 3 s with a 155 MB traced peak, of which the record
#: keeps 151 MB: the 108 MB table and the (x_max+1) x sets int64 membership
#: matrix (23 MiB) the set probabilities are computed with.  A selection
#: takes its |gap| table ``_SCORE_BLOCK`` entries at a time, so its traced
#: peak at C = 300, the record included, is 152 MB.
MDE_TABLE_CAP = 2**24
#: entries of the product temporary ``_table_set_probabilities`` holds at
#: once (2 MiB of float64), unless one row holds more
_SET_BLOCK = 2**18
#: entries of the |gap| temporary ``mde_select`` holds at once (1 MiB of
#: float64), unless one row holds more
_SCORE_BLOCK = 2**17


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
        if self.kind == "discrete" and not (
                0 <= min(self.points, default=0) <= max(self.points, default=0) <= self.x_max):
            raise DomainError("discrete set points must lie in [0, x_max], x_max >= 0")
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


def _discrete_sets(masses: np.ndarray, pairs: Sequence[Tuple[int, int]]) -> List[ScheffeSet]:
    """The set of each pair (i, j), read off rows i and j of one mass table."""
    return [ScheffeSet(kind="discrete", x_max=masses.shape[1] - 1, provenance=(i, j),
                       points=tuple(np.flatnonzero(masses[i] >= masses[j]).tolist()))
            for i, j in pairs]


def _interval_set(a: MixtureSpec, b: MixtureSpec,
                  provenance: Optional[Tuple[int, int]]) -> ScheffeSet:
    """{x : a(x) >= b(x)} for continuous densities: the sign of a - b probed
    once between each pair of neighbouring crossings."""
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
        if math.isinf(lo):
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


def scheffe_set(
    a: MixtureSpec,
    b: MixtureSpec,
    x_max: Optional[int] = None,
    provenance: Optional[Tuple[int, int]] = None,
) -> ScheffeSet:
    """The set {x : a(x) >= b(x)}; a discrete set covers 0..x_max, by
    default the larger of the two truncation points, read off a two-row
    ``mass_table`` (which refuses an x_max past its cap before any mass is
    evaluated)."""
    if a.family is not b.family or a.shared != b.shared:
        raise FamilyMismatchError("Scheffe sets need matching families")
    if a.family not in DISCRETE_FAMILIES:
        return _interval_set(a, b, provenance)
    if x_max is None:
        x_max = max(_set_x_max(a), _set_x_max(b))
    (s,) = _discrete_sets(mass_table((a, b), x_max), [(0, 1)])
    return replace(s, provenance=provenance)


def _membership(sets: Sequence[ScheffeSet]) -> np.ndarray:
    """(x_max+1) x len(sets) 0/1 matrix of the discrete sets' points."""
    sizes = [len(s.points) for s in sets]
    rows = np.fromiter(chain.from_iterable(s.points for s in sets),
                       dtype=np.intp, count=sum(sizes))
    member = np.zeros((max(s.x_max for s in sets) + 1, len(sets)), dtype=np.int64)
    member[rows, np.repeat(np.arange(len(sets)), sizes)] = 1
    return member


@dataclass(frozen=True, eq=False)  # arrays have no truth value to compare by
class MdeTables:
    """Scheffe sets with what every selection over them reads, built once by
    ``precompute_mde`` and shared read-only (``run_experiment``'s trial
    threads share one): ``probs``, the candidates x sets set-probability
    table, and, to count a dataset's hits, the (x_max+1) x sets int64
    membership matrix ``member`` for discrete sets, or for interval sets
    every interval's ends ``los`` and ``his``, flattened in set order, with
    the index ``owner`` of the set each belongs to."""

    sets: Tuple[ScheffeSet, ...]
    probs: np.ndarray
    member: Optional[np.ndarray] = None
    los: Optional[np.ndarray] = None
    his: Optional[np.ndarray] = None
    owner: Optional[np.ndarray] = None

    def __post_init__(self):
        object.__setattr__(self, "sets", tuple(self.sets))
        for name in ("probs", "member", "los", "his", "owner"):
            arr = getattr(self, name)
            if arr is not None:
                view = np.asarray(arr).view()  # the caller's array stays writable
                view.flags.writeable = False
                object.__setattr__(self, name, view)


def _table_set_probabilities(masses: np.ndarray, member: np.ndarray) -> np.ndarray:
    """masses @ member, each entry summed left to right in point order (not
    by ``sum``, which compensates from Python 3.12 on): adding the masses of
    the points outside a set adds exact zeros, which leaves every partial
    sum unchanged.  The candidates are taken ``_SET_BLOCK`` entries of the
    table at a time (or one row), so a product temporary never spans it."""
    total = np.zeros((masses.shape[0], member.shape[1]))
    rows = max(1, _SET_BLOCK // member.shape[1])
    product = np.empty((min(rows, total.shape[0]), member.shape[1]))
    for lo in range(0, total.shape[0], rows):
        block = total[lo : lo + rows]
        terms = product[: block.shape[0]]
        for x in range(member.shape[0]):
            np.multiply(masses[lo : lo + rows, x, None], member[x], out=terms)
            block += terms
    return total


def _set_probabilities(specs: Sequence[MixtureSpec], sets: Sequence[ScheffeSet],
                       member: Optional[np.ndarray],
                       masses: Optional[np.ndarray] = None) -> np.ndarray:
    """len(specs) x len(sets) table of set probabilities: the specs' mass
    table (``masses`` where given) times the membership matrix ``member``
    for discrete sets, sums of CDF differences in interval order for
    continuous ones."""
    discrete = specs[0].family in DISCRETE_FAMILIES
    if (sets[0].kind == "discrete") != discrete:
        raise FamilyMismatchError(f"{specs[0].family.value} spec on Scheffe sets of another kind")
    if discrete:
        if masses is None:
            masses = mass_table(specs, member.shape[0] - 1)
        return _table_set_probabilities(masses, member)
    table = np.zeros((len(specs), len(sets)))
    for row, spec in zip(table, specs):
        for col, s in enumerate(sets):
            total = 0.0
            for lo, hi in s.intervals:
                hi_v = 1.0 if math.isinf(hi) else cdf(spec, hi)
                lo_v = 0.0 if math.isinf(lo) else cdf(spec, lo)
                total += hi_v - lo_v
            row[col] = total
    return table


def _tables(sets: Sequence[ScheffeSet], specs: Sequence[MixtureSpec] = (),
            masses: Optional[np.ndarray] = None) -> MdeTables:
    """The record of ``sets``, all of one kind, with the set probabilities
    of ``specs`` (read off their mass table ``masses`` where given)."""
    if sets[0].kind == "discrete":
        member, ends = _membership(sets), {}
    else:
        member, ends = None, {
            "los": np.array([lo for s in sets for lo, _ in s.intervals]),
            "his": np.array([hi for s in sets for _, hi in s.intervals]),
            "owner": np.repeat(np.arange(len(sets)), [len(s.intervals) for s in sets]),
        }
    probs = (_set_probabilities(specs, sets, member, masses) if specs
             else np.zeros((0, len(sets))))
    return MdeTables(sets, probs, member, **ends)


def _hits(data: SampleDataset, tables: MdeTables) -> np.ndarray:
    """Samples in each set, from one pass over the data: a histogram times
    the membership matrix for discrete sets, one sort and one searchsorted
    over all interval ends for continuous ones."""
    if len(data) == 0:
        raise DomainError("empty dataset")
    member = tables.member
    if (data.family in DISCRETE_FAMILIES) != (member is not None):
        raise DomainError(f"{data.family.value} dataset on Scheffe sets of another kind")
    if member is not None:
        # every value past x_max lands in one last bin, which is dropped
        return _histogram(data.values, member.shape[0])[:-1] @ member
    xs = np.sort(data.values)
    counts = (np.searchsorted(xs, tables.his, side="right")
              - np.searchsorted(xs, tables.los, side="left"))
    hits = np.zeros(len(tables.sets), dtype=np.int64)
    np.add.at(hits, tables.owner, counts)
    return hits


def empirical_measure(data: SampleDataset, s: ScheffeSet) -> Fraction:
    """Exact fraction of the samples falling in the set."""
    return Fraction(int(_hits(data, _tables([s]))[0]), len(data))


def set_probability(spec: MixtureSpec, s: ScheffeSet) -> float:
    """Candidate probability of the set: the pmf summed in point order, or a
    sum of CDF differences in interval order."""
    return float(_tables([s], [spec]).probs[0, 0])


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


def precompute_mde(candidates: Sequence[MixtureSpec]) -> MdeTables:
    """Scheffe sets for every unordered candidate pair, with the candidate
    set-probability table and the membership matrix or interval ends that
    count a dataset's hits, computed once and shared read-only across
    repeated selections.

    Complements carry the same discrepancy, so unordered pairs suffice.  For
    discrete families each candidate's masses at 0..x_max are evaluated once
    into one ``mass_table``; the sets are read off it, and the set
    probabilities are it times the membership matrix the record keeps.
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
        return _tables([_interval_set(candidates[i], candidates[j], (i, j)) for i, j in pairs],
                       candidates)
    masses = mass_table(candidates, max(_set_x_max(c) for c in candidates))
    return _tables(_discrete_sets(masses, pairs), candidates, masses)


def mde_select(
    candidates: Sequence[MixtureSpec],
    data: Optional[SampleDataset] = None,
    truth: Optional[MixtureSpec] = None,
    precomputed: Optional[MdeTables] = None,
) -> MdeResult:
    """Minimum distance estimator: pick the candidate minimizing the largest
    discrepancy to the empirical measure over all pairwise Scheffe sets.

    ``precomputed`` is the candidates' ``precompute_mde`` record, built here
    when not given.  Oracle mode (``truth`` given instead of ``data``)
    scores against the true set probabilities, one truth row times the
    record's membership matrix (or CDF differences over its intervals),
    isolating the selection rule from sampling noise.  Sampled mode counts
    every set's samples in one ``_hits`` pass over the record.
    """
    if (data is None) == (truth is None):
        raise ContractError("provide exactly one of data or truth")
    tables = precompute_mde(candidates) if precomputed is None else precomputed
    if not isinstance(tables, MdeTables):
        raise ContractError("precomputed must be the MdeTables record precompute_mde returns")
    if tables.probs.shape[0] != len(candidates):
        raise ContractError(f"precomputed tables for {tables.probs.shape[0]} candidates, "
                            f"not {len(candidates)}")
    fam = candidates[0].family
    if truth is not None:
        if truth.family is not fam or truth.shared != candidates[0].shared:
            raise FamilyMismatchError("truth must share the candidates' family/parameters")
        emp = _set_probabilities([truth], tables.sets, tables.member)[0]
    else:
        if data.family is not fam:
            raise DomainError(f"dataset family {data.family.value} disagrees with the "
                              f"candidates' family {fam.value}")
        emp = _hits(data, tables) / len(data)
    # each row's largest |gap|, one block of rows at a time in one buffer of
    # at most _SCORE_BLOCK entries (or one row)
    scores = np.empty(len(candidates))
    rows = max(1, _SCORE_BLOCK // emp.size)
    gaps = np.empty((min(rows, scores.size), emp.size))
    for lo in range(0, scores.size, rows):
        hi = min(lo + rows, scores.size)
        block = gaps[: hi - lo]
        np.subtract(tables.probs[lo:hi], emp, out=block)
        np.abs(block, out=block).max(axis=1, out=scores[lo:hi])
    tol = TIE_ULPS * np.finfo(np.float64).eps
    tied = np.flatnonzero(scores <= scores.min() + tol).tolist()
    winner = min(tied, key=lambda i: candidates[i].indices)
    return MdeResult(
        winner=winner,
        delta=float(scores[winner]),
        scores=tuple(float(s) for s in scores),
        tie_broken=len(tied) > 1,
        sets=tables.sets,
    )
