"""Power-sum recovery: moments -> integer power sums of the hidden index
multiset, multiset reconstruction via Newton's identities, and exhaustive
verification of the subset/multiset identifiability theorems.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .errors import (
    AmbiguityError,
    CapExceededError,
    ContractError,
    DegeneracyError,
    MomentInconsistencyError,
    ReconstructionError,
)
from .grids import Family, ParameterGrid, SharedParams
from .moments import RESIDUAL_WARNING, round_to_lattice
from .polynomials import compose_affine, moment_polynomial

@dataclass(frozen=True)
class PowerSumVector:
    """m_0..m_T with m_ell = sum over the index multiset of index**ell."""

    values: Tuple[int, ...]

    def __post_init__(self):
        vals = tuple(int(v) for v in self.values)
        object.__setattr__(self, "values", vals)
        if not vals or vals[0] < 1:
            raise MomentInconsistencyError("m_0 must be the component count k >= 1")
        if any(v < 0 for v in vals):
            raise MomentInconsistencyError("power sums must be nonnegative")

    @property
    def k(self) -> int:
        return self.values[0]

    @property
    def T(self) -> int:
        return len(self.values) - 1


def _round_integer(x: Fraction, what: str) -> Tuple[int, Fraction]:
    rounding = round_to_lattice(x, Fraction(1))
    if rounding.flagged:
        raise MomentInconsistencyError(
            f"{what} = {x} is {float(rounding.residual):.3f} from an integer "
            f"(tolerance {RESIDUAL_WARNING})"
        )
    return int(rounding.rounded), rounding.residual


@lru_cache(maxsize=1024)
def _solve_coefficients(
    family: Family, shared: SharedParams, offset: int, step: Fraction, ell: int
) -> Tuple[int, Tuple[int, ...]]:
    """(den, D): observable ell at the grid value offset + alpha*step is
    sum_j D_j alpha^j / den, with integer D_j.  They depend on nothing
    sampled, so every solve over the same grid shares them; tuples, so the
    cached value cannot be changed by a caller."""
    d = compose_affine(moment_polynomial(family, shared, ell), offset, step)
    den = math.lcm(*(c.denominator for c in d))
    return den, tuple(c.numerator * (den // c.denominator) for c in d)


def _triangular_solve(
    observables: Sequence[Fraction],
    first: int,
    family: Family,
    shared: SharedParams,
    grid: ParameterGrid,
    k: int,
    truncate_after: Optional[int],
) -> Tuple[PowerSumVector, List[Fraction]]:
    """Solve observables first..T for consecutive power sums m_1, m_2, ...

    Observable ell is ``moment_polynomial(family, shared, ell)`` at the grid
    value 1 + alpha*step (u-grid) or alpha*step (p-grids).  Rewritten in the
    index alpha, k times it equals sum_j d_j m_j, and its degree is the
    order of the power sum it determines, so the system is triangular.
    Each solved m_j is rounded to the nearest integer (tolerance 1/4), so
    empirical observables with small enough error are accepted too.  With
    ``truncate_after`` set, an inconsistency at an order beyond it stops the
    solve there instead of raising: orders above k are redundant for
    reconstruction, and on sampled data their noise grows with the order.
    """
    offset = 1 if family is Family.GEOMETRIC_U else 0
    m: List[int] = [k]
    residuals: List[Fraction] = [Fraction(0)]
    for ell in range(first, len(observables)):
        den, d = _solve_coefficients(family, shared, offset, grid.step, ell)
        order = len(d) - 1
        # raw = (k * obs - sum_{j < order} d_j m_j / den) * den / d_order,
        # with m_0 = k, as one Fraction over integers
        a, b = observables[ell].numerator, observables[ell].denominator
        known = sum(dj * mj for dj, mj in zip(d[:order], m))
        raw = Fraction(k * den * a - b * known, b * d[order])
        try:
            val, res = _round_integer(raw, f"power sum m_{order}")
            if val < 0 or val > k * grid.max_index**order:
                raise MomentInconsistencyError(
                    f"power sum m_{order} = {val} outside "
                    f"[0, k * max_index^{order}]"
                )
        except MomentInconsistencyError:
            if truncate_after is not None and order > truncate_after:
                break
            raise
        m.append(val)
        residuals.append(res)
    return PowerSumVector(tuple(m)), residuals


def moments_to_power_sums(
    moments: Sequence[Fraction],
    family: Family,
    shared: SharedParams,
    grid: ParameterGrid,
    k: int,
    truncate_after: Optional[int] = None,
) -> Tuple[PowerSumVector, List[Fraction]]:
    """Raw moments M_0..M_T (M_ell of degree ell in the index) to power
    sums m_0..m_T, with the solve residual of each order."""
    moments = [Fraction(m) for m in moments]
    if moments[0] != 1:
        raise MomentInconsistencyError("M_0 must equal 1")
    if family not in (Family.BINOMIAL_P, Family.GEOMETRIC_U):
        raise ContractError(f"no moment route for family {family.value}")
    T = len(moments) - 1
    if family is Family.BINOMIAL_P:
        if shared.n is None:
            raise ContractError("binomial-p needs shared n")
        if shared.n < T:
            raise DegeneracyError(
                f"trial count n={shared.n} below moment order T={T}"
            )
    return _triangular_solve(moments, 1, family, shared, grid, k, truncate_after)


def pmf_to_power_sums(
    probs: Sequence[Fraction],
    grid: ParameterGrid,
    k: int,
    truncate_after: Optional[int] = None,
) -> Tuple[PowerSumVector, List[Fraction]]:
    """Geometric p-grid: pmf values P_0..P_T (P_ell of degree ell + 1 in the
    index) to power sums m_0..m_(T+1); m_0 = k by convention."""
    if grid.family is not Family.GEOMETRIC_P:
        raise ContractError("pmf route applies to the geometric p-grid")
    probs = [Fraction(p) for p in probs]
    return _triangular_solve(
        probs, 0, Family.GEOMETRIC_P, SharedParams(), grid, k, truncate_after
    )


def newton_to_elementary(m: PowerSumVector) -> List[int]:
    """Elementary symmetric values e_1..e_k from power sums m_1..m_k."""
    k = m.k
    if m.T < k:
        raise ContractError(f"need power sums up to order k={k}")
    e: List[Fraction] = [Fraction(1)]
    for ell in range(1, k + 1):
        acc = Fraction(0)
        for i in range(1, ell + 1):
            acc += (-1) ** (i - 1) * e[ell - i] * m.values[i]
        e.append(acc / ell)
    out = []
    for ell, val in enumerate(e[1:], start=1):
        if val.denominator != 1:
            raise MomentInconsistencyError(
                f"elementary symmetric e_{ell} = {val} is not an integer"
            )
        out.append(int(val))
    return out


def _roots_with_multiplicity(
    elementary: Sequence[int], k: int, domain: range
) -> Optional[List[int]]:
    # monic x^k - e1 x^(k-1) + ... + (-1)^k ek, integer roots by trial
    # evaluation and synthetic division over the finite domain.
    coeffs = [1]  # descending degree
    for i, e in enumerate(elementary, start=1):
        coeffs.append((-1) ** i * e)
    roots: List[int] = []
    candidates = list(domain)
    while len(roots) < k:
        for r in candidates:
            # synthetic division by (x - r)
            quo = [coeffs[0]]
            for c in coeffs[1:]:
                quo.append(c + r * quo[-1])
            if quo[-1] == 0:
                roots.append(r)
                coeffs = quo[:-1]
                break
        else:
            return None
    return sorted(roots)


def _brute_force_multisets(m: PowerSumVector, domain: range) -> List[Tuple[int, ...]]:
    """All multisets over the domain matching every given power sum, found by
    depth-first search over nonincreasing element choices with budget pruning.
    Stops after two solutions, which already make the answer ambiguous."""
    k, target = m.k, m.values
    T = m.T
    found: List[Tuple[int, ...]] = []
    lo = domain.start

    def search(prefix: List[int], budget: List[int], vmax: int):
        if len(found) >= 2:
            return
        remaining = k - len(prefix)
        if remaining == 0:
            if all(b == 0 for b in budget):
                found.append(tuple(sorted(prefix)))
            return
        for v in range(min(vmax, domain.stop - 1), lo - 1, -1):
            ok = True
            new_budget = []
            for ell in range(T + 1):
                b = budget[ell] - (v**ell if ell else 1)
                # remaining-1 further elements, each in [lo, v]
                low = remaining - 1 if ell == 0 else (remaining - 1) * lo**ell
                high = remaining - 1 if ell == 0 else (remaining - 1) * v**ell
                if not low <= b <= high:
                    ok = False
                    break
                new_budget.append(b)
            if ok:
                search(prefix + [v], new_budget, v)
            if len(found) >= 2:
                return

    search([], list(target), domain.stop - 1)
    return found


def reconstruct_multiset(
    m: PowerSumVector,
    domain: range,
    verify_orders: Optional[int] = None,
) -> Tuple[int, ...]:
    """Recover the sorted index multiset from its power sums.

    With T >= k the monic polynomial built from Newton's identities is
    factored by trial roots; otherwise an exhaustive pruned search must find
    exactly one solution.  Verification covers all supplied power sums by
    default; ``verify_orders`` limits it (sampled pipelines pass k, since
    m_1..m_k already determine the multiset and higher orders carry the
    most sampling noise).
    """
    k = m.k
    check_to = m.T if verify_orders is None else min(m.T, max(verify_orders, k))
    if m.T >= k:
        elementary = newton_to_elementary(m)
        roots = _roots_with_multiplicity(elementary, k, domain)
        if roots is not None:
            if all(
                sum(r**ell for r in roots) == m.values[ell]
                for ell in range(check_to + 1)
            ):
                return tuple(roots)
        raise ReconstructionError(
            f"no multiset over {domain} matches power sums {m.values}"
        )
    solutions = _brute_force_multisets(m, domain)
    if not solutions:
        raise ReconstructionError(
            f"no multiset over {domain} matches power sums {m.values}"
        )
    if len(solutions) > 1:
        raise AmbiguityError(
            f"power sums {m.values} admit multiple multisets", solutions
        )
    return solutions[0]


def _ceil_sqrt_ratio(num: int, den: int) -> int:
    """Smallest integer T with T^2 >= num / den (exact)."""
    T = math.isqrt(num // den)
    while T * T * den < num:
        T += 1
    return T


def log_of_theorem_bound(n: int, q: int = 2, mode: str = "sets") -> int:
    """The identifiability order promised by the combinatorial theorems:
    ceil(4 sqrt(n)) for sets, ceil(2 sqrt(q n ln(q n))) for bounded
    multisets (natural log; the source leaves the base unspecified)."""
    if n < 1:
        raise ContractError("n must be at least 1")
    if mode == "sets":
        return _ceil_sqrt_ratio(16 * n, 1)
    if mode == "multisets":
        if q < 2:
            raise ContractError("multiset mode needs q >= 2")
        return math.ceil(2 * math.sqrt(q * n * math.log(q * n)))
    raise ContractError(f"unknown mode {mode!r}")


@dataclass(frozen=True)
class IdentifiabilityReport:
    n: int
    q: int
    mode: str
    T_theorem: int
    T_minimal: int
    collision: Optional[Tuple[Tuple[int, ...], Tuple[int, ...], int]]
    object_count: int

    def to_report(self) -> str:
        lines = [
            f"n={self.n}",
            f"q={self.q}",
            f"mode={self.mode}",
            f"objects={self.object_count}",
            f"T_theorem={self.T_theorem}",
            f"T_minimal={self.T_minimal}",
        ]
        if self.collision:
            a, b, order = self.collision
            lines.append(
                f"collision_at_order={order} a={list(a)} b={list(b)}"
            )
        else:
            lines.append("collision=none")
        lines.append("note=multiset bound uses the natural logarithm")
        return "\n".join(lines) + "\n"


#: Most objects (2^n subsets or q^n multisets) one sweep enumerates.  The
#: refinement peaks near 80 bytes per object: n = 22 subsets take 1.9 s and
#: 320 MB, while n = 24 took 10 s and 1.16 GB (2 cores, numpy 2.4).
ENUMERATION_CAP = 2**22


def _digit_multiplicities(n: int, q: int, mode: str) -> Tuple[int, ...]:
    """How often each base-B digit puts its value into the object.

    The object at position p holds v with multiplicity ``mults[d_v]``, d_v
    being the digit of p of weight B^(n-1-v), B = len(mults).  Multisets
    take mults = (0..q-1), so positions follow the q-ary enumeration order.
    Subsets take mults = (1, 0): within one size, increasing position is
    ``combinations`` order.  Raises before anything is allocated when the
    B^n objects exceed ``ENUMERATION_CAP``.
    """
    if mode == "sets":
        mults, noun = (1, 0), "subsets"
    elif mode == "multisets":
        mults, noun = tuple(range(q)), "multisets"
    else:
        raise ContractError(f"unknown mode {mode!r}")
    # a base of 2 or more passes the cap by n = its bit length; the
    # bound keeps a huge n from building a huge power
    if n >= ENUMERATION_CAP.bit_length() or len(mults) ** n > ENUMERATION_CAP:
        raise CapExceededError(
            f"{len(mults)}^{n} {noun} exceed the cap {ENUMERATION_CAP}"
        )
    return mults


def _signature_csv(n: int, q: int, mode: str, T: int) -> Iterator[str]:
    """The (object, signature) CSV lines of a sweep, one string per block of
    4,096 objects: each object with its ``power_sum_signature`` up to order
    T, read from ``_positional_power_sums``, each value space-separated and
    every line ended by ``\\r\\n``, as ``csv.writer`` writes fields that
    need no quoting.  Multisets come in position order (the q-ary
    enumeration order), subsets by size, each size in ``combinations``
    order (a stable sort of the positions by size).  An object's text is
    its high digits' text (values 0..n//2-1) then its low digits' text (the
    others), each read from a table over every setting of those digits, as
    the power sums are, with a space before each value that the line
    drops."""
    mults = _digit_multiplicities(n, q, mode)
    base = len(mults)
    positions = np.arange(base ** n)
    if mode == "sets":
        sizes = _positional_power_sums(n, mults, 0, positions)
        positions = positions[np.argsort(sizes, kind="stable")]

    def table(values: range) -> List[str]:
        # the first value's digit is the most significant
        texts = [""]
        for v in values:
            texts = [text + f" {v}" * m for text in texts for m in mults]
        return texts

    highs, lows = table(range(n // 2)), table(range(n // 2, n))
    for lo in range(0, len(positions), 2**12):
        block = positions[lo:lo + 2**12]
        high, low = np.divmod(block, base ** (n - n // 2))
        sums = [map(str, _positional_power_sums(n, mults, ell, block).tolist())
                for ell in range(T + 1)]
        yield "".join(f"{(highs[h] + lows[l])[1:]},{' '.join(signature)}\r\n"
                      for h, l, *signature in zip(high.tolist(), low.tolist(), *sums))


def _object_at(n: int, mults: Tuple[int, ...], position: int) -> Tuple[int, ...]:
    """The sorted object at a position (see ``_digit_multiplicities``)."""
    base = len(mults)
    out: List[int] = []
    for v in range(n - 1, -1, -1):
        position, digit = divmod(position, base)
        out[:0] = (v,) * mults[digit]
    return tuple(out)


def _positional_power_sums(
    n: int, mults: Tuple[int, ...], ell: int, positions: np.ndarray
) -> np.ndarray:
    """Order-ell power sums of the objects at ``positions``, exact.

    A position's sum is its high digits' sum (values 0..n//2-1) plus its low
    digits' sum (the other values), each read from a table over every
    setting of those digits built by digit doubling: int64 while every sum
    fits, else exact Python ints (an object array).
    """
    base = len(mults)
    dtype = object if max(mults) * n * (n - 1) ** ell >= 2**63 else np.int64

    def table(values: range) -> np.ndarray:
        ps = np.zeros(base ** len(values), dtype=dtype)
        size = 1
        for v in reversed(values):
            # block 0 is read by the others, so it is updated last
            for digit in range(base - 1, -1, -1):
                ps[digit * size:(digit + 1) * size] = ps[:size] + mults[digit] * v**ell
            size *= base
        return ps

    high, low = np.divmod(positions, base ** (n - n // 2))
    return table(range(n // 2))[high] + table(range(n // 2, n))[low]


def _refine(
    positions: np.ndarray, groups: np.ndarray, values: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Split each group by ``values`` and drop the parts of one member.

    Returns the kept members' positions and new group ids; a group's
    members are contiguous, in no particular order.  The parts are numbered
    by (parent group, smallest position): the order in which a dict keyed
    by signature would first meet them.  Values are compared for equality
    only, so where the (group, value) key would not fit in int64 they are
    replaced by dense ids first.
    """
    if values.dtype == object or (int(groups.max()) + 1) * (
        int(values.max()) - int(values.min()) + 1
    ) >= 2**63:
        values = np.unique(values, return_inverse=True)[1]
    low = int(values.min())
    span = int(values.max()) - low + 1
    perm = np.argsort(groups * span + (values - low))
    positions, groups, values = positions[perm], groups[perm], values[perm]
    starts = np.flatnonzero(
        np.concatenate(([True], (groups[1:] != groups[:-1]) | (values[1:] != values[:-1])))
    )
    lengths = np.diff(starts, append=len(positions))
    kept = lengths > 1
    smallest = np.minimum.reduceat(positions, starts)[kept]
    parents = groups[starts[kept]]
    rank = np.empty(len(smallest), dtype=np.int64)
    rank[np.argsort(parents * (int(positions.max()) + 1) + smallest)] = np.arange(len(smallest))
    return positions[np.repeat(kept, lengths)], np.repeat(rank, lengths[kept])


def verify_identifiability(
    n: int, q: int = 2, mode: str = "sets", T: Optional[int] = None
) -> IdentifiabilityReport:
    """Exhaustively check that power sums up to the theorem order separate
    all subsets of {0..n-1} (or bounded-multiplicity multisets), and find the
    minimal separating order.

    Objects are positions in an array (``_digit_multiplicities``).  They are
    grouped by size, in increasing size, then each order's power sums split
    the groups that still have two or more members, until none is left.  A
    ``collision`` names the two first members of the first such group in
    enumeration order.
    """
    T_theorem = log_of_theorem_bound(n, q, mode)
    T_max = T if T is not None else T_theorem
    mults = _digit_multiplicities(n, q, mode)
    count = len(mults) ** n
    positions = np.arange(count, dtype=np.int32)  # the cap is far below 2^31
    # one group per size, numbered in increasing size
    sizes = _positional_power_sums(n, mults, 0, positions)
    positions, groups = _refine(positions, sizes, np.zeros_like(sizes))

    def witness(order):
        first = np.sort(positions[groups == 0])[:2]
        a, b = (_object_at(n, mults, int(p)) for p in first)
        return a, b, order

    collision = None
    order = 0
    while len(positions) and order < T_max:
        order += 1
        positions, groups = _refine(
            positions, groups, _positional_power_sums(n, mults, order, positions)
        )
        if order == T_theorem - 1 and len(positions):
            # any pair still unseparated here is tightness evidence
            collision = witness(order)
    if len(positions):
        collision = witness(T_max)
        T_minimal = T_max + 1  # lower bound: not separated yet
    else:
        T_minimal = order
    return IdentifiabilityReport(
        n=n,
        q=q,
        mode=mode,
        T_theorem=T_theorem,
        T_minimal=max(1, T_minimal),
        collision=collision,
        object_count=count,
    )


def power_sum_signature(obj: Sequence[int], T: int) -> Tuple[int, ...]:
    """(m_0..m_T) of a multiset, exact integers."""
    return tuple(sum(v**ell for v in obj) if ell else len(obj) for ell in range(T + 1))
