"""Power-sum recovery: moments -> integer power sums of the hidden index
multiset, multiset reconstruction via Newton's identities, and exhaustive
verification of the subset/multiset identifiability theorems.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import isqrt
from typing import Dict, List, Optional, Sequence, Tuple

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
from .polynomials import moment_polynomial

ENUMERATION_CAP = 2**24


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
def _index_coefficients(
    family: Family, shared: SharedParams, offset: int, step: Fraction, ell: int
) -> Tuple[Fraction, ...]:
    """Coefficients d_j (in the index alpha) of observable ell at the grid
    value offset + alpha*step.  They depend on nothing sampled, so every
    solve over the same grid shares them; a tuple, so the cached value
    cannot be changed by a caller."""
    return tuple(moment_polynomial(family, shared, ell).compose_affine(offset, step))


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
        d = _index_coefficients(family, shared, offset, grid.step, ell)
        order = len(d) - 1
        acc = k * observables[ell] - d[0] * k  # d_0 multiplies m_0 = k
        for j in range(1, order):
            acc -= d[j] * m[j]
        raw = acc / d[order]
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


def _brute_force_multisets(
    m: PowerSumVector, domain: range, limit: int = 2
) -> List[Tuple[int, ...]]:
    """All multisets over the domain matching every given power sum, found by
    depth-first search over nonincreasing element choices with budget pruning.
    Stops after ``limit`` solutions."""
    k, target = m.k, m.values
    T = m.T
    found: List[Tuple[int, ...]] = []
    lo = domain.start

    def search(prefix: List[int], budget: List[int], vmax: int):
        if len(found) >= limit:
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
            if len(found) >= limit:
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
    solutions = _brute_force_multisets(m, domain, limit=2)
    if not solutions:
        raise ReconstructionError(
            f"no multiset over {domain} matches power sums {m.values}"
        )
    if len(solutions) > 1:
        raise AmbiguityError(
            f"power sums {m.values} admit multiple multisets", solutions
        )
    return solutions[0]


def log_of_theorem_bound(n: int, q: int = 2, mode: str = "sets") -> int:
    """The identifiability order promised by the combinatorial theorems:
    ceil(4 sqrt(n)) for sets, ceil(2 sqrt(q n ln(q n))) for bounded
    multisets (natural log; the source leaves the base unspecified)."""
    if n < 1:
        raise ContractError("n must be at least 1")
    if mode == "sets":
        s = isqrt(16 * n)
        return s if s * s == 16 * n else s + 1
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
    log_base_note: str = "multiset bound uses the natural logarithm"

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
        lines.append(f"note={self.log_base_note}")
        return "\n".join(lines) + "\n"


def _enumerate_objects(n: int, q: int, mode: str) -> List[Tuple[int, ...]]:
    if mode == "sets":
        total = 2**n
        if total > ENUMERATION_CAP:
            raise CapExceededError(f"{total} subsets exceed the cap")
        out: List[Tuple[int, ...]] = []
        for size in range(n + 1):
            out.extend(combinations(range(n), size))
        return out
    if mode == "multisets":
        total = q**n
        if total > ENUMERATION_CAP:
            raise CapExceededError(f"{total} multisets exceed the cap")
        out = [()]
        for v in range(n):
            out = [
                obj + (v,) * mult for obj in out for mult in range(q)
            ]
        return out
    raise ContractError(f"unknown mode {mode!r}")


def verify_identifiability(
    n: int, q: int = 2, mode: str = "sets", T: Optional[int] = None
) -> IdentifiabilityReport:
    """Exhaustively check that power sums up to the theorem order separate
    all subsets of {0..n-1} (or bounded-multiplicity multisets), and find the
    minimal separating order."""
    T_theorem = log_of_theorem_bound(n, q, mode)
    T_max = T if T is not None else T_theorem
    objects = _enumerate_objects(n, q, mode)

    # incremental signature refinement: group, then split by the next order
    groups: Dict[Tuple[int, ...], List[int]] = {}
    for i, obj in enumerate(objects):
        groups.setdefault((len(obj),), []).append(i)
    def witness(grps):
        for members in grps.values():
            if len(members) > 1:
                return objects[members[0]], objects[members[1]]
        return None

    T_minimal = None
    collision = None
    order = 0
    while order < T_max:
        order += 1
        nxt: Dict[Tuple[int, ...], List[int]] = {}
        for key, members in groups.items():
            if len(members) == 1:
                nxt[key] = members
                continue
            for i in members:
                sig = key + (sum(v**order for v in objects[i]),)
                nxt.setdefault(sig, []).append(i)
        groups = nxt
        if order == T_theorem - 1:
            # any pair still unseparated here is tightness evidence
            pair = witness(groups)
            if pair is not None:
                collision = (pair[0], pair[1], order)
        if T_minimal is None and all(len(v) == 1 for v in groups.values()):
            T_minimal = order
    if T_minimal is None:
        pair = witness(groups)
        if pair is not None:
            collision = (pair[0], pair[1], T_max)
        T_minimal = T_max + 1  # lower bound: not separated yet
    return IdentifiabilityReport(
        n=n,
        q=q,
        mode=mode,
        T_theorem=T_theorem,
        T_minimal=max(1, T_minimal),
        collision=collision,
        object_count=len(objects),
    )


def power_sum_signature(obj: Sequence[int], T: int) -> Tuple[int, ...]:
    """(m_0..m_T) of a multiset, exact integers."""
    return tuple(sum(v**ell for v in obj) if ell else len(obj) for ell in range(T + 1))
