"""Parameter grids and mixture specifications.

A grid maps integer indices to component parameters; a mixture spec pins a
multiset of grid indices plus weights and family-shared parameters.  All
parameter values are exact ``Fraction`` objects so that downstream moment
algebra never sees floating-point error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from enum import Enum
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from numbers import Integral
from typing import List, Optional, Sequence, Tuple

from .errors import CapExceededError, ContractError, DomainError


class Family(str, Enum):
    GAUSSIAN = "gaussian"
    POISSON = "poisson"
    BINOMIAL_P = "binomial-p"
    GEOMETRIC_P = "geometric-p"
    GEOMETRIC_U = "geometric-u"
    CHI_SQUARED = "chi-squared"
    NEG_BINOMIAL = "neg-binomial"


#: Families whose grid step must be 1 and whose index is the parameter itself.
UNIT_STEP_FAMILIES = frozenset(
    {Family.POISSON, Family.CHI_SQUARED, Family.NEG_BINOMIAL}
)

#: Families handled by the analytic (characteristic-function) machinery.
ANALYTIC_FAMILIES = frozenset(
    {Family.GAUSSIAN, Family.POISSON, Family.CHI_SQUARED, Family.NEG_BINOMIAL}
)

#: Discrete families (integer-valued samples).
DISCRETE_FAMILIES = frozenset(
    {
        Family.POISSON,
        Family.BINOMIAL_P,
        Family.GEOMETRIC_P,
        Family.GEOMETRIC_U,
        Family.NEG_BINOMIAL,
    }
)


@dataclass(frozen=True)
class ParameterGrid:
    """Discretization of a one-parameter family.

    ``step`` is the probability step for the p-grids, the mean spacing for
    Gaussians, and must be 1 for the integer-indexed families.  Index alpha
    maps to ``origin + alpha * step``, the origin being 1 for geometric-u
    (``u = 1/p = 1 + alpha * step``) and 0 for every other family: p for
    binomial-p and geometric-p, the mean for gaussian, and the index itself
    for poisson, chi-squared and neg-binomial (step 1).
    """

    family: Family
    step: Fraction = Fraction(1)
    min_index: int = 0
    max_index: int = 0

    def __post_init__(self):
        step = Fraction(self.step)
        object.__setattr__(self, "step", step)
        if step <= 0:
            raise DomainError("grid step must be positive")
        if self.min_index > self.max_index:
            raise DomainError("min_index must not exceed max_index")
        if self.family in UNIT_STEP_FAMILIES and step != 1:
            raise DomainError(f"{self.family.value} grids use step 1")
        if self.family in (Family.BINOMIAL_P, Family.GEOMETRIC_P):
            if self.min_index < 0:
                raise DomainError("probability index must be nonnegative")
            if self.max_index * step > 1:
                raise DomainError("probability grid exceeds 1")
        if self.family is Family.CHI_SQUARED and self.min_index < 1:
            # dof 0 has no density; the grid starts at 1.
            raise DomainError("chi-squared grid indices start at 1")
        if self.family in (Family.POISSON, Family.GEOMETRIC_U) and self.min_index < 0:
            raise DomainError("grid indices must be nonnegative")
        if self.family is Family.NEG_BINOMIAL and self.min_index < 1:
            raise DomainError("negative-binomial grid indices start at 1")

    @property
    def inverse_step_integral(self) -> bool:
        """True when 1/step is an integer (the lattice-rounding assumption)."""
        return (1 / self.step).denominator == 1

    def value(self, index: int) -> Fraction:
        """Exact parameter value at a grid index."""
        if not self.min_index <= index <= self.max_index:
            raise DomainError(f"index {index} outside grid range")
        return (1 if self.family is Family.GEOMETRIC_U else 0) + index * self.step

    def indices(self) -> range:
        return range(self.min_index, self.max_index + 1)

    @property
    def size(self) -> int:
        return self.max_index - self.min_index + 1


@dataclass(frozen=True)
class SharedParams:
    """Family-shared parameters known to the learner.

    ``n`` is the binomial trial count (an integer, kept as ``int``),
    ``sigma`` the Gaussian standard deviation, ``p`` the negative-binomial
    success-count parameter.
    """

    n: Optional[int] = None
    sigma: Optional[float] = None
    p: Optional[Fraction] = None

    def __post_init__(self):
        if self.p is not None:
            object.__setattr__(self, "p", Fraction(self.p))
            if not 0 < self.p < 1:
                raise DomainError("shared p must lie in (0,1)")
        if self.sigma is not None and not 0 < self.sigma < math.inf:
            raise DomainError("sigma must be positive and finite")
        if self.n is not None:
            if not isinstance(self.n, Integral):
                raise DomainError(f"trial count must be an integer, got {self.n!r}")
            object.__setattr__(self, "n", int(self.n))
            if self.n < 1:
                raise DomainError("trial count must be at least 1")


def _require_shared(family: Family, shared: SharedParams) -> None:
    if family is Family.BINOMIAL_P and shared.n is None:
        raise ContractError("binomial-p requires shared trial count n")
    if family is Family.GAUSSIAN and shared.sigma is None:
        raise ContractError("gaussian requires shared sigma")
    if family is Family.NEG_BINOMIAL and shared.p is None:
        raise ContractError("neg-binomial requires shared p")


@dataclass(frozen=True)
class MixtureSpec:
    """A grid, a sorted multiset of component indices, and weights."""

    grid: ParameterGrid
    indices: Tuple[int, ...]
    weights: Tuple[Fraction, ...] = ()
    shared: SharedParams = field(default_factory=SharedParams)

    def __post_init__(self):
        raw = [int(i) for i in self.indices]
        order = sorted(range(len(raw)), key=raw.__getitem__)
        idx = tuple(raw[o] for o in order)
        object.__setattr__(self, "indices", idx)
        if len(self.weights) == len(raw):
            # each weight belongs to the index given beside it
            object.__setattr__(self, "weights", tuple(self.weights[o] for o in order))
        if not idx:
            raise DomainError("mixture needs at least one component")
        for i in idx:
            if not self.grid.min_index <= i <= self.grid.max_index:
                raise DomainError(f"component index {i} outside grid")
        if self.family in ANALYTIC_FAMILIES and len(set(idx)) != len(idx):
            raise DomainError(
                f"{self.family.value} mixtures require distinct parameters"
            )
        k = len(idx)
        if self.weights:
            w = tuple(Fraction(x) for x in self.weights)
        else:
            w = tuple(Fraction(1, k) for _ in idx)
        object.__setattr__(self, "weights", w)
        if len(w) != k:
            raise DomainError("one weight per component required")
        if any(x <= 0 for x in w):
            raise DomainError("weights must be positive")
        if sum(w) != 1:
            raise DomainError("weights must sum exactly to 1")
        _require_shared(self.family, self.shared)

    @property
    def family(self) -> Family:
        return self.grid.family

    @property
    def k(self) -> int:
        return len(self.indices)

    @cached_property
    def _values(self) -> Tuple[Fraction, ...]:
        # kept in the instance dict on first use; not being a field, it is
        # ignored by equality and hashing, and __getstate__ leaves it out
        # of pickles
        return tuple(self.grid.value(i) for i in self.indices)

    def __getstate__(self):
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def values(self) -> Tuple[Fraction, ...]:
        """Component parameter values, in index order."""
        return self._values

    def components(self) -> Sequence[Tuple[Fraction, Fraction]]:
        """(weight, parameter value) pairs."""
        return list(zip(self.weights, self._values))


def uniform_spec(
    grid: ParameterGrid, indices: Sequence[int], shared: SharedParams = SharedParams()
) -> MixtureSpec:
    """Uniform-weight mixture over the given indices."""
    return MixtureSpec(grid=grid, indices=tuple(indices), shared=shared)


#: Most candidates ``candidate_family`` enumerates unless given another cap.
CANDIDATE_CAP = 100_000


def candidate_family(
    grid: ParameterGrid,
    k: int,
    shared: SharedParams = SharedParams(),
    cap: int = CANDIDATE_CAP,
) -> List[MixtureSpec]:
    """All uniform k-subset mixtures on the grid, in lexicographic index
    order."""
    if k < 1:
        raise DomainError(f"k must be at least 1, got {k}")
    if k > grid.size:
        raise DomainError(f"cannot pick {k} distinct indices from {grid.size}")
    count = math.comb(grid.size, k)
    if count > cap:
        raise CapExceededError(f"{count} candidates exceed the cap {cap}")
    return [uniform_spec(grid, idx, shared) for idx in combinations(grid.indices(), k)]
