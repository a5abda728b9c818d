"""Exact empirical moments, lattice rounding, and sample-size planning."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple

import numpy as np

from .errors import ContractError, DomainError
from .grids import Family, ParameterGrid, SharedParams
from .sampling import SampleDataset

#: residual above this fraction of the spacing flags a rounding as suspect
RESIDUAL_WARNING = Fraction(1, 4)


@dataclass(frozen=True)
class EmpiricalMoments:
    """Exact rational empirical raw moments S_0..S_T of an integer dataset."""

    T: int
    values: Tuple[Fraction, ...]
    t: int

    def __post_init__(self):
        if self.values[0] != 1:
            raise DomainError("zeroth empirical moment must be 1")


#: values ``_histogram`` caps and counts at once, and ``_power_sums`` scans
#: for values at or above the histogram's width at once (512 KiB of intp)
_HISTOGRAM_BLOCK = 2**16
#: entries of a (bases, counts) table ``_power_sums`` raises to every order
#: at once.  On 10**6 draws of geometric-u (0, 2**20), ``estimate_moments(.,
#: 4)`` traces its 8 MB dataset plus 2.2 MiB, against 4.7 MiB with whole
#: 2**16-entry tables (numpy 2.4, x86_64)
_POWER_CHUNK = 2**12


def _histogram(values: np.ndarray, width: int) -> np.ndarray:
    """How many of the nonnegative integers ``values`` equal each of
    0..width-1, with one last bin for those of ``width`` or more.  Each
    block of ``_HISTOGRAM_BLOCK`` values is capped at ``width`` into one
    reused buffer and counted by ``np.bincount``, so the scratch is that
    buffer and the bins, whatever the data's size or magnitude."""
    counts = np.zeros(width + 1, dtype=np.intp)
    # numpy 1.x bincount refuses uint64, and the capped values fit in intp; a
    # cap past the dtype's range would not fit the dtype, and changes nothing
    cap = min(width, np.iinfo(values.dtype).max)
    capped = np.empty(min(values.size, _HISTOGRAM_BLOCK), dtype=np.intp)
    for lo in range(0, values.size, _HISTOGRAM_BLOCK):
        block = capped[: min(_HISTOGRAM_BLOCK, values.size - lo)]
        np.minimum(values[lo : lo + block.size], cap, out=block, casting="unsafe")
        counts += np.bincount(block, minlength=width + 1)
    return counts


def _power_sums(values: np.ndarray, T: int) -> List[int]:
    """Exact integer sums of values**ell for ell = 0..T, over a nonempty
    array of nonnegative integers.

    The values come as (bases, counts) tables: one ``_histogram`` of those
    below a width of min(max + 1, 2**16, size), then, if any are at or
    above it, one ``np.unique`` of those per block of ``_HISTOGRAM_BLOCK``
    values.  Every table adds c * v**ell to each order's sum in Python
    ints, ``_POWER_CHUNK`` entries at a time, so each sum is exact whatever
    the magnitude, and the scratch is one block, the bins and one chunk,
    whatever the number of distinct values.
    """
    width = min(int(values.max()) + 1, _HISTOGRAM_BLOCK, values.size)
    hist = _histogram(values, width)
    below = np.flatnonzero(hist[:-1])
    tables = [(below, hist[below])]
    if hist[-1]:  # and the values at or above the width, a block at a time
        blocks = (values[lo : lo + _HISTOGRAM_BLOCK]
                  for lo in range(0, values.size, _HISTOGRAM_BLOCK))
        tables = itertools.chain(tables, (
            np.unique(b[b >= width], return_counts=True) for b in blocks))
    del hist  # up to 2**16 bins, not needed past here
    sums = [0] * (T + 1)
    for bases, counts in tables:
        for lo in range(0, bases.size, _POWER_CHUNK):
            chunk = bases[lo : lo + _POWER_CHUNK].tolist()
            terms = counts[lo : lo + _POWER_CHUNK].tolist()  # c * v**0
            sums[0] += sum(terms)
            for ell in range(1, T + 1):
                terms = [c * v for c, v in zip(terms, chunk)]
                sums[ell] += sum(terms)
    return sums


def estimate_moments(data: SampleDataset, T: int) -> EmpiricalMoments:
    """S_ell = sum Y_i^ell / t, held as exact rationals."""
    if len(data) == 0:
        raise DomainError("empty dataset")
    if data.values.dtype.kind not in "iu":
        raise DomainError("moment estimation needs an integer dataset")
    if T < 0:
        raise ContractError("T must be nonnegative")
    t = len(data)
    vals = tuple(Fraction(s, t) for s in _power_sums(data.values, T))
    return EmpiricalMoments(T=T, values=vals, t=t)


def estimate_pmf(data: SampleDataset, T: int) -> List[Fraction]:
    """Empirical probabilities P_0..P_T as exact rationals."""
    if len(data) == 0:
        raise DomainError("empty dataset")
    if data.values.dtype.kind not in "iu":
        raise DomainError("pmf estimation needs an integer dataset")
    t = len(data)
    # the bins follow T, not the largest value in the data
    return [Fraction(int(c), t) for c in _histogram(data.values, T + 1)[:-1]]


@dataclass(frozen=True)
class LatticeRounding:
    rounded: Fraction
    residual: Fraction  # |value - rounded| / spacing, in [0, 1/2]
    flagged: bool  # residual above the diagnostic threshold


def round_to_lattice(value: Fraction, spacing: Fraction) -> LatticeRounding:
    """Nearest lattice multiple, ties to the even multiple."""
    value, spacing = Fraction(value), Fraction(spacing)
    if spacing <= 0:
        raise DomainError("lattice spacing must be positive")
    # value / spacing = num / den with den > 0; floor it, then step up when
    # the remainder passes one half, or equals it with an odd floor
    den = value.denominator * spacing.numerator
    n, rem = divmod(value.numerator * spacing.denominator, den)
    if 2 * rem > den or (2 * rem == den and n % 2):
        n, rem = n + 1, den - rem
    residual = Fraction(rem, den)
    return LatticeRounding(n * spacing, residual, residual > RESIDUAL_WARNING)


def moment_lattice_spacing(step: Fraction, k: int, ell: int) -> Fraction:
    """Minimum gap between distinct mixtures' order-ell moments: step^ell / k."""
    return Fraction(step) ** ell / k


@dataclass(frozen=True)
class PlanEntry:
    order: int
    tolerance: Fraction
    failure_prob: Fraction
    samples: int


@dataclass(frozen=True)
class SamplePlan:
    scheme: str
    T: int
    per_moment: Tuple[PlanEntry, ...]
    total: int

    def to_report(self) -> str:
        lines = [f"scheme={self.scheme}", f"T={self.T}"]
        for e in self.per_moment:
            lines.append(
                f"ell={e.order} gamma={e.tolerance.numerator}/"
                f"{e.tolerance.denominator} t={e.samples}"
            )
        lines.append(f"total={self.total}")
        return "\n".join(lines) + "\n"


def _ceil_fraction(x: Fraction) -> int:
    return -((-x.numerator) // x.denominator)


def _failure_prob(T: int, ell: int, uniform_delta: Optional[Fraction]) -> Fraction:
    if uniform_delta is not None:
        return Fraction(uniform_delta)
    return Fraction(1, 9 ** (1 + T - ell))


def plan_samples(
    family: Family,
    k: int,
    grid: ParameterGrid,
    shared: SharedParams,
    T: int,
    scheme: str,
    uniform_delta: Optional[Fraction] = None,
) -> SamplePlan:
    """Per-moment sample counts from the Chebyshev/Chernoff bounds.

    * binomial-p (chebyshev): t_ell = ceil(gamma^-2 n^(2 ell) / delta)
    * geometric-u (chebyshev): t_ell = ceil(2 gamma^-2 (4 ell / p_min)^(2 ell + 1) / delta)
    * geometric-p (chernoff, pmf): t_ell = ceil(3 gamma^-2 ln(2 / delta))

    with gamma_ell = step^ell / (2k) for moments and step^(ell+1) / (2k) for
    pmf values, and per-order failure probability delta = 9^-(1 + T - ell)
    (summing to < 1/8) unless a uniform override is given.
    """
    if T < 1:
        raise ContractError("plan needs T >= 1")
    if k < 1:
        raise DomainError(f"k must be at least 1, got {k}")
    if uniform_delta is not None and not uniform_delta > 0:
        raise DomainError(f"failure probability must be positive, got {uniform_delta}")
    eps = grid.step
    # per family: the first order, the degree of observable ell less ell, and
    # the bound on t_ell
    if family is Family.BINOMIAL_P and scheme == "chebyshev":
        if shared.n is None:
            raise ContractError("binomial-p plan needs shared n")
        first, offset = 1, 0
        bound = lambda ell, gamma, delta: _ceil_fraction(
            gamma**-2 * shared.n ** (2 * ell) / delta)
    elif family is Family.GEOMETRIC_U and scheme == "chebyshev":
        p_min = 1 / grid.value(grid.max_index)
        first, offset = 1, 0
        bound = lambda ell, gamma, delta: _ceil_fraction(
            2 * gamma**-2 * (4 * ell / p_min) ** (2 * ell + 1) / delta)
    elif family is Family.GEOMETRIC_P and scheme == "chernoff":
        first, offset = 0, 1  # pmf values
        bound = lambda ell, gamma, delta: math.ceil(
            3 * float(gamma**-2) * math.log(2 / float(delta)))
    else:
        raise ContractError(f"unsupported plan: {family.value} / {scheme}")
    entries: List[PlanEntry] = []
    for ell in range(first, T + 1):
        gamma = moment_lattice_spacing(eps, k, ell + offset) / 2
        delta = _failure_prob(T, ell, uniform_delta)
        try:
            samples = bound(ell, gamma, delta)
        except (OverflowError, ZeroDivisionError):  # chernoff takes gamma and delta as floats
            raise DomainError(f"the {scheme} bound at order {ell} leaves the float range") from None
        entries.append(PlanEntry(ell, gamma, delta, samples))
    if sum(e.failure_prob for e in entries) >= 1:
        raise DomainError("plan failure probabilities must sum below 1")
    return SamplePlan(
        scheme=scheme,
        T=T,
        per_moment=tuple(entries),
        total=sum(e.samples for e in entries),
    )
