"""Reproducible mixture sampling.

All randomness comes from a PCG64 uniform stream seeded as
``SeedSequence((seed, stream))``; every family draw is a documented,
fixed transformation of those uniforms, so identical (seed, stream, count)
always yields bit-identical datasets:

* component choice: inverse CDF on the cumulative weights
* binomial(n, p): n Bernoulli draws (uniform < p), summed; the count x n
  uniform matrix is drawn in row blocks, consumed in row order
* poisson: inverse CDF against a precomputed pmf table
* geometric(p): floor(log(1-u) / log(1-p))
* gaussian: Box-Muller cosine branch, one normal per uniform pair
* chi-squared(d): sum of d squared normals
* negative binomial(r, p): sum of r geometrics with success prob 1-p
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Union

import numpy as np

from .errors import ContractError, DomainError
from .grids import DISCRETE_FAMILIES, Family, MixtureSpec

_BINOMIAL_TRIAL_CAP = 10_000
_POISSON_RATE_CAP = 10_000.0
#: uniforms held at once by the binomial sampler (2 MB of float64 scratch)
_BINOMIAL_BLOCK_ELEMENTS = 2**18


@dataclass(frozen=True)
class SampleDataset:
    family: Family
    values: np.ndarray
    seed: Optional[int] = None
    spec_text: Optional[str] = None

    def __post_init__(self):
        arr = np.asarray(self.values)
        if self.family in DISCRETE_FAMILIES:
            if arr.dtype.kind not in "iu":
                if not np.all(arr == np.floor(arr)):
                    raise DomainError("discrete dataset has non-integer values")
                if np.any(np.abs(arr) >= 2.0**53):
                    # a float this large may already be rounded, or not fit int64
                    raise DomainError("discrete dataset value of magnitude 2**53 or more")
                arr = arr.astype(np.int64)
            if arr.size and arr.min() < 0:
                raise DomainError("discrete dataset has negative values")
        else:
            arr = arr.astype(np.float64)
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    def __len__(self) -> int:
        return int(self.values.size)


def derived_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """The documented (seed, stream) -> generator derivation rule."""
    if seed < 0 or stream < 0:
        raise DomainError("seed and stream must be nonnegative")
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, stream))))


def _normals(rng: np.random.Generator, count: int) -> np.ndarray:
    u1 = 1.0 - rng.random(count)  # in (0, 1]
    u2 = rng.random(count)
    return np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)


def _poisson_inverse(rng: np.random.Generator, lam: float, count: int) -> np.ndarray:
    if lam == 0.0:
        return np.zeros(count, dtype=np.int64)
    if lam > _POISSON_RATE_CAP:
        raise ContractError(f"poisson inversion capped at rate {_POISSON_RATE_CAP}")
    cutoff = int(lam + 40.0 * math.sqrt(lam) + 50.0)
    xs = np.arange(cutoff + 1)
    logpmf = -lam + xs * math.log(lam) - np.cumsum(
        np.concatenate(([0.0], np.log(np.arange(1, cutoff + 1))))
    )
    cdf = np.cumsum(np.exp(logpmf))
    return np.searchsorted(cdf, rng.random(count), side="right").astype(np.int64)


def _geometric_inverse(rng: np.random.Generator, p: float, count: int) -> np.ndarray:
    if p <= 0.0:
        raise DomainError("cannot sample a geometric with p = 0")
    if p >= 1.0:
        return np.zeros(count, dtype=np.int64)
    u = rng.random(count)
    return np.floor(np.log1p(-u) / math.log1p(-p)).astype(np.int64)


def _binomial_rows(rng: np.random.Generator, n: int, p: float, count: int) -> np.ndarray:
    """Row sums of a count x n Bernoulli(p) matrix, drawn in row blocks.

    The uniform stream is consumed row by row exactly as one ``count x n``
    matrix would consume it, so the result does not depend on the block
    size; scratch memory is bounded by ``_BINOMIAL_BLOCK_ELEMENTS``.
    """
    out = np.empty(count, dtype=np.int64)
    rows = max(1, _BINOMIAL_BLOCK_ELEMENTS // n)
    for start in range(0, count, rows):
        stop = min(start + rows, count)
        out[start:stop] = np.count_nonzero(rng.random((stop - start, n)) < p, axis=1)
    return out


def _component_draws(
    rng: np.random.Generator, family: Family, shared, value, count: int
) -> np.ndarray:
    if family is Family.POISSON:
        return _poisson_inverse(rng, float(value), count)
    if family is Family.BINOMIAL_P:
        n = shared.n
        if n > _BINOMIAL_TRIAL_CAP:
            raise ContractError(f"binomial sampling capped at n={_BINOMIAL_TRIAL_CAP}")
        return _binomial_rows(rng, n, float(value), count)
    if family in (Family.GEOMETRIC_P, Family.GEOMETRIC_U):
        p = float(value) if family is Family.GEOMETRIC_P else 1.0 / float(value)
        return _geometric_inverse(rng, p, count)
    if family is Family.GAUSSIAN:
        return float(value) + shared.sigma * _normals(rng, count)
    if family is Family.CHI_SQUARED:
        d = int(value)
        z = _normals(rng, count * d).reshape(count, d)
        return (z * z).sum(axis=1)
    if family is Family.NEG_BINOMIAL:
        r, p = int(value), float(shared.p)
        # sum of r geometrics, each with pmf p^x (1-p)
        out = np.zeros(count, dtype=np.int64)
        for _ in range(r):
            out += _geometric_inverse(rng, 1.0 - p, count)
        return out
    raise ContractError(f"sampling unsupported for family {family.value}")


def sample(
    spec: MixtureSpec, count: int, seed: int, stream: int = 0
) -> SampleDataset:
    """Draw ``count`` i.i.d. samples, deterministic in (seed, stream)."""
    if count < 1:
        raise DomainError("sample count must be positive")
    rng = derived_rng(seed, stream)
    cumw = np.cumsum([float(w) for w in spec.weights])
    cumw[-1] = 1.0
    u = rng.random(count)
    # inverse CDF: the component is the number of cumulative weights <= u
    # (never the last, 1.0); k - 1 comparison passes cost less than a
    # binary search per value at a mixture's small k
    choice = np.zeros(count, dtype=np.intp)
    for w in cumw[:-1]:
        choice += u >= w
    dtype = np.int64 if spec.family in DISCRETE_FAMILIES else np.float64
    out = np.zeros(count, dtype=dtype)
    for c, value in enumerate(spec.values()):
        rows = np.flatnonzero(choice == c)
        if rows.size:
            out[rows] = _component_draws(rng, spec.family, spec.shared, value, rows.size)
    return SampleDataset(family=spec.family, values=out, seed=seed)
