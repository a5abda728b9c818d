"""Reproducible mixture sampling.

All randomness comes from a PCG64 uniform stream seeded as
``SeedSequence((seed, stream))``; every family draw is a documented,
fixed transformation of those uniforms, so identical (seed, stream, count)
always yields bit-identical datasets:

* component choice: inverse CDF on the cumulative weights, read from the
  first ``count`` uniforms; each component then draws all of its rows in
  component order, and its draws fill its rows in row order
* binomial(n, p): n Bernoulli draws (uniform < p), summed; the count x n
  uniform matrix is drawn in row blocks, consumed in row order. A draw of
  more than one block is split into at most one contiguous row range per
  available CPU (per CPU of its share, on an experiment's trial thread),
  of count * i // parts rows before range i; range i starts
  from a copy of the generator advanced (``PCG64.advance``) past the rows
  before it, and the generator ends advanced past all rows, so every row
  reads the stream positions a serial draw would and neither the values nor
  the generator's later state depend on the number of threads
* poisson: inverse CDF against a precomputed pmf table
* geometric(p): floor(log(1-u) / log(1-p))
* gaussian: Box-Muller cosine branch, one normal per uniform pair: the
  first uniforms of all ``count`` normals, then their second uniforms
* chi-squared(d): sum of d squared normals, the count x d normals read from
  the stream as one gaussian draw of count * d; they are drawn in row
  blocks, each block's second uniforms from a copy of the generator
  advanced past all the first ones, and the generator ends advanced past
  both, so neither the values nor its later state depend on the block size
* negative binomial(r, p): sum of r geometrics with success prob 1-p

Memory is bounded per draw.  Only two arrays have ``count`` entries: the
output (8 bytes a draw) and the component choice (1 byte a draw up to 256
components, the smallest unsigned type that holds k - 1).  The choice
uniforms are drawn, compared and counted in blocks of ``_CHOICE_BLOCK`` =
2**16 (512 KB of float64), and each component's draws are placed one block
of rows at a time and freed before the next component draws.  So a call
holds at most ``sample_bytes(spec, count)``: those 9 bytes a draw plus the
family's per-draw bytes (``_DRAW_BYTES``) for the rows of one component,
plus a few MB of fixed scratch; a call that would hold more than
``SAMPLE_CAP`` bytes is refused before anything is allocated.
"""

from __future__ import annotations

import contextvars
import copy
import math
import os
from dataclasses import dataclass, field
from typing import List, Optional, Union

import numpy as np

from .errors import CapExceededError, ContractError, DomainError
from .grids import DISCRETE_FAMILIES, Family, MixtureSpec

_BINOMIAL_TRIAL_CAP = 10_000
_POISSON_RATE_CAP = 10_000.0
#: bytes one ``sample`` call may hold in arrays of ``count`` entries (4 GiB)
SAMPLE_CAP = 2**32
#: component-choice uniforms held at once by ``sample``, and each of the
#: two uniform blocks of the chi-squared sampler (512 KB of float64)
_CHOICE_BLOCK = 2**16
#: bytes per draw one component's draws hold at their peak, scratch of a
#: fixed size aside
_DRAW_BYTES = {
    Family.POISSON: 16,  # uniforms, then their int64 indices
    Family.BINOMIAL_P: 8,  # the int64 counts; the uniforms come in row blocks
    Family.GEOMETRIC_P: 16,  # uniforms, then their int64 floors
    Family.GEOMETRIC_U: 16,
    Family.GAUSSIAN: 16,  # the two uniforms of each normal
    Family.CHI_SQUARED: 8,  # the float64 sums; the normals come in row blocks
    Family.NEG_BINOMIAL: 24,  # the int64 sum, and one geometric draw
}
#: uniforms held at once by the binomial sampler, its threads together
#: (2 MB of float64 scratch), unless one row per thread holds more
_BINOMIAL_BLOCK_ELEMENTS = 2**18
#: the CPUs this process may run on: the threads one binomial draw may
#: use, and at most the trial threads of ``learners.run_experiment``
_sampling_threads = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                     else os.cpu_count() or 1)
#: the threads one binomial draw may use in the current context, when set:
#: ``run_experiment``'s trial threads each take their share of the CPUs
_draw_threads = contextvars.ContextVar("_draw_threads")


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
            arr = arr.astype(np.float64, copy=False)  # sample's output is not copied
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    def __len__(self) -> int:
        return int(self.values.size)


def derived_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """The documented (seed, stream) -> generator derivation rule."""
    if seed < 0 or stream < 0:
        raise DomainError("seed and stream must be nonnegative")
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, stream))))


def _normals(u1: np.ndarray, u2: np.ndarray) -> np.ndarray:
    """sqrt(-2 log(1 - u1)) * cos(2 pi u2), computed in place in the two
    uniform arrays; returns u1."""
    np.subtract(1.0, u1, out=u1)  # in (0, 1]
    np.log(u1, out=u1)
    u1 *= -2.0
    np.sqrt(u1, out=u1)
    u2 *= 2.0 * np.pi
    np.cos(u2, out=u2)
    u1 *= u2
    return u1


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
    return np.searchsorted(cdf, rng.random(count), side="right")


def _geometric_inverse(rng: np.random.Generator, p: float, count: int) -> np.ndarray:
    if p <= 0.0:
        raise DomainError("cannot sample a geometric with p = 0")
    if p >= 1.0:
        return np.zeros(count, dtype=np.int64)
    u = rng.random(count)
    np.negative(u, out=u)
    np.log1p(u, out=u)
    u /= math.log1p(-p)
    np.floor(u, out=u)
    return u.astype(np.int64)


def _binomial_range(
    rng: np.random.Generator, n: int, p: float, out: np.ndarray, rows: int
) -> None:
    """Fill ``out`` with the row sums of a len(out) x n Bernoulli(p) matrix,
    drawn from ``rng`` in blocks of ``rows`` rows through one reused pair of
    scratch blocks."""
    rows = min(rows, out.size)
    u = np.empty((rows, n))
    hits = np.empty((rows, n), dtype=bool)
    for start in range(0, out.size, rows):
        stop = min(start + rows, out.size)
        block, block_hits = u[: stop - start], hits[: stop - start]
        rng.random(out=block)
        np.less(block, p, out=block_hits)
        np.einsum("ij->i", block_hits, dtype=np.int64, out=out[start:stop])


def _binomial_rows(rng: np.random.Generator, n: int, p: float, count: int) -> np.ndarray:
    """Row sums of a count x n Bernoulli(p) matrix, drawn in row blocks.

    The uniform stream is consumed row by row exactly as one ``count x n``
    matrix would consume it (see the module docstring for the split across
    threads), so neither the result nor ``rng``'s later state depends on the
    block size or the thread count; the threads share one block's scratch.
    """
    out = np.empty(count, dtype=np.int64)
    rows = max(1, _BINOMIAL_BLOCK_ELEMENTS // n)
    parts = min(_draw_threads.get(_sampling_threads), -(-count // rows))
    if parts == 1:
        _binomial_range(rng, n, p, out, rows)
        return out
    from concurrent.futures import ThreadPoolExecutor

    bounds = [count * i // parts for i in range(parts + 1)]
    rows = max(1, rows // parts)
    # range i > 0 starts from a copy of rng advanced past the rows before it;
    # every thread is joined before the call returns
    with ThreadPoolExecutor(parts - 1) as pool:
        futures = [
            pool.submit(_binomial_range,
                        np.random.Generator(copy.deepcopy(rng.bit_generator).advance(lo * n)),
                        n, p, out[lo:hi], rows)
            for lo, hi in zip(bounds[1:-1], bounds[2:])
        ]
        _binomial_range(rng, n, p, out[: bounds[1]], rows)
    for future in futures:
        future.result()
    rng.bit_generator.advance((count - bounds[1]) * n)
    return out


def _chi_squared_rows(rng: np.random.Generator, d: int, count: int) -> np.ndarray:
    """Row sums of a count x d matrix of squared normals, drawn in row blocks
    of at most ``_CHOICE_BLOCK`` normals.

    The stream is read as one ``count * d`` gaussian draw reads it (see the
    module docstring), so neither the result nor ``rng``'s later state
    depends on the block size.
    """
    out = np.empty(count)
    rows = min(count, max(1, _CHOICE_BLOCK // d))
    u1, u2 = np.empty((rows, d)), np.empty((rows, d))
    # the second uniforms start after all count * d first ones
    second = np.random.Generator(copy.deepcopy(rng.bit_generator).advance(count * d))
    for start in range(0, count, rows):
        stop = min(start + rows, count)
        z, block_u2 = u1[: stop - start], u2[: stop - start]
        rng.random(out=z)
        second.random(out=block_u2)
        _normals(z, block_u2)
        np.multiply(z, z, out=z)
        np.sum(z, axis=1, out=out[start:stop])
    rng.bit_generator.advance(count * d)
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
        z = _normals(rng.random(count), rng.random(count))
        z *= shared.sigma
        z += float(value)
        return z
    if family is Family.CHI_SQUARED:
        return _chi_squared_rows(rng, int(value), count)
    if family is Family.NEG_BINOMIAL:
        r, p = int(value), float(shared.p)
        # sum of r geometrics, each with pmf p^x (1-p)
        out = np.zeros(count, dtype=np.int64)
        for _ in range(r):
            out += _geometric_inverse(rng, 1.0 - p, count)
        return out
    raise ContractError(f"sampling unsupported for family {family.value}")


def sample_bytes(spec: MixtureSpec, count: int) -> int:
    """Bytes of arrays ``sample(spec, count, ...)`` holds at its peak, fixed
    scratch aside: the output, the component choice, and the draws of one
    component if it took every row."""
    choice = np.min_scalar_type(spec.k - 1).itemsize
    return count * (8 + choice + _DRAW_BYTES[spec.family])


def _check_count(spec: MixtureSpec, count: int) -> None:
    """Refuse a count below 1, or a draw that would hold more than ``SAMPLE_CAP``
    bytes (``sample_bytes``), before anything is allocated."""
    if count < 1:
        raise DomainError("sample count must be positive")
    held = sample_bytes(spec, count)
    if held > SAMPLE_CAP:
        raise CapExceededError(
            f"{count} {spec.family.value} draws would hold {held} bytes, "
            f"over the cap {SAMPLE_CAP}"
        )


def _choose_components(rng: np.random.Generator, cumw: np.ndarray, count: int):
    """The component of each of ``count`` draws, as the smallest unsigned
    type that holds k - 1, and the number of rows each component takes.

    The component of uniform u is the number of cumulative weights <= u
    (never the last, 1.0); k - 1 comparison passes cost less than a binary
    search per value at a mixture's small k.  The uniforms are drawn in
    blocks of ``_CHOICE_BLOCK``, which reads the stream as one
    ``rng.random(count)`` does.
    """
    k = cumw.size
    choice = np.zeros(count, dtype=np.min_scalar_type(k - 1))
    # at_least[c]: rows whose component is c or later; the weights are
    # nondecreasing, so u >= cumw[c - 1] holds exactly on those rows
    at_least = np.zeros(k + 1, dtype=np.int64)
    at_least[0] = count
    u = np.empty(min(count, _CHOICE_BLOCK))
    hit = np.empty(u.size, dtype=bool)
    for lo in range(0, count, _CHOICE_BLOCK):
        block = choice[lo : lo + _CHOICE_BLOCK]
        block_u, block_hit = u[: block.size], hit[: block.size]
        rng.random(out=block_u)
        for c, w in enumerate(cumw[:-1], start=1):
            np.greater_equal(block_u, w, out=block_hit)
            block += block_hit
            at_least[c] += np.count_nonzero(block_hit)
    return choice, at_least[:-1] - at_least[1:]


def _scatter(out: np.ndarray, choice: np.ndarray, c: int, draws: np.ndarray) -> None:
    """Write ``draws`` into the rows of ``out`` whose component is ``c``, in
    row order, one choice block at a time."""
    taken = 0
    for lo in range(0, out.size, _CHOICE_BLOCK):
        rows = np.flatnonzero(choice[lo : lo + _CHOICE_BLOCK] == c)
        out[lo : lo + _CHOICE_BLOCK][rows] = draws[taken : taken + rows.size]
        taken += rows.size


def sample(
    spec: MixtureSpec, count: int, seed: int, stream: int = 0
) -> SampleDataset:
    """Draw ``count`` i.i.d. samples, deterministic in (seed, stream), after ``_check_count``."""
    _check_count(spec, count)
    rng = derived_rng(seed, stream)
    cumw = np.cumsum([float(w) for w in spec.weights])
    cumw[-1] = 1.0
    choice, rows = _choose_components(rng, cumw, count)
    out = np.empty(count, dtype=np.int64 if spec.family in DISCRETE_FAMILIES else np.float64)
    for c, value in enumerate(spec.values()):
        if rows[c]:
            # the draws live only for the call, so each component's are
            # freed before the next component draws
            _scatter(out, choice, c,
                     _component_draws(rng, spec.family, spec.shared, value, int(rows[c])))
    return SampleDataset(family=spec.family, values=out, seed=seed)
