"""Reproducible mixture sampling.

All randomness comes from a PCG64 uniform stream seeded as
``SeedSequence((seed, stream))`` and read by one layout rule, so identical
(seed, stream, count) always yields bit-identical datasets.

The first ``count`` uniforms choose the components: a draw's component is
the number of cumulative weights <= its uniform.  Each component then draws
all of its rows, in component order, and they fill its rows in row order.
A component's draw of ``count`` rows reads ``runs`` consecutive runs of
``count * width`` uniforms; row i reads uniforms i * width through
(i + 1) * width - 1 of each run (u and v below are a row's uniforms from
the first and the second run):

=======================  ====  =====  ===================================
family                   runs  width  row value
=======================  ====  =====  ===================================
poisson(lam)             1     1      inverse CDF against a pmf table of
                                      L entries, by a guide of
                                      2^ceil(log2 L) buckets
binomial(n, p)           1     n      the number of uniforms < p; n
                                      where p >= 1.0, 0 where p <= 0.0
geometric(p)             1     1      floor(log(1 - u) / log(1 - p))
gaussian                 2     1      sqrt(-2 log(1 - u)) cos(2 pi v)
chi-squared(d)           2     d      the sum of d squared such normals
negative binomial(r, p)  r     1      the sum of r geometric(1 - p) draws
=======================  ====  =====  ===================================

A component whose rows are all one value reads no uniform: the generator
moves past its runs (``PCG64.advance``) and its rows take the value, with
no uniform block or array of draws allocated.  As u is in [0, 1), a
binomial at p >= 1.0 always counts n and one at p <= 0.0 always counts 0;
it keeps its 1 run of width n, so every later component reads the stream
where it did.  A rate-0 Poisson, a geometric whose p is 1.0 in floating
point, and so a negative binomial whose 1 - p rounds to 1.0, are 0 over
0 runs.

One walk over the rows fills the output.  The choice uniforms come in
blocks of ``_CHOICE_BLOCK``, whose rows of each component are counted as
they are chosen.  Where some component has more rows than a block of
``_DRAW_BLOCK`` numbers holds, the rows are split into at most one
contiguous range per available CPU (per CPU of its share, on an
experiment's trial thread), of count * i // parts rows before range i.  A
range walks its rows in windows of a choice block's rows; in each, every
component finds its rows in the choice, draws them a block of its own rows
at a time, each run from a copy of the generator advanced
(``PCG64.advance``) to its first row in the range, and writes them in
place.  The generator ends advanced past all the runs, so neither the
values nor its later state depend on the block size, the window or the
number of threads.  A sample of one window in which each component draws
one block reads every run in stream order from the generator itself.

Memory is bounded per draw: ``sample_bytes`` reads every component's
layout and counts the output, the component choice (the smallest unsigned
type that holds k - 1) and, where a row is wider than a block, one row of
uniforms.  The threads of a walk together hold one block, or that row,
and a window's choice mask and row indices, 9 bytes a row of a choice
block; no component's draws are held beside the output.  A call that
would hold more than ``SAMPLE_CAP`` bytes, or draw a Poisson rate over
``_POISSON_RATE_CAP``, is refused before anything is allocated.  The
layouts of the last 32 Poisson rates are kept, read-only (at most about
365 KiB a rate), and ``sample`` walks at most 32 components at a time.
"""

from __future__ import annotations

import contextvars
import copy
import functools
import itertools
import math
import os
import threading
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import CapExceededError, ContractError, DomainError
from .grids import DISCRETE_FAMILIES, Family, MixtureSpec

_BINOMIAL_TRIAL_CAP = 10_000
_POISSON_RATE_CAP = 10_000.0
#: bytes one ``sample`` call may hold in arrays of ``count`` entries (4 GiB)
SAMPLE_CAP = 2**32
#: component-choice uniforms held at once by ``sample`` (512 KB of float64)
_CHOICE_BLOCK = 2**16
#: numbers one walk holds at once for the rows it draws, its threads
#: together (1 MB of float64), unless one row holds more
_DRAW_BLOCK = 2**17
#: the CPUs this process may run on: the threads one walk may use, and at
#: most the trial threads of ``learners.run_experiment``
_sampling_threads = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                     else os.cpu_count() or 1)
#: the threads one walk may use in the current context, when set:
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


def _normals(u: np.ndarray) -> np.ndarray:
    """sqrt(-2 log(1 - u[0])) * cos(2 pi u[1]), computed in place in the two
    uniform blocks of ``u``; returns u[0]."""
    u1, u2 = u
    np.subtract(1.0, u1, out=u1)  # in (0, 1]
    np.log(u1, out=u1)
    u1 *= -2.0
    np.sqrt(u1, out=u1)
    u2 *= 2.0 * np.pi
    np.cos(u2, out=u2)
    u1 *= u2
    return u1


def _geometrics(runs: int, p: float):
    """The layout of a sum of ``runs`` geometrics with pmf (1-p)^x p, each
    floor(log(1 - u) / log(1 - p)); 0 over 0 runs where p is 1.0."""
    if p <= 0.0:
        raise DomainError("cannot sample a geometric with p = 0")
    if p >= 1.0:
        return 0, 1, 0
    scale = math.log1p(-p)

    def kernel(u, out):
        np.negative(u, out=u)
        np.log1p(u, out=u)
        u /= scale
        np.floor(u, out=u)
        out[:] = u[0, :, 0]
        for run in u[1:]:
            out += run[:, 0].astype(np.int64)

    return runs, 1, kernel


@functools.lru_cache(maxsize=32)  # at most about 11.4 MiB, at the rate cap
def _poisson(lam: float):
    """The layout of a Poisson(lam) draw: inverse CDF against a pmf table
    that reaches 40 standard deviations past the mean, found through a guide
    table; every draw equals the binary search of the table.  0 over 0 runs
    at rate 0.  Built once per rate: the tables are read-only, as draws on
    several threads share them."""
    if lam > _POISSON_RATE_CAP:
        raise ContractError(f"poisson inversion capped at rate {_POISSON_RATE_CAP}")
    if lam == 0.0:
        return 0, 1, 0
    cutoff = int(lam + 40.0 * math.sqrt(lam) + 50.0)
    xs = np.arange(cutoff + 1)
    logpmf = -lam + xs * math.log(lam) - np.cumsum(
        np.concatenate(([0.0], np.log(np.arange(1, cutoff + 1))))
    )
    cdf = np.cumsum(np.exp(logpmf))
    # indexed search (Chen & Asau 1974) over m buckets [b/m, (b+1)/m): lo[b]
    # entries are <= b/m, so where a bucket holds at most one entry, the
    # entries <= u number lo[b] + (u >= cdf[lo[b]]); the wide buckets (the
    # tails, where the pmf < 1/m) fall back to the binary search
    m = 1 << (cdf.size - 1).bit_length()
    edges = np.arange(m + 1) / m
    lo = np.searchsorted(cdf, edges[:-1], side="right")
    wide = np.searchsorted(cdf, edges[1:], side="left") - lo > 1
    pad = np.append(cdf, np.inf)  # cdf[lo[b]], also where lo[b] is past every entry
    for table in (cdf, lo, wide, pad):
        table.setflags(write=False)

    def kernel(u, out):
        u = u[0, :, 0]
        # u * m is exact, as m is a power of two
        b = np.multiply(u, m, out=np.empty(u.size, dtype=np.intp), casting="unsafe")
        tail = np.flatnonzero(wide[b])
        # mode="clip" writes into out unbuffered; b is always in range
        np.take(lo, b, out=out, mode="clip")
        del b  # so that one temporary of 8 bytes a row is alive at a time
        out += u >= np.take(pad, out)
        out[tail] = np.searchsorted(cdf, u[tail], side="right")

    return 1, 1, kernel


def _walk(rng: np.random.Generator, layouts, first: int, choice: np.ndarray,
          per_block: np.ndarray, out: np.ndarray) -> None:
    """Fill the rows of ``out`` of components ``first`` on by the layout
    rule of the module docstring, and advance ``rng`` past their runs: a
    row of component ``first + c`` takes a draw of (runs, width, kernel)
    ``layouts[c]``; ``per_block`` counts each component's rows in each
    choice block.

    ``kernel(u, values)`` writes the values of a block of rows from their
    uniforms ``u``, runs x rows x width; it may overwrite ``u``.  A block
    holds ``_DRAW_BLOCK`` numbers: its rows' uniforms and values, and one
    more number a row for the kernel's temporaries.  A range takes at most
    one thread per row of any component's block, and a share of the block
    and of the window; every thread is joined before the call returns.
    """
    k, count = len(layouts), choice.size
    sizes = [int(n) for n in per_block[first : first + k].sum(axis=1)]
    rows = [max(1, _DRAW_BLOCK // (runs * width + 2)) for runs, width, _ in layouts]
    drawn = [c for c, (_, _, kernel) in enumerate(layouts) if callable(kernel) and sizes[c]]
    split = any(sizes[c] > rows[c] for c in drawn)
    parts = min(_draw_threads.get(_sampling_threads), max(-(-sizes[c] // rows[c]) for c in drawn),
                min(rows[c] for c in drawn)) if split else 1
    rows, window = [max(1, n // parts) for n in rows], _CHOICE_BLOCK // parts
    # one window, one block a component: rng reads every run in stream order
    direct = not split and count <= window
    # the uniform each component's first run starts at
    firsts = [0, *itertools.accumulate(runs * width * n for (runs, width, _), n
                                       in zip(layouts, sizes))]
    errors = []

    def fill(lo: int, hi: int) -> None:
        try:
            if direct:
                streams = [[rng]] * k
            else:
                # run j of component c is read from a copy of rng advanced
                # to the first of c's rows in the range
                before = per_block[:, : lo // _CHOICE_BLOCK].sum(axis=1) + np.bincount(
                    choice[lo - lo % _CHOICE_BLOCK : lo], minlength=per_block.shape[0])
                streams = [[np.random.Generator(copy.deepcopy(rng.bit_generator).advance(
                                firsts[c] + (j * sizes[c] + int(before[first + c])) * width))
                            for j in range(runs)] if c in drawn else []
                           for c, (runs, width, _) in enumerate(layouts)]
            for start in range(lo, hi, window):
                part = out[start : min(start + window, hi)]
                chosen = choice[start : start + part.size]
                for c, (runs, width, kernel) in enumerate(layouts):
                    # index and assign: a boolean mask assignment takes
                    # about four times as long
                    at = np.flatnonzero(chosen == first + c)
                    if callable(kernel):
                        for i in range(0, at.size, rows[c]):
                            block = at[i : i + rows[c]]
                            u = np.empty((runs, block.size, width))
                            for stream, run in zip(streams[c], u.reshape(len(streams[c]), -1)):
                                stream.random(out=run)
                            values = np.empty(block.size, dtype=out.dtype)
                            kernel(u, values)
                            part[block] = values
                            del u, run, values  # so that one block is alive at a time
                    else:
                        for stream in streams[c]:  # rng itself, on the direct path
                            stream.bit_generator.advance(runs * width * sizes[c])
                        part[at] = kernel
                    del at  # and one window's row indices
        except BaseException as exc:  # raised again once every range has ended
            errors.append(exc)

    # one thread per range after the first, which this thread fills: a pool
    # would hand a range to a worker that had finished its own, and run the
    # two ranges one after the other
    bounds = [count * i // parts for i in range(parts + 1)]
    threads = [threading.Thread(target=fill, args=bound)
               for bound in zip(bounds[1:-1], bounds[2:])]
    for thread in threads:
        thread.start()
    fill(0, bounds[1])
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    if not direct:
        rng.bit_generator.advance(firsts[-1])


def _layout(family: Family, shared, value):
    """The (runs, width, kernel) of one component's draws, as ``_walk``
    takes them; in place of a kernel, the one value of every row where
    there is one: n or 0 for a binomial at p >= 1.0 or p <= 0.0, over its
    1 run, and 0 over 0 runs (``_poisson``, ``_geometrics``)."""
    if family is Family.POISSON:
        return _poisson(float(value))
    if family is Family.BINOMIAL_P:
        n, p = shared.n, float(value)
        if n > _BINOMIAL_TRIAL_CAP:
            raise ContractError(f"binomial sampling capped at n={_BINOMIAL_TRIAL_CAP}")
        if p <= 0.0 or p >= 1.0:
            return 1, n, n if p >= 1.0 else 0
        return 1, n, lambda u, out: np.einsum("ij->i", u[0] < p, dtype=np.int64, out=out)
    if family in (Family.GEOMETRIC_P, Family.GEOMETRIC_U):
        return _geometrics(1, float(value) if family is Family.GEOMETRIC_P
                           else 1.0 / float(value))
    if family is Family.GAUSSIAN:
        sigma, mean = shared.sigma, float(value)

        def kernel(u, out):
            z = _normals(u)
            z *= sigma
            z += mean
            out[:] = z[:, 0]

        return 2, 1, kernel
    if family is Family.CHI_SQUARED:

        def kernel(u, out):
            z = _normals(u)
            np.multiply(z, z, out=z)
            np.sum(z, axis=1, out=out)

        return 2, int(value), kernel
    if family is Family.NEG_BINOMIAL:
        # sum of r geometrics, each with pmf p^x (1-p)
        return _geometrics(int(value), 1.0 - float(shared.p))
    raise ContractError(f"sampling unsupported for family {family.value}")


def sample_bytes(spec: MixtureSpec, count: int) -> int:
    """Bytes of arrays ``sample(spec, count, ...)`` holds at its peak, fixed
    scratch aside, read from each component's ``_layout``: the output, the
    component choice and, where the widest kernel's row of runs x width
    uniforms is wider than ``_DRAW_BLOCK``, one such row: the same on every
    host, as a draw's threads never hold more than a block or a row."""
    row = max((runs * width for runs, width, kernel
               in (_layout(spec.family, spec.shared, v) for v in spec.values())
               if callable(kernel)), default=0)
    held = count * (8 + np.min_scalar_type(spec.k - 1).itemsize)
    return held + 8 * row if row > _DRAW_BLOCK else held


def _check_count(spec: MixtureSpec, count: int) -> int:
    """Refuse a count below 1, or a draw that would hold more than ``SAMPLE_CAP``
    bytes (``sample_bytes``), before anything is allocated; return the bytes."""
    if count < 1:
        raise DomainError("sample count must be positive")
    held = sample_bytes(spec, count)
    if held > SAMPLE_CAP:
        raise CapExceededError(
            f"{count} {spec.family.value} draws would hold {held} bytes, "
            f"over the cap {SAMPLE_CAP}"
        )
    return held


def _choose_components(rng: np.random.Generator, cumw: np.ndarray, count: int):
    """The component of each of ``count`` draws, as the smallest unsigned
    type that holds k - 1, and the number of rows each component takes in
    each block of ``_CHOICE_BLOCK`` draws, k x blocks.

    The component of uniform u is the number of cumulative weights <= u
    (never the last, 1.0); k - 1 comparison passes cost less than a binary
    search per value at a mixture's small k.  The uniforms are drawn in
    blocks of ``_CHOICE_BLOCK``, which reads the stream as one
    ``rng.random(count)`` does.
    """
    k = cumw.size
    choice = np.zeros(count, dtype=np.min_scalar_type(k - 1))
    # at_least[c, b]: rows of block b whose component is c or later; the
    # weights are nondecreasing, so u >= cumw[c - 1] holds exactly on those
    at_least = np.zeros((k + 1, -(-count // _CHOICE_BLOCK)), dtype=np.int64)
    u = np.empty(min(count, _CHOICE_BLOCK))
    hit = np.empty(u.size, dtype=bool)
    for b, lo in enumerate(range(0, count, _CHOICE_BLOCK)):
        block = choice[lo : lo + _CHOICE_BLOCK]
        block_u, block_hit = u[: block.size], hit[: block.size]
        rng.random(out=block_u)
        at_least[0, b] = block.size
        for c, w in enumerate(cumw[:-1], start=1):
            np.greater_equal(block_u, w, out=block_hit)
            block += block_hit
            at_least[c, b] = np.count_nonzero(block_hit)
    return choice, at_least[:-1] - at_least[1:]


def sample(
    spec: MixtureSpec, count: int, seed: int, stream: int = 0
) -> SampleDataset:
    """Draw ``count`` i.i.d. samples, deterministic in (seed, stream), after ``_check_count``."""
    _check_count(spec, count)
    rng = derived_rng(seed, stream)
    cumw = np.cumsum([float(w) for w in spec.weights])
    cumw[-1] = 1.0
    choice, per_block = _choose_components(rng, cumw, count)
    out = np.empty(count, dtype=np.int64 if spec.family in DISCRETE_FAMILIES else np.float64)
    # a walk holds its layouts: at most as many at a time as _poisson keeps
    values, group = spec.values(), _poisson.cache_parameters()["maxsize"]
    for first in range(0, spec.k, group):
        _walk(rng, [_layout(spec.family, spec.shared, v) for v in values[first : first + group]],
              first, choice, per_block, out)
    return SampleDataset(family=spec.family, values=out, seed=seed)
