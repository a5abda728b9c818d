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
moves past its runs (``PCG64.advance``), no thread starts, and neither a
uniform block nor an array of draws is allocated.  As u is in [0, 1), a
binomial at p >= 1.0 always counts n and one at p <= 0.0 always counts 0;
it keeps its 1 run of width n, so every later component reads the stream
where it did.  A rate-0 Poisson, a geometric whose p is 1.0 in floating
point, and so a negative binomial whose 1 - p rounds to 1.0, are 0 over
0 runs.

A draw holds ``_DRAW_BLOCK`` uniforms at once, unless one row holds more,
and a draw of one block reads its runs in stream order.  A larger draw is
split into at most one contiguous row range per available CPU (per CPU of
its share, on an experiment's trial thread) and per row of a block, of
count * i // parts rows before range i, so its threads together hold one
block, or one row where a row is wider than a block.  A range reads each
run from a copy of the generator advanced (``PCG64.advance``) to its first
row, and the generator ends advanced past all the runs, so neither the
values nor its later state depend on the block size or the number of
threads.

Memory is bounded per draw: ``sample_bytes`` reads every component's
layout and counts the output, the component choice (the smallest unsigned
type that holds k - 1) and, where a row is wider than a block, one row of
uniforms.  The choice uniforms come in blocks of ``_CHOICE_BLOCK``, whose
rows of each component are counted as they are chosen; from those counts a
draw's threads find where each of their blocks of rows goes, and write it
straight into the component's rows of the output, so no component's draws
are held beside it.  A call that would hold more than ``SAMPLE_CAP`` bytes,
or draw a Poisson rate over ``_POISSON_RATE_CAP``, is refused before
anything is allocated.  The layouts of the last 32 Poisson rates are
kept, read-only (at most about 365 KiB a rate).
"""

from __future__ import annotations

import contextvars
import copy
import functools
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
#: uniforms one component draw holds at once, its threads together (1 MB of
#: float64), unless one row holds more
_DRAW_BLOCK = 2**17
#: the CPUs this process may run on: the threads one component draw may
#: use, and at most the trial threads of ``learners.run_experiment``
_sampling_threads = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                     else os.cpu_count() or 1)
#: the threads one component draw may use in the current context, when set:
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


class _Placement:
    """The rows of ``out`` whose component in ``choice`` is ``c``, in row
    order; ``per_block`` is how many of them each choice block of
    ``_CHOICE_BLOCK`` rows holds."""

    def __init__(self, out: np.ndarray, choice: np.ndarray, c: int, per_block: np.ndarray):
        self.out, self.choice, self.c = out, choice, c
        self.ends = np.cumsum(per_block)  # the rows of c up to each block's end
        self.size, self.dtype = int(self.ends[-1]), out.dtype

    def writer(self, first: int, window: int):
        """A function that writes its values into the rows from the
        ``first``-th on, each call going on where the last one stopped.

        It reads ``choice`` ``window`` rows at a time, into one mask and the
        row indices it holds, so it holds at most 9 bytes a window row."""
        block = int(np.searchsorted(self.ends, first, side="right"))
        pos = block * _CHOICE_BLOCK
        mask = np.empty(window, dtype=bool)

        def write(values, n: int) -> None:
            # values None: move past n rows without writing them
            nonlocal pos
            done = 0
            while done < n:
                rows = mask[: min(window, self.choice.size - pos)]
                np.equal(self.choice[pos : pos + rows.size], self.c, out=rows)
                # index and assign: a boolean mask assignment takes about
                # four times as long
                hits = np.flatnonzero(rows)[: n - done]
                if values is not None:
                    self.out[pos : pos + rows.size][hits] = values[done : done + hits.size]
                done += hits.size
                # where the values end inside the window, the next call
                # starts after the last row written
                pos += int(hits[-1]) + 1 if done == n else rows.size

        write(None, first - (int(self.ends[block - 1]) if block else 0))
        return lambda values: write(values, len(values))


def _draw_rows(rng: np.random.Generator, runs: int, width: int, kernel, out) -> None:
    """Fill the rows of one draw by the layout rule of the module docstring,
    and advance ``rng`` past its ``runs`` runs: the rows of ``out`` in row
    order, or, where ``out`` is a ``_Placement``, its rows of the output.

    ``kernel(u, out)`` writes the values of a block of rows into ``out``
    from their uniforms ``u``, runs x rows x ``width``; it may overwrite
    ``u``.  A block holds ``_DRAW_BLOCK`` numbers: its rows' uniforms and,
    for a ``_Placement``, their values and row indices until they are
    placed.  The split takes at most one thread per row of a block, so its
    threads together hold one block of scratch, or one row where a row is
    wider than a block, and every thread is joined before the call returns.
    """
    count, placed = out.size, isinstance(out, _Placement)
    rows = max(1, _DRAW_BLOCK // (runs * width + 2 * placed))

    def into(lo: int, size: int):
        """kernel(u, start) for the blocks of rows from row ``lo`` on, at
        most ``size`` rows each; a ``_Placement`` reads the choice in
        windows of as many rows as a block holds, at most a choice block."""
        if not placed:
            return lambda u, start: kernel(u, out[start : start + u.shape[1]])
        values, write = np.empty(size, dtype=out.dtype), out.writer(lo, min(rows, _CHOICE_BLOCK))

        def run(u, start):
            kernel(u, values[: u.shape[1]])
            write(values[: u.shape[1]])

        return run

    if count <= rows:
        # one block is one runs x count x width matrix, read in stream order
        # from rng itself, with no generator copies to make
        into(0, count)(rng.random((runs, count, width)), 0)
        return
    parts = min(_draw_threads.get(_sampling_threads), -(-count // rows), rows)
    rows //= parts

    errors = []

    def fill(lo: int, hi: int) -> None:
        try:
            # run j is read from a copy of rng advanced to its row lo
            streams = [np.random.Generator(copy.deepcopy(rng.bit_generator)
                                           .advance((j * count + lo) * width))
                       for j in range(runs)]
            u = np.empty((runs, min(rows, hi - lo), width))
            run = into(lo, u.shape[1])
            for start in range(lo, hi, rows):
                block = u[:, : min(rows, hi - start)]
                for stream, part in zip(streams, block):
                    stream.random(out=part)
                run(block, start)
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
    rng.bit_generator.advance(runs * count * width)


def _layout(family: Family, shared, value):
    """The (runs, width, kernel) of one component's draws, as ``_draw_rows``
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


def _component_draws(
    rng: np.random.Generator, family: Family, shared, value, count: int,
    rows: Optional[_Placement] = None,
) -> Optional[np.ndarray]:
    """``count`` draws of one component, by its family's layout, written
    into ``rows`` where given, else returned as one array.  Where every row
    is one value, ``rng`` is advanced past the runs without generating
    them, and the array is a read-only view of the value."""
    runs, width, kernel = _layout(family, shared, value)
    dtype = np.int64 if family in DISCRETE_FAMILIES else np.float64
    if callable(kernel):
        out = np.zeros(count, dtype=dtype) if rows is None else rows
        _draw_rows(rng, runs, width, kernel, out)
    else:
        rng.bit_generator.advance(runs * count * width)
        out = np.broadcast_to(np.array(kernel, dtype=dtype), count)
        if rows is not None:
            rows.writer(0, _CHOICE_BLOCK)(out)
    return out if rows is None else None


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
    for c, value in enumerate(spec.values()):
        rows = _Placement(out, choice, c, per_block[c])
        if rows.size:
            _component_draws(rng, spec.family, spec.shared, value, rows.size, rows)
    return SampleDataset(family=spec.family, values=out, seed=seed)
