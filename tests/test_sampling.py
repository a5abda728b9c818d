import dataclasses
import hashlib
import math
import os
import sys
import threading
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import mixlearn.sampling as sampling
from mixlearn import (
    CapExceededError,
    ContractError,
    DomainError,
    ExperimentConfig,
    Family,
    MixtureSpec,
    ParameterGrid,
    SampleDataset,
    SharedParams,
    mixture_moment_exact,
    pmf_or_pdf,
    run_experiment,
    sample,
    uniform_spec,
)
from mixlearn.sampling import (
    _DRAW_BLOCK,
    _POISSON_RATE_CAP,
    _component_draws,
    _layout,
    _poisson,
    derived_rng,
)


def _spec(family, indices, **shared):
    if family is Family.BINOMIAL_P:
        grid = ParameterGrid(family, Fraction(1, 2), 0, 2)
    elif family is Family.GEOMETRIC_P:
        grid = ParameterGrid(family, Fraction(1, 4), 0, 4)
    elif family is Family.GEOMETRIC_U:
        grid = ParameterGrid(family, Fraction(1, 2), 0, 6)
    elif family is Family.GAUSSIAN:
        grid = ParameterGrid(family, 1, 0, 4)
    elif family is Family.CHI_SQUARED:
        grid = ParameterGrid(family, 1, 1, 5)
    elif family is Family.NEG_BINOMIAL:
        grid = ParameterGrid(family, 1, 1, 4)
    else:
        grid = ParameterGrid(family, 1, 0, 6)
    return uniform_spec(grid, indices, SharedParams(**shared))


def test_sampling_is_deterministic_in_seed_and_stream():
    spec = _spec(Family.POISSON, (1, 4))
    a = sample(spec, 1000, seed=7)
    b = sample(spec, 1000, seed=7)
    c = sample(spec, 1000, seed=7, stream=1)
    d = sample(spec, 1000, seed=8)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)
    assert not np.array_equal(a.values, d.values)


def test_sample_count_validation():
    spec = _spec(Family.POISSON, (1, 4))
    with pytest.raises(DomainError):
        sample(spec, 0, seed=1)


@pytest.mark.parametrize("seed, stream", [(-1, 0), (1, -2)])
def test_negative_seed_or_stream_is_domain_error(seed, stream):
    with pytest.raises(DomainError):
        sample(_spec(Family.POISSON, (1, 4)), 5, seed=seed, stream=stream)


def test_discrete_dataset_rejects_negative_and_fractional():
    with pytest.raises(DomainError):
        SampleDataset(Family.POISSON, np.array([1.5, 2.0]))
    with pytest.raises(DomainError):
        SampleDataset(Family.POISSON, np.array([-1, 2]))


def test_dataset_values_read_only():
    data = sample(_spec(Family.POISSON, (1, 4)), 100, seed=3)
    with pytest.raises(ValueError):
        data.values[0] = 99


@pytest.mark.parametrize(
    "family,indices,shared",
    [
        (Family.POISSON, (1, 4), {}),
        (Family.BINOMIAL_P, (1, 2), {"n": 10}),
        (Family.GEOMETRIC_P, (1, 2), {}),
        (Family.GEOMETRIC_U, (0, 2), {}),
        (Family.NEG_BINOMIAL, (1, 3), {"p": Fraction(1, 2)}),
    ],
)
def test_discrete_sampler_matches_pmf(family, indices, shared):
    spec = _spec(family, indices, **shared)
    data = sample(spec, 200_000, seed=11)
    counts = np.bincount(data.values, minlength=12)
    n = len(data)
    for x in range(10):
        p = pmf_or_pdf(spec, x)
        se = math.sqrt(max(p * (1 - p), 1e-12) / n)
        assert abs(counts[x] / n - p) < 5 * se + 1e-9


@pytest.mark.parametrize(
    "family,indices,shared",
    [
        (Family.POISSON, (1, 4), {}),
        (Family.BINOMIAL_P, (1, 2), {"n": 10}),
        (Family.GEOMETRIC_U, (0, 2), {}),
    ],
)
def test_sampler_moments_match_exact_moments(family, indices, shared):
    spec = _spec(family, indices, **shared)
    data = sample(spec, 1_000_000, seed=29)
    vals = data.values.astype(np.float64)
    for ell in (1, 2, 3):
        exact = float(mixture_moment_exact(spec, ell))
        emp = float(np.mean(vals**ell))
        se = float(np.std(vals**ell)) / math.sqrt(len(data))
        assert abs(emp - exact) < 5 * se + 1e-9


def test_gaussian_sampler_mean_and_sd():
    spec = _spec(Family.GAUSSIAN, (0, 3), sigma=1.0)
    data = sample(spec, 400_000, seed=17)
    # mixture mean 1.5, variance sigma^2 + spread = 1 + 2.25
    assert np.mean(data.values) == pytest.approx(1.5, abs=0.02)
    assert np.var(data.values) == pytest.approx(3.25, abs=0.05)


def test_chi_squared_sampler_mean():
    spec = _spec(Family.CHI_SQUARED, (2, 5))
    data = sample(spec, 200_000, seed=23)
    assert np.mean(data.values) == pytest.approx(3.5, abs=0.05)
    assert data.values.min() >= 0.0


def test_geometric_p_zero_component_rejected_in_sampling():
    spec = _spec(Family.GEOMETRIC_P, (0, 2))
    with pytest.raises(DomainError):
        sample(spec, 10, seed=1)


def _binomial_rows(rng, n, p, count):
    return _component_draws(rng, Family.BINOMIAL_P, SharedParams(n=n), p, count)


@pytest.mark.parametrize("n, count", [
    (1000, 2 * (_DRAW_BLOCK // 1000) - 1),
    (1000, 2 * (_DRAW_BLOCK // 1000)),
    (1000, 2 * (_DRAW_BLOCK // 1000) + 1),
    (7, 6 * (_DRAW_BLOCK // 7) + 8),
    (10_000, 5),
])
def test_chunked_binomial_matches_one_matrix(n, count):
    # row blocks consume the uniform stream exactly as one count x n matrix
    rng, ref_rng = derived_rng(3, n), derived_rng(3, n)
    got = _binomial_rows(rng, n, 0.3, count)
    assert got.dtype == np.int64
    assert np.array_equal(got, (ref_rng.random((count, n)) < 0.3).sum(axis=1))
    assert rng.random() == ref_rng.random()


def _one_matrix_chi_squared(rng, d, count):
    """Row sums of the squares of one count x d matrix of normals whose
    first uniforms all precede their second ones."""
    u1, u2 = rng.random(count * d), rng.random(count * d)
    z = np.sqrt(-2.0 * np.log(1.0 - u1)) * np.cos(2.0 * np.pi * u2)
    return (z * z).reshape(count, d).sum(axis=1)


@pytest.mark.parametrize("d, count", [
    (1, 1),
    (2, 3 * (_DRAW_BLOCK // 4) + 1),  # a last block of one row
    (3, 300_001),
    (5, 208_953),
    (100, 4 * (_DRAW_BLOCK // 200) + 1),  # a last block of one row
    (_DRAW_BLOCK // 2 + 1, 3),  # blocks of one row
])
def test_chi_squared_blocks_match_one_matrix(d, count):
    rng, ref_rng = derived_rng(3, d), derived_rng(3, d)
    got = _component_draws(rng, Family.CHI_SQUARED, SharedParams(), d, count)
    assert got.tobytes() == _one_matrix_chi_squared(ref_rng, d, count).tobytes()
    assert rng.random() == ref_rng.random()


#: (family, shared, value, runs, width): one component of each family and
#: the runs of count * width uniforms its draw of count rows reads
_LAYOUTS = [
    (Family.POISSON, SharedParams(), 3, 1, 1),
    (Family.BINOMIAL_P, SharedParams(n=10), Fraction(3, 10), 1, 10),
    (Family.GEOMETRIC_P, SharedParams(), Fraction(1, 4), 1, 1),
    (Family.GEOMETRIC_U, SharedParams(), Fraction(5, 2), 1, 1),
    (Family.GAUSSIAN, SharedParams(sigma=0.5), 2, 2, 1),
    (Family.CHI_SQUARED, SharedParams(), 3, 2, 3),
    (Family.NEG_BINOMIAL, SharedParams(p=Fraction(1, 3)), 4, 4, 1),
]
_LAYOUT_IDS = [case[0].value for case in _LAYOUTS]
#: binomial components at the ends of the grid, whose rows are all 0 or all
#: n: a constant in place of a kernel, over the runs they would read
_CONSTANT_LAYOUTS = [
    (Family.BINOMIAL_P, SharedParams(n=10), Fraction(0), 1, 10),
    (Family.BINOMIAL_P, SharedParams(n=10), Fraction(1), 1, 10),
]
_CONSTANT_IDS = ["binomial-p0", "binomial-p1"]


@pytest.mark.parametrize("family, shared, value, runs, width", _LAYOUTS + _CONSTANT_LAYOUTS,
                         ids=_LAYOUT_IDS + _CONSTANT_IDS)
def test_each_family_is_runs_of_rows(family, shared, value, runs, width):
    assert _layout(family, shared, value)[:2] == (runs, width)


def _one_matrix(rng, family, shared, value, count):
    """One component's draws from one runs x count x width uniform array;
    a constant layout reads the array and fills every row with its value."""
    runs, width, kernel = _layout(family, shared, value)
    out = np.zeros(count, dtype=np.float64 if family in (Family.GAUSSIAN, Family.CHI_SQUARED)
                   else np.int64)
    u = rng.random((runs, count, width))
    if callable(kernel):
        kernel(u, out)
    else:
        out[:] = kernel
    return out


@pytest.mark.parametrize("threads", [1, 2, 3, 5])
@pytest.mark.parametrize("family, shared, value, runs, width", _LAYOUTS + _CONSTANT_LAYOUTS,
                         ids=_LAYOUT_IDS + _CONSTANT_IDS)
@pytest.mark.parametrize("blocks, extra", [(1, -1), (2, 1), (3, 5)])
def test_row_blocks_match_one_matrix(monkeypatch, threads, family, shared, value, runs,
                                     width, blocks, extra):
    # one block, or a last block of one row or of a few rows on one thread
    monkeypatch.setattr(sampling, "_sampling_threads", threads)
    count = blocks * (_DRAW_BLOCK // (runs * width)) + extra
    rng, ref = derived_rng(6, blocks), derived_rng(6, blocks)
    got = _component_draws(rng, family, shared, value, count)
    assert got.tobytes() == _one_matrix(ref, family, shared, value, count).tobytes()
    assert rng.random() == ref.random()


def test_draw_threads_under_a_short_switch_interval(monkeypatch):
    # five threads on fewer cores, switching often: a lost or misplaced
    # write would show as a row that differs from the one-matrix draw
    monkeypatch.setattr(sampling, "_sampling_threads", 5)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for family, shared, value, runs, width in _LAYOUTS:
            count = 7 * (_DRAW_BLOCK // (runs * width)) + 3
            rng, ref = derived_rng(8), derived_rng(8)
            got = _component_draws(rng, family, shared, value, count)
            assert got.tobytes() == _one_matrix(ref, family, shared, value, count).tobytes()
            assert rng.random() == ref.random()
        # and as they place their rows into a shared output
        for spec in _RARE_COMPONENT_SPECS:
            got = sample(spec, 208_953, seed=8).values
            assert got.tobytes() == _one_matrix_sample(spec, 208_953, 8, 0).tobytes()
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("threads", [1, 2, 3, 5])
def test_rows_wider_than_a_block_are_one_row_per_block(monkeypatch, threads):
    monkeypatch.setattr(sampling, "_sampling_threads", threads)
    d = _DRAW_BLOCK // 2 + 1  # runs x width = _DRAW_BLOCK + 2
    rng, ref = derived_rng(7), derived_rng(7)
    got = _component_draws(rng, Family.CHI_SQUARED, SharedParams(), d, 6)
    assert got.tobytes() == _one_matrix(ref, Family.CHI_SQUARED, SharedParams(), d, 6).tobytes()
    assert rng.random() == ref.random()


@pytest.mark.parametrize("family, shared, value", [
    (Family.POISSON, SharedParams(), 0),
    (Family.GEOMETRIC_P, SharedParams(), 1),
    (Family.GEOMETRIC_U, SharedParams(), 1),
    # 1.0 - float(p) rounds to 1.0: every geometric of the sum is 0
    (Family.NEG_BINOMIAL, SharedParams(p=Fraction(1, 10**20)), 3),
])
def test_a_component_of_zero_runs_reads_no_uniform(family, shared, value):
    assert _layout(family, shared, value)[0] == 0
    rng = derived_rng(1)
    draws = _component_draws(rng, family, shared, value, 1000)
    assert draws.dtype == np.int64 and not draws.any()
    # the first uniform of seed 1, as if the draw had not happened
    assert rng.random() == 0.5118216247002567


@pytest.mark.parametrize("threads", [1, 2, 5])
@pytest.mark.parametrize("family, shared, value, runs, width", _CONSTANT_LAYOUTS,
                         ids=_CONSTANT_IDS)
def test_a_constant_component_moves_the_stream_past_its_rows(monkeypatch, threads, family,
                                                             shared, value, runs, width):
    monkeypatch.setattr(sampling, "_sampling_threads", threads)
    count = 5 * (_DRAW_BLOCK // (runs * width))  # five blocks of rows
    rng, ref = derived_rng(6, 5), derived_rng(6, 5)
    got = _component_draws(rng, family, shared, value, count)
    # the counts of uniforms < p in one count x n matrix: all 0 or all n
    assert got.dtype == np.int64
    assert np.array_equal(got, (ref.random((count, width)) < float(value)).sum(axis=1))
    assert rng.random() == ref.random()


def test_a_constant_component_starts_no_thread_and_holds_no_rows(monkeypatch, started_threads):
    monkeypatch.setattr(sampling, "_sampling_threads", 4)
    shared, count = SharedParams(n=10), 10**6
    _component_draws(derived_rng(1), Family.BINOMIAL_P, shared, Fraction(1), 10)  # warm up
    tracemalloc.start()
    try:
        draws = _component_draws(derived_rng(1), Family.BINOMIAL_P, shared, Fraction(1), count)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert started_threads == []
    # neither the 8 MB of draws nor a 1 MB block of uniforms
    assert peak < 2**16
    assert draws.size == count and np.all(draws == 10)


def test_each_poisson_rate_builds_its_table_once():
    spec = _spec(Family.POISSON, (1, 4))
    _poisson.cache_clear()
    sampling._check_count(spec, 1000)
    first = sample(spec, 1000, seed=3)
    second = sample(spec, 1000, seed=3)
    assert np.array_equal(first.values, second.values)
    # rates 1 and 4, built by the check and read by both draws
    assert _poisson.cache_info().misses == 2


def test_a_cached_poisson_table_is_read_only():
    _, _, kernel = _poisson(3.0)
    tables = dict(zip(kernel.__code__.co_freevars,
                      (cell.cell_contents for cell in kernel.__closure__)))
    for name in ("cdf", "lo", "wide", "pad"):
        with pytest.raises(ValueError):
            tables[name][0] = 0


@pytest.mark.parametrize("seed", range(6))
def test_a_rate_over_the_cap_is_refused_whatever_the_seed(seed):
    # the rate-20000 component takes no row at some seeds; the refusal is
    # read from every component's layout before anything is drawn
    spec = uniform_spec(ParameterGrid(Family.POISSON, 1, 0, 20_000), (1, 20_000))
    with pytest.raises(ContractError, match="capped at rate"):
        sample(spec, 1, seed=seed)
    with pytest.raises(ContractError, match="capped at rate"):
        sampling.sample_bytes(spec, 1)


def test_a_zero_run_component_is_charged_no_row():
    # 1 - p rounds to 1.0: 0 over 0 runs, though r alone is wider than a block
    spec = _one_component(Family.NEG_BINOMIAL, 2**17 + 5, p=Fraction(1, 10**20))
    count = 10**6
    assert sampling.sample_bytes(spec, count) == 9 * count
    sample(spec, count, seed=1)  # warm up lazy imports outside the trace
    tracemalloc.start()
    try:
        values = sample(spec, count, seed=1).values
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= sampling.sample_bytes(spec, count) + 3 * 2**20
    assert not values.any()


def test_an_all_constant_mixture_is_charged_no_component_draws():
    # binomial p = 0 and p = 1: the output and one byte of choice a draw
    spec = uniform_spec(ParameterGrid(Family.BINOMIAL_P, Fraction(1, 8), 0, 8), (0, 8),
                        SharedParams(n=10))
    count = 10**6
    assert sampling.sample_bytes(spec, count) == 9 * count
    sample(spec, count, seed=1)  # warm up lazy imports outside the trace
    tracemalloc.start()
    try:
        sample(spec, count, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= sampling.sample_bytes(spec, count) + 3 * 2**20
    # 3e8 draws hold 2.7e9 bytes, within the cap; the check allocates nothing
    sampling._check_count(spec, 3 * 10**8)
    # a component with a kernel holds no draws either: they are placed in
    # the output one block at a time
    mixed = uniform_spec(spec.grid, (0, 4), SharedParams(n=10))
    assert sampling.sample_bytes(mixed, count) == 9 * count


def test_binomial_sampler_memory_is_bounded():
    spec = _spec(Family.BINOMIAL_P, (1, 2), n=200)
    sample(spec, 10, seed=1)  # warm up lazy imports outside the trace
    tracemalloc.start()
    try:
        sample(spec, 2 * 10**5, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one 2e5 x 200 uniform matrix would hold 320 MB
    assert peak < 16 * 2**20


def _searchsorted_reference_sample(spec, count, seed, stream):
    # reference: a binary search per value picks the component, and boolean
    # masks scatter each component's draws
    rng = derived_rng(seed, stream)
    cumw = np.cumsum([float(w) for w in spec.weights])
    cumw[-1] = 1.0
    choice = np.searchsorted(cumw, rng.random(count), side="right")
    out = np.zeros(count, dtype=np.int64)
    for c, value in enumerate(spec.values()):
        mask = choice == c
        if mask.any():
            out[mask] = _component_draws(rng, spec.family, spec.shared, value, int(mask.sum()))
    return out


def _one_matrix_sample(spec, count, seed, stream):
    """Reference: a binary search per choice uniform picks each row's
    component, each component draws its rows from one runs x rows x width
    matrix, and a boolean mask places them."""
    rng = derived_rng(seed, stream)
    cumw = np.cumsum([float(w) for w in spec.weights])
    cumw[-1] = 1.0
    choice = np.searchsorted(cumw, rng.random(count), side="right")
    out = np.zeros(count, dtype=np.float64 if spec.family in (Family.GAUSSIAN,
                                                              Family.CHI_SQUARED)
                   else np.int64)
    for c, value in enumerate(spec.values()):
        mask = choice == c
        out[mask] = _one_matrix(rng, spec.family, spec.shared, value, int(mask.sum()))
    return out


#: a component of weight 1/64 beside common ones: at 2 x 30 uniforms a row
#: its draw blocks of 2,114 rows each span over two choice blocks
_RARE_COMPONENT_SPECS = [
    MixtureSpec(ParameterGrid(Family.POISSON, 1, 0, 8), (1, 4, 7),
                (Fraction(1, 64), Fraction(31, 64), Fraction(1, 2))),
    MixtureSpec(ParameterGrid(Family.BINOMIAL_P, Fraction(1, 4), 0, 4), (1, 3),
                (Fraction(1, 64), Fraction(63, 64)), SharedParams(n=10)),
    MixtureSpec(ParameterGrid(Family.CHI_SQUARED, 1, 1, 30), (1, 30),
                (Fraction(63, 64), Fraction(1, 64))),
]


@pytest.mark.parametrize("spec", _RARE_COMPONENT_SPECS, ids=["poisson", "binomial", "chi-squared"])
@pytest.mark.parametrize("count", [65_535, 65_536, 65_537, 208_953])
def test_placed_rows_match_one_matrix_per_component(monkeypatch, spec, count):
    # each draw thread writes its blocks straight into the component's rows
    # of the output, starting inside a choice block
    expected = _one_matrix_sample(spec, count, 4, 1).tobytes()
    for threads in (1, 2, 3):
        monkeypatch.setattr(sampling, "_sampling_threads", threads)
        assert sample(spec, count, seed=4, stream=1).values.tobytes() == expected, threads


@pytest.mark.parametrize("spec", [
    MixtureSpec(ParameterGrid(Family.POISSON, 1, 0, 8), (0, 2, 5, 8),
                (Fraction(1, 10), Fraction(2, 5), Fraction(1, 4), Fraction(1, 4))),
    _spec(Family.BINOMIAL_P, (0, 1, 2), n=50),
    # more than 256 components: the choice takes two bytes a draw
    uniform_spec(ParameterGrid(Family.POISSON, 1, 0, 299), tuple(range(300))),
])
def test_sample_matches_searchsorted_reference(spec):
    got = sample(spec, 30_000, seed=8, stream=3).values
    assert np.array_equal(got, _searchsorted_reference_sample(spec, 30_000, 8, 3))


def _poisson_cdf(lam):
    """Reference: the summed pmf table a Poisson(lam) draw inverts."""
    cutoff = int(lam + 40.0 * math.sqrt(lam) + 50.0)
    logpmf = -lam + np.arange(cutoff + 1) * math.log(lam) - np.cumsum(
        np.concatenate(([0.0], np.log(np.arange(1, cutoff + 1)))))
    return np.cumsum(np.exp(logpmf))


def _adversarial_uniforms(cdf):
    """Each table entry and its neighbours toward 0 and 2, each edge b/m of
    the m = 2**ceil(log2 len(cdf)) guide buckets and its predecessor, 0.0,
    and the largest double below 1, kept where they are in [0, 1)."""
    m = 1 << (cdf.size - 1).bit_length()
    edges = np.arange(m) / m
    u = np.concatenate([cdf, np.nextafter(cdf, 0.0), np.nextafter(cdf, 2.0),
                        edges, np.nextafter(edges, 0.0), [0.0, np.nextafter(1.0, 0.0)]])
    return u[(u >= 0.0) & (u < 1.0)]


@settings(max_examples=60, deadline=None)
@given(st.floats(-12.0, math.log10(_POISSON_RATE_CAP))
       .map(lambda e: min(10.0**e, _POISSON_RATE_CAP)),
       st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=50),
       st.integers(0, 2**32 - 1))
@example(1e-12, [], 0)
@example(_POISSON_RATE_CAP, [], 0)
def test_poisson_kernel_equals_the_binary_search(lam, drawn, seed):
    cdf = _poisson_cdf(lam)
    u = np.concatenate([drawn, np.random.default_rng(seed).random(10_000),
                        _adversarial_uniforms(cdf)])
    _, _, kernel = _poisson(lam)
    out = np.zeros(u.size, dtype=np.int64)
    kernel(u.reshape(1, -1, 1), out)
    assert np.array_equal(out, np.searchsorted(cdf, u, side="right"))


@pytest.mark.parametrize("threads", [1, 2, 3])
@pytest.mark.parametrize("lam", [1e-12, 1.0, 7.0, 24.0, _POISSON_RATE_CAP])
def test_poisson_draws_equal_the_binary_search_at_any_thread_count(monkeypatch, threads, lam):
    monkeypatch.setattr(sampling, "_sampling_threads", threads)
    count = 3 * _DRAW_BLOCK + 5
    rng, ref = derived_rng(9), derived_rng(9)
    got = _component_draws(rng, Family.POISSON, SharedParams(), lam, count)
    assert np.array_equal(got, np.searchsorted(_poisson_cdf(lam), ref.random(count), side="right"))
    assert rng.random() == ref.random()


def _binomial_spec(n, indices=(1, 5)):
    return uniform_spec(ParameterGrid(Family.BINOMIAL_P, Fraction(1, 8), 0, 8), indices,
                        SharedParams(n=n))


#: sha256 of ``sample(spec, count, seed=5, stream=2).values``, computed with
#: the serial, one-matrix-per-block sampler. Each binomial component of the
#: large counts spans two or more row blocks (2**18 // n rows each).
PINNED_SAMPLES = [
    ("poisson", uniform_spec(ParameterGrid(Family.POISSON, 1, 0, 8), (1, 4)), 20_001,
     "1678dec6a7bbff3e6e3835cf5333d81653a433b3dec44b38fa35ccf762968834"),
    ("poisson-k3", MixtureSpec(ParameterGrid(Family.POISSON, 1, 0, 8), (0, 2, 7),
                               (Fraction(1, 5), Fraction(1, 2), Fraction(3, 10))), 20_001,
     "cfd192f8e35e1997f8858c02a926489de2be9520aa3ff9e9ab1bba03cdc8b366"),
    ("binomial-n1", _binomial_spec(1), 600_001,
     "d060276dd1e01a8f8b099be7dd02056a9cedd71e47588cd0203e9d87b630221b"),
    ("binomial-n10-count1", _binomial_spec(10), 1,
     "35be322d094f9d154a8aba4733b8497f180353bd7ae7b0a15f90b586b549f28b"),
    ("binomial-n10-count17", _binomial_spec(10), 17,
     "21d2ad11c91ea3eceb3614f345f784421fc4f10c4a41051defe4099270804a35"),
    ("binomial-n10", _binomial_spec(10), 60_001,
     "665d372295dde870949232bd34c330868a52ee453db4b21e1b9b71542ac4352c"),
    ("binomial-n1000", _binomial_spec(1000), 1_001,
     "8af808ab49d42d936344094773b6f98c6a2352e96d53a1cf0a82b2fa9e6b535c"),
    ("binomial-n10000", _binomial_spec(10_000, (1, 3, 5)), 157,
     "94a5c2186fc47988ff200c2bec7ef9412e703be17536af4363b0ed1506f1b95f"),
    ("geometric-p", uniform_spec(ParameterGrid(Family.GEOMETRIC_P, Fraction(1, 4), 1, 4), (1, 3)),
     20_001, "ee6b29fb9a6bc9fb6f9e75e132f2f121797d4e5a45e79c284e2157ffb7ca0259"),
    ("geometric-u", uniform_spec(ParameterGrid(Family.GEOMETRIC_U, Fraction(1, 2), 0, 6), (0, 2)),
     20_001, "c7584785bb268a97ab1034401acb88dca394bc979d9301eeaa9b40d2fdaeb633"),
    ("gaussian", uniform_spec(ParameterGrid(Family.GAUSSIAN, 1, 0, 4), (0, 3),
                              SharedParams(sigma=0.5)), 20_001,
     "47dd9af662fe724c242dedb62d68e6fe6bd327cc0d292e69bc4fb30f6334706d"),
    ("chi-squared", uniform_spec(ParameterGrid(Family.CHI_SQUARED, 1, 1, 5), (2, 5)), 20_001,
     "623c5ce6d2a7df95e64e06135b6b924f4db13e5d13d14bdbb5b43946d9b4d709"),
    ("neg-binomial", uniform_spec(ParameterGrid(Family.NEG_BINOMIAL, 1, 1, 4), (1, 3),
                                  SharedParams(p=Fraction(1, 3))), 20_001,
     "14eaa07196dabd209d61f1cd7f796bf71d8d078ed0ad68d7f424fed200cb2d8e"),
    # computed with one binary search of the pmf table per Poisson draw
    ("poisson-0-24", uniform_spec(ParameterGrid(Family.POISSON, 1, 0, 24), (7, 19)), 20_001,
     "cf1fe37c79921f990ea123c24700326df1ecf8a42eefe96c1ef90988587b2d6c"),
    ("poisson-rate-cap", MixtureSpec(ParameterGrid(Family.POISSON, 1, 0, 10_000), (0, 500, 10_000),
                                     (Fraction(1, 5), Fraction(1, 2), Fraction(3, 10))), 20_001,
     "996c8d82d32ccdcc59ebb523e3349e15e384c1436c6b1046920ba81918403dc7"),
]

#: pins over several blocks of component choice, computed with the sampler
#: that drew all ``count`` choice uniforms as one array: 3 * 2**16 + 12,345
#: draws span four blocks of ``_CHOICE_BLOCK`` = 2**16, the last one partial
_BLOCKS_COUNT = 208_953
_TINY = Fraction(1, 10**12)
#: (name, spec, component that draws no row at seed 5, stream 2, digest)
_EMPTY_COMPONENT_SPECS = [
    ("poisson-k3-empty-middle",
     MixtureSpec(ParameterGrid(Family.POISSON, 1, 0, 8), (1, 4, 7),
                 (Fraction(1, 2), _TINY, Fraction(1, 2) - _TINY)), 1,
     "b86a85214254291007ac42eb5a50c5568dc798db0d9ac8bd1e755a3a277d49ac"),
    ("gaussian-empty-first",
     MixtureSpec(ParameterGrid(Family.GAUSSIAN, 1, 0, 4), (0, 3), (_TINY, 1 - _TINY),
                 SharedParams(sigma=0.5)), 0,
     "c5231f12ff4b517cfbf94c6651a26c8e810a1a636e832b3aabb5c1d13193ad6f"),
]
_PINNED_SPECS = {name: spec for name, spec, _, _ in PINNED_SAMPLES}
PINNED_SAMPLES += [
    (name + "-blocks", _PINNED_SPECS[name], _BLOCKS_COUNT, digest) for name, digest in [
        ("poisson", "dab36b5a33f2a82668ac5cc6174dcc138f870caf721585369e4d2858a889c03c"),
        ("poisson-k3", "e53ec4b554f11b4f633b0273d0287a1c519428c5ac952e645c4d87a317aaddff"),
        ("binomial-n10", "af4bb895eedec229fe01436dca936d1904ad0e94e03f26b9ffbededec5f2190f"),
        ("geometric-p", "f06a2d96266740968bda0b16d932905ba8cf3864d6862daf2d453668910e7117"),
        ("geometric-u", "01b6ae8a25c8fe0ea75eb2b704fe67c1436777bdc2fa0489470858744266608a"),
        ("gaussian", "73b64ff540f800fc0e05d9673d3aba0ba4076c01f33b8192b88b9a5e0249a472"),
        ("chi-squared", "acae7e41fcc6f98bd09d60de3c806a1f060600a76dd493a6420553056e0b2c0b"),
        ("neg-binomial", "16fd60fc0d8477babb3d2867b5c756a2b42381ff1d6dd5daffdb45e626723d30"),
        ("poisson-0-24", "94358b4adede16e3b205e89378cb9a61f7ec6827c5033c1c9db69f8adbada053"),
        ("poisson-rate-cap", "130fa947dfe2914eab7a46458aa0d5382b5e9ccb85807c8984e10827e1b9bf09"),
    ]
] + [
    ("binomial-k3-blocks",
     MixtureSpec(ParameterGrid(Family.BINOMIAL_P, Fraction(1, 8), 0, 8), (1, 4, 6),
                 (Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)), SharedParams(n=10)),
     _BLOCKS_COUNT, "b11f7091c00072e7e20e0dc36c734a11dc9a2243e027cac936712c2acc89e6a5"),
] + [(name, spec, _BLOCKS_COUNT, digest) for name, spec, _, digest in _EMPTY_COMPONENT_SPECS]
#: binomial components at p = 0 or p = 1, computed with the sampler that drew
#: and compared n uniforms a row for them as for any other p
_ENDPOINTS = _binomial_spec(10, (0, 3, 8))
PINNED_SAMPLES += [
    ("binomial-endpoints", _ENDPOINTS, 20_001,
     "0bedda48524bb986a914dc67a4e70be1f0c6b6876a198c2f7efb723bdf72b372"),
    ("binomial-endpoints-blocks", _ENDPOINTS, _BLOCKS_COUNT,
     "ff9266f1a49c5aa22e003d4921c07c279ef03195dc6a975d7c6f898d99b5850d"),
    # the algebraic benchmark's binomial route: p = 1/2 and p = 1
    ("binomial-half-one-blocks",
     uniform_spec(ParameterGrid(Family.BINOMIAL_P, Fraction(1, 2), 0, 2), (1, 2),
                  SharedParams(n=10)), _BLOCKS_COUNT,
     "d322cd2709fc451ed30cf906bfb34edc1ae1f03875bc43a415b2bf7bbc217310"),
    ("binomial-n1000-zero-one",
     uniform_spec(ParameterGrid(Family.BINOMIAL_P, Fraction(1, 4), 0, 4), (0, 4),
                  SharedParams(n=1000)), 1_001,
     "64b135da6a489245f332c2da695755241c428f69a081ba83dac1e789cc2c2b46"),
]


@pytest.mark.parametrize("spec, count, digest", [case[1:] for case in PINNED_SAMPLES],
                         ids=[case[0] for case in PINNED_SAMPLES])
def test_sample_arrays_are_frozen(spec, count, digest):
    values = sample(spec, count, seed=5, stream=2).values
    assert values.dtype == (np.float64 if spec.family in (Family.GAUSSIAN, Family.CHI_SQUARED)
                            else np.int64)
    assert hashlib.sha256(values.tobytes()).hexdigest() == digest


def _reference_rows(spec, count, seed, stream=0):
    """Rows per component, from one binary search per choice uniform."""
    cumw = np.cumsum([float(w) for w in spec.weights])
    cumw[-1] = 1.0
    choice = np.searchsorted(cumw, derived_rng(seed, stream).random(count), side="right")
    return np.bincount(choice, minlength=spec.k)


@pytest.mark.parametrize("spec, empty", [case[1:3] for case in _EMPTY_COMPONENT_SPECS],
                         ids=[case[0] for case in _EMPTY_COMPONENT_SPECS])
def test_pinned_component_draws_no_row(spec, empty):
    assert _BLOCKS_COUNT > 3 * sampling._CHOICE_BLOCK and _BLOCKS_COUNT % sampling._CHOICE_BLOCK
    assert _reference_rows(spec, _BLOCKS_COUNT, 5, 2)[empty] == 0


@pytest.mark.parametrize("family, indices, shared", [
    (Family.POISSON, (1, 4), {}),
    (Family.BINOMIAL_P, (1, 2), {"n": 10}),
    (Family.GEOMETRIC_P, (1, 3), {}),
    (Family.GEOMETRIC_U, (0, 2), {}),
    (Family.GAUSSIAN, (0, 3), {"sigma": 1.0}),
    (Family.CHI_SQUARED, (2, 5), {}),
    (Family.NEG_BINOMIAL, (1, 3), {"p": Fraction(1, 3)}),
])
def test_sample_memory_is_bounded_per_draw(family, indices, shared):
    spec = _spec(family, indices, **shared)
    count = 10**6
    sample(spec, count, seed=1)  # warm up lazy imports and tables outside the trace
    tracemalloc.start()
    try:
        sample(spec, count, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the int64 or float64 output, one byte of choice a draw and 3 MB of
    # fixed-size scratch: no component's draws are held apart from the output
    assert peak <= 8 * count + count + 3 * 2**20
    assert peak <= sampling.sample_bytes(spec, count) + 3 * 2**20


@pytest.mark.parametrize("spec", [
    _spec(Family.BINOMIAL_P, (1, 2), n=10),
    uniform_spec(ParameterGrid(Family.BINOMIAL_P, Fraction(1, 4), 0, 4), (1, 3),
                 SharedParams(n=10)),
    _spec(Family.POISSON, (1, 4)),
    _spec(Family.GEOMETRIC_P, (1, 3)),
    _spec(Family.GAUSSIAN, (0, 3), sigma=1.0),
], ids=["binomial-half-one", "binomial-quarter", "poisson", "geometric-p", "gaussian"])
def test_sample_scratch_does_not_grow_with_the_draw_threads(monkeypatch, spec):
    count = 10**6
    peaks = []
    for threads in (8, 1, 8):  # the first run warms up lazy imports and tables
        monkeypatch.setattr(sampling, "_sampling_threads", threads)
        tracemalloc.start()
        try:
            sample(spec, count, seed=1)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # the threads of a draw share one block of placement scratch; each of
    # the 7 more threads adds its bookkeeping and numpy's fixed-size casting
    # buffers (about 45 KiB for a binomial), where a choice block of row
    # indices would add 512 KiB
    assert peaks[2] <= peaks[1] + 2**19


def test_a_draw_past_the_sample_cap_allocates_nothing():
    spec = _spec(Family.POISSON, (1, 4))
    # the output and the choice
    assert sampling.sample_bytes(spec, 10**13) == 10**13 * (8 + 1) > sampling.SAMPLE_CAP
    tracemalloc.start()
    try:
        with pytest.raises(CapExceededError):
            sample(spec, 10**13, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**16


def _one_component(family, value, **shared):
    return MixtureSpec(ParameterGrid(family, 1, value, value), (value,), (Fraction(1),),
                       SharedParams(**shared))


@pytest.mark.parametrize("threads", [1, 2])
def test_rows_wider_than_a_block_are_counted_per_draw_thread(monkeypatch, threads):
    monkeypatch.setattr(sampling, "_sampling_threads", threads)
    # a row of 2 x 2**20 uniforms holds 16 MB, and the draw holds one row at
    # any thread count
    spec = _one_component(Family.CHI_SQUARED, 2**20)
    sample(spec, 2, seed=1)  # warm up lazy imports outside the trace
    tracemalloc.start()
    try:
        sample(spec, 2, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= sampling.sample_bytes(spec, 2) + 3 * 2**20


@pytest.mark.parametrize("spec", [
    # one row of 2d, or of r, float64 uniforms holds just over 2**32 bytes
    _one_component(Family.CHI_SQUARED, 2**28 + 1),
    _one_component(Family.NEG_BINOMIAL, 2**29 + 1, p=Fraction(1, 3)),
], ids=["chi-squared", "neg-binomial"])
def test_a_row_past_the_sample_cap_allocates_nothing(spec):
    assert sampling.sample_bytes(spec, 1) > sampling.SAMPLE_CAP
    tracemalloc.start()
    try:
        with pytest.raises(CapExceededError):
            sample(spec, 1, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**16


@pytest.mark.parametrize("threads", [1, 2, 3, 5])
@pytest.mark.parametrize("n, count", [
    (10, 10 * (_DRAW_BLOCK // 10) + 3),
    (1000, 8 * (_DRAW_BLOCK // 1000)),
    (7, 4 * (_DRAW_BLOCK // 7) + 3),
])
def test_binomial_rows_do_not_depend_on_the_thread_count(monkeypatch, threads, n, count):
    monkeypatch.setattr(sampling, "_sampling_threads", threads)
    rng, ref = derived_rng(4, n), derived_rng(4, n)
    got = _binomial_rows(rng, n, 0.3, count)
    assert np.array_equal(got, (ref.random((count, n)) < 0.3).sum(axis=1))
    assert rng.random() == ref.random()


@pytest.fixture
def started_threads(monkeypatch):
    """Every thread started during the test, through a counting subclass."""
    started = []

    class CountingThread(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(threading, "Thread", CountingThread)
    return started


def test_a_draw_of_one_block_starts_no_thread(monkeypatch, started_threads):
    monkeypatch.setattr(sampling, "_sampling_threads", 4)
    for family, shared, value, runs, width in _LAYOUTS:
        rows = _DRAW_BLOCK // (runs * width)
        started_threads.clear()
        _component_draws(derived_rng(1), family, shared, value, rows)
        assert started_threads == [], family
        _component_draws(derived_rng(1), family, shared, value, rows + 1)  # two blocks
        assert len(started_threads) == 1, family
    started_threads.clear()
    sample(uniform_spec(ParameterGrid(Family.POISSON, 1, 0, 8), (1, 4)), 50_000, seed=1)
    assert started_threads == []


def test_no_sampler_thread_outlives_its_call(monkeypatch, started_threads):
    monkeypatch.setattr(sampling, "_sampling_threads", 3)
    before = threading.active_count()
    for family, shared, value, runs, width in _LAYOUTS:
        started_threads.clear()
        _component_draws(derived_rng(2), family, shared, value,
                         5 * (_DRAW_BLOCK // (runs * width)))
        assert len(started_threads) == 2, family
        assert [t for t in started_threads if t.is_alive()] == []
    # five row blocks per component at n = 10
    sample(_binomial_spec(10), _DRAW_BLOCK, seed=2)
    assert threading.active_count() == before


def test_a_failing_range_raises_after_every_range_has_ended(monkeypatch, started_threads):
    # three ranges of four one-row blocks; the first thread that is not the
    # caller's fails at its first row, the other keeps going slowly
    monkeypatch.setattr(sampling, "_sampling_threads", 3)
    caller, failed, lock = threading.current_thread(), [], threading.Lock()

    def kernel(u, out):
        if threading.current_thread() is not caller:
            with lock:
                if not failed:
                    failed.append(RuntimeError("kernel failed"))
                    raise failed[0]
            time.sleep(0.01)
        out[:] = 1

    out = np.zeros(12, dtype=np.int64)
    rng, ref = derived_rng(3), derived_rng(3)
    with pytest.raises(RuntimeError) as raised:
        sampling._draw_rows(rng, 1, _DRAW_BLOCK // 4, kernel, out)
    assert raised.value is failed[0]
    assert len(started_threads) == 2
    assert [t for t in started_threads if t.is_alive()] == []
    # the caller's range and the slow range are whole; only the failed
    # range's four rows are unwritten
    assert out[:4].all() and out.sum() == 8
    assert rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("threads", [1, 5])
def test_draw_threads_share_one_block_of_scratch(monkeypatch, threads):
    monkeypatch.setattr(sampling, "_sampling_threads", threads)
    count = 5 * _DRAW_BLOCK  # five blocks or more for every family
    for family, shared, value, _, _ in _LAYOUTS:
        _component_draws(derived_rng(1), family, shared, value, 10)  # warm up
        tracemalloc.start()
        try:
            _component_draws(derived_rng(1), family, shared, value, count)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the 8-byte draws plus one block of float64 scratch and a kernel
        # temporary of at most the same size, with room for the threads'
        # bookkeeping but not for a second block
        assert peak < 8 * count + 16 * _DRAW_BLOCK + 2**19, family


@pytest.mark.parametrize("threads", [1, 2, 8])
def test_rows_of_over_half_a_block_take_one_draw_thread(monkeypatch, threads):
    monkeypatch.setattr(sampling, "_sampling_threads", threads)
    # a row of 2 x 60,000 uniforms: a block holds one, so the draw's threads
    # hold one row between them, not one each
    count = 8
    _component_draws(derived_rng(1), Family.CHI_SQUARED, SharedParams(), 60_000, 1)  # warm up
    tracemalloc.start()
    try:
        _component_draws(derived_rng(1), Family.CHI_SQUARED, SharedParams(), 60_000, count)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * count + 16 * _DRAW_BLOCK + 2**19


def test_sample_bytes_is_the_same_at_any_cpu_count(monkeypatch, started_threads):
    specs = [_spec(family, (1, 2), **dataclasses.asdict(shared))
             for family, shared, _, _, _ in _LAYOUTS]
    specs += [_one_component(Family.CHI_SQUARED, d) for d in (60_000, 2**20, 2**27)]
    specs.append(_one_component(Family.NEG_BINOMIAL, 2**18, p=Fraction(1, 3)))
    for spec in specs:
        for count in (1, 2, 8, 10**6):
            held = set()
            for cpus in (1, 2, 64):
                monkeypatch.setattr(sampling, "_sampling_threads", cpus)
                held.add(sampling.sample_bytes(spec, count))
            assert len(held) == 1, (spec, count)
    # the output, the choice and one row of 2 x 2**27 uniforms: under the
    # cap on every host
    assert sampling.sample_bytes(specs[-2], 2) == 2 * 9 + 8 * 2**28 <= sampling.SAMPLE_CAP
    assert started_threads == []


def _binomial_experiment():
    # about 60,000 samples per component: three row blocks each at n = 10
    return ExperimentConfig(
        family=Family.BINOMIAL_P, method="moments", eps=Fraction(1, 2), min_index=0,
        max_index=2, k=2, truth=(1, 2), samples=120_000, trials=2, seed=5, n=10,
    )


def test_parallel_binomial_experiment_matches_serial(monkeypatch):
    # one trial thread drawing on one thread, then, with 4 CPUs, two trial
    # threads each splitting its draws in two
    monkeypatch.setattr(sampling, "_sampling_threads", 1)
    serial = run_experiment(_binomial_experiment())
    monkeypatch.setattr(sampling, "_sampling_threads", 4)
    assert run_experiment(_binomial_experiment()).rows == serial.rows


def test_an_experiment_never_forks_and_joins_every_thread(monkeypatch, started_threads):
    def no_fork():
        raise AssertionError("run_experiment forked")

    monkeypatch.setattr(os, "fork", no_fork)
    for cpus in (2, 4):
        monkeypatch.setattr(sampling, "_sampling_threads", cpus)
        started_threads.clear()
        assert run_experiment(_binomial_experiment()).successes == 2
        assert [t for t in started_threads if t.is_alive()] == []
        if cpus == 2:  # each of the two trial threads draws on one thread
            assert len(started_threads) <= 2
        else:  # and on two of 4 CPUs, so its draws of several blocks split
            assert len(started_threads) > 2


def test_geometric_sampler_memory_is_bounded():
    rng = derived_rng(1)
    _component_draws(rng, Family.GEOMETRIC_P, SharedParams(), 0.25, 10)  # warm up
    tracemalloc.start()
    try:
        _component_draws(rng, Family.GEOMETRIC_P, SharedParams(), 0.25, 10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the int64 result, 8 MB, and one block of uniforms and its int64 floors
    assert peak < 8 * 10**6 + 2**20 + 2**21
