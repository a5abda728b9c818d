import hashlib
import math
import threading
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

import mixlearn.sampling as sampling
from mixlearn import (
    CapExceededError,
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
    _BINOMIAL_BLOCK_ELEMENTS,
    _binomial_rows,
    _component_draws,
    _geometric_inverse,
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


@pytest.mark.parametrize("n, count", [
    (1000, _BINOMIAL_BLOCK_ELEMENTS // 1000 - 1),
    (1000, _BINOMIAL_BLOCK_ELEMENTS // 1000),
    (1000, _BINOMIAL_BLOCK_ELEMENTS // 1000 + 1),
    (7, 3 * (_BINOMIAL_BLOCK_ELEMENTS // 7) + 5),
    (10_000, 5),
])
def test_chunked_binomial_matches_one_matrix(n, count):
    # row blocks consume the uniform stream exactly as one count x n matrix
    rng, ref_rng = derived_rng(3, n), derived_rng(3, n)
    got = _binomial_rows(rng, n, 0.3, count)
    assert got.dtype == np.int64
    assert np.array_equal(got, (ref_rng.random((count, n)) < 0.3).sum(axis=1))
    assert rng.random() == ref_rng.random()


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
    ]
] + [
    ("binomial-k3-blocks",
     MixtureSpec(ParameterGrid(Family.BINOMIAL_P, Fraction(1, 8), 0, 8), (1, 4, 6),
                 (Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)), SharedParams(n=10)),
     _BLOCKS_COUNT, "b11f7091c00072e7e20e0dc36c734a11dc9a2243e027cac936712c2acc89e6a5"),
] + [(name, spec, _BLOCKS_COUNT, digest) for name, spec, _, digest in _EMPTY_COMPONENT_SPECS]


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
    rows = _reference_rows(spec, count, 1)
    draws = max(int(r) * sampling._draw_bytes(family, value)
                for r, value in zip(rows, spec.values()))
    # the int64 or float64 output, one byte of choice a draw, the largest
    # component's draws, and 3 MB of fixed-size scratch
    assert peak <= 8 * count + count + draws + 3 * 2**20
    assert peak <= sampling.sample_bytes(spec, count) + 3 * 2**20


def test_a_draw_past_the_sample_cap_allocates_nothing():
    spec = _spec(Family.POISSON, (1, 4))
    # output, choice and a Poisson component's uniforms and indices
    assert sampling.sample_bytes(spec, 10**13) == 10**13 * (8 + 1 + 16) > sampling.SAMPLE_CAP
    tracemalloc.start()
    try:
        with pytest.raises(CapExceededError):
            sample(spec, 10**13, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**16


@pytest.mark.parametrize("threads", [1, 2, 3, 5])
@pytest.mark.parametrize("n, count", [
    (10, 5 * (_BINOMIAL_BLOCK_ELEMENTS // 10) + 3),
    (1000, 4 * (_BINOMIAL_BLOCK_ELEMENTS // 1000)),
    (7, 2 * (_BINOMIAL_BLOCK_ELEMENTS // 7) + 1),
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
    rows = _BINOMIAL_BLOCK_ELEMENTS // 10
    _binomial_rows(derived_rng(1), 10, 0.3, rows)
    sample(uniform_spec(ParameterGrid(Family.POISSON, 1, 0, 8), (1, 4)), 50_000, seed=1)
    assert started_threads == []
    _binomial_rows(derived_rng(1), 10, 0.3, rows + 1)  # two blocks: one more thread
    assert len(started_threads) == 1


def test_no_sampler_thread_outlives_its_call(monkeypatch, started_threads):
    monkeypatch.setattr(sampling, "_sampling_threads", 3)
    before = threading.active_count()
    _binomial_rows(derived_rng(2), 10, 0.3, 5 * (_BINOMIAL_BLOCK_ELEMENTS // 10))
    assert len(started_threads) == 2
    assert [t for t in started_threads if t.is_alive()] == []
    # about five row blocks per component at n = 10
    sample(_binomial_spec(10), _BINOMIAL_BLOCK_ELEMENTS, seed=2)
    assert threading.active_count() == before


@pytest.mark.parametrize("threads", [1, 5])
def test_binomial_threads_share_one_block_of_scratch(monkeypatch, threads):
    monkeypatch.setattr(sampling, "_sampling_threads", threads)
    _binomial_rows(derived_rng(1), 10, 0.3, 10)  # warm up outside the trace
    count = 10**5
    tracemalloc.start()
    try:
        _binomial_rows(derived_rng(1), 10, 0.3, count)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the int64 result plus one block of float64 and bool scratch, with room
    # for einsum's casting buffers but not for a second block
    assert peak < 8 * count + 9 * _BINOMIAL_BLOCK_ELEMENTS + 2**18


def _binomial_experiment():
    # about 60,000 samples per component: three row blocks each at n = 10
    return ExperimentConfig(
        family=Family.BINOMIAL_P, method="moments", eps=Fraction(1, 2), min_index=0,
        max_index=2, k=2, truth=(1, 2), samples=120_000, trials=2, seed=5, n=10,
    )


def test_parallel_binomial_experiment_matches_serial(monkeypatch):
    monkeypatch.setattr(sampling, "_sampling_threads", 2)
    serial = run_experiment(_binomial_experiment())
    monkeypatch.setenv("MIXLEARN_THREADS", "2")
    assert run_experiment(_binomial_experiment()).rows == serial.rows


def test_pool_workers_sample_on_one_thread(monkeypatch):
    import mixlearn.learners as learners

    monkeypatch.setattr(sampling, "_sampling_threads", 4)
    monkeypatch.setattr(learners, "_worker_experiment", None)
    learners._start_worker(_binomial_experiment(), None)
    assert sampling._sampling_threads == 1


def _fork_warnings():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        run_experiment(_binomial_experiment())
    return [w for w in caught if "multi-threaded" in str(w.message)]


def test_no_sampler_thread_is_alive_when_the_pool_forks(monkeypatch):
    # Python 3.12+ warns at each fork of a process with more than one OS
    # thread; earlier versions never warn. A BLAS thread pool can make the
    # process multi-threaded before any sampling, so the count of warnings
    # before a threaded draw is the baseline.
    monkeypatch.setenv("MIXLEARN_THREADS", "2")
    monkeypatch.setattr(sampling, "_sampling_threads", 2)
    baseline = len(_fork_warnings())
    sample(_binomial_spec(10), 3 * _BINOMIAL_BLOCK_ELEMENTS // 10, seed=3)
    assert len(_fork_warnings()) == baseline


def test_geometric_sampler_memory_is_bounded():
    rng = derived_rng(1)
    _geometric_inverse(rng, 0.25, 10)  # warm up outside the trace
    tracemalloc.start()
    try:
        _geometric_inverse(rng, 0.25, 10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the uniforms and the int64 result, 8 MB each, and no temporaries
    assert peak < 2 * 8 * 10**6 + 2**20
