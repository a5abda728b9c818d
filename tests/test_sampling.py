import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from mixlearn import (
    DomainError,
    Family,
    MixtureSpec,
    ParameterGrid,
    SampleDataset,
    SharedParams,
    mixture_moment_exact,
    pmf_or_pdf,
    sample,
    uniform_spec,
)
from mixlearn.sampling import (
    _BINOMIAL_BLOCK_ELEMENTS,
    _binomial_rows,
    _component_draws,
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
])
def test_sample_matches_searchsorted_reference(spec):
    got = sample(spec, 30_000, seed=8, stream=3).values
    assert np.array_equal(got, _searchsorted_reference_sample(spec, 30_000, 8, 3))
