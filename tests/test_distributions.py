import math
from fractions import Fraction

import numpy as np
import pytest

scipy_stats = pytest.importorskip("scipy.stats")

from mixlearn import (
    ContractError,
    DomainError,
    Family,
    ParameterGrid,
    SharedParams,
    cdf,
    char_fn,
    mixture_moment_exact,
    mixture_pmf_exact,
    pmf_or_pdf,
    uniform_spec,
)
from mixlearn.distributions import mgf_a2x, pdf_array
from mixlearn.polynomials import moment_polynomial


def _poisson_spec(indices, max_index=6):
    grid = ParameterGrid(Family.POISSON, 1, 0, max_index)
    return uniform_spec(grid, indices)


def test_poisson_pmf_matches_scipy():
    spec = _poisson_spec((1, 4))
    for x in range(15):
        ref = 0.5 * (scipy_stats.poisson.pmf(x, 1) + scipy_stats.poisson.pmf(x, 4))
        assert pmf_or_pdf(spec, x) == pytest.approx(ref, abs=1e-14)


def test_binomial_pmf_matches_scipy_and_edge_cases():
    grid = ParameterGrid(Family.BINOMIAL_P, Fraction(1, 2), 0, 2)
    spec = uniform_spec(grid, (0, 1, 2), SharedParams(n=10))
    for x in range(11):
        ref = (
            scipy_stats.binom.pmf(x, 10, 0.0)
            + scipy_stats.binom.pmf(x, 10, 0.5)
            + scipy_stats.binom.pmf(x, 10, 1.0)
        ) / 3.0
        assert pmf_or_pdf(spec, x) == pytest.approx(ref, abs=1e-14)
    with pytest.raises(DomainError):
        pmf_or_pdf(spec, 11)


def test_binomial_pmf_large_n_uses_log_space():
    # C(2000, x) does not fit in a float for most x
    grid = ParameterGrid(Family.BINOMIAL_P, Fraction(1, 4), 0, 4)
    spec = uniform_spec(grid, (1,), SharedParams(n=2000))
    for x in (0, 300, 500, 700, 2000):
        assert pmf_or_pdf(spec, x) == pytest.approx(
            scipy_stats.binom.pmf(x, 2000, 0.25), rel=1e-9, abs=1e-300)
    # where C(n, x) fits, the direct formula is kept bit for bit
    small = uniform_spec(grid, (1,), SharedParams(n=40))
    for x in range(41):
        assert pmf_or_pdf(small, x) == math.comb(40, x) * 0.25**x * 0.75 ** (40 - x)


def test_negative_binomial_pmf_large_count_uses_log_space():
    # C(x + 1099, x) does not fit in a float from x = 292 on, and
    # (1/2)^1100 alone underflows
    grid = ParameterGrid(Family.NEG_BINOMIAL, 1, 1, 1100)
    spec = uniform_spec(grid, (1100,), SharedParams(p=Fraction(1, 2)))
    for x in (0, 100, 291, 292, 700, 1100, 1500, 3000):
        assert pmf_or_pdf(spec, x) == pytest.approx(
            scipy_stats.nbinom.pmf(x, 1100, 0.5), rel=1e-9, abs=1e-300)
    # where C(x + r - 1, x) and both powers fit, the direct formula is kept
    # bit for bit
    shared = SharedParams(p=Fraction(1, 3))
    p = float(shared.p)
    for r in (1, 2, 7, 40):
        small = uniform_spec(grid, (r,), shared)
        for x in range(400):
            assert pmf_or_pdf(small, x) == math.comb(x + r - 1, x) * (1.0 - p) ** r * p**x


def test_pdf_array_matches_scalar_density():
    gaussian = uniform_spec(ParameterGrid(Family.GAUSSIAN, 1, 0, 4), (0, 3),
                            SharedParams(sigma=1.5))
    chi2 = uniform_spec(ParameterGrid(Family.CHI_SQUARED, 1, 1, 6), (2, 5))
    for spec, xs in ((gaussian, np.linspace(-9.0, 12.0, 301)),
                     (chi2, np.linspace(0.0, 60.0, 301))):
        got = pdf_array(spec, xs)
        ref = np.array([pmf_or_pdf(spec, float(x)) for x in xs])
        np.testing.assert_allclose(got, ref, rtol=1e-13, atol=0.0)
    chi1 = uniform_spec(ParameterGrid(Family.CHI_SQUARED, 1, 1, 6), (1, 5))
    with pytest.raises(DomainError):
        pdf_array(chi1, np.array([0.0, 1.0]))
    with pytest.raises(DomainError):
        pdf_array(chi2, np.array([-1.0]))


def test_geometric_pmf_and_degenerate_zero_component():
    grid = ParameterGrid(Family.GEOMETRIC_P, Fraction(1, 4), 0, 4)
    spec = uniform_spec(grid, (0, 2))  # p in {0, 1/2}
    for x in range(10):
        # p = 0 contributes zero mass; scipy uses support starting at 1
        ref = 0.5 * scipy_stats.geom.pmf(x + 1, 0.5)
        assert pmf_or_pdf(spec, x) == pytest.approx(ref, abs=1e-14)


def test_gaussian_pdf_and_cdf_match_scipy():
    grid = ParameterGrid(Family.GAUSSIAN, 1, 0, 4)
    spec = uniform_spec(grid, (0, 3), SharedParams(sigma=1.0))
    for x in (-1.0, 0.0, 0.5, 1.5, 3.0, 4.2):
        ref_pdf = 0.5 * (scipy_stats.norm.pdf(x, 0) + scipy_stats.norm.pdf(x, 3))
        ref_cdf = 0.5 * (scipy_stats.norm.cdf(x, 0) + scipy_stats.norm.cdf(x, 3))
        assert pmf_or_pdf(spec, x) == pytest.approx(ref_pdf, abs=1e-13)
        assert cdf(spec, x) == pytest.approx(ref_cdf, abs=1e-12)


def test_chi_squared_pdf_and_cdf_match_scipy():
    grid = ParameterGrid(Family.CHI_SQUARED, 1, 1, 5)
    spec = uniform_spec(grid, (2, 5))
    for x in (0.1, 0.5, 1.0, 3.0, 8.0):
        ref_pdf = 0.5 * (scipy_stats.chi2.pdf(x, 2) + scipy_stats.chi2.pdf(x, 5))
        ref_cdf = 0.5 * (scipy_stats.chi2.cdf(x, 2) + scipy_stats.chi2.cdf(x, 5))
        assert pmf_or_pdf(spec, x) == pytest.approx(ref_pdf, abs=1e-13)
        assert cdf(spec, x) == pytest.approx(ref_cdf, abs=1e-12)


def test_neg_binomial_pmf_matches_scipy():
    grid = ParameterGrid(Family.NEG_BINOMIAL, 1, 1, 4)
    spec = uniform_spec(grid, (1, 3), SharedParams(p=Fraction(1, 2)))
    # our pmf C(x+r-1, x) (1-p)^r p^x == scipy nbinom(r, 1-p)
    for x in range(12):
        ref = 0.5 * (
            scipy_stats.nbinom.pmf(x, 1, 0.5) + scipy_stats.nbinom.pmf(x, 3, 0.5)
        )
        assert pmf_or_pdf(spec, x) == pytest.approx(ref, abs=1e-14)


def test_cdf_rejected_for_discrete_families():
    with pytest.raises(ContractError):
        cdf(_poisson_spec((1, 4)), 2.0)


def test_char_fn_matches_numeric_sum():
    spec = _poisson_spec((1, 4))
    for t in (0.1, 0.7, 1.9):
        numeric = sum(
            pmf_or_pdf(spec, x) * complex(math.cos(t * x), math.sin(t * x))
            for x in range(80)
        )
        assert abs(char_fn(spec, t) - numeric) < 1e-12


def test_char_fn_at_zero_is_one():
    grid = ParameterGrid(Family.GAUSSIAN, 1, 0, 4)
    spec = uniform_spec(grid, (0, 3), SharedParams(sigma=2.0))
    assert char_fn(spec, 0.0) == pytest.approx(1.0)


def test_moment_order_zero_is_one():
    assert mixture_moment_exact(_poisson_spec((1, 4)), 0) == 1


def test_binomial_moment_value():
    # k=1, n=2, p=1/2: E X^2 = 2(1/2) + 2(1/4) = 3/2
    grid = ParameterGrid(Family.BINOMIAL_P, Fraction(1, 2), 0, 2)
    spec = uniform_spec(grid, (1,), SharedParams(n=2))
    assert mixture_moment_exact(spec, 2) == Fraction(3, 2)


def test_poisson_moment_value():
    # lambda = 1: E X^2 = lambda + lambda^2 = 2
    spec = _poisson_spec((1,))
    assert mixture_moment_exact(spec, 2) == 2


def test_poisson_moment_against_series():
    spec = _poisson_spec((2, 5))
    for ell in range(1, 5):
        series = sum(x**ell * pmf_or_pdf(spec, x) for x in range(200))
        assert float(mixture_moment_exact(spec, ell)) == pytest.approx(series)


def test_exact_pmf_geometric():
    grid = ParameterGrid(Family.GEOMETRIC_P, Fraction(1, 4), 0, 4)
    spec = uniform_spec(grid, (1, 2))  # p in {1/4, 1/2}
    assert mixture_pmf_exact(spec, 0) == Fraction(1, 2) * (
        Fraction(1, 4) + Fraction(1, 2)
    )
    total = sum(mixture_pmf_exact(spec, x) for x in range(200))
    assert float(total) == pytest.approx(1.0)


@pytest.mark.parametrize("family, step, max_index, shared", [
    (Family.BINOMIAL_P, Fraction(1, 7), 7, SharedParams(n=12)),
    (Family.GEOMETRIC_U, Fraction(2, 3), 6, SharedParams()),
    (Family.POISSON, 1, 6, SharedParams()),
])
def test_mixture_moment_exact_matches_the_polynomial(family, step, max_index, shared):
    # the integer Horner path against Fraction evaluation of the polynomial
    from itertools import combinations

    grid = ParameterGrid(family, step, 0, max_index)
    for k in (1, 2, 3):
        for idx in combinations(grid.indices(), k):
            spec = uniform_spec(grid, idx, shared)
            for ell in range(0, 13):
                poly = moment_polynomial(family, shared, ell)
                expected = sum((w * poly(v) for w, v in spec.components()), Fraction(0))
                assert mixture_moment_exact(spec, ell) == expected


def test_mgf_a2x_is_infinite_past_the_float_range():
    assert math.isinf(mgf_a2x(Family.POISSON, None, Fraction(300), 2.0))
    assert mgf_a2x(Family.POISSON, None, Fraction(236), 2.0) == math.exp(708.0)


def test_mgf_a2x_divergence():
    assert math.isinf(mgf_a2x(Family.GEOMETRIC_P, None, Fraction(1, 4), 2.0))
    finite = mgf_a2x(Family.GEOMETRIC_P, None, Fraction(3, 4), 1.5)
    assert finite == pytest.approx(0.75 / (1.0 - 0.25 * 2.25))
