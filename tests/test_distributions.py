import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
from mixlearn.distributions import (
    _as_count,
    _component_charfn,
    _component_pdf,
    _component_pmf,
    mgf_a2x,
    pdf_array,
)
from mixlearn.grids import ANALYTIC_FAMILIES, DISCRETE_FAMILIES, MixtureSpec
from mixlearn.polynomials import moment_polynomial
from mixlearn.special import chi_squared_cdf, normal_cdf
from mixlearn.tv import mass_table


# The per-spec mixing loops that ``_mix`` replaced, kept as the reference it
# must match bit for bit.

def _reference_pdf_array(spec, xs):
    xs = np.asarray(xs, dtype=np.float64)
    total = np.zeros(xs.shape)
    for w, v in spec.components():
        total += float(w) * _component_pdf(spec.family, spec.shared, v, xs)
    return total


def _reference_pmf_or_pdf(spec, x):
    if spec.family in DISCRETE_FAMILIES:
        xi = _as_count(x)
        total = 0.0
        for w, v in spec.components():
            total += float(w) * _component_pmf(spec.family, spec.shared, v, xi)
        return total
    return float(_reference_pdf_array(spec, x))


def _reference_cdf(spec, x):
    if spec.family is Family.GAUSSIAN:
        component_cdf = lambda v: normal_cdf(float(x), float(v), spec.shared.sigma)
    else:
        component_cdf = lambda v: chi_squared_cdf(int(v), float(x))
    total = 0.0
    for w, v in spec.components():
        total += float(w) * component_cdf(v)
    return total


def _reference_char_fn(spec, t):
    ts = np.asarray(t, dtype=np.float64)
    total = np.zeros(ts.shape, dtype=np.complex128)
    with np.errstate(over="ignore", invalid="ignore"):
        for w, v in spec.components():
            total += _component_charfn(spec.family, spec.shared, v, ts) * float(w)
    return complex(total) if total.ndim == 0 else total


def _reference_mass_table(specs, x_max):
    width = x_max + 1
    table = np.empty((len(specs), width))
    for row, spec in zip(table, specs):
        row[:] = np.fromiter((_reference_pmf_or_pdf(spec, x) for x in range(width)),
                             float, width)
    return table


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


def test_binomial_pmf_uses_log_space_on_a_subnormal_power():
    grid = ParameterGrid(Family.BINOMIAL_P, Fraction(1, 8), 0, 8)
    # C(1000, x) fits a float, but (1/8)^400 is below the normal range
    spec = uniform_spec(grid, (1,), SharedParams(n=1000))
    for x, mass in ((400, 4.6e-106), (450, 9.4e-142)):
        assert pmf_or_pdf(spec, x) == pytest.approx(
            scipy_stats.binom.pmf(x, 1000, 0.125), rel=1e-9)
        assert pmf_or_pdf(spec, x) == pytest.approx(mass, rel=0.01)
    # where both powers are normal the direct product is kept bit for bit,
    # and every mass in the normal range matches scipy
    for n in (10, 100, 1000):
        xs = np.arange(n + 1)
        for index in range(1, 8):
            p = index / 8
            spec = uniform_spec(grid, (index,), SharedParams(n=n))
            ref = scipy_stats.binom.pmf(xs, n, p)
            for x in range(n + 1):
                got = pmf_or_pdf(spec, x)
                if min(p**x, (1.0 - p) ** (n - x)) >= sys.float_info.min:
                    assert got == math.comb(n, x) * p**x * (1.0 - p) ** (n - x)
                if ref[x] >= sys.float_info.min:
                    assert abs(got / ref[x] - 1.0) < 1e-9


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


def test_exact_pmf_is_the_closed_form():
    # the Horner path over the pmf polynomial against sum_i w_i (1 - p_i)^x p_i,
    # p = 0 and p = 1 included
    from itertools import combinations

    for den in (2, 5, 8):
        grid = ParameterGrid(Family.GEOMETRIC_P, Fraction(1, den), 0, den)
        for k in (1, 2, 3):
            for idx in combinations(grid.indices(), k):
                spec = uniform_spec(grid, idx)
                for x in range(16):
                    expected = sum((w * (1 - v) ** x * v for w, v in spec.components()),
                                   Fraction(0))
                    assert mixture_pmf_exact(spec, x) == expected


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
                expected = sum((w * sum(c * v**d for d, c in enumerate(poly))
                                for w, v in spec.components()), Fraction(0))
                assert mixture_moment_exact(spec, ell) == expected


def test_mgf_a2x_is_infinite_past_the_float_range():
    assert math.isinf(mgf_a2x(Family.POISSON, None, Fraction(300), 2.0))
    assert mgf_a2x(Family.POISSON, None, Fraction(236), 2.0) == math.exp(708.0)


def test_mgf_a2x_divergence():
    assert math.isinf(mgf_a2x(Family.GEOMETRIC_P, None, Fraction(1, 4), 2.0))
    finite = mgf_a2x(Family.GEOMETRIC_P, None, Fraction(3, 4), 1.5)
    assert finite == pytest.approx(0.75 / (1.0 - 0.25 * 2.25))


def test_mgf_a2x_diverges_at_a_zero_geometric_p_and_past_the_negative_binomial_radius():
    # p = 0 is a zero-mass grid point with no finite E[a^2X] at any a > 1
    assert math.isinf(mgf_a2x(Family.GEOMETRIC_P, None, Fraction(0), 1.01))
    shared = SharedParams(p=Fraction(1, 4))
    assert math.isinf(mgf_a2x(Family.NEG_BINOMIAL, shared, Fraction(3), 2.0))  # p·a² = 1
    assert mgf_a2x(Family.NEG_BINOMIAL, shared, Fraction(3), 1.5) == (0.75 / (1.0 - 0.25 * 2.25)) ** 3


def test_generating_function_serves_the_char_fn_and_the_tail_bound():
    # E[z^X] at z = a^2 (mgf_a2x) and on the unit circle (char_fn) for
    # every discrete family, against the mass series
    cases = [
        (Family.POISSON, SharedParams(), Fraction(3)),
        (Family.BINOMIAL_P, SharedParams(n=9), Fraction(2, 7)),
        (Family.GEOMETRIC_P, SharedParams(), Fraction(3, 4)),
        (Family.GEOMETRIC_U, SharedParams(), Fraction(3, 2)),
        (Family.NEG_BINOMIAL, SharedParams(p=Fraction(1, 5)), Fraction(4)),
    ]
    for family, shared, value in cases:
        xs = range(10 if family is Family.BINOMIAL_P else 400)
        masses = [_component_pmf(family, shared, value, x) for x in xs]
        series = lambda z: sum(m * z**x for x, m in zip(xs, masses))
        assert mgf_a2x(family, shared, value, 1.1) == pytest.approx(series(1.21), rel=1e-12)
        t = np.array(0.7)
        assert complex(_component_charfn(family, shared, value, t)) == pytest.approx(
            series(complex(np.exp(0.7j))), rel=1e-12)


def test_exact_pmf_at_a_large_value_is_fast_and_caches_nothing():
    # the parent expanded (1 - p)^x p into x + 2 coefficients: 1.2 s at x = 4,000
    import time

    spec = uniform_spec(ParameterGrid(Family.GEOMETRIC_P, Fraction(1, 8), 0, 8), (1, 5),
                        SharedParams())
    cached = moment_polynomial.cache_info().currsize
    start = time.perf_counter()
    value = mixture_pmf_exact(spec, 4000)
    assert time.perf_counter() - start < 0.05
    assert value == (Fraction(7, 8) ** 4000 / 8 + Fraction(3, 8) ** 4000 * 5 / 8) / 2
    assert moment_polynomial.cache_info().currsize == cached


def _spec_of(family):
    if family is Family.GEOMETRIC_P:
        return uniform_spec(ParameterGrid(family, Fraction(1, 4), 0, 4), (1, 3), SharedParams())
    return uniform_spec(ParameterGrid(family, 1, 0, 4), (1, 3), SharedParams())


@pytest.mark.parametrize("bad", [1.5, Fraction(3, 2), -1, -2.0, math.nan, math.inf, "2"])
def test_counts_are_nonnegative_integers_everywhere(bad):
    # 1.5 used to end in a RecursionError (moments) or a TypeError (pmf), and
    # nan and inf in ValueError and OverflowError from pmf_or_pdf
    poisson, geometric = _spec_of(Family.POISSON), _spec_of(Family.GEOMETRIC_P)
    with pytest.raises(ContractError, match="moment order must be a nonnegative integer"):
        mixture_moment_exact(poisson, bad)
    with pytest.raises(DomainError, match="must be a nonnegative integer"):
        mixture_pmf_exact(geometric, bad)
    for spec in (poisson, geometric):
        with pytest.raises(DomainError, match="must be a nonnegative integer"):
            pmf_or_pdf(spec, bad)


@pytest.mark.parametrize("family, shared", [
    (Family.POISSON, SharedParams()),
    (Family.GEOMETRIC_P, SharedParams()),
    (Family.GEOMETRIC_U, SharedParams()),
    (Family.NEG_BINOMIAL, SharedParams(p=Fraction(1, 3))),
])
@pytest.mark.parametrize("x", [2**1100, 10**400], ids=["2**1100", "10**400"])
def test_a_count_past_the_float_range_is_a_domain_error(family, shared, x):
    # each ended in OverflowError: int too large to convert to float (a
    # binomial refuses any x past n)
    step = Fraction(1, 4) if family is Family.GEOMETRIC_P else 1
    spec = uniform_spec(ParameterGrid(family, step, 1, 4), (1, 3), shared)
    with pytest.raises(DomainError, match="mass at a .*-bit value leaves the float range"):
        pmf_or_pdf(spec, x)
    # inside the float range the mass is the float it rounds to
    assert pmf_or_pdf(spec, 10**300) == 0.0


def test_an_integral_float_order_reads_the_same_moment_cold_or_warm():
    # 2.0 raised TypeError on a cold cache and gave E X^2 once order 2 had run
    spec = uniform_spec(ParameterGrid(Family.POISSON, 1, 0, 9), (2, 3), SharedParams())
    moment_polynomial.cache_clear()
    assert mixture_moment_exact(spec, 2.0) == mixture_moment_exact(spec, 2) == 9
    assert mixture_moment_exact(spec, Fraction(2)) == 9
    geometric = _spec_of(Family.GEOMETRIC_P)
    assert mixture_pmf_exact(geometric, 3.0) == mixture_pmf_exact(geometric, 3)
    assert pmf_or_pdf(spec, 2.0) == pmf_or_pdf(spec, 2)


def _draw_grid(draw, family):
    if family in (Family.BINOMIAL_P, Family.GEOMETRIC_P):
        m = draw(st.integers(1, 12))
        return ParameterGrid(family, Fraction(1, m), 0, m)
    if family is Family.GEOMETRIC_U:
        return ParameterGrid(family, Fraction(1, draw(st.integers(1, 4))), 0, 12)
    if family is Family.GAUSSIAN:
        lo = draw(st.integers(-8, 0))
        return ParameterGrid(family, Fraction(1, draw(st.integers(1, 4))), lo, lo + 8)
    lo = draw(st.integers(1 if family in (Family.CHI_SQUARED, Family.NEG_BINOMIAL) else 0, 6))
    return ParameterGrid(family, 1, lo, lo + draw(st.integers(0, 30)))


@st.composite
def _spec_lists(draw):
    """One to four specs of one family and shared parameters on one or two
    grids, with repeated values where the family allows them and unequal
    weights."""
    family = draw(st.sampled_from(sorted(Family, key=lambda f: f.value)))
    shared = SharedParams(
        n=draw(st.integers(1, 40)) if family is Family.BINOMIAL_P else None,
        sigma=draw(st.sampled_from([0.25, 1.0, 1.5])) if family is Family.GAUSSIAN else None,
        p=(draw(st.sampled_from([Fraction(1, 3), Fraction(1, 2), Fraction(4, 5)]))
           if family is Family.NEG_BINOMIAL else None),
    )
    grids = [_draw_grid(draw, family) for _ in range(draw(st.integers(1, 2)))]
    specs = []
    for _ in range(draw(st.integers(1, 4))):
        grid = draw(st.sampled_from(grids))
        k = draw(st.integers(1, min(4, grid.size)))
        indices = draw(st.lists(st.sampled_from(list(grid.indices())), min_size=k,
                                max_size=k, unique=family in ANALYTIC_FAMILIES))
        raw = draw(st.lists(st.integers(1, 9), min_size=k, max_size=k))
        weights = tuple(Fraction(r, sum(raw)) for r in raw)
        specs.append(MixtureSpec(grid, tuple(indices), weights, shared))
    return specs


@settings(max_examples=150, deadline=None)
@given(specs=_spec_lists())
def test_mixing_matches_the_per_spec_loops_bit_for_bit(specs):
    family = specs[0].family
    ts = np.linspace(-7.0, 7.0, 29)
    for spec in specs:
        assert char_fn(spec, ts).tobytes() == _reference_char_fn(spec, ts).tobytes()
        assert repr(char_fn(spec, 1.25)) == repr(_reference_char_fn(spec, 1.25))
    if family in DISCRETE_FAMILIES:
        x_max = specs[0].shared.n if family is Family.BINOMIAL_P else 30
        for spec in specs:
            for x in range(x_max + 1):
                assert repr(pmf_or_pdf(spec, x)) == repr(_reference_pmf_or_pdf(spec, x))
        table = mass_table(specs, x_max)
        assert table.tobytes() == _reference_mass_table(specs, x_max).tobytes()
        return
    lo = -12.0 if family is Family.GAUSSIAN else 0.05
    xs = np.linspace(lo, 30.0, 97)
    for spec in specs:
        assert pdf_array(spec, xs).tobytes() == _reference_pdf_array(spec, xs).tobytes()
        point = pdf_array(spec, 2.5)
        assert point.shape == () and point.tobytes() == _reference_pdf_array(spec, 2.5).tobytes()
        for x in xs[::8].tolist():
            assert repr(pmf_or_pdf(spec, x)) == repr(_reference_pmf_or_pdf(spec, x))
            assert repr(cdf(spec, x)) == repr(_reference_cdf(spec, x))
