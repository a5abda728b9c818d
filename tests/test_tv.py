import hashlib
import math
import tracemalloc
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mixlearn import (
    CapExceededError,
    CertificateUnavailableError,
    DomainError,
    Family,
    FamilyMismatchError,
    MixtureSpec,
    ParameterGrid,
    SharedParams,
    candidate_family,
    cdf,
    g_transform,
    pmf_or_pdf,
    separation_survey,
    tail_certificate,
    tv_exact,
    tv_lower_bound_charfn,
    uniform_spec,
)
from mixlearn import tv
from mixlearn.special import normal_cdf
from mixlearn.tv import CHARFN_GRID_CAP, density_crossings, discrete_truncation

# np.trapezoid is NumPy >= 2.0 and np.trapz is gone from 2.4 on
trapezoid = getattr(np, "trapezoid", None) or np.trapz


def _poisson(indices, max_index=5):
    return uniform_spec(ParameterGrid(Family.POISSON, 1, 0, max_index), indices)


def test_tv_self_distance_is_zero():
    a = _poisson((1, 4))
    iv = tv_exact(a, a)
    assert iv.hi <= 1e-9
    assert iv.lo >= 0.0


def test_tv_discrete_brackets_direct_sum():
    a, b = _poisson((1, 4)), _poisson((2, 3))
    direct = 0.5 * sum(
        abs(pmf_or_pdf(a, x) - pmf_or_pdf(b, x)) for x in range(200)
    )
    iv = tv_exact(a, b)
    assert iv.lo <= direct + 1e-12 <= iv.hi + 1e-9
    assert iv.hi - iv.lo <= 1e-9


def test_tv_gaussian_single_components_closed_form():
    # TV between N(mu, 1) and N(mu + d, 1) is 2 Phi(d/2) - 1
    grid = ParameterGrid(Family.GAUSSIAN, 1, 0, 4)
    shared = SharedParams(sigma=1.0)
    a = uniform_spec(grid, (0,), shared)
    b = uniform_spec(grid, (1,), shared)
    expected = 2.0 * normal_cdf(0.5, 0.0, 1.0) - 1.0
    iv = tv_exact(a, b, tol=1e-7)
    assert iv.lo <= expected <= iv.hi
    assert abs(0.5 * (iv.lo + iv.hi) - expected) < 1e-6


def test_tv_chi_squared_pair():
    grid = ParameterGrid(Family.CHI_SQUARED, 1, 1, 5)
    a = uniform_spec(grid, (2,))
    b = uniform_spec(grid, (5,))
    iv = tv_exact(a, b, tol=1e-6)
    assert 0.0 < iv.lo < iv.hi < 1.0
    # cross-check by dense numeric L1 integration
    xs = np.linspace(1e-9, 60, 600001)
    fa = np.array([pmf_or_pdf(a, float(x)) for x in xs[:: 100]])
    fb = np.array([pmf_or_pdf(b, float(x)) for x in xs[:: 100]])
    approx = 0.5 * trapezoid(np.abs(fa - fb), xs[:: 100])
    assert abs(0.5 * (iv.lo + iv.hi) - approx) < 1e-3


def test_tv_requires_matching_families():
    grid = ParameterGrid(Family.GAUSSIAN, 1, 0, 4)
    a = uniform_spec(grid, (0,), SharedParams(sigma=1.0))
    b = uniform_spec(grid, (0,), SharedParams(sigma=2.0))
    with pytest.raises(FamilyMismatchError):
        tv_exact(a, b)


def test_density_crossings_single_gaussians():
    grid = ParameterGrid(Family.GAUSSIAN, 1, 0, 4)
    shared = SharedParams(sigma=1.0)
    a = uniform_spec(grid, (0,), shared)
    b = uniform_spec(grid, (3,), shared)
    crossings = density_crossings(a, b)
    assert len(crossings) == 1
    assert crossings[0] == pytest.approx(1.5, abs=1e-6)


def test_density_crossings_frozen_values():
    # values of the point-by-point sign scan, frozen before it was vectorized
    gaussian = ParameterGrid(Family.GAUSSIAN, 1, 0, 4)
    shared = SharedParams(sigma=1.0)
    chi2 = ParameterGrid(Family.CHI_SQUARED, 1, 1, 8)
    assert density_crossings(
        uniform_spec(gaussian, (0, 3), shared), uniform_spec(gaussian, (1, 2), shared)
    ) == [0.2684801793134141, 2.73151982069371]
    assert density_crossings(
        uniform_spec(chi2, (2, 6)), uniform_spec(chi2, (3, 4))
    ) == [0.7556041929870846, 5.262297459319225]
    # the scan starts on a zero of a - b at x = 0
    assert density_crossings(
        uniform_spec(chi2, (3,)), uniform_spec(chi2, (5,))
    ) == [0.049999999627470974, 3.0000000003725265]


def test_density_crossings_of_three_component_pairs_are_frozen():
    # values of the scan that held a - b beside both densities
    gaussian = ParameterGrid(Family.GAUSSIAN, 1, 0, 40)
    shared = SharedParams(sigma=0.75)
    chi2 = ParameterGrid(Family.CHI_SQUARED, 1, 1, 30)
    assert density_crossings(
        MixtureSpec(gaussian, (0, 3, 40), (Fraction(1, 5), Fraction(1, 2), Fraction(3, 10)),
                    shared),
        uniform_spec(gaussian, (1, 2, 39), shared),
    ) == [0.16378462538406496, 2.3771810281305017, 21.00633539244876, 39.55926528990683]
    assert density_crossings(uniform_spec(chi2, (1, 7, 30)), uniform_spec(chi2, (2, 5, 29))) == [
        0.5333398450165983, 5.8839830171316745, 17.45869597829889, 28.436729756370454]


@pytest.mark.parametrize("sigma, hi, first, second", [
    (0.5, 5, (0, 5), (1, 5)),  # one real crossing at 0.5, then a - b == 0 where they agree
    (1.0, 2_000, (0,), (2_000,)),  # both densities underflow between the means
    (1.0, 41_900, (0,), (41_900,)),  # 4,191,707 scan points, just under SCAN_GRID_CAP
])
def test_a_run_of_exact_zeros_is_bisected_once_at_each_end(sigma, hi, first, second):
    # every cell of such a run was once bisected: 792, 192,285 and about
    # 4.2 million crossings
    grid = ParameterGrid(Family.GAUSSIAN, 1, 0, hi)
    shared = SharedParams(sigma=sigma)
    crossings = density_crossings(uniform_spec(grid, first, shared),
                                  uniform_spec(grid, second, shared))
    assert len(crossings) == 2
    if sigma == 0.5:
        assert crossings[0] == pytest.approx(0.5, abs=1e-9)


def test_a_zero_scan_point_between_opposite_signs_is_one_crossing():
    # f2 = f4 exactly at x = 2, a scan point: both cells beside it once
    # bisected to 1.9999999996 and 2.0000000004, and in the other order to
    # 1.9999999996 and 2.0499999996, a cell end where a - b does not change sign
    chi2 = ParameterGrid(Family.CHI_SQUARED, 1, 1, 6)
    a, b = uniform_spec(chi2, (2, 5, 6)), uniform_spec(chi2, (4, 5, 6))
    for first, second in ((a, b), (b, a)):
        crossings = density_crossings(first, second)
        assert len(crossings) == 1
        assert crossings[0] == pytest.approx(2.0, abs=1e-9)


@pytest.mark.parametrize("lo, hi, step, size, digest", [
    (-41.3, 9958.7, 0.01, 1_000_001,
     "b640b8e545eb6f268126435b8b677dd2a74f91e2d0aa9904df64f6e7b9313626"),
    (0.0, 1.0, 0.1, 12, "e3ae774db2828b42f48edc15cdc235ac49af6619fe5ed4e1f4c24843c028b125"),
    (1e-300, 733.1, 0.05, 14_664,
     "815052a336c02a3e30206213e574610247725842c29923789654f7e95c55bc4a"),
])
def test_scan_grid_is_frozen(lo, hi, step, size, digest):
    # grids of the running sum over a separate array of steps
    xs = tv._scan_grid(lo, hi, step)
    assert xs.size == size and xs[-1] == hi
    assert hashlib.sha256(xs.tobytes()).hexdigest() == digest


def test_scan_grid_holds_about_nine_bytes_a_point():
    tv._scan_grid(0.0, 1.0, 0.1)  # warm up
    tracemalloc.start()
    try:
        xs = tv._scan_grid(-41.3, 9958.7, 0.01)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the grid's float64 points and one boolean a point for the end search;
    # a copy of the steps beside the grid would hold 16 bytes a point
    assert xs.size == 1_000_001
    assert peak < 9 * xs.size + 2**12


def test_discrete_truncation_certifies_tail():
    spec = _poisson((1, 4))
    r = discrete_truncation(spec, 1e-9)
    remaining = 1.0 - sum(pmf_or_pdf(spec, x) for x in range(r))
    assert remaining <= 1e-9


def _truncation_cases():
    geometric = ParameterGrid(Family.GEOMETRIC_P, Fraction(1, 16), 1, 15)
    neg_binomial = ParameterGrid(Family.NEG_BINOMIAL, 1, 1, 8)
    return [
        (uniform_spec(geometric, (1, 3)), 322),
        (_poisson((7, 30), max_index=30), 81),
        (_poisson((1, 4)), None),
        (_poisson((0,)), None),
        (uniform_spec(ParameterGrid(Family.GEOMETRIC_U, 1, 1, 12), (2, 11)), None),
        (uniform_spec(neg_binomial, (3, 8), SharedParams(p=Fraction(1, 3))), None),
    ]


def test_discrete_truncation_is_the_smallest_certified_point():
    for spec, known in _truncation_cases():
        for target in (0.5, 1e-3, 5e-10, 1e-12):
            r = 1  # brute-force scan
            while tv._mass_tail_bound(spec, r) > target:
                r += 1
            assert discrete_truncation(spec, target) == r
            if known is not None and target == 5e-10:
                assert r == known


def test_mass_tail_bound_stays_certified_past_the_float_range():
    # 2^(2r-1) overflows a float from r = 513 on; the bound is then taken in
    # log space and must still be above the exact value of the formula,
    # positive after the quotient underflows, and nonincreasing in r
    spec = _poisson((1, 4))
    bounds = [tv._mass_tail_bound(spec, r) for r in range(500, 600)]
    for r, bound in zip(range(500, 600), bounds):
        exact = sum(
            w * Fraction(tv.mgf_a2x(Family.POISSON, None, v, 2.0)) / 2 ** (2 * r - 1)
            for w, v in spec.components())
        assert bound > 0.0 and Fraction(bound) >= exact
    assert all(x >= y for x, y in zip(bounds, bounds[1:]))
    assert bounds[-1] == 2 * math.nextafter(0.0, 1.0)  # the least float per component


def test_discrete_truncation_evaluates_about_two_log_r_bounds(monkeypatch):
    calls = []
    bound = tv._mass_tail_bound
    monkeypatch.setattr(tv, "_mass_tail_bound",
                        lambda spec, r: calls.append(r) or bound(spec, r))
    for spec, _ in _truncation_cases():
        calls.clear()
        r = discrete_truncation(spec, 5e-10)
        assert len(calls) <= 2 * math.ceil(math.log2(r)) + 2


def test_tail_certificate_bounds_true_tail():
    spec = _poisson((1, 4))
    a, r = 1.5, 12
    bound = tail_certificate(
        Family.POISSON, SharedParams(), [Fraction(1), Fraction(4)], a, r,
        weights=[Fraction(1, 2), Fraction(1, 2)],
    )
    true_tail = sum(a**x * pmf_or_pdf(spec, x) for x in range(r, 200))
    assert true_tail <= bound
    assert bound == (0.5 * math.exp(1.25) + 0.5 * math.exp(5.0)) / a ** (r - 1.0)
    # 2^1999 overflows a float: the quotient is taken in log space, rounded up
    params = [Fraction(1), Fraction(4)]
    bound = tail_certificate(Family.POISSON, SharedParams(), params, 2.0, 2000)
    exact = sum(Fraction(tv.mgf_a2x(Family.POISSON, None, v, 2.0)) for v in params)
    assert bound > 0.0 and Fraction(bound) >= exact / 2 / 2**1999


def test_tail_certificate_of_zero_weights_is_zero():
    params = [Fraction(1), Fraction(4)]
    assert tail_certificate(Family.POISSON, SharedParams(), params, 2.0, 5, [0, 0]) == 0.0


def test_tail_certificate_divergence():
    with pytest.raises(CertificateUnavailableError):
        tail_certificate(
            Family.GEOMETRIC_P, SharedParams(), [Fraction(1, 4)], 2.0, 10
        )
    # E[4^X] = 2.5^10000 passes the float range
    with pytest.raises(CertificateUnavailableError):
        tail_certificate(
            Family.BINOMIAL_P, SharedParams(n=10_000), [Fraction(1, 2)], 2.0, 10
        )
    bad = [
        ([Fraction(1), Fraction(2)], 2.0, 5, [0.5]),  # one weight short
        ([Fraction(1)], 2.0, 5, [0.5, 0.5]),
        ([], 2.0, 5, None),
        ([Fraction(1)], 2.0, 5, [-0.5]),
        ([Fraction(1)], 2.0, 5, [math.nan]),
        ([Fraction(1)], 1.0, 5, None),
        ([Fraction(1)], math.nan, 5, None),
        ([Fraction(1)], math.inf, 5, None),
        ([Fraction(1)], 2.0, math.inf, None),
    ]
    for params, a, r, weights in bad:
        with pytest.raises(DomainError):
            tail_certificate(Family.POISSON, SharedParams(), params, a, r, weights)


def test_charfn_lower_bound_below_tv():
    a, b = _poisson((1, 4)), _poisson((2, 3))
    cert = tv_lower_bound_charfn(a, b, L=1.0)
    iv = tv_exact(a, b)
    assert cert.value <= iv.hi + 1e-12
    assert abs(cert.witness_t) <= math.pi


def test_g_transform_expected_values_poisson():
    g = g_transform(Family.POISSON, SharedParams(), 0.7)
    total = sum(
        pmf_or_pdf(_poisson((3,)), x) * g.evaluate(x) for x in range(120)
    )
    assert abs(total - g.expected(3)) < 1e-9
    assert abs(g.expected(3)) == pytest.approx(1.0)


def test_g_transform_modulus_bounds_hold():
    for fam, shared in (
        (Family.POISSON, SharedParams()),
        (Family.CHI_SQUARED, SharedParams()),
        (Family.NEG_BINOMIAL, SharedParams(p=Fraction(1, 2))),
        (Family.GAUSSIAN, SharedParams(sigma=1.0)),
    ):
        g = g_transform(fam, shared, 0.4)
        for x in (0.0, 1.0, 2.5, 7.0):
            assert abs(g.evaluate(x)) <= g.modulus_bound(x) * (1 + 1e-12)


def test_survey_poisson_snapshot():
    # frozen separation snapshot: the least-separated pair of 2-subset
    # Poisson mixtures on {0..5} must never drop below this recorded value
    grid = ParameterGrid(Family.POISSON, 1, 0, 5)
    summary = separation_survey(Family.POISSON, SharedParams(), grid, 2)
    assert len(summary.rows) == 105
    assert summary.min_tv_lo == pytest.approx(0.09417182505593841, abs=1e-9)
    assert summary.L == pytest.approx(5.0 ** (1.0 / 3.0))


def test_survey_poisson_small():
    grid = ParameterGrid(Family.POISSON, 1, 0, 3)
    summary = separation_survey(Family.POISSON, SharedParams(), grid, 2)
    assert len(summary.rows) == 15  # C(C(4,2), 2)
    for row in summary.rows:
        assert row.charfn_bound <= row.tv_hi + 1e-12
        assert 0.0 <= row.tv_lo <= row.tv_hi <= 1.0
    assert summary.min_tv_lo > 0.0
    assert summary.implied_constant > 0.0


def test_chi_squared_one_component_crossings_and_tv():
    # the chi-squared(1) density diverges at 0, where the crossing scan
    # otherwise starts
    grid = ParameterGrid(Family.CHI_SQUARED, 1, 1, 5)
    one, two = uniform_spec(grid, (1,)), uniform_spec(grid, (2,))
    # e^(-x/2) / sqrt(2 pi x) = e^(-x/2) / 2 at x = 2/pi
    assert density_crossings(one, two) == [pytest.approx(2.0 / math.pi, abs=1e-9)]
    iv = tv_exact(uniform_spec(grid, (1, 4)), uniform_spec(grid, (2, 4)))
    # 30-digit mpmath quadrature of the half L1 distance
    assert iv.lo <= 0.15121993280592724 <= iv.hi
    assert iv.hi - iv.lo <= 1e-9


@pytest.mark.parametrize("L", [0.0, -1.0, math.nan, math.inf])
def test_charfn_bound_needs_positive_finite_L(L):
    with pytest.raises(DomainError, match="L must be positive and finite"):
        tv_lower_bound_charfn(_poisson((1, 4)), _poisson((2, 3)), L)


def test_charfn_bound_grid_points_are_capped():
    a, b = _poisson((1, 4)), _poisson((2, 3))
    with pytest.raises(DomainError):
        tv_lower_bound_charfn(a, b, 1.0, grid_points=2)
    with pytest.raises(CapExceededError):
        tv_lower_bound_charfn(a, b, 1.0, grid_points=CHARFN_GRID_CAP + 1)


def test_charfn_bound_witness_of_equal_mixtures_is_zero():
    cert = tv_lower_bound_charfn(_poisson((1, 4)), _poisson((1, 4)), 1.0)
    assert (cert.witness_t, cert.value) == (0.0, 0.0)


@pytest.mark.parametrize("tol", [math.nan, math.inf])
def test_tv_exact_needs_positive_finite_tol(tol):
    with pytest.raises(DomainError, match="tolerance must be positive and finite"):
        tv_exact(_poisson((1, 4)), _poisson((2, 3)), tol)


@pytest.mark.parametrize("grid,k", [
    (ParameterGrid(Family.POISSON, 1, 0, 5), -1),
    (ParameterGrid(Family.POISSON, 1, 0, 5), 0),
    (ParameterGrid(Family.POISSON, 1, 0, 5), 6),  # one candidate
    (ParameterGrid(Family.POISSON, 1, 0, 5), 7),
    (ParameterGrid(Family.POISSON, 1, 0, 0), 1),
    (ParameterGrid(Family.GAUSSIAN, 1, -3, 0), 1),  # N^(1/3) of N = 0
])
def test_survey_refuses_fewer_than_two_candidates_or_no_positive_index(grid, k):
    gaussian = grid.family is Family.GAUSSIAN
    shared = SharedParams(sigma=1.0) if gaussian else SharedParams()
    with pytest.raises(DomainError):
        separation_survey(grid.family, shared, grid, k)


def test_survey_cap_counts_candidates_before_building_them():
    # 633 candidates make 200,028 pairs, over the 200,000 the cap stands for;
    # C(10^6 + 1, 2) candidates are refused without enumerating them
    for max_index, k in ((632, 1), (10**6, 2)):
        with pytest.raises(CapExceededError):
            separation_survey(Family.POISSON, SharedParams(),
                              ParameterGrid(Family.POISSON, 1, 0, max_index), k)


def _compensated_sum(terms):
    """``sum`` of floats from Python 3.12 on (Neumaier's compensation)."""
    total = comp = 0.0
    for t in terms:
        new = total + t
        if abs(total) >= abs(t):
            comp += (total - new) + t
        else:
            comp += (t - new) + total
        total = new
    return total + comp if comp and math.isfinite(comp) else total


def _plain_sum(terms):
    total = 0.0
    for t in terms:
        total += t
    return total


def test_mixture_mass_and_cdf_sum_left_to_right():
    # inputs where Python 3.12's compensated sum differs from a plain loop
    poisson = ParameterGrid(Family.POISSON, 1, 0, 5)
    gaussian = ParameterGrid(Family.GAUSSIAN, 1, 0, 5)
    sigma = SharedParams(sigma=1.0)
    cases = [
        (poisson, SharedParams(), pmf_or_pdf, (0, 1, 2), 0),
        (poisson, SharedParams(), pmf_or_pdf, (1, 2, 4), 3),
        (poisson, SharedParams(), pmf_or_pdf, (1, 3, 4), 8),
        (gaussian, sigma, cdf, (0, 1, 2), -1.75),
        (gaussian, sigma, cdf, (0, 1, 3), -0.5),
    ]
    for grid, shared, f, indices, x in cases:
        spec = uniform_spec(grid, indices, shared)
        terms = [float(w) * f(uniform_spec(grid, (i,), shared), x)
                 for w, i in zip(spec.weights, indices)]
        assert _compensated_sum(terms) != _plain_sum(terms)
        assert f(spec, x) == _plain_sum(terms)


def test_discrete_tv_sums_left_to_right():
    for a, b in (((0, 1), (0, 3)), ((0, 1), (1, 2)), ((0, 2), (0, 4))):
        a, b = _poisson(a), _poisson(b)
        iv = tv_exact(a, b)
        terms = [abs(pmf_or_pdf(a, x) - pmf_or_pdf(b, x))
                 for x in range(int(iv.x_max))]
        assert _compensated_sum(terms) != _plain_sum(terms)
        assert iv.lo == 0.5 * _plain_sum(terms)
        # both tails are taken at the pair's truncation point
        r = iv.x_max
        assert iv.tail_bound == 0.5 * (tv._mass_tail_bound(a, r) + tv._mass_tail_bound(b, r))
        assert iv.hi == min(iv.lo + iv.tail_bound, 1.0)


def test_mass_table_over_the_cap_evaluates_no_mass(monkeypatch):
    calls = []
    component_pmf = tv._component_pmf
    monkeypatch.setattr(tv, "_component_pmf", lambda family, shared, value, x:
                        calls.append(x) or component_pmf(family, shared, value, x))
    specs = [_poisson((1,)), _poisson((2, 3))]
    with pytest.raises(CapExceededError):
        tv.mass_table(specs, tv.MASS_TABLE_CAP // 2)
    assert calls == []
    monkeypatch.setattr(tv, "MASS_TABLE_CAP", 10)
    table = tv.mass_table(specs, 4)
    assert len(calls) == 15  # 3 distinct components x 5 points
    assert table.tolist() == [[pmf_or_pdf(s, x) for x in range(5)] for s in specs]
    calls.clear()
    with pytest.raises(CapExceededError):
        tv.mass_table(specs, 5)
    with pytest.raises(CapExceededError):
        tv_exact(_poisson((1,)), _poisson((2,)))
    assert calls == []


def test_a_crossing_scan_past_the_cap_allocates_nothing():
    # sigma = 10^-6 over 0..10^4 asks for a scan of about 10^12 points
    grid = ParameterGrid(Family.GAUSSIAN, 1, 0, 10_000)
    shared = SharedParams(sigma=1e-6)
    a, b = uniform_spec(grid, (0,), shared), uniform_spec(grid, (10_000,), shared)
    tracemalloc.start()
    try:
        with pytest.raises(CapExceededError, match="crossing scan"):
            density_crossings(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**16
    for lo, hi, step in ((0.0, 1.0, 0.0), (0.0, math.inf, 1.0), (0.0, math.nan, 1.0)):
        with pytest.raises(CapExceededError):
            tv._scan_grid(lo, hi, step)


def test_mass_table_evaluates_each_distinct_component_once(monkeypatch):
    calls = []
    component_pmf = tv._component_pmf
    monkeypatch.setattr(tv, "_component_pmf", lambda family, shared, value, x:
                        calls.append(value) or component_pmf(family, shared, value, x))
    # 15 candidates on 6 rates; then two grids whose values meet at 0, 1/4, 1/2
    # and 3/4, with a repeated value in one spec
    specs = candidate_family(ParameterGrid(Family.POISSON, 1, 0, 5), 2)
    quarters = ParameterGrid(Family.GEOMETRIC_P, Fraction(1, 4), 0, 3)
    eighths = ParameterGrid(Family.GEOMETRIC_P, Fraction(1, 8), 0, 7)
    for specs, distinct in ((specs, 6),
                            ([uniform_spec(eighths, (1, 2, 2, 6)),
                              uniform_spec(quarters, (1, 3)),
                              uniform_spec(eighths, (0, 4, 5))], 6)):
        calls.clear()
        table = tv.mass_table(specs, 9)
        assert len(calls) == distinct * 10
        assert len(set(calls)) == distinct
        assert table.tolist() == [[pmf_or_pdf(s, x) for x in range(10)] for s in specs]


def test_mass_table_holds_the_table_and_about_one_component_row():
    # 16 distinct rates: a table that kept every component row would hold
    # 16 rows (8 MB) beside the 1 MB table
    grid = ParameterGrid(Family.POISSON, 1, 0, 20)
    specs = [uniform_spec(grid, range(0, 16, 2)), uniform_spec(grid, range(1, 16, 2))]
    width = 2**16
    row_bytes = 8 * width
    tracemalloc.start()
    try:
        table = tv.mass_table(specs, width - 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.nbytes == 2 * row_bytes
    assert peak < table.nbytes + 2 * row_bytes + 2**20


SURVEY_GRIDS = {  # family: (smallest index, shared parameters)
    Family.POISSON: (0, SharedParams()),
    Family.NEG_BINOMIAL: (1, SharedParams(p=Fraction(1, 3))),
    Family.GAUSSIAN: (0, SharedParams(sigma=1.0)),
    Family.CHI_SQUARED: (1, SharedParams()),
}


@settings(max_examples=20, deadline=None)
@given(
    family=st.sampled_from(sorted(SURVEY_GRIDS, key=lambda f: f.value)),
    low=st.integers(0, 3),
    size_k=st.integers(2, 4).flatmap(
        lambda size: st.tuples(st.just(size), st.integers(1, min(2, size - 1)))),
    L=st.sampled_from([None, 0.5, 2.0]),
)
def test_survey_rows_equal_the_pairwise_certificates(family, low, size_k, L):
    # grids of at most 4 points keep each example quick
    (size, k), (first, shared) = size_k, SURVEY_GRIDS[family]
    grid = ParameterGrid(family, 1, first + low, first + low + size - 1)
    summary = separation_survey(family, shared, grid, k, L)
    pairs = list(combinations(candidate_family(grid, k, shared), 2))
    assert len(summary.rows) == len(pairs)
    los = []
    for row, (a, b) in zip(summary.rows, pairs):
        interval = tv_exact(a, b)
        cert = tv_lower_bound_charfn(a, b, summary.L)
        los.append(interval.lo)
        # repr tells every float apart bit for bit, -0.0 from 0.0 included
        assert repr(row) == repr(tv.SurveyRow(
            a.indices, b.indices, interval.lo, interval.hi, cert.value, cert.witness_t))
    assert repr(summary.min_tv_lo) == repr(min(los))
