import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mixlearn import (
    ContractError,
    DomainError,
    Family,
    ParameterGrid,
    SampleDataset,
    SharedParams,
    estimate_moments,
    estimate_pmf,
    moment_lattice_spacing,
    plan_samples,
    round_to_lattice,
)
from mixlearn.moments import _power_sums


def _power_sum(values, ell):
    """Reference: the sum of values**ell as an exact integer."""
    return _power_sums(values, ell)[ell]


def _data(values):
    return SampleDataset(Family.POISSON, np.array(values, dtype=np.int64))


def test_empirical_moments_exact_small():
    data = _data([0, 1, 2, 2])
    m = estimate_moments(data, 3)
    assert m.values == (1, Fraction(5, 4), Fraction(9, 4), Fraction(17, 4))
    assert m.t == 4


def test_power_sum_big_integer_fallback_matches_int64_path():
    rng = np.random.default_rng(5)
    values = rng.integers(0, 50, size=1000).astype(np.int64)
    # order high enough that 49**12 * 1000 overflows the int64 fast path
    direct = sum(int(v) ** 12 for v in values)
    assert _power_sum(values, 12) == direct


def test_estimate_moments_exact_above_int32():
    # v**12 overflows int64 by far: every order must still be an exact sum
    values = [2**31 + 5, 2**33, 2**31 + 5, 3 * 10**9, 0, 7]
    m = estimate_moments(_data(values), 12)
    for ell in range(13):
        assert m.values[ell] == Fraction(sum(v**ell for v in values), len(values))


def test_estimate_moments_rejects_float_data():
    data = SampleDataset(Family.GAUSSIAN, np.array([0.5, 1.5]))
    with pytest.raises(DomainError):
        estimate_moments(data, 2)


def test_estimate_pmf_exact():
    data = _data([0, 0, 1, 3])
    probs = estimate_pmf(data, 3)
    assert probs == [Fraction(1, 2), Fraction(1, 4), 0, Fraction(1, 4)]


def test_estimate_pmf_ignores_huge_values():
    # the histogram covers 0..T only, so a value of 10**15 costs no memory
    data = _data([0, 2, 10**15, 2])
    assert estimate_pmf(data, 2) == [Fraction(1, 4), 0, Fraction(1, 2)]


@given(st.integers(min_value=-50, max_value=50),
       st.fractions(min_value=Fraction(1, 64), max_value=2),
       st.fractions(min_value=-Fraction(1, 5), max_value=Fraction(1, 5)))
def test_round_to_lattice_recovers_perturbed_lattice_points(n, spacing, rel):
    # a lattice point perturbed by less than spacing/2 rounds back to it
    value = n * spacing + rel * spacing
    r = round_to_lattice(value, spacing)
    if abs(rel) < Fraction(1, 2):
        assert r.rounded == n * spacing
    assert 0 <= r.residual <= Fraction(1, 2)
    assert r.flagged == (r.residual > Fraction(1, 4))


def _fraction_rounding(value, spacing):
    """Lattice rounding by Fraction arithmetic throughout, the formula the
    integer divmod replaced."""
    q = value / spacing
    lo = q.numerator // q.denominator
    frac = q - lo
    if frac != Fraction(1, 2):
        n = lo + (frac > Fraction(1, 2))
    else:
        n = lo if lo % 2 == 0 else lo + 1
    residual = abs(value - n * spacing) / spacing
    return n * spacing, residual, residual > Fraction(1, 4)


@given(st.fractions(max_denominator=10**6),
       st.fractions(min_value=Fraction(1, 10**4), max_value=10**4),
       st.integers(min_value=-10**6, max_value=10**6),
       st.booleans())
def test_round_to_lattice_matches_the_fraction_formula(value, spacing, j, tie):
    if tie:  # an exact midpoint between two lattice points
        value = (j + Fraction(1, 2)) * spacing
    r = round_to_lattice(value, spacing)
    assert (r.rounded, r.residual, r.flagged) == _fraction_rounding(value, spacing)


def test_round_to_lattice_ties_to_even():
    assert round_to_lattice(Fraction(3, 2), 1).rounded == 2
    assert round_to_lattice(Fraction(5, 2), 1).rounded == 2
    assert round_to_lattice(Fraction(-1, 2), 1).rounded == 0


def test_lattice_spacings():
    assert moment_lattice_spacing(Fraction(1, 2), 2, 3) == Fraction(1, 16)
    assert moment_lattice_spacing(Fraction(1, 2), 2, 4) == Fraction(1, 32)


def test_plan_binomial_chebyshev_example():
    grid = ParameterGrid(Family.BINOMIAL_P, Fraction(1, 2), 0, 2)
    plan = plan_samples(
        Family.BINOMIAL_P, 2, grid, SharedParams(n=10), 2, "chebyshev"
    )
    # gamma_1 = eps/(2k) = 1/8; t_1 = gamma^-2 n^2 9^(1+T-1) = 64*100*81
    assert plan.per_moment[0].samples == 518_400
    assert plan.per_moment[0].tolerance == Fraction(1, 8)
    assert plan.per_moment[0].failure_prob == Fraction(1, 81)
    assert plan.total == sum(e.samples for e in plan.per_moment)


def test_plan_geometric_u_chebyshev_formula():
    grid = ParameterGrid(Family.GEOMETRIC_U, Fraction(1, 2), 0, 4)
    plan = plan_samples(Family.GEOMETRIC_U, 2, grid, SharedParams(), 1, "chebyshev")
    # p_min = 1/(1 + 4 * 1/2) = 1/3; gamma_1 = (1/2)/4 = 1/8
    # t_1 = ceil(2 * 64 * (4 * 3)^3 * 9)
    assert plan.per_moment[0].samples == 2 * 64 * 12**3 * 9


def test_plan_geometric_pmf_chernoff_formula():
    grid = ParameterGrid(Family.GEOMETRIC_P, Fraction(1, 4), 0, 4)
    plan = plan_samples(Family.GEOMETRIC_P, 2, grid, SharedParams(), 1, "chernoff")
    # ell = 0: gamma = eps/(2k) = 1/16, delta = 1/81
    expected = math.ceil(3 * 256 * math.log(2 * 81))
    assert plan.per_moment[0].samples == expected
    assert plan.per_moment[0].order == 0


def test_plan_uniform_delta_override():
    grid = ParameterGrid(Family.BINOMIAL_P, Fraction(1, 2), 0, 2)
    plan = plan_samples(
        Family.BINOMIAL_P, 2, grid, SharedParams(n=10), 2, "chebyshev",
        uniform_delta=Fraction(1, 100),
    )
    assert all(e.failure_prob == Fraction(1, 100) for e in plan.per_moment)


def test_plan_rejects_unsupported_combination():
    grid = ParameterGrid(Family.POISSON, 1, 0, 5)
    with pytest.raises(ContractError):
        plan_samples(Family.POISSON, 2, grid, SharedParams(), 2, "chebyshev")


def test_plan_report_round_trip_text():
    grid = ParameterGrid(Family.BINOMIAL_P, Fraction(1, 2), 0, 2)
    plan = plan_samples(Family.BINOMIAL_P, 2, grid, SharedParams(n=10), 2, "chebyshev")
    text = plan.to_report()
    assert "t=518400" in text
    assert "gamma=1/8" in text
    assert text.endswith(f"total={plan.total}\n")
