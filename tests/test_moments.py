import math
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
    sample,
    uniform_spec,
)
from mixlearn.moments import _HISTOGRAM_BLOCK, _power_sums


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


@pytest.mark.parametrize("dtype", [np.int64, np.uint64])
def test_power_sums_are_exact_across_histogram_blocks(dtype):
    # four blocks, the last one partial, mixing values under the histogram's
    # width, values of 2**16 or more (sorted apart) and values near 2**63
    rng = np.random.default_rng(9)
    size = 3 * _HISTOGRAM_BLOCK + 12_345
    values = rng.integers(0, 100, size=size, dtype=np.int64)
    wide = rng.choice(size, 600, replace=False)
    values[wide[:300]] = rng.integers(_HISTOGRAM_BLOCK, 2**40, size=300)
    values[wide[300:]] = 2**63 - 1 - rng.integers(0, 50, size=300)
    values[[0, _HISTOGRAM_BLOCK - 1, _HISTOGRAM_BLOCK, size - 1]] = [
        _HISTOGRAM_BLOCK, 2**63 - 1, _HISTOGRAM_BLOCK - 1, 0]
    values = values.astype(dtype)
    counts = Counter(values.tolist())
    expected = [sum(c * v**ell for v, c in counts.items()) for ell in range(6)]
    assert _power_sums(values, 5) == expected
    m = estimate_moments(SampleDataset(Family.POISSON, values), 5)
    assert m.values == tuple(Fraction(s, size) for s in expected)


def test_estimate_pmf_counts_across_a_block_boundary():
    # values above T on both sides of the first block boundary, and values
    # of 0..T right at it
    values = np.full(2 * _HISTOGRAM_BLOCK + 5, 7, dtype=np.int64)
    b = _HISTOGRAM_BLOCK
    values[b - 3 : b + 3] = [9, 2, 0, 3, 10**15, 1]
    values[[0, 10, b + 100, -1]] = [3, 4, 4, 2**62]
    t = values.size
    expected = [Fraction(int(np.count_nonzero(values == x)), t) for x in range(5)]
    assert estimate_pmf(_data(values), 4) == expected
    assert sum(expected) == Fraction(7, t)


def test_estimators_hold_one_block_beside_the_dataset():
    rng = np.random.default_rng(4)
    data = _data(rng.geometric(0.25, size=10**6) - 1)
    # about 100 values of 10**12 widen the histogram to 2**16 bins, and are
    # sorted apart
    wide = _data(np.where(rng.random(10**6) < 1e-4, 10**12, data.values))
    # one block of capped values; for ``wide``, also the 2**16 bins and one
    # block's bincount of them, and the spill.  A sorted copy of the 8 MB
    # dataset fits neither.
    for d, bound in ((data, 2**20), (wide, 2 * 2**20)):
        estimate_moments(d, 4), estimate_pmf(d, 4)  # warm up outside the trace
        for estimate in (estimate_moments, estimate_pmf):
            tracemalloc.start()
            try:
                estimate(d, 4)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= bound, (estimate.__name__, peak)


def test_a_spill_of_every_value_holds_one_block():
    # every value is 2**16 or more, so every block is counted by np.unique:
    # the scratch is one block and one chunk of power-table ints, not a
    # copy of the spill, so the bound does not grow with the data
    values = np.random.default_rng(2).choice([70_000, 10**12, 2**62], size=10**6)
    data = _data(values)
    expected = estimate_moments(data, 3)
    tracemalloc.start()
    try:
        got = estimate_moments(data, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == expected
    assert got.values[1] == Fraction(sum(values.tolist()), values.size)
    assert peak <= 2 * 2**20


#: values on both sides of 2**16, 2**63 and the uint64 maximum
_WIDE_VALUES = st.one_of(
    st.integers(_HISTOGRAM_BLOCK - 3, _HISTOGRAM_BLOCK + 3),
    st.integers(2**63 - 3, 2**63 + 3),
    st.integers(2**64 - 3, 2**64 - 1),
)


@pytest.mark.parametrize("dtype", [np.int64, np.uint64, np.uint8])
@settings(derandomize=True, max_examples=30, deadline=None)
@given(st.one_of(st.integers(1, 300),
                 st.integers(_HISTOGRAM_BLOCK - 2, _HISTOGRAM_BLOCK + 2),
                 st.integers(2 * _HISTOGRAM_BLOCK - 1, 2 * _HISTOGRAM_BLOCK + 1)),
       st.lists(st.integers(0, 300), min_size=1, max_size=6),
       st.lists(_WIDE_VALUES, min_size=1, max_size=6),
       st.integers(0, 2**32 - 1),
       st.integers(0, 6))
def test_power_sums_match_a_counter(dtype, size, small, wide, seed, T):
    # small values straddle the width min(max + 1, 2**16, size) too, as
    # uint8 values do when there are fewer of them than 256
    pool = [v for v in small + wide if v <= np.iinfo(dtype).max] or [0]
    values = np.random.default_rng(seed).choice(np.array(pool, dtype=dtype), size=size)
    counts = Counter(values.tolist())
    assert _power_sums(values, T) == [sum(c * v**ell for v, c in counts.items())
                                      for ell in range(T + 1)]


def test_a_wide_geometric_u_estimate_holds_one_block():
    # p = 1 and p near 2**-20: about half the draws pass 2**16, most of
    # them distinct, and each block of them is counted apart
    spec = uniform_spec(ParameterGrid(Family.GEOMETRIC_U, Fraction(1), 0, 2**20),
                        (0, 2**20), SharedParams())
    data = sample(spec, 2 * 10**5, seed=1)
    assert np.count_nonzero(data.values >= _HISTOGRAM_BLOCK) > _HISTOGRAM_BLOCK
    estimate_moments(data, 4)  # warm up outside the trace
    tracemalloc.start()
    try:
        got = estimate_moments(data, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    counts = Counter(data.values.tolist())
    assert got.values == tuple(
        Fraction(sum(c * v**ell for v, c in counts.items()), len(data)) for ell in range(5))
    assert peak <= 3 * 2**20  # over the dataset, which was made before the trace


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


@pytest.mark.parametrize("T, uniform_delta", [
    (300, None),  # gamma^-2 past the float range: OverflowError
    (400, None),  # delta below it: ZeroDivisionError
    (2, Fraction(1, 10**400)),
])
def test_plan_chernoff_past_the_float_range_is_a_domain_error(T, uniform_delta):
    grid = ParameterGrid(Family.GEOMETRIC_P, Fraction(1, 4), 0, 4)
    with pytest.raises(DomainError, match="chernoff bound at order .* leaves the float range"):
        plan_samples(Family.GEOMETRIC_P, 2, grid, SharedParams(), T, "chernoff",
                     uniform_delta=uniform_delta)


@pytest.mark.parametrize("delta", [Fraction(-1, 10), Fraction(0)])
def test_plan_refuses_a_failure_probability_that_is_not_positive(delta):
    # -1/10 used to give a plan of negative sample counts, 0 a ZeroDivisionError
    grid = ParameterGrid(Family.BINOMIAL_P, Fraction(1, 4), 0, 4)
    with pytest.raises(DomainError, match="failure probability must be positive"):
        plan_samples(Family.BINOMIAL_P, 2, grid, SharedParams(n=8), 2, "chebyshev",
                     uniform_delta=delta)


@pytest.mark.parametrize("T", [2.5, Fraction(5, 2), math.nan, "2"])
def test_plan_refuses_a_non_integral_order(T):
    # 2.5 used to end in a TypeError from range(first, T + 1)
    grid = ParameterGrid(Family.BINOMIAL_P, Fraction(1, 4), 0, 4)
    with pytest.raises(ContractError, match="T must be a nonnegative integer"):
        plan_samples(Family.BINOMIAL_P, 2, grid, SharedParams(n=8), T, "chebyshev")
    assert plan_samples(Family.BINOMIAL_P, 2, grid, SharedParams(n=8), 2.0, "chebyshev") == \
        plan_samples(Family.BINOMIAL_P, 2, grid, SharedParams(n=8), 2, "chebyshev")


@pytest.mark.parametrize("T", [-1, 2.5, math.nan, "2"])
def test_estimates_refuse_a_non_integral_order(T):
    # 2.5 used to end in a TypeError, and estimate_pmf(data, -1) returned []
    data = SampleDataset(Family.POISSON, np.array([0, 1, 1, 3]))
    for estimate in (estimate_moments, estimate_pmf):
        with pytest.raises(ContractError, match="T must be a nonnegative integer"):
            estimate(data, T)


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
