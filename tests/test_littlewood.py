import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mixlearn import (
    CapExceededError,
    DomainError,
    LittlewoodPoly,
    arc_max_batch,
    littlewood_arc_max,
)
from mixlearn.littlewood import (
    _PRODUCT_BLOCK_FLOATS,
    GRID_CAP,
    _grid,
    all_coefficient_rows,
)


def test_coefficient_validation():
    with pytest.raises(DomainError):
        LittlewoodPoly((0, 2))
    with pytest.raises(DomainError):
        LittlewoodPoly((0, 0, 0))


def test_monomial_arc_max_is_one():
    t, v = littlewood_arc_max(LittlewoodPoly((0, 0, 1)), L=1.0)
    assert v == pytest.approx(1.0, abs=1e-12)


def test_all_ones_attains_length_at_zero():
    # A(1) = degree + 1, attained at t = 0
    t, v = littlewood_arc_max(LittlewoodPoly((1, 1, 1, 1)), L=2.0)
    assert v == pytest.approx(4.0, abs=1e-9)
    assert abs(t) < 1e-6


def test_refinement_beats_plain_grid():
    poly = LittlewoodPoly((1, -1, 0, 1, 1, -1))
    ts = np.linspace(0.0, math.pi, 64)
    grid_only = max(poly.modulus_at(float(t)) for t in ts)
    _, refined = littlewood_arc_max(poly, L=1.0, resolution=64)
    assert refined >= grid_only - 1e-12


def test_resolution_and_arc_validation():
    with pytest.raises(DomainError):
        littlewood_arc_max(LittlewoodPoly((1,)), L=1.0, resolution=8)
    with pytest.raises(DomainError):
        littlewood_arc_max(LittlewoodPoly((1,)), L=0.0)


@given(st.lists(st.sampled_from([-1, 0, 1]), min_size=1, max_size=10),
       st.sampled_from([1.0, 2.0, 3.0]))
def test_arc_max_is_a_lower_bound_of_sup(coeffs, L):
    if not any(coeffs):
        coeffs = coeffs + [1]
    poly = LittlewoodPoly(tuple(coeffs))
    _, v = littlewood_arc_max(poly, L)
    # the reported value is attained, hence at most the true sup and at
    # least the value at any specific point
    assert v <= sum(abs(c) for c in coeffs) + 1e-9
    assert v >= poly.modulus_at(0.0) - 1e-9 or v >= poly.modulus_at(
        math.pi / L
    ) - 1e-9


def test_batch_agrees_with_single_on_grid():
    rows = np.array([[1, -1, 1, 0], [0, 1, 1, 1]], dtype=np.int8)
    batch = arc_max_batch(rows, L=2.0, resolution=256)
    for row, b in zip(rows, batch):
        _, single = littlewood_arc_max(LittlewoodPoly(tuple(row)), 2.0, 256)
        assert single >= b - 1e-12  # refinement only improves on the grid


def test_all_coefficient_rows_counts():
    rows = all_coefficient_rows(3)
    assert rows.shape == (26, 3)  # 3^3 - 1 nonzero vectors
    assert not np.any(np.all(rows == 0, axis=1))


def test_exponential_lower_bound_shape():
    # every length-8 vector keeps arc max above e^(-c L) for a moderate c
    rows = all_coefficient_rows(8)
    maxima = arc_max_batch(rows, L=3.0, resolution=256)
    assert maxima.min() > math.exp(-1.0 * 3.0)


def _complex_arc_max(rows, L, resolution):
    # reference: max over the grid of |sum_j c_j e^{ijt}|, one row at a time
    arc = math.pi / L
    ts = np.linspace(0.0, arc, max(int(resolution * arc) + 1, 9))
    phases = np.exp(1j * np.outer(ts, np.arange(rows.shape[1])))
    return np.abs(rows.astype(np.float64) @ phases.T).max(axis=1)


@pytest.mark.parametrize("resolution", [256, 512])
@pytest.mark.parametrize("L", [1.0, 2.0, 3.0])
def test_batch_matches_complex_formula(L, resolution):
    rows = all_coefficient_rows(8)
    got = arc_max_batch(rows, L, resolution)
    want = _complex_arc_max(rows, L, resolution)
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= 1e-12 * want)


def test_batch_is_invariant_under_negation_shift_and_reversal():
    row = [1, -1, 0, 1, 1, 0, -1]
    variants = np.array([
        row + [0, 0],
        [-c for c in row] + [0, 0],
        [0, 0] + row,
        [0] + row[::-1] + [0],
        [0, 0] + [-c for c in row[::-1]],
    ], dtype=np.int8)
    for L in (1.0, 2.0, 3.0):
        values = arc_max_batch(variants, L, resolution=512)
        assert np.all(values == values[0])


def test_batch_minimum_at_length_nine_matches_reference():
    rows = all_coefficient_rows(9)
    for L in (1.0, 2.0, 3.0):
        got = arc_max_batch(rows, L, resolution=512).min()
        want = _complex_arc_max(rows, L, 512).min()
        assert abs(got - want) <= 1e-12 * want


@pytest.mark.parametrize("rows, L, resolution", [
    ([[1, -1]], 0.0, 256),
    ([[1, -1]], -1.0, 256),
    ([[1, -1]], math.inf, 256),
    ([[1, -1]], math.nan, 256),
    ([[1, -1]], 1.0, 8),
    ([[1, 2]], 1.0, 256),
    ([[1, 0.5]], 1.0, 256),
    ([[1, -1], [0, 0]], 1.0, 256),
    ([1, -1], 1.0, 256),
    (np.zeros((0, 3)), 1.0, 256),
])
def test_batch_validates_like_the_single_arc_max(rows, L, resolution):
    with pytest.raises(DomainError):
        arc_max_batch(np.array(rows), L, resolution)


@pytest.mark.parametrize("L", [math.inf, math.nan])
def test_arc_must_be_finite(L):
    with pytest.raises(DomainError):
        littlewood_arc_max(LittlewoodPoly((1, -1)), L)


def test_batch_grid_times_row_length_is_capped():
    rows = np.ones((2, 4), dtype=np.int8)
    with pytest.raises(CapExceededError):
        arc_max_batch(rows, L=1e-300)
    with pytest.raises(CapExceededError):
        arc_max_batch(rows, L=1.0, resolution=2**20)


def test_arc_max_scratch_is_a_few_blocks():
    # 1,884,956 grid points x 2 coefficients, just under GRID_CAP: one
    # complex points x length matrix and its temporaries held ~100 MB
    poly, L, resolution = LittlewoodPoly((1, -1)), 1.0, 600000
    points = len(_grid(L, resolution, 2))
    assert 2 * points > GRID_CAP - 2**19
    littlewood_arc_max(poly, L)  # warm up lazy imports outside the trace
    tracemalloc.start()
    try:
        t, value = littlewood_arc_max(poly, L, resolution)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (t, value) == (math.pi, 2.0)
    # the grid and its values, plus four complex blocks
    assert peak < 2 * 8 * points + 4 * 16 * _PRODUCT_BLOCK_FLOATS
