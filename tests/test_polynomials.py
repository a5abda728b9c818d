import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from mixlearn import DegeneracyError, Family, SharedParams
from mixlearn.polynomials import compose_affine, moment_polynomial, stirling2_row


def stirling2(ell, j):
    """Reference: S(ell, j) read from its row, 0 outside 0 <= j <= ell."""
    if j < 0 or j > ell:
        return 0
    return stirling2_row(ell)[j]


@given(st.integers(min_value=1, max_value=20), st.integers(min_value=0, max_value=20))
def test_stirling_recurrence(ell, j):
    assert stirling2(ell, j) == (
        j * stirling2(ell - 1, j) + stirling2(ell - 1, j - 1)
    )


def horner(coefficients, x):
    """Reference: the polynomial with these coefficients at x."""
    acc = 0
    for c in reversed(coefficients):
        acc = acc * x + c
    return acc


@given(
    st.lists(st.integers(min_value=-5, max_value=5), min_size=1, max_size=6),
    st.fractions(min_value=-3, max_value=3),
    st.fractions(min_value=-3, max_value=3),
    st.fractions(min_value=-3, max_value=3),
)
def test_compose_affine_matches_direct_evaluation(coeffs, a, b, y):
    composed = compose_affine(tuple(coeffs), a, b)
    assert horner(composed, y) == horner(coeffs, a + b * y)


def test_binomial_moment_degree_and_leading_coefficient():
    for n in range(1, 9):
        for ell in range(1, n + 1):
            poly = moment_polynomial(Family.BINOMIAL_P, SharedParams(n=n), ell)
            assert len(poly) - 1 == ell
            assert poly[-1] == math.perm(n, ell)


def test_binomial_moment_degenerate_when_n_below_order():
    with pytest.raises(DegeneracyError):
        moment_polynomial(Family.BINOMIAL_P, SharedParams(n=2), 3)


def test_binomial_moment_small_cases():
    # E X = n p and E X^2 = n p + n(n-1) p^2
    p1 = moment_polynomial(Family.BINOMIAL_P, SharedParams(n=10), 1)
    assert p1 == (0, 10)
    p2 = moment_polynomial(Family.BINOMIAL_P, SharedParams(n=10), 2)
    assert p2 == (0, 10, 90)


def test_geometric_u_moment_leading_coefficient_is_factorial():
    for ell in range(1, 8):
        poly = moment_polynomial(Family.GEOMETRIC_U, None, ell)
        assert len(poly) - 1 == ell
        assert poly[-1] == math.factorial(ell)


def test_geometric_u_moment_against_series():
    # E X^ell = sum_x x^ell (1-p)^x p, summed numerically at p = 1/3 (u = 3)
    for ell in range(1, 6):
        poly = moment_polynomial(Family.GEOMETRIC_U, None, ell)
        exact = float(horner(poly, Fraction(3)))
        p = 1.0 / 3.0
        series = sum(x**ell * (1 - p) ** x * p for x in range(2000))
        assert abs(exact - series) < 1e-9 * max(1.0, exact)


def test_geometric_pmf_polynomial():
    # Pr(X = ell) = (1-p)^ell p
    for ell in range(6):
        poly = moment_polynomial(Family.GEOMETRIC_P, None, ell)
        assert len(poly) - 1 == ell + 1
        p = Fraction(1, 4)
        assert horner(poly, p) == (1 - p) ** ell * p


def _weighted_sum(terms, length):
    """sum of c * poly over (c, poly) pairs, as a coefficient list."""
    out = [0] * length
    for c, poly in terms:
        for d, a in enumerate(poly):
            out[d] += c * a
    return out


def test_moment_polynomials_match_independent_recurrences():
    # Poisson: mu_(l+1) = lam * sum_j C(l, j) mu_j, as polynomials in lam
    mus = [[1]]
    for ell in range(20):
        mus.append([0] + _weighted_sum(
            [(math.comb(ell, j), mus[j]) for j in range(ell + 1)], ell + 1))
    for ell, mu in enumerate(mus):
        assert moment_polynomial(Family.POISSON, None, ell) == tuple(mu)
    # geometric-u: mu_l = (u - 1) * sum_(j<l) C(l, j) mu_j, in u
    mus = [[1]]
    for ell in range(1, 21):
        inner = _weighted_sum([(math.comb(ell, j), mus[j]) for j in range(ell)], ell)
        mus.append(_weighted_sum([(-1, inner), (1, [0] + inner)], ell + 1))
    for ell, mu in enumerate(mus):
        assert moment_polynomial(Family.GEOMETRIC_U, None, ell) == tuple(mu)
    # binomial: sum_x x^l C(n, x) p^x (1 - p)^(n - x), expanded in p
    for n in range(1, 13):
        for ell in range(n + 1):
            expected = _weighted_sum(
                [(x**ell * math.comb(n, x),
                  [0] * x + [(-1) ** i * math.comb(n - x, i) for i in range(n - x + 1)])
                 for x in range(n + 1)],
                n + 1,
            )
            poly = moment_polynomial(Family.BINOMIAL_P, SharedParams(n=n), ell)
            assert poly == tuple(expected[: ell + 1])
            assert not any(expected[ell + 1:])


def test_every_moment_polynomial_ends_in_a_nonzero_coefficient():
    # so its degree is its length - 1, with no trailing zero to trim
    cases = [(family, None, ell) for ell in range(21)
             for family in (Family.POISSON, Family.GEOMETRIC_U, Family.GEOMETRIC_P)]
    cases += [(Family.BINOMIAL_P, SharedParams(n=n), ell)
              for n in range(1, 13) for ell in range(n + 1)]
    for case in cases:
        poly = moment_polynomial(*case)
        assert type(poly) is tuple and all(type(c) is int for c in poly), case
        assert poly[-1] != 0, case
