"""Integer-coefficient moment polynomials and the combinatorial tables
(Stirling, Eulerian, falling factorials) they are built from.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import List, Sequence, Tuple

from .errors import DegeneracyError, ContractError
from .grids import Family


@dataclass(frozen=True)
class IntegerPolynomial:
    """Dense integer polynomial, ``coefficients[d]`` multiplying x**d."""

    coefficients: Tuple[int, ...]

    def __post_init__(self):
        coeffs = tuple(int(c) for c in self.coefficients)
        while len(coeffs) > 1 and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        if coeffs == (0,):
            coeffs = ()
        object.__setattr__(self, "coefficients", coeffs)

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coefficients) - 1

    @property
    def leading_coefficient(self) -> int:
        return self.coefficients[-1] if self.coefficients else 0

    def __call__(self, x):
        acc = 0
        for c in reversed(self.coefficients):
            acc = acc * x + c
        return acc

    def compose_affine(self, a, b) -> List[Fraction]:
        """Coefficients (in y) of p(a + b*y), as exact rationals."""
        a, b = Fraction(a), Fraction(b)
        out = [Fraction(0)] * (len(self.coefficients) or 1)
        for c in reversed(self.coefficients):
            # out <- out * (a + b y) + c
            nxt = [Fraction(0)] * len(out)
            for j, v in enumerate(out):
                nxt[j] += a * v
                if j + 1 < len(out):
                    nxt[j + 1] += b * v
            nxt[0] += c
            out = nxt
        return out


def falling_factorial(n: int, j: int) -> int:
    """n * (n-1) * ... * (n-j+1)."""
    out = 1
    for i in range(j):
        out *= n - i
    return out


@lru_cache(maxsize=None)
def stirling2_row(ell: int) -> Tuple[int, ...]:
    """Row ell of the Stirling numbers of the second kind, S(ell, 0..ell)."""
    if ell == 0:
        return (1,)
    prev = stirling2_row(ell - 1)
    row = [0] * (ell + 1)
    for j in range(1, ell + 1):
        row[j] = j * prev[j] if j < len(prev) else 0
        row[j] += prev[j - 1]
    return tuple(row)


def stirling2(ell: int, j: int) -> int:
    if j < 0 or j > ell:
        return 0
    return stirling2_row(ell)[j]


@lru_cache(maxsize=None)
def eulerian_row(ell: int) -> Tuple[int, ...]:
    """Eulerian numbers <ell, 0..ell-1>; empty for ell = 0."""
    if ell == 0:
        return ()
    if ell == 1:
        return (1,)
    prev = eulerian_row(ell - 1)
    row = []
    for j in range(ell):
        left = (j + 1) * prev[j] if j < len(prev) else 0
        right = (ell - j) * prev[j - 1] if 0 <= j - 1 < len(prev) else 0
        row.append(left + right)
    return tuple(row)


def eulerian(ell: int, j: int) -> int:
    row = eulerian_row(ell)
    return row[j] if 0 <= j < len(row) else 0


def _poly_mul(a: Sequence[int], b: Sequence[int]) -> List[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _binomial_moment(n: int, ell: int) -> IntegerPolynomial:
    # E X^ell = sum_j S(ell,j) (n)_j p^j; degree exactly ell needs n >= ell.
    if ell > 0 and n < ell:
        raise DegeneracyError(
            f"binomial moment of order {ell} degenerates for n={n} < {ell}"
        )
    coeffs = [stirling2(ell, j) * falling_factorial(n, j) for j in range(ell + 1)]
    return IntegerPolynomial(tuple(coeffs))


def _geometric_u_moment(ell: int) -> IntegerPolynomial:
    # E X^ell = sum_j <ell,j> u^j (u-1)^(ell-j), a degree-ell polynomial in
    # u = 1/p with leading coefficient ell!.
    if ell == 0:
        return IntegerPolynomial((1,))
    acc = [0] * (ell + 1)
    for j in range(ell):
        term = [0] * j + [eulerian(ell, j)]  # <ell,j> * u^j
        for _ in range(ell - j):
            term = _poly_mul(term, [-1, 1])  # * (u - 1)
        for d, c in enumerate(term):
            acc[d] += c
    return IntegerPolynomial(tuple(acc))


def _geometric_pmf_poly(ell: int) -> IntegerPolynomial:
    # Pr(X = ell) = (1-p)^ell p = sum_j C(ell,j) (-1)^j p^(j+1), degree ell+1.
    coeffs = [0] * (ell + 2)
    for j in range(ell + 1):
        coeffs[j + 1] = comb(ell, j) * (-1) ** j
    return IntegerPolynomial(tuple(coeffs))


def moment_polynomial(family: Family, shared, ell: int) -> IntegerPolynomial:
    """Integer polynomial giving a raw moment (or pmf value) per family.

    * binomial-p: E X^ell as a polynomial in p (needs shared.n >= ell)
    * geometric-u: E X^ell as a polynomial in u = 1/p
    * geometric-p: Pr(X = ell) as a polynomial in p, degree ell + 1
    * poisson: E X^ell as the Touchard polynomial sum_j S(ell, j) lam^j
    """
    if ell < 0:
        raise ContractError("moment order must be nonnegative")
    if family is Family.BINOMIAL_P:
        if shared is None or shared.n is None:
            raise ContractError("binomial-p moment polynomial needs n")
        return _binomial_moment(shared.n, ell)
    if family is Family.GEOMETRIC_U:
        return _geometric_u_moment(ell)
    if family is Family.GEOMETRIC_P:
        return _geometric_pmf_poly(ell)
    if family is Family.POISSON:
        return IntegerPolynomial(stirling2_row(ell))
    raise ContractError(f"no moment polynomial for family {family.value}")
