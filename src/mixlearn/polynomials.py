"""Integer-coefficient moment polynomials and the combinatorial tables
(Stirling numbers, falling factorials) they are built from.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial
from typing import List, Tuple

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


def _geometric_pmf_poly(ell: int) -> IntegerPolynomial:
    # Pr(X = ell) = (1-p)^ell p = sum_j C(ell,j) (-1)^j p^(j+1), degree ell+1.
    coeffs = [0] * (ell + 2)
    for j in range(ell + 1):
        coeffs[j + 1] = comb(ell, j) * (-1) ** j
    return IntegerPolynomial(tuple(coeffs))


@lru_cache(maxsize=1024)
def moment_polynomial(family: Family, shared, ell: int) -> IntegerPolynomial:
    """Integer polynomial giving a raw moment (or pmf value) per family.
    Cached: it depends on (family, shared, ell) only, and is immutable.

    Raw moments are E X^ell = sum_j S(ell, j) E[(X)_j], with the factorial
    moments E[(X)_j] = c_j y^j; the coefficients in y are S(ell, j) c_j.

    * poisson: E X^ell in lam, c_j = 1 (the Touchard polynomial)
    * binomial-p: E X^ell in p, c_j = (n)_j (needs shared.n >= ell)
    * geometric-u: E X^ell in u = 1/p, y = u - 1, c_j = j!
    * geometric-p: Pr(X = ell) as a polynomial in p, degree ell + 1
    """
    if ell < 0:
        raise ContractError("moment order must be nonnegative")
    if family is Family.POISSON:
        return IntegerPolynomial(stirling2_row(ell))
    if family is Family.BINOMIAL_P:
        if shared is None or shared.n is None:
            raise ContractError("binomial-p moment polynomial needs n")
        n = shared.n
        # degree exactly ell needs n >= ell
        if ell > 0 and n < ell:
            raise DegeneracyError(
                f"binomial moment of order {ell} degenerates for n={n} < {ell}"
            )
        return IntegerPolynomial(tuple(
            s * falling_factorial(n, j) for j, s in enumerate(stirling2_row(ell))
        ))
    if family is Family.GEOMETRIC_U:
        c = [s * factorial(j) for j, s in enumerate(stirling2_row(ell))]
        # expand sum_j c[j] (u - 1)^j in u; leading coefficient ell!
        return IntegerPolynomial(tuple(
            sum(c[j] * comb(j, i) * (-1) ** (j - i) for j in range(i, ell + 1))
            for i in range(ell + 1)
        ))
    if family is Family.GEOMETRIC_P:
        return _geometric_pmf_poly(ell)
    raise ContractError(f"no moment polynomial for family {family.value}")
