"""Moment polynomials as integer coefficient tuples, entry d multiplying
y**d, and the Stirling numbers they are built from.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, perm
from typing import List, Tuple

from .errors import DegeneracyError, ContractError
from .grids import Family


def compose_affine(coefficients: Tuple[int, ...], a, b) -> List[Fraction]:
    """Coefficients (in y) of p(a + b*y), as exact rationals."""
    a, b = Fraction(a), Fraction(b)
    out = [Fraction(0)] * (len(coefficients) or 1)
    for c in reversed(coefficients):
        # out <- out * (a + b y) + c
        nxt = [Fraction(0)] * len(out)
        for j, v in enumerate(out):
            nxt[j] += a * v
            if j + 1 < len(out):
                nxt[j + 1] += b * v
        nxt[0] += c
        out = nxt
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


def _geometric_pmf_poly(ell: int) -> Tuple[int, ...]:
    # Pr(X = ell) = (1-p)^ell p = sum_j C(ell,j) (-1)^j p^(j+1), degree ell+1.
    return (0,) + tuple(comb(ell, j) * (-1) ** j for j in range(ell + 1))


@lru_cache(maxsize=1024)
def moment_polynomial(family: Family, shared, ell: int) -> Tuple[int, ...]:
    """Integer coefficients of a raw moment (or pmf value) per family, its
    leading coefficient nonzero.  Cached: it depends on (family, shared,
    ell) only, and a tuple cannot be changed by a caller.

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
        return stirling2_row(ell)
    if family is Family.BINOMIAL_P:
        if shared is None or shared.n is None:
            raise ContractError("binomial-p moment polynomial needs n")
        n = shared.n
        # degree exactly ell needs n >= ell
        if ell > 0 and n < ell:
            raise DegeneracyError(
                f"binomial moment of order {ell} degenerates for n={n} < {ell}"
            )
        return tuple(s * perm(n, j) for j, s in enumerate(stirling2_row(ell)))
    if family is Family.GEOMETRIC_U:
        c = [s * factorial(j) for j, s in enumerate(stirling2_row(ell))]
        # expand sum_j c[j] (u - 1)^j in u; leading coefficient ell!
        return tuple(
            sum(c[j] * comb(j, i) * (-1) ** (j - i) for j in range(i, ell + 1))
            for i in range(ell + 1)
        )
    if family is Family.GEOMETRIC_P:
        return _geometric_pmf_poly(ell)
    raise ContractError(f"no moment polynomial for family {family.value}")
