"""Mixture densities, CDFs, characteristic functions, and exact moments."""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from math import comb
from typing import Callable, Sequence, Union

import numpy as np

from .errors import ContractError, DomainError
from .grids import DISCRETE_FAMILIES, Family, MixtureSpec
from .polynomials import moment_polynomial
from .special import chi_squared_cdf, normal_cdf

Real = Union[int, float, Fraction]


def _as_count(x: Real, error=DomainError, what: str = "value") -> int:
    """x as an int, or ``error`` unless x is a nonnegative integral number
    (nan and inf are refused)."""
    try:
        if int(x) == x >= 0:
            return int(x)
    except (TypeError, ValueError, OverflowError):  # nan, inf or not a number
        pass
    raise error(f"{what} must be a nonnegative integer, got {x!r}")


def _comb_mass(top: int, x: int, a_pow, b_pow) -> float:
    """C(top, x)·a**i·b**j for ``a_pow`` = (a, log a, i), ``b_pow`` = (b, log b, j):
    a direct product where C(top, x) fits a float and both powers are normal
    floats, else exp(lgamma terms + i·log a + j·log b), in that order."""
    (a, log_a, i), (b, log_b, j) = a_pow, b_pow
    a_i, b_j = a**i, b**j
    try:
        c = float(comb(top, x))
    except OverflowError:  # C(top, x) exceeds the float range (top of about 1030 and up)
        c = math.inf
    if c < math.inf and min(a_i, b_j) >= sys.float_info.min:
        return c * a_i * b_j
    # log space: a power below the normal range would lose the mass
    return math.exp(math.lgamma(top + 1) - math.lgamma(x + 1) - math.lgamma(top - x + 1)
                    + i * log_a + j * log_b)


def _component_pmf(family: Family, shared, value: Fraction, x: int) -> float:
    """One component's mass at x.  The binomial C(n, x)·p**x·(1-p)**(n-x) and
    the negative binomial C(x+r-1, x)·(1-p)**r·p**x are both ``_comb_mass``."""
    if family is Family.POISSON:
        lam = float(value)
        if lam == 0.0:
            return 1.0 if x == 0 else 0.0
        return math.exp(-lam + x * math.log(lam) - math.lgamma(x + 1))
    if family is Family.BINOMIAL_P:
        n, p = shared.n, float(value)
        if x > n:
            raise DomainError(f"binomial value {x} exceeds trial count {n}")
        if p == 0.0:
            return 1.0 if x == 0 else 0.0
        if p == 1.0:
            return 1.0 if x == n else 0.0
        return _comb_mass(n, x, (p, math.log(p), x), (1.0 - p, math.log1p(-p), n - x))
    if family in (Family.GEOMETRIC_P, Family.GEOMETRIC_U):
        p = float(value) if family is Family.GEOMETRIC_P else 1.0 / float(value)
        # p = 0 is a degenerate grid point: (1 - 0)**x * 0 is 0.0 at every x.
        return (1.0 - p) ** x * p
    if family is Family.NEG_BINOMIAL:
        r, p = int(value), float(shared.p)
        return _comb_mass(x + r - 1, x, (1.0 - p, math.log1p(-p), r), (p, math.log(p), x))
    raise ContractError(f"{family.value} is not a discrete family")


def _component_pdf(
    family: Family, shared, value: Fraction, xs: np.ndarray
) -> np.ndarray:
    if family is Family.GAUSSIAN:
        s = shared.sigma
        z = (xs - float(value)) / s
        return np.exp(-0.5 * z * z) / (s * math.sqrt(2.0 * math.pi))
    if family is Family.CHI_SQUARED:
        d = int(value)
        if np.any(xs < 0):
            raise DomainError("chi-squared support is nonnegative")
        at_zero = xs == 0.0
        if d == 1 and np.any(at_zero):
            raise DomainError("chi-squared(1) density diverges at 0")
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.exp(
                (d / 2.0 - 1.0) * np.log(xs) - xs / 2.0
                - (d / 2.0) * math.log(2.0) - math.lgamma(d / 2.0)
            )
        return np.where(at_zero, 0.5 if d == 2 else 0.0, out)
    raise ContractError(f"{family.value} is not a continuous family")


def _mix(specs: Sequence[MixtureSpec], component: Callable, out):
    """out[i] += float(w) * component(v) for each (w, v) of specs[i], in its order
    and not by ``sum`` (compensated from Python 3.12 on); taken in increasing v,
    each distinct value's ``component`` row is made once and dropped at the next."""
    terms = [(v, i, float(w)) for i, spec in enumerate(specs) for w, v in spec.components()]
    if len(specs) > 1:  # stable; float(v) never falls as v rises, so each spec keeps its order
        terms.sort(key=lambda term: float(term[0]))
    last = None
    for v, i, w in terms:
        if last is None or v != last:
            row, last = component(v), v
        out[i] += w * row
    return out


def pdf_array(spec: MixtureSpec, xs) -> np.ndarray:
    """Mixture density at a point or at every point of an array ``xs``
    (continuous families); the result has the shape of ``xs``."""
    xs = np.asarray(xs, dtype=np.float64)
    component = lambda v: _component_pdf(spec.family, spec.shared, v, xs)
    return _mix([spec], component, np.zeros((1, *xs.shape)))[0, ...]


def pmf_or_pdf(spec: MixtureSpec, x: Real) -> float:
    """Mixture density (continuous) or mass (discrete) at x."""
    if spec.family in DISCRETE_FAMILIES:
        xi = _as_count(x)
        return _mix([spec], lambda v: _component_pmf(spec.family, spec.shared, v, xi), [0.0])[0]
    return float(pdf_array(spec, x))


def cdf(spec: MixtureSpec, x: Real) -> float:
    """Mixture CDF, Gaussian and chi-squared families only."""
    if spec.family is Family.GAUSSIAN:
        component_cdf = lambda v: normal_cdf(float(x), float(v), spec.shared.sigma)
    elif spec.family is Family.CHI_SQUARED:
        component_cdf = lambda v: chi_squared_cdf(int(v), float(x))
    else:
        raise ContractError(f"cdf unsupported for family {spec.family.value}")
    return _mix([spec], component_cdf, [0.0])[0]


def _component_pgf(family: Family, shared, value: Fraction, z, exp=np.exp):
    """E[z^X] for one discrete component: ``z`` a complex array on the unit
    circle (the characteristic function, ``exp`` = ``np.exp``) or a real
    float past 1 (the tail bounds, ``exp`` = ``math.exp``)."""
    if family is Family.POISSON:
        return exp(float(value) * (z - 1.0))
    if family is Family.BINOMIAL_P:
        p = float(value)
        return (1.0 - p + p * z) ** shared.n
    if family in (Family.GEOMETRIC_P, Family.GEOMETRIC_U):
        p = float(value) if family is Family.GEOMETRIC_P else 1.0 / float(value)
        if p == 0.0:
            # degenerate zero-mass component (``mgf_a2x`` diverges first)
            return np.zeros_like(z)
        return p / (1.0 - (1.0 - p) * z)
    if family is Family.NEG_BINOMIAL:
        p = float(shared.p)
        return ((1.0 - p) / (1.0 - p * z)) ** int(value)
    raise ContractError(f"{family.value} is not a discrete family")


def _component_charfn(
    family: Family, shared, value: Fraction, ts: np.ndarray
) -> np.ndarray:
    if family is Family.GAUSSIAN:
        s = shared.sigma
        return np.exp(1j * ts * float(value) - 0.5 * s * s * ts * ts)
    if family is Family.CHI_SQUARED:
        return (1.0 - 2.0j * ts) ** (-int(value) / 2.0)
    return _component_pgf(family, shared, value, np.exp(1j * ts))


def char_fn(spec: MixtureSpec, t):
    """Mixture characteristic function E[exp(itX)] in closed form: a
    ``complex`` for a scalar ``t``, an array of the shape of ``t`` for an
    array."""
    ts = np.asarray(t, dtype=np.float64)
    component = lambda v: _component_charfn(spec.family, spec.shared, v, ts)
    # as in Python complex arithmetic, a |t| near the float limit overflows
    # to 0, inf or nan without a warning
    with np.errstate(over="ignore", invalid="ignore"):
        total = _mix([spec], component, np.zeros((1, *ts.shape), dtype=np.complex128))[0]
    return complex(total) if total.ndim == 0 else total


def mixture_moment_exact(spec: MixtureSpec, ell: int) -> Fraction:
    """Exact rational raw moment E X^ell of the mixture (binomial-p,
    geometric-u and Poisson): the sum of w * p(v) over the components (w, v),
    p the integer polynomial ``moment_polynomial(family, shared, ell)``."""
    ell = _as_count(ell, ContractError, "moment order")
    if spec.family not in (Family.BINOMIAL_P, Family.GEOMETRIC_U, Family.POISSON):
        # geometric-p's moment_polynomial gives the pmf, not a moment
        raise ContractError(
            f"exact moments unsupported for family {spec.family.value}"
        )
    coeffs = moment_polynomial(spec.family, spec.shared, ell)
    degree = len(coeffs) - 1
    total = Fraction(0)
    for w, v in spec.components():
        # Horner on the integer numerator of p(a/b) * b^degree
        a, b = v.numerator, v.denominator
        num, scale = 0, 1
        for c in reversed(coeffs):
            num = num * a + c * scale
            scale *= b
        total += Fraction(w.numerator * num, w.denominator * b**degree)
    return total


def mixture_pmf_exact(spec: MixtureSpec, x: int) -> Fraction:
    """Exact rational pmf sum of w * (1 - p)^x * p for the geometric p-grid
    (used by the pmf learner)."""
    if spec.family is not Family.GEOMETRIC_P:
        raise ContractError("exact pmf is provided for geometric-p only")
    x = _as_count(x)
    return sum((w * (1 - v) ** x * v for w, v in spec.components()), Fraction(0))


def mgf_a2x(family: Family, shared, value: Fraction, a: float) -> float:
    """E[a^(2X)] for one component, its generating function at a^2, used by
    tail certificates; inf where it diverges or passes the float range."""
    if family not in DISCRETE_FAMILIES:
        raise ContractError(f"E[a^2X] unavailable for family {family.value}")
    a2 = a * a
    if family in (Family.GEOMETRIC_P, Family.GEOMETRIC_U):
        p = float(value) if family is Family.GEOMETRIC_P else 1.0 / float(value)
        if p == 0.0 or (1.0 - p) * a2 >= 1.0:
            return math.inf
    if family is Family.NEG_BINOMIAL and float(shared.p) * a2 >= 1.0:
        return math.inf
    try:
        return _component_pgf(family, shared, value, a2, math.exp)
    except OverflowError:
        return math.inf
