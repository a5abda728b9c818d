"""Mixture densities, CDFs, characteristic functions, and exact moments."""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from math import comb
from typing import Union

import numpy as np

from .errors import ContractError, DomainError
from .grids import DISCRETE_FAMILIES, Family, MixtureSpec
from .polynomials import moment_polynomial
from .special import chi_squared_cdf, normal_cdf

Real = Union[int, float, Fraction]


def _as_count(x: Real) -> int:
    xf = float(x)
    if xf < 0 or xf != int(xf):
        raise DomainError(f"value {x} outside discrete support")
    return int(xf)


def _component_pmf(family: Family, shared, value: Fraction, x: int) -> float:
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
        try:
            c = float(comb(n, x))
        except OverflowError:
            # C(n, x) exceeds the float range (n of about 1030 and up)
            return math.exp(
                math.lgamma(n + 1) - math.lgamma(x + 1) - math.lgamma(n - x + 1)
                + x * math.log(p) + (n - x) * math.log1p(-p)
            )
        return c * p**x * (1.0 - p) ** (n - x)
    if family in (Family.GEOMETRIC_P, Family.GEOMETRIC_U):
        p = float(value) if family is Family.GEOMETRIC_P else 1.0 / float(value)
        # p = 0 is a degenerate grid point contributing zero mass everywhere.
        if p == 0.0:
            return 0.0
        return (1.0 - p) ** x * p
    if family is Family.NEG_BINOMIAL:
        r, p = int(value), float(shared.p)
        q_r, p_x = (1.0 - p) ** r, p**x
        try:
            c = float(comb(x + r - 1, x))
        except OverflowError:  # C(x + r - 1, x) exceeds the float range
            c = math.inf
        if c < math.inf and min(q_r, p_x) >= sys.float_info.min:
            return c * q_r * p_x
        # log space: a power below the normal range would lose the mass
        return math.exp(math.lgamma(x + r) - math.lgamma(x + 1) - math.lgamma(r)
                        + r * math.log1p(-p) + x * math.log(p))
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


def pdf_array(spec: MixtureSpec, xs) -> np.ndarray:
    """Mixture density at a point or at every point of an array ``xs``
    (continuous families); the result has the shape of ``xs``."""
    xs = np.asarray(xs, dtype=np.float64)
    total = np.zeros(xs.shape)
    for w, v in spec.components():
        total += float(w) * _component_pdf(spec.family, spec.shared, v, xs)
    return total


def pmf_or_pdf(spec: MixtureSpec, x: Real) -> float:
    """Mixture density (continuous) or mass (discrete) at x.

    Float sums here and in ``cdf`` are plain left-to-right loops, not
    ``sum``, which compensates from Python 3.12 on; so results do not depend
    on the Python version.
    """
    if spec.family in DISCRETE_FAMILIES:
        xi = _as_count(x)
        total = 0.0
        for w, v in spec.components():
            total += float(w) * _component_pmf(spec.family, spec.shared, v, xi)
        return total
    return float(pdf_array(spec, x))


def cdf(spec: MixtureSpec, x: Real) -> float:
    """Mixture CDF, Gaussian and chi-squared families only."""
    if spec.family is Family.GAUSSIAN:
        component_cdf = lambda v: normal_cdf(float(x), float(v), spec.shared.sigma)
    elif spec.family is Family.CHI_SQUARED:
        component_cdf = lambda v: chi_squared_cdf(int(v), float(x))
    else:
        raise ContractError(f"cdf unsupported for family {spec.family.value}")
    total = 0.0
    for w, v in spec.components():
        total += float(w) * component_cdf(v)
    return total


def _component_charfn(
    family: Family, shared, value: Fraction, ts: np.ndarray
) -> np.ndarray:
    z = np.exp(1j * ts)
    if family is Family.GAUSSIAN:
        s = shared.sigma
        return np.exp(1j * ts * float(value) - 0.5 * s * s * ts * ts)
    if family is Family.POISSON:
        return np.exp(float(value) * (z - 1.0))
    if family is Family.BINOMIAL_P:
        p = float(value)
        return (1.0 - p + p * z) ** shared.n
    if family in (Family.GEOMETRIC_P, Family.GEOMETRIC_U):
        p = float(value) if family is Family.GEOMETRIC_P else 1.0 / float(value)
        if p == 0.0:
            # degenerate zero-mass component
            return np.zeros_like(z)
        return p / (1.0 - (1.0 - p) * z)
    if family is Family.CHI_SQUARED:
        return (1.0 - 2.0j * ts) ** (-int(value) / 2.0)
    if family is Family.NEG_BINOMIAL:
        p = float(shared.p)
        return ((1.0 - p) / (1.0 - p * z)) ** int(value)
    raise ContractError(f"no characteristic function for {family.value}")


def char_fn(spec: MixtureSpec, t):
    """Mixture characteristic function E[exp(itX)] in closed form: a
    ``complex`` for a scalar ``t``, an array of the shape of ``t`` for an
    array."""
    ts = np.asarray(t, dtype=np.float64)
    total = np.zeros(ts.shape, dtype=np.complex128)
    # as in Python complex arithmetic, a |t| near the float limit overflows
    # to 0, inf or nan without a warning
    with np.errstate(over="ignore", invalid="ignore"):
        for w, v in spec.components():
            total += _component_charfn(spec.family, spec.shared, v, ts) * float(w)
    return complex(total) if total.ndim == 0 else total


def mixture_moment_exact(spec: MixtureSpec, ell: int) -> Fraction:
    """Exact rational raw moment E X^ell of the mixture (binomial-p,
    geometric-u and Poisson)."""
    if ell < 0:
        raise ContractError("moment order must be nonnegative")
    if spec.family not in (Family.BINOMIAL_P, Family.GEOMETRIC_U, Family.POISSON):
        # geometric-p's moment_polynomial gives the pmf, not a moment
        raise ContractError(
            f"exact moments unsupported for family {spec.family.value}"
        )
    coeffs = moment_polynomial(spec.family, spec.shared, ell).coefficients
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
    """Exact rational pmf for the geometric p-grid (used by the pmf learner)."""
    if spec.family is not Family.GEOMETRIC_P:
        raise ContractError("exact pmf is provided for geometric-p only")
    if x < 0:
        raise DomainError("discrete support is nonnegative")
    return sum(
        (w * (1 - v) ** x * v for w, v in spec.components()), Fraction(0)
    )


def mgf_a2x(family: Family, shared, value: Fraction, a: float) -> float:
    """E[a^(2X)] for one component, used by tail certificates; inf where
    it diverges or passes the float range."""
    a2 = a * a
    try:
        if family is Family.POISSON:
            return math.exp(float(value) * (a2 - 1.0))
        if family is Family.BINOMIAL_P:
            p = float(value)
            return (1.0 - p + p * a2) ** shared.n
        if family in (Family.GEOMETRIC_P, Family.GEOMETRIC_U):
            p = float(value) if family is Family.GEOMETRIC_P else 1.0 / float(value)
            if p == 0.0:
                return math.inf
            if (1.0 - p) * a2 >= 1.0:
                return math.inf
            return p / (1.0 - (1.0 - p) * a2)
        if family is Family.NEG_BINOMIAL:
            p = float(shared.p)
            if p * a2 >= 1.0:
                return math.inf
            return ((1.0 - p) / (1.0 - p * a2)) ** int(value)
    except OverflowError:
        return math.inf
    raise ContractError(f"E[a^2X] unavailable for family {family.value}")
