"""Littlewood polynomials ({-1,0,1} coefficients) and certified arc maxima
of |A(e^{it})| on [-pi/L, pi/L]."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Tuple

import numpy as np

from .errors import CapExceededError, DomainError

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
#: Most float64 entries of one grid times the row length.
GRID_CAP = 2**22
#: Entries of one block of grid values in ``arc_max_batch`` (float64, 2 MB)
#: and ``littlewood_arc_max`` (complex, 4 MB).
_PRODUCT_BLOCK_FLOATS = 2**18


@dataclass(frozen=True)
class LittlewoodPoly:
    coefficients: Tuple[int, ...]

    def __post_init__(self):
        coeffs = tuple(int(c) for c in self.coefficients)
        if any(c not in (-1, 0, 1) for c in coeffs):
            raise DomainError("coefficients must lie in {-1, 0, 1}")
        if not any(coeffs):
            raise DomainError("the zero polynomial has no arc bound")
        object.__setattr__(self, "coefficients", coeffs)

    def modulus_at(self, t: float) -> float:
        z = complex(math.cos(t), math.sin(t))
        acc = 0j
        for c in reversed(self.coefficients):
            acc = acc * z + c
        return abs(acc)


def _grid(L: float, resolution: int, length: int) -> np.ndarray:
    if resolution < 64:
        raise DomainError("resolution must be at least 64 points per unit arc")
    if not 0 < L < math.inf:
        raise DomainError("L must be positive and finite")
    # conjugate symmetry for real coefficients: scan [0, pi/L] only
    arc = math.pi / L
    points = max(int(resolution * arc) + 1, 9)
    if points * length > GRID_CAP:
        raise CapExceededError(
            f"{points} grid points x {length} coefficients exceed {GRID_CAP}"
        )
    return np.linspace(0.0, arc, points)


def littlewood_arc_max(
    poly: LittlewoodPoly, L: float, resolution: int = 256
) -> Tuple[float, float]:
    """(t*, value): a certified lower bound on max |A(e^{it})| over the arc,
    from a uniform grid refined by golden-section search."""
    ts = _grid(L, resolution, len(poly.coefficients))
    k = np.arange(len(poly.coefficients))
    coeffs = np.array(poly.coefficients, dtype=np.float64)
    vals = np.empty(len(ts))
    chunk = max(1, _PRODUCT_BLOCK_FLOATS // len(k))
    for start in range(0, len(ts), chunk):
        block = np.exp(1j * np.outer(ts[start : start + chunk], k))
        vals[start : start + chunk] = np.abs(block @ coeffs)
    best = int(np.argmax(vals))
    lo = ts[max(best - 1, 0)]
    hi = ts[min(best + 1, len(ts) - 1)]
    # golden-section refinement around the best grid point
    a, b = lo, hi
    fa_t = a + (1 - _GOLDEN) * (b - a)
    fb_t = a + _GOLDEN * (b - a)
    fa, fb = poly.modulus_at(fa_t), poly.modulus_at(fb_t)
    for _ in range(60):
        if fa < fb:
            a, fa_t, fa = fa_t, fb_t, fb
            fb_t = a + _GOLDEN * (b - a)
            fb = poly.modulus_at(fb_t)
        else:
            b, fb_t, fb = fb_t, fa_t, fa
            fa_t = a + (1 - _GOLDEN) * (b - a)
            fa = poly.modulus_at(fa_t)
    candidates = [(float(vals[best]), float(ts[best])), (fa, fa_t), (fb, fb_t)]
    value, t_star = max(candidates)
    return float(t_star), float(value)


def _autocorrelations(rows: np.ndarray) -> np.ndarray:
    """r_k = sum_j c_j c_(j+k), k = 0..m-1, as an (m, rows) integer array.

    |r_k| <= m, so the smallest signed type holding -m - 1 keeps them
    exact, and narrow keys are what ``np.lexsort`` sorts fastest.
    """
    m = rows.shape[1]
    cols = np.ascontiguousarray(rows.T, dtype=np.min_scalar_type(-m - 1))
    r = np.zeros_like(cols)
    for k in range(m):
        for j in range(m - k):
            r[k] += cols[j] * cols[j + k]
    return r


def arc_max_batch(
    coeff_rows: np.ndarray, L: float, resolution: int = 256
) -> np.ndarray:
    """Grid-evaluated arc maxima for many coefficient rows at once.

    Returns one lower bound per row; used by the exhaustive oracle and the
    regression sweep, where golden-section refinement per polynomial would be
    needlessly slow.

    |A(e^{it})|^2 = r_0 + 2 sum_(k>=1) r_k cos(kt) with the integer
    autocorrelation r of the coefficients.  Negating, shifting or reversing
    a row leaves r unchanged, so rows are grouped by r and each distinct r
    is evaluated once, as one real product against a cosine table.
    """
    rows = np.asarray(coeff_rows)
    if rows.ndim != 2 or rows.size == 0:
        raise DomainError("coefficient rows must form a nonempty 2-D array")
    if not np.all((rows == -1) | (rows == 0) | (rows == 1)):
        raise DomainError("coefficients must lie in {-1, 0, 1}")
    ts = _grid(L, resolution, rows.shape[1])
    r = _autocorrelations(rows)
    if not np.all(r[0]):  # r_0 counts the nonzero coefficients
        raise DomainError("the zero polynomial has no arc bound")
    order = np.lexsort(r)
    r = r[:, order]
    first = np.empty(r.shape[1], dtype=bool)  # first row of each r group
    first[0] = True
    np.any(r[:, 1:] != r[:, :-1], axis=0, out=first[1:])
    distinct = r[:, first].T.astype(np.float64)
    # rows 1, 2cos(t), 2cos(2t), ...: distinct @ table is |A|^2 on the grid
    table = 2.0 * np.cos(np.outer(np.arange(r.shape[0]), ts))
    table[0] = 1.0
    best = np.empty(len(distinct))
    chunk = max(1, _PRODUCT_BLOCK_FLOATS // len(ts))
    for start in range(0, len(distinct), chunk):
        best[start : start + chunk] = (distinct[start : start + chunk] @ table).max(axis=1)
    out = np.empty(r.shape[1])
    out[order] = np.sqrt(np.maximum(best, 0.0))[np.cumsum(first) - 1]
    return out


def all_coefficient_rows(max_len: int) -> np.ndarray:
    """Every nonzero {-1,0,1} vector of length ``max_len`` (shorter vectors
    are the rows with trailing zeros)."""
    grids = np.meshgrid(*([np.array([-1, 0, 1], dtype=np.int8)] * max_len),
                        indexing="ij")
    rows = np.stack([g.ravel() for g in grids], axis=1)
    return rows[np.any(rows != 0, axis=1)]
