"""Minimal approximant bases (order bases).

``mbasis`` goes one order at a time by the M-Basis step of Giorgi, Jeannerod
& Villard (ISSAC 2003): one elimination gives the row rank profile of the
shifted-degree-sorted constant residual, one product over the pivot rows'
live slices makes the dependent rows kernel rows, and pivot rows are
multiplied by x. ``pmbasis`` is its divide-and-conquer wrapper that halves
the order, computes a residual, recurses, and multiplies the two partial
bases together. Both return a basis N with N * F = 0 mod x**sigma whose
sorted shifted row degrees are the minimal indices of the approximant module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import OrderExceedsData
from .linalg import PRODUCT_MULTS, mod_matmul, rref
from .poly import MINUS_INFINITY
from .polymat import PolyMatrix, SeriesMatrix, entry_degrees, int_degree, pm_mul, row_degrees

# Below this order the recursion bottoms out into the iterative algorithm.
PMBASIS_THRESHOLD = 64


@dataclass(frozen=True)
class ApproximantBasis:
    """A minimal approximant basis with its order and row-degree data."""

    basis: PolyMatrix
    order: int
    row_degrees: list
    shift: list | None = None

    @property
    def minimal_indices(self) -> list:
        """Sorted shifted row degrees (plain row degrees when there is no shift)."""
        if self.shift is None:
            return sorted(self.row_degrees)
        return sorted(shifted_row_degrees(self.basis, self.shift))


def series_product(a: PolyMatrix, f: SeriesMatrix, order: int) -> SeriesMatrix:
    """(a * f) mod x**order as a SeriesMatrix."""
    return pm_mul(a, f.to_polymat()).to_series(order)


def order_residual(n: PolyMatrix, f: SeriesMatrix, sigma: int) -> np.ndarray:
    """Coefficient slices of (n * f) mod x**sigma; all-zero iff n approximates f."""
    return series_product(n, f, sigma).coeffs


def shifted_row_degrees(a: PolyMatrix, shift) -> list:
    """Row degrees of a after adding shift[j] to the degree of column j."""
    degs = entry_degrees(a)
    low = np.iinfo(np.int64).min
    shifted = np.where(degs >= 0, degs + np.asarray(shift, dtype=np.int64), low)
    return [int(d) if d != low else MINUS_INFINITY for d in shifted.max(axis=1, initial=low)]


def _normalize_shift(shift, n: int) -> list:
    if shift is None:
        return [0] * n
    shift = list(shift)
    if len(shift) != n:
        raise ValueError("shift length must equal the row count")
    return shift


def mbasis(f: SeriesMatrix, sigma: int, shift=None) -> ApproximantBasis:
    """Iterative minimal approximant basis of order sigma for f.

    Order k costs one elimination and one product (GJV 2003). With the rows
    sorted by (shifted degree, index), the pivot columns of ``rref`` of the
    transposed constant residual are the pivot rows. Each dependent row
    becomes row - lambda * (pivot rows), lambda read off the non-pivot
    columns: its constant residual vanishes and its shifted degree does not
    grow, as the pivot rows sort before it. Each pivot row is multiplied by
    x. Row i of ``state`` is residual row i, then basis row i: the live
    slices (residual k + 1 on, basis to the pivot rows' degree bound) are
    one column range.
    """
    if sigma > f.order:
        raise OrderExceedsData(f"order {sigma} exceeds stored series order {f.order}")
    p, n, m = f.field.p, f.rows, f.cols
    shift = _normalize_shift(shift, n)

    split = sigma * m
    state = np.zeros((n, split + (sigma + 1) * n), dtype=np.int64)
    resid, basis = state[:, :split].reshape(n, sigma, m), state[:, split:].reshape(n, sigma + 1, n)
    resid[:] = f.coeffs[:sigma].transpose(1, 0, 2)
    basis[:, 0] = np.eye(n, dtype=np.int64)
    work = np.array(shift, dtype=np.int64)
    degs = np.zeros(n, dtype=np.int64)  # per-row degree bound of basis

    for k in range(sigma):
        order_rows = np.argsort(work, kind="stable")
        echelon, piv = rref(resid[order_rows, k].T, p)
        if not piv:
            continue
        free = np.ones(n, dtype=bool)
        free[piv] = False
        piv_rows, dep_rows = order_rows[piv], order_rows[free]
        top = int(degs[piv_rows].max()) + 1
        if dep_rows.size:
            lam = echelon[:len(piv), free].T
            end, step = split + top * n, max(1, PRODUCT_MULTS // lam.size)
            for lo in range((k + 1) * m, end, step):
                live = slice(lo, min(lo + step, end))
                upd = state[dep_rows, live] - mod_matmul(lam, state[piv_rows, live], p)
                upd += (upd >> 63) & p  # from (-p, p) to [0, p) without a division
                state[dep_rows, live] = upd
            degs[dep_rows] = np.maximum(degs[dep_rows], top - 1)
        basis[piv_rows, 1:top + 1] = basis[piv_rows, :top]
        basis[piv_rows, 0] = 0
        resid[piv_rows, k + 1:] = resid[piv_rows, k:-1]
        work[piv_rows] += 1
        degs[piv_rows] += 1

    mat = PolyMatrix(f.field, np.ascontiguousarray(basis.transpose(1, 0, 2)))
    return ApproximantBasis(mat, sigma, row_degrees(mat), list(shift))


def pmbasis(f: SeriesMatrix, sigma: int, shift=None) -> ApproximantBasis:
    """Divide-and-conquer order basis; same contract as mbasis."""
    if sigma > f.order:
        raise OrderExceedsData(f"order {sigma} exceeds stored series order {f.order}")
    shift = _normalize_shift(shift, f.rows)
    if sigma <= PMBASIS_THRESHOLD:
        return mbasis(f, sigma, shift)
    half = (sigma + 1) // 2
    first = pmbasis(f.slice(0, half), half, shift)
    # slices [half, sigma) of N * F need F only from half - deg N on
    lo = max(half - int_degree(first.basis), 0)
    resid = series_product(first.basis, f.slice(lo, sigma), sigma - lo)
    resid = resid.slice(half - lo, sigma - lo)
    shift2 = shifted_row_degrees(first.basis, shift)
    # zero rows cannot occur in a non-singular basis, but keep the sort total
    shift2 = [int(s) if s != MINUS_INFINITY else 0 for s in shift2]
    second = pmbasis(resid, sigma - half, shift2)
    mat = pm_mul(second.basis, first.basis)
    return ApproximantBasis(mat, sigma, row_degrees(mat), list(shift))
