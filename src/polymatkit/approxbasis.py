"""Minimal approximant bases (order bases).

``mbasis`` is the iterative one-order-at-a-time algorithm; ``pmbasis`` is
its divide-and-conquer wrapper that halves the order, computes a residual,
recurses, and multiplies the two partial bases together. Both return a
basis N with N * F = 0 mod x**sigma whose sorted row degrees are the
minimal indices of the approximant module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import OrderExceedsData
from .linalg import mod_matmul
from .poly import MINUS_INFINITY
from .polymat import PolyMatrix, SeriesMatrix, pm_mul, row_degrees

# Below this order the recursion bottoms out into the iterative algorithm.
PMBASIS_THRESHOLD = 16


@dataclass(frozen=True)
class ApproximantBasis:
    """A minimal approximant basis with its order and row-degree data."""

    basis: PolyMatrix
    order: int
    row_degrees: list
    shift: list | None = None

    @property
    def minimal_indices(self) -> list:
        return sorted(self.row_degrees)


def series_product(a: PolyMatrix, f: SeriesMatrix, order: int) -> SeriesMatrix:
    """(a * f) mod x**order as a SeriesMatrix."""
    prod = pm_mul(a, f.to_polymat())
    out = np.zeros((order, a.rows, f.cols), dtype=np.int64)
    take = min(order, prod.coeffs.shape[0])
    out[:take] = prod.coeffs[:take]
    return SeriesMatrix(a.field, order, out)


def order_residual(n: PolyMatrix, f: SeriesMatrix, sigma: int) -> np.ndarray:
    """Coefficient slices of (n * f) mod x**sigma; all-zero iff n approximates f."""
    return series_product(n, f, sigma).coeffs


def shifted_row_degrees(a: PolyMatrix, shift) -> list:
    """Row degrees of a after adding shift[j] to the degree of column j."""
    degs = []
    for i in range(a.rows):
        best = MINUS_INFINITY
        for j in range(a.cols):
            e = a.entry(i, j).degree
            if e is not MINUS_INFINITY and e != MINUS_INFINITY:
                best = max(best, e + shift[j])
        degs.append(best)
    return degs


def _normalize_shift(shift, n: int) -> list:
    if shift is None:
        return [0] * n
    shift = list(shift)
    if len(shift) != n:
        raise ValueError("shift length must equal the row count")
    return shift


def mbasis(f: SeriesMatrix, sigma: int, shift=None) -> ApproximantBasis:
    """Iterative minimal approximant basis of order sigma for f.

    One order at a time: eliminate the constant term of the residual by
    constant row operations (pivoting on the lowest-index row of minimal
    shifted degree), then multiply the pivot rows by x.
    """
    if sigma > f.order:
        raise OrderExceedsData(f"order {sigma} exceeds stored series order {f.order}")
    fld = f.field
    p = fld.p
    n, m = f.rows, f.cols
    shift = _normalize_shift(shift, n)

    basis = np.zeros((sigma + 1, n, n), dtype=np.int64)
    basis[0] = np.eye(n, dtype=np.int64)
    resid = f.coeffs[:sigma].copy() if sigma else np.zeros((0, n, m), dtype=np.int64)
    work = list(shift)

    for k in range(sigma):
        delta = resid[k].copy()
        trans = np.eye(n, dtype=np.int64)
        order_rows = sorted(range(n), key=lambda i: (work[i], i))
        pivots: list[tuple[int, int]] = []
        for i in order_rows:
            for pr, pc in pivots:
                factor = int(delta[i, pc])
                if factor:
                    delta[i] = (delta[i] - factor * delta[pr]) % p
                    trans[i] = (trans[i] - factor * trans[pr]) % p
            nz = np.nonzero(delta[i])[0]
            if nz.size:
                pc = int(nz[0])
                inv_piv = pow(int(delta[i, pc]), -1, p)
                delta[i] = delta[i] * inv_piv % p
                trans[i] = trans[i] * inv_piv % p
                pivots.append((i, pc))
        if pivots:
            basis = mod_matmul(trans, basis, p)
            resid[k:] = mod_matmul(trans, resid[k:], p)
            piv_rows = [i for i, _ in pivots]
            basis[:, piv_rows, :] = np.roll(basis[:, piv_rows, :], 1, axis=0)
            basis[0, piv_rows, :] = 0
            resid[:, piv_rows, :] = np.roll(resid[:, piv_rows, :], 1, axis=0)
            resid[0, piv_rows, :] = 0
            for i in piv_rows:
                work[i] += 1

    mat = PolyMatrix(fld, basis)
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
    resid = series_product(first.basis, f, sigma).slice(half, sigma)
    shift2 = shifted_row_degrees(first.basis, shift)
    # zero rows cannot occur in a non-singular basis, but keep the sort total
    shift2 = [int(s) if s != MINUS_INFINITY else 0 for s in shift2]
    second = pmbasis(resid, sigma - half, shift2)
    mat = pm_mul(second.basis, first.basis)
    return ApproximantBasis(mat, sigma, row_degrees(mat), list(shift))
