"""Minimal approximant bases (order bases).

``mbasis`` goes one order at a time by the M-Basis step of Giorgi, Jeannerod
& Villard (ISSAC 2003): one elimination gives the row rank profile of the
shifted-degree-sorted constant residual, one product over the pivot rows'
live slices makes the dependent rows kernel rows, and pivot rows are
multiplied by x. ``raise_order`` takes bases of one order to a higher one for
the same series: it computes the residual, a second basis of the residual
and one product. ``pmbasis`` is the divide-and-conquer wrapper that
computes bases of half the order and raises them; the nullspace sweep
raises each degree cap's bases to the next cap the same way. All return a
basis N with N * F = 0 mod x**sigma whose sorted shifted row degrees are the
minimal indices of the approximant module.

All also take a batch of B same-shape series (one level of the generic
inverse or determinant), whose orders share one sort, one elimination on
the block diagonal of the B residuals and one product, and whose
``raise_order`` makes one batched residual and one batched final product:
the Python work is paid once, not B times, and each basis is what its own
call returns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import DimensionMismatch, OrderExceedsData
from .linalg import PRODUCT_MULTS, mul_unreduced, rref, split_right
from .poly import MINUS_INFINITY
from .polymat import (PolyMatrix, SeriesMatrix, entry_degrees, int_degree, pm_mul, pm_mul_batch,
                      row_degrees)

# Below this order the recursion bottoms out into the iterative algorithm.
PMBASIS_THRESHOLD = 64
# Cells of the block-diagonal rref operand of one mbasis batch, B**2 n m: a
# pivot step updates all of it, so pmbasis cuts larger batches. For
# generic_inverse at n = 16-64, 128 to 1024 read alike; 2048 and no cut were slower.
BATCH_CELLS = 512


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

    def rows_up_to(self, degree: int) -> tuple[PolyMatrix, list]:
        """The basis rows of degree at most ``degree``, sorted by (degree, index),
        and their degrees."""
        picked = sorted((d, i) for i, d in enumerate(self.row_degrees)
                        if d != MINUS_INFINITY and d <= degree)
        return self.basis.take_rows([i for _, i in picked]), [d for d, _ in picked]


def series_product(a: PolyMatrix, f: SeriesMatrix, order: int) -> SeriesMatrix:
    """(a * f) mod x**order as a SeriesMatrix."""
    return pm_mul(a, f.to_polymat()).to_series(order)


def shifted_row_degrees(a: PolyMatrix, shift) -> list:
    """Row degrees of a after adding shift[j] to the degree of column j."""
    degs = entry_degrees(a)
    low = np.iinfo(np.int64).min
    shifted = np.where(degs >= 0, degs + np.asarray(shift, dtype=np.int64), low)
    return [int(d) if d != low else MINUS_INFINITY for d in shifted.max(axis=1, initial=low)]


def _as_batch(f, sigma: int, shift) -> tuple[list, list]:
    """(series, normalized shifts) of one SeriesMatrix or of a batch of them."""
    fs, shifts = ([f], [shift]) if isinstance(f, SeriesMatrix) else (list(f), shift)
    shifts = [None] * len(fs) if shifts is None else list(shifts)
    if not fs or len(shifts) != len(fs) or len({(g.rows, g.cols) for g in fs}) > 1:
        raise DimensionMismatch("a batch needs one or more series of one shape, one shift each")
    for g, s in zip(fs, shifts):
        if sigma > g.order:
            raise OrderExceedsData(f"order {sigma} exceeds stored series order {g.order}")
        if s is not None and len(s) != g.rows:
            raise ValueError("shift length must equal the row count")
    return fs, [[0] * g.rows if s is None else list(s) for g, s in zip(fs, shifts)]


def mbasis(f: SeriesMatrix | list, sigma: int, shift=None) -> ApproximantBasis | list:
    """Iterative minimal approximant basis of order sigma for f.

    For a list f of B series, ``shift`` is None or a list of B shifts, and
    the result is the list of their B bases.

    Order k costs one elimination and one product (GJV 2003). With the rows
    sorted by (shifted degree, index), the pivot columns of ``rref`` of the
    transposed constant residual are the pivot rows. Each dependent row
    becomes row - lambda * (pivot rows), lambda read off the non-pivot
    columns: its constant residual vanishes and its shifted degree does not
    grow, as the pivot rows sort before it. Each pivot row is multiplied by
    x. Row b n + i of ``state`` is residual row i of problem b, then basis
    row i: the live slices (residual k + 1 on, basis to the pivot rows'
    degree bound) are one column range. The B sorted residuals sit on the
    block diagonal of the ``rref`` operand, so no pivot and no multiplier
    mixes two problems.
    """
    fs, shifts = _as_batch(f, sigma, shift)
    f0, batch = fs[0], len(fs)
    p, n, m = f0.field.p, f0.rows, f0.cols

    split = sigma * m
    state = np.zeros((batch * n, split + (sigma + 1) * n), dtype=np.int64)
    resid = state[:, :split].reshape(batch * n, sigma, m)
    basis = state[:, split:].reshape(batch * n, sigma + 1, n)
    for b, g in enumerate(fs):
        resid[b * n:(b + 1) * n] = g.coeffs[:sigma].transpose(1, 0, 2)
    basis[:, 0] = np.tile(np.eye(n, dtype=np.int64), (batch, 1))
    # sort keys: problem b's shifted degrees plus b * span (more than a key grows in
    # sigma orders), so one stable sort orders the rows by (problem, degree, index)
    low = min(min(s, default=0) for s in shifts)
    span = max(max(s, default=0) for s in shifts) - low + sigma + 1
    work = np.array([x - low + b * span for b, s in enumerate(shifts) for x in s], dtype=np.int64)
    degs = np.zeros(batch * n, dtype=np.int64)  # per-row degree bound of basis
    # rref operand; every order overwrites exactly its diagonal blocks
    diag = np.zeros((batch * m, batch * n), dtype=np.int64)
    blocks = as_strided(diag, (batch, m, n), (diag.strides[0] * m + diag.strides[1] * n,
                                              *diag.strides))

    for k in range(sigma):
        order_rows = np.argsort(work, kind="stable")
        blocks[:] = resid[order_rows, k].reshape(batch, n, m).transpose(0, 2, 1)
        echelon, piv, _ = rref(diag, p)
        if not piv:
            continue
        free = np.ones(batch * n, dtype=bool)
        free[piv] = False
        piv_rows, dep_rows = order_rows[piv], order_rows[free]
        top = int(degs[piv_rows].max()) + 1
        if dep_rows.size:
            lam = echelon[:len(piv), free].T
            end, step = split + top * n, max(1, PRODUCT_MULTS // lam.size)
            for lo in range((k + 1) * m, end, step):
                live = slice(lo, min(lo + step, end))
                pivot_part = mul_unreduced(lam, split_right(state[piv_rows, live]), p)
                upd = state[dep_rows, live] - pivot_part
                upd %= p  # reduces the product and the subtraction at once
                state[dep_rows, live] = upd
            degs[dep_rows] = np.maximum(degs[dep_rows], top - 1)
        basis[piv_rows, 1:top + 1] = basis[piv_rows, :top]
        basis[piv_rows, 0] = 0
        resid[piv_rows, k + 1:] = resid[piv_rows, k:-1]
        work[piv_rows] += 1
        degs[piv_rows] += 1

    out = []
    for b, s in enumerate(shifts):
        rows = basis[b * n:(b + 1) * n]
        mat = PolyMatrix._canonical(f0.field, np.ascontiguousarray(rows.transpose(1, 0, 2)))
        out.append(ApproximantBasis(mat, sigma, row_degrees(mat), s))
    return out[0] if isinstance(f, SeriesMatrix) else out


def raise_order(f: SeriesMatrix | list, firsts: ApproximantBasis | list,
                sigma: int) -> ApproximantBasis | list:
    """The bases of order sigma for f from its bases ``firsts`` of a lower order.

    ``firsts`` share one order sigma1 <= sigma and carry their shifts. The
    step is the second half of ``pmbasis``: the residual, slices [sigma1,
    sigma) of N1 * F; the shifted row degrees of N1 as the new shift; the
    order-(sigma - sigma1) basis N2 of the residual; and N2 * N1. An M-Basis
    basis is shift-reduced, so N1's shifted row degrees are the counters that
    ``mbasis`` sorts by, the raised run picks every pivot of the straight run,
    and the result is what ``pmbasis(f, sigma, shift)`` returns, bit for bit.
    A batch (lists f and firsts) makes one batched residual and one batched product.
    """
    single = isinstance(f, SeriesMatrix)
    fs, firsts = ([f], [firsts]) if single else (list(f), list(firsts))
    fs, shifts = _as_batch(fs, sigma, [first.shift for first in firsts])
    half = firsts[0].order
    if any(first.order != half for first in firsts) or half > sigma:
        raise ValueError(f"bases of orders {[first.order for first in firsts]} "
                         f"cannot be raised together to order {sigma}")
    # slices [half, sigma) of N * F need F only from half - deg N on
    los = [max(half - int_degree(first.basis), 0) for first in firsts]
    prods = pm_mul_batch([first.basis for first in firsts],
                         [g.slice(lo, sigma).to_polymat() for g, lo in zip(fs, los)])
    resids = [prod.to_series(sigma - lo).slice(half - lo, sigma - lo)
              for prod, lo in zip(prods, los)]
    # zero rows cannot occur in a non-singular basis, but keep the sort total
    shifts2 = [[int(d) if d != MINUS_INFINITY else 0 for d in shifted_row_degrees(first.basis, s)]
               for first, s in zip(firsts, shifts)]
    seconds = pmbasis(resids, sigma - half, shifts2)
    mats = pm_mul_batch([second.basis for second in seconds], [first.basis for first in firsts])
    out = [ApproximantBasis(mat, sigma, row_degrees(mat), s) for mat, s in zip(mats, shifts)]
    return out[0] if single else out


def pmbasis(f: SeriesMatrix | list, sigma: int, shift=None) -> ApproximantBasis | list:
    """Divide-and-conquer order basis; same contract as mbasis.

    Above PMBASIS_THRESHOLD it computes the bases of order ceil(sigma / 2)
    and raises them to sigma with ``raise_order``. A batch runs in groups of
    at most sqrt(BATCH_CELLS / (n m)) problems; the residuals and the final
    products of a group are one batched product each.
    """
    fs, shifts = _as_batch(f, sigma, shift)
    group = max(1, math.isqrt(BATCH_CELLS // max(fs[0].rows * fs[0].cols, 1)))
    if len(fs) > group:
        return [basis for i in range(0, len(fs), group)
                for basis in pmbasis(fs[i:i + group], sigma, shifts[i:i + group])]
    if sigma <= PMBASIS_THRESHOLD:
        return mbasis(f, sigma, shift)
    half = (sigma + 1) // 2
    out = raise_order(fs, pmbasis([g.slice(0, half) for g in fs], half, shifts), sigma)
    return out[0] if isinstance(f, SeriesMatrix) else out
