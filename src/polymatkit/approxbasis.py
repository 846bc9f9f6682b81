"""Minimal approximant bases (order bases).

``mbasis`` goes one order at a time by the M-Basis step of Giorgi, Jeannerod
& Villard (ISSAC 2003): one elimination gives the row rank profile of the
shifted-degree-sorted constant residual, one product over the pivot rows'
live slices makes the dependent rows kernel rows, and pivot rows are
multiplied by x. ``pmbasis`` computes the basis of half the order and
raises it by a basis of the residual and one product. Both return a basis N
with N * F = 0 mod x**sigma whose sorted shifted row degrees are the
minimal indices of the approximant module.

Beneath them, ``_mbasis``, ``_raise`` and ``_pmbasis`` run on int64 residue
arrays: B same-shape series as one (L, B, n, m) array, with (B, n) shifts
and shifted row degrees and (L, B, n, n) bases. The B problems of an order
share one sort, one block-diagonal elimination and one product, and a raise
makes one residual and one product, so the Python work is paid once, not B
times; each basis is what its own call returns. The nullspace sweep runs
them on all column halves of a recursion level at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import InvalidArgument, OrderExceedsData
from .linalg import PRODUCT_MULTS, _reduce, mul_unreduced, rref, split_right
from .poly import MINUS_INFINITY
from .polymat import (PolyMatrix, SeriesMatrix, _mul_stacked, _normalize, entry_degrees, pm_mul,
                      row_degrees)

# Below this order the recursion bottoms out into the iterative algorithm.
PMBASIS_THRESHOLD = 64
# Cells of the block-diagonal rref operand of one mbasis batch, B**2 n m: a
# pivot step updates all of it, so _mbasis cuts larger batches. For
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
        cap = min(degree, len(self.basis.coeffs))  # no row degree reaches it: the same rows
        degs = [cap + 1 if d == MINUS_INFINITY else d for d in self.row_degrees]  # not zero rows
        rows, [picked] = _rows_up_to(self.basis.coeffs[:, None], np.array([degs]), cap)
        return PolyMatrix._canonical(self.basis.field, rows[:, 0]), picked


def _rows_up_to(bases: np.ndarray, degrees: np.ndarray, cap: int) -> tuple:
    """Per problem of the (L, B, n, n) bases, its rows whose (B, n) degrees are at
    most cap, sorted by (degree, index) and zero-padded to the largest count k:
    the (L, B, k, n) rows and the B lists of their degrees."""
    counts = (degrees <= cap).sum(axis=1)
    order = np.argsort(degrees, axis=1, kind="stable")
    at = np.arange(len(order))[:, None], order[:, :counts.max(initial=0)]
    rows = bases[:, at[0], at[1]]
    rows[:, np.arange(at[1].shape[1]) >= counts[:, None]] = 0  # the padding
    return rows, [degs[:c] for degs, c in zip(degrees[at].tolist(), counts.tolist())]


def series_product(a: PolyMatrix, f: SeriesMatrix, order: int) -> SeriesMatrix:
    """(a * f) mod x**order as a SeriesMatrix."""
    return pm_mul(a, f.to_polymat()).to_series(order)


def shifted_row_degrees(a: PolyMatrix, shift) -> list:
    """Row degrees of a after adding shift[j] to the degree of column j."""
    degs = entry_degrees(a.coeffs)
    low = np.iinfo(np.int64).min
    shifted = np.where(degs >= 0, degs + np.asarray(shift, dtype=np.int64), low)
    return [int(d) if d != low else MINUS_INFINITY for d in shifted.max(axis=1, initial=low)]


def _mbasis(f: np.ndarray, sigma: int, shifts: np.ndarray, field) -> tuple:
    """Iterative order-sigma bases of the (L, B, n, m) series f, zero past its L
    slices, for the (B, n) shifts: the (L', B, n, n) bases, trimmed and
    contiguous, and their (B, n) shifted row degrees.

    Order k costs one elimination and one product (GJV 2003). With the rows
    sorted by (shifted degree, index), the pivot columns of ``rref`` of the
    transposed constant residual are the pivot rows. Each dependent row
    becomes row - lambda * (pivot rows), lambda read off the non-pivot
    columns: its constant residual vanishes and its shifted degree does not
    grow, as the pivot rows sort before it. Each pivot row is multiplied by
    x and its counter, which starts at its shift, grows by 1. The basis
    ends with det N = x**(sum of pivots) and shifted row degrees at most the
    counters, so they equal the counters: it is shift-reduced.

    Row b n + i of ``state`` is residual row i of problem b, then basis
    row i: the live slices (residual k + 1 on, basis to the pivot rows'
    degree bound) are one column range. The residuals of a group of at most
    sqrt(BATCH_CELLS / (n m)) problems sit on the block diagonal of the
    ``rref`` operand, so no pivot and no multiplier mixes two problems.
    """
    p, (batch, n, m) = field.p, f.shape[1:]
    group = max(1, math.isqrt(BATCH_CELLS // max(n * m, 1)))
    parts, degrees = [], shifts.astype(np.int64)
    split = sigma * m
    # sort keys: the counters plus b * span (more than a counter grows in sigma orders),
    # so one stable sort orders the rows by (problem, degree, index)
    span = int(degrees.max(initial=0)) - int(degrees.min(initial=0)) + sigma + 1
    for first in range(0, batch, group):
        part, count = slice(first, first + group), min(group, batch - first)
        state = np.zeros((count * n, split + (sigma + 1) * n), dtype=np.int64)
        resid = state[:, :split].reshape(count * n, sigma, m)
        basis = state[:, split:].reshape(count * n, sigma + 1, n)
        given = f[:sigma, part]
        resid.reshape(count, n, sigma, m)[:, :, :len(given)] = given.transpose(1, 2, 0, 3)
        basis[:, 0] = np.tile(np.eye(n, dtype=np.int64), (count, 1))
        offset = np.repeat(np.arange(count, dtype=np.int64) * span, n)
        work = degrees[part].reshape(-1) + offset
        degs = np.zeros(count * n, dtype=np.int64)  # per-row degree bound of basis
        # rref operand; every order overwrites exactly its diagonal blocks
        diag = np.zeros((count * m, count * n), dtype=np.int64)
        blocks = as_strided(diag, (count, m, n), (diag.strides[0] * m + diag.strides[1] * n,
                                                  *diag.strides))

        for k in range(sigma):
            order_rows = np.argsort(work, kind="stable")
            blocks[:] = resid[order_rows, k].reshape(count, n, m).transpose(0, 2, 1)
            echelon, piv, _ = rref(diag, p)
            if not piv:
                continue
            free = np.ones(count * n, dtype=bool)
            free[piv] = False
            piv_rows, dep_rows = order_rows[piv], order_rows[free]
            top = int(degs[piv_rows].max()) + 1
            if dep_rows.size:
                lam = echelon[:len(piv), free].T
                end, step = split + top * n, max(1, PRODUCT_MULTS // lam.size)
                for lo in range((k + 1) * m, end, step):
                    live = slice(lo, min(lo + step, end))
                    pivot_part = mul_unreduced(lam, split_right(state[piv_rows, live]), p)
                    # one reduction of the product and the subtraction, in (-w 2**53, p)
                    state[dep_rows, live] = _reduce(state[dep_rows, live] - pivot_part, p)
                degs[dep_rows] = np.maximum(degs[dep_rows], top - 1)
            basis[piv_rows, 1:top + 1] = basis[piv_rows, :top]
            basis[piv_rows, 0] = 0
            resid[piv_rows, k + 1:] = resid[piv_rows, k:-1]
            work[piv_rows] += 1
            degs[piv_rows] += 1
        parts.append(basis.reshape(count, n, sigma + 1, n).transpose(2, 0, 1, 3))
        degrees[part] = (work - offset).reshape(count, n)
    return _normalize(np.concatenate(parts, axis=1)), degrees


def _raise(f: np.ndarray, half: int, bases: np.ndarray, degrees: np.ndarray, sigma: int,
           field) -> tuple:
    """``_pmbasis(f, sigma, shifts)``, bit for bit, from ``_pmbasis(f[:half], half,
    shifts)``: the trimmed bases N1 of order ``half`` and their shifted row degrees.

    The residual is slices [half, sigma) of N1 F, N1's degrees are the shift
    of the order-(sigma - half) basis N2 of the residual, and the result is
    N2 N1. As N1 is shift-reduced, its degrees are the counters that
    ``_mbasis`` sorts by, so the raised run picks every pivot of the straight run.
    """
    # slices [half, sigma) of N1 F need F only from half - deg N1 on; F is zero past its length
    lo = max(half - (len(bases) - 1), 0)
    resid = _mul_stacked(bases, _normalize(f[lo:sigma]), field)[half - lo:sigma - lo]
    second, degrees = _pmbasis(resid, sigma - half, degrees, field)
    return _mul_stacked(second, bases, field), degrees


def _pmbasis(f: np.ndarray, sigma: int, shifts: np.ndarray, field) -> tuple:
    """Divide-and-conquer order bases, with ``_mbasis``'s contract: above
    PMBASIS_THRESHOLD, the bases of order ceil(sigma / 2) raised to sigma."""
    if sigma <= PMBASIS_THRESHOLD:
        return _mbasis(f, sigma, shifts, field)
    half = (sigma + 1) // 2
    return _raise(f, half, *_pmbasis(f[:half], half, shifts, field), sigma, field)


def _basis(engine, f: SeriesMatrix, sigma: int, shift) -> ApproximantBasis:
    """The order-sigma basis of f from ``engine`` (``_mbasis`` or ``_pmbasis``)."""
    if sigma < 0:
        raise InvalidArgument(f"sigma must be nonnegative, got {sigma}")
    if sigma > f.order:
        raise OrderExceedsData(f"order {sigma} exceeds stored series order {f.order}")
    shift = [0] * f.rows if shift is None else list(shift)
    if len(shift) != f.rows:
        raise InvalidArgument("shift length must equal the row count")
    for s in shift:  # two under 2**61 in size differ by under 2**62, which int64 keys hold
        if isinstance(s, bool) or not isinstance(s, (int, np.integer)) or abs(int(s)) >= 2**61:
            raise InvalidArgument(f"shift entries must be integers below 2**61 in size, got {s!r}")
    bases, _ = engine(f.coeffs[:, None], sigma, np.array([shift], dtype=np.int64), f.field)
    mat = PolyMatrix._canonical(f.field, np.ascontiguousarray(bases[:, 0]))
    return ApproximantBasis(mat, sigma, row_degrees(mat), shift)


def mbasis(f: SeriesMatrix, sigma: int, shift=None) -> ApproximantBasis:
    """Iterative minimal approximant basis of order sigma for f, one order at a
    time (``_mbasis``); ``shift`` None is the zero shift."""
    return _basis(_mbasis, f, sigma, shift)


def pmbasis(f: SeriesMatrix, sigma: int, shift=None) -> ApproximantBasis:
    """Divide-and-conquer order basis (``_pmbasis``); same contract as mbasis."""
    return _basis(_pmbasis, f, sigma, shift)
