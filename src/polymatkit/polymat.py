"""Polynomial matrices, truncated series matrices, and row-degree predicates.

A PolyMatrix stores its coefficient matrices in a single int64 array of
shape (L, n, m): slice k is the n-by-m coefficient of x**k. Trailing zero
slices are trimmed (the zero matrix keeps a single zero slice), so the
cached degree is always the true maximal entry degree.
"""

from __future__ import annotations

import numpy as np

from . import ntt
from .errors import (DimensionMismatch, FieldTooSmall, InvalidArgument, PrimeMismatch,
                     SingularInput, ZeroRow)
from .field import FieldElement, PrimeField
from .linalg import (PRODUCT_MULTS, TERMS, _reduce, _workspace, det as const_det, mod_matmul,
                     mul_unreduced, rank as const_rank, split_right)
from .poly import MINUS_INFINITY, Polynomial


def _normalize(arr: np.ndarray) -> np.ndarray:
    """Trim trailing all-zero slices along the first axis, keeping at least one."""
    if arr.shape[0] <= 1 or arr[-1].any():
        return arr
    live = np.flatnonzero(arr.reshape(arr.shape[0], arr[0].size).any(axis=1))
    return arr[: live[-1] + 1 if live.size else 1]


class PolyMatrix:
    """Immutable n-by-m matrix over K[x]."""

    __slots__ = ("field", "coeffs", "rows", "cols")

    def __init__(self, field: PrimeField, coeffs: np.ndarray):
        arr = np.asarray(coeffs, dtype=np.int64)
        if arr.ndim != 3:
            raise ValueError("coeffs must have shape (L, rows, cols)")
        self._adopt(field, arr % field.p)

    @classmethod
    def _canonical(cls, field: PrimeField, arr: np.ndarray) -> "PolyMatrix":
        """From an int64 (L, rows, cols) array of residues already in [0, p): trims, no reduction.

        For kernel outputs and slices of a canonical matrix; the array is
        kept (frozen), not copied.
        """
        self = object.__new__(cls)
        self._adopt(field, arr)
        return self

    def _adopt(self, field: PrimeField, arr: np.ndarray):
        arr = _normalize(arr)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "coeffs", arr)
        object.__setattr__(self, "rows", arr.shape[1])
        object.__setattr__(self, "cols", arr.shape[2])
        arr.flags.writeable = False

    def __setattr__(self, *a):
        raise AttributeError("PolyMatrix is immutable")

    # -- constructors --

    @classmethod
    def zero(cls, field: PrimeField, rows: int, cols: int) -> "PolyMatrix":
        return cls(field, np.zeros((1, rows, cols), dtype=np.int64))

    @classmethod
    def identity(cls, field: PrimeField, n: int) -> "PolyMatrix":
        return cls(field, np.eye(n, dtype=np.int64)[None, :, :])

    @classmethod
    def constant(cls, field: PrimeField, mat) -> "PolyMatrix":
        return cls(field, np.asarray(mat, dtype=np.int64)[None, :, :])

    @classmethod
    def from_lists(cls, field: PrimeField, entries) -> "PolyMatrix":
        """Build from a grid of coefficient lists (low-to-high degree)."""
        rows = len(entries)
        cols = len(entries[0]) if rows else 0
        def _len(e):
            return len(e.coeffs) if isinstance(e, Polynomial) else len(e)

        length = max((_len(e) for row in entries for e in row), default=0) or 1
        arr = np.zeros((length, rows, cols), dtype=np.int64)
        for i, row in enumerate(entries):
            if len(row) != cols:
                raise DimensionMismatch("ragged entry grid")
            for j, e in enumerate(row):
                cs = e.coeffs if isinstance(e, Polynomial) else np.asarray(e, dtype=np.int64)
                arr[: len(cs), i, j] = cs
        return cls(field, arr)

    # -- queries --

    @property
    def degree(self):
        return MINUS_INFINITY if self.is_zero() else self.coeffs.shape[0] - 1

    def is_zero(self) -> bool:
        # trimmed, so only a zero or constant matrix has at most one slice
        return self.coeffs.shape[0] <= 1 and not self.coeffs.any()

    def is_square(self) -> bool:
        return self.rows == self.cols

    def entry(self, i: int, j: int) -> Polynomial:
        return Polynomial(self.field, self.coeffs[:, i, j])

    def __eq__(self, other):
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        return (
            self.field == other.field
            and self.rows == other.rows
            and self.cols == other.cols
            and np.array_equal(self.coeffs, other.coeffs)
        )

    def __hash__(self):
        return hash((self.field.p, self.rows, self.cols, self.coeffs.tobytes()))

    def __repr__(self):
        return f"PolyMatrix({self.rows}x{self.cols}, deg={self.degree}, p={self.field.p})"

    # -- arithmetic --

    def _check_field(self, other):
        """PrimeMismatch unless ``other`` (a matrix or a FieldElement) is over this field."""
        if self.field != other.field:
            raise PrimeMismatch(f"operands over p={self.field.p} and p={other.field.p}")

    def __add__(self, other: "PolyMatrix") -> "PolyMatrix":
        self._check_field(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("shape mismatch in addition")
        length = max(self.coeffs.shape[0], other.coeffs.shape[0])
        out = np.zeros((length, self.rows, self.cols), dtype=np.int64)
        out[: self.coeffs.shape[0]] += self.coeffs
        out[: other.coeffs.shape[0]] += other.coeffs
        return PolyMatrix(self.field, out)

    def __sub__(self, other: "PolyMatrix") -> "PolyMatrix":
        return self + (-other)

    def __neg__(self) -> "PolyMatrix":
        return PolyMatrix(self.field, -self.coeffs)

    def __mul__(self, other):
        if isinstance(other, int):
            return PolyMatrix(self.field, self.coeffs * (other % self.field.p))
        self._check_field(other)
        if isinstance(other, FieldElement):
            return PolyMatrix(self.field, self.coeffs * other.value)
        return pm_mul(self, other)

    __matmul__ = __mul__

    def __rmul__(self, other):
        """Scalar times matrix: an int or a FieldElement on the left."""
        if isinstance(other, (int, FieldElement)):
            return self * other
        return NotImplemented

    def shift(self, k: int) -> "PolyMatrix":
        """Multiply by x**k."""
        if self.is_zero() or k == 0:
            return self
        pad = np.zeros((k, self.rows, self.cols), dtype=np.int64)
        return PolyMatrix._canonical(self.field, np.concatenate([pad, self.coeffs]))

    def transpose(self) -> "PolyMatrix":
        return PolyMatrix._canonical(self.field, self.coeffs.transpose(0, 2, 1))

    # -- block operations: they rearrange residues, so none is reduced again --

    def take_rows(self, idx) -> "PolyMatrix":
        return PolyMatrix._canonical(self.field, self.coeffs[:, np.asarray(idx, dtype=np.intp), :])

    def take_cols(self, idx) -> "PolyMatrix":
        return PolyMatrix._canonical(self.field, self.coeffs[:, :, np.asarray(idx, dtype=np.intp)])

    @staticmethod
    def vstack(blocks) -> "PolyMatrix":
        blocks = list(blocks)
        field = blocks[0].field
        cols = blocks[0].cols
        length = max(b.coeffs.shape[0] for b in blocks)
        rows = sum(b.rows for b in blocks)
        out = np.zeros((length, rows, cols), dtype=np.int64)
        r = 0
        for b in blocks:
            blocks[0]._check_field(b)
            if b.cols != cols:
                raise DimensionMismatch("vstack column mismatch")
            out[: b.coeffs.shape[0], r: r + b.rows, :] = b.coeffs
            r += b.rows
        return PolyMatrix._canonical(field, out)

    @staticmethod
    def hstack(blocks) -> "PolyMatrix":
        blocks = list(blocks)
        field = blocks[0].field
        rows = blocks[0].rows
        length = max(b.coeffs.shape[0] for b in blocks)
        cols = sum(b.cols for b in blocks)
        out = np.zeros((length, rows, cols), dtype=np.int64)
        c = 0
        for b in blocks:
            blocks[0]._check_field(b)
            if b.rows != rows:
                raise DimensionMismatch("hstack row mismatch")
            out[: b.coeffs.shape[0], :, c: c + b.cols] = b.coeffs
            c += b.cols
        return PolyMatrix._canonical(field, out)

    def to_series(self, order: int) -> "SeriesMatrix":
        return SeriesMatrix._canonical(self.field, _fit(self.coeffs, order))


class SeriesMatrix:
    """Truncated power-series matrix: exactly ``order`` coefficient slices."""

    __slots__ = ("field", "order", "coeffs", "rows", "cols")

    def __init__(self, field: PrimeField, order: int, coeffs: np.ndarray):
        arr = np.asarray(coeffs, dtype=np.int64) % field.p
        if arr.ndim != 3 or arr.shape[0] != order:
            raise InvalidArgument("need exactly `order` coefficient matrices")
        self._adopt(field, arr)

    @classmethod
    def _canonical(cls, field: PrimeField, arr: np.ndarray) -> "SeriesMatrix":
        """From an int64 (order, rows, cols) array of residues in [0, p), kept without reduction."""
        self = object.__new__(cls)
        self._adopt(field, arr)
        return self

    def _adopt(self, field: PrimeField, arr: np.ndarray):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "order", arr.shape[0])
        object.__setattr__(self, "coeffs", arr)
        object.__setattr__(self, "rows", arr.shape[1])
        object.__setattr__(self, "cols", arr.shape[2])
        arr.flags.writeable = False

    def __setattr__(self, *a):
        raise AttributeError("SeriesMatrix is immutable")

    @classmethod
    def zero(cls, field: PrimeField, order: int, rows: int, cols: int) -> "SeriesMatrix":
        return cls(field, order, np.zeros((order, rows, cols), dtype=np.int64))

    def slice(self, start: int, stop: int) -> "SeriesMatrix":
        if not 0 <= start <= stop <= self.order:
            raise InvalidArgument(f"slice [{start}, {stop}) of a series of order {self.order}")
        return SeriesMatrix._canonical(self.field, self.coeffs[start:stop])

    def to_polymat(self) -> PolyMatrix:
        return PolyMatrix._canonical(self.field, self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, SeriesMatrix):
            return NotImplemented
        return (
            self.field == other.field
            and self.order == other.order
            and np.array_equal(self.coeffs, other.coeffs)
        )

    def __repr__(self):
        return f"SeriesMatrix({self.rows}x{self.cols}, order={self.order}, p={self.field.p})"


# -- multiplication ----------------------------------------------------------
# The kernels multiply a batch pair by pair: a (La, B, n, k) by b (Lb, B, k, m)
# into (out_len, B, n, m). Slices lead, so a single product passes a[:, None] views.

def _mul_ntt(a: np.ndarray, b: np.ndarray, field: PrimeField, length: int,
             out_len: int) -> np.ndarray:
    # ntt gathers and returns this slices-first layout without transposing. The padded
    # operands and their product take turns in one workspace array, the transforms in two.
    ends = []
    for name, x in (("ntt_a", a), ("ntt_b", b)):
        pad = _workspace("pad", (length, *x.shape[1:]))
        pad[: x.shape[0]], pad[x.shape[0]:] = x, 0
        ends.append(ntt.ntt(pad.transpose(1, 2, 3, 0), field, out=_workspace(name, (pad.size,))))
    ea, eb = (e.transpose(3, 0, 1, 2) for e in ends)
    ec = mod_matmul(ea, eb, field.p, out=_workspace("pad", (length, *a.shape[1:3], b.shape[3])))
    prod = ntt.ntt(ec.transpose(1, 2, 3, 0), field, inverse=True)
    return prod.transpose(3, 0, 1, 2)[:out_len]


def _mul_blocks(a: np.ndarray, b: np.ndarray, p: int, out_len: int) -> np.ndarray:
    """Schoolbook product: every A_i B_j from one product per chunk of A's slices.

    B's slices, stacked as columns (k x lb m), are split once; a chunk of c
    slices of A stacked as rows (c n x k) times them gives all of its
    A_i B_j, each added at x**(i+j), by an overlap-add along the shorter of
    c and lb. A chunk is cut to PRODUCT_MULTS multiplications over the batch
    (one slice at least), as other wide products are: a 2**15-cell cap let
    some n = 16-32 products run 1.2-1.4x slower.

    Reduction is delayed: the A_i B_j come unreduced from ``mul_unreduced``,
    each a sum of w = ceil(k / 42) chunk results below 2**53, and ``out``
    is reduced once at the end. A cell of ``out`` gathers one A_i B_j per
    A slice since the last reduction, and at most lb in all, so it holds
    TERMS // w of them; when a chunk would pass that, ``out`` is reduced
    early (only for min(la, lb) > TERMS // w, e.g. 1023 slices at k <= 42).
    """
    la, batch, n, k = a.shape
    lb, m = b.shape[0], b.shape[3]
    b_split = split_right(b.transpose(1, 2, 0, 3).reshape(batch, k, lb * m))
    cap = TERMS // min(len(b_split), TERMS)
    out = np.zeros((out_len, batch, n, m), dtype=np.int64)
    step = max(1, min(PRODUCT_MULTS // (batch * n * k * lb * m), cap))
    pending = 0  # A slices added since out was last reduced
    for s in range(0, la, step):
        chunk = a[s: s + step]
        c = chunk.shape[0]
        prod = mul_unreduced(chunk.transpose(1, 0, 2, 3).reshape(batch, c * n, k), b_split, p,
                             _workspace("blocks", (batch, c * n, lb * m)))
        prod = prod.reshape(batch, c, n, lb, m).transpose(1, 3, 0, 2, 4)
        if min(pending + c, lb) > cap:
            _reduce(out, p)
            pending = 0
        pending += c
        if c <= lb:
            for i in range(c):
                out[s + i: s + i + lb] += prod[i]
        else:
            for j in range(lb):
                out[s + j: s + j + c] += prod[:, j]
    return _reduce(out, p)


def _mul(x: np.ndarray, y: np.ndarray, field: PrimeField) -> np.ndarray:
    """The product of an (L, n, k) and an (L', k, m) residue array, trimmed."""
    return _mul_stacked(x[:, None], y[:, None], field)[:, 0]


def _fit(arr: np.ndarray, length: int) -> np.ndarray:
    """A new array of the first ``length`` slices of arr, zero-padded."""
    out = np.zeros((length, *arr.shape[1:]), dtype=np.int64)
    take = min(length, arr.shape[0])
    out[:take] = arr[:take]
    return out


def _stack(arrays: list) -> np.ndarray:
    """(L, B, rows, cols): the coefficient arrays, zero-padded to the longest; a view when B = 1."""
    if len(arrays) == 1:
        return arrays[0][:, None]
    length = max(src.shape[0] for src in arrays)
    out = np.zeros((length, len(arrays), *arrays[0].shape[1:]), dtype=np.int64)
    for j, src in enumerate(arrays):
        out[: src.shape[0], j] = src
    return out


# pm_mul multiplies by _mul_blocks when an operand has at most this many
# slices. Against the mixed-radix NTT (default prime, 2 BLAS threads), blocks
# take 0.2-0.6 of its time for two operands of 17 or 33 slices and 0.2-0.65
# for 17 x 33-129 slices at n = 2-32 (0.5-1.0 at n = 64), 0.5-1.4 at 65 x 65
# and 1.0-1.5 at 129 x 129. The cut stays at 16 so the d = 16, 32, 64 products
# timed by test_acceptance_scaling (17 slices and up) remain on the NTT path
# (ROADMAP item 3).
_BLOCK_SLICES = 16


def _mul_stacked(sa: np.ndarray, sb: np.ndarray, field: PrimeField) -> np.ndarray:
    """Pair by pair, (L, B, n, k) by (L', B, k, m) residue arrays: the (L'', B, n, m)
    products, trimmed, from one kernel call (none for an empty operand)."""
    if not (sa.size and sb.size):
        return np.zeros((1, *sa.shape[1:3], sb.shape[3]), dtype=np.int64)
    out_len = sa.shape[0] + sb.shape[0] - 1
    length = min(sa.shape[0], sb.shape[0]) > _BLOCK_SLICES and ntt.transform_length(field, out_len)
    if length:
        return _normalize(_mul_ntt(sa, sb, field, length, out_len))
    return _normalize(_mul_blocks(sa, sb, field.p, out_len))


def pm_mul(a: PolyMatrix, b: PolyMatrix) -> PolyMatrix:
    """Exact product over K[x], by evaluation/interpolation when possible."""
    a._check_field(b)
    if a.cols != b.rows:
        raise DimensionMismatch(f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}")
    if a.is_zero() or b.is_zero():
        return PolyMatrix.zero(a.field, a.rows, b.cols)
    return PolyMatrix._canonical(a.field, np.ascontiguousarray(_mul(a.coeffs, b.coeffs, a.field)))


def int_degree(a: PolyMatrix) -> int:
    """deg(A), with 0 for the zero matrix."""
    d = a.degree
    return 0 if d == MINUS_INFINITY else int(d)


def pm_eval(a: PolyMatrix, x0) -> np.ndarray:
    """Entry-wise evaluation; returns a constant (rows, cols) residue array."""
    p = a.field.p
    v = int(x0) % p
    acc = np.zeros((a.rows, a.cols), dtype=np.int64)
    for sl in a.coeffs[::-1]:
        acc = (acc * v + sl) % p
    return acc


def pm_truncate(a, k: int) -> PolyMatrix:
    """Drop all powers >= k; accepts a PolyMatrix or SeriesMatrix."""
    if k < 0:
        raise InvalidArgument("truncation order must be nonnegative")
    field = a.field
    if k == 0:
        return PolyMatrix.zero(field, a.rows, a.cols)
    return PolyMatrix._canonical(field, a.coeffs[:k])


def pm_shift_var(a: PolyMatrix, x0) -> PolyMatrix:
    """Entry-wise variable shift x -> x + x0: one product by the Taylor-shift matrix.

    Coefficient j of A(x + x0) is sum_i C(i, j) x0**(i - j) A_i. Row i of
    ``taylor`` holds C(i, j) x0**(i - j) over j, from row i - 1 by Pascal's
    rule (C(i, j) = C(i - 1, j) + C(i - 1, j - 1)) in whole-row operations,
    so no binomial is divided and every p serves, also below the length.
    """
    p = a.field.p
    v = int(x0) % p
    if v == 0 or a.is_zero():
        return a
    length, n, m = a.coeffs.shape
    taylor = np.zeros((length, length), dtype=np.int64)
    taylor[0, 0] = 1
    for i in range(1, length):
        row = taylor[i]
        row[1:i + 1] = taylor[i - 1, :i]
        row[:i] += v * taylor[i - 1, :i]
        row[:i] %= p
    coeffs = a.coeffs.reshape(length, n * m)
    shifted = np.empty_like(coeffs)
    step = max(1, PRODUCT_MULTS // taylor.size)  # one-thread GEMMs, see PRODUCT_MULTS
    for lo in range(0, n * m, step):
        shifted[:, lo: lo + step] = mod_matmul(taylor.T, coeffs[:, lo: lo + step], p)
    return PolyMatrix._canonical(a.field, shifted.reshape(length, n, m))


# -- row-degree predicates ---------------------------------------------------

def entry_degrees(coeffs: np.ndarray) -> np.ndarray:
    """Degree of each entry of an (L, ...) residue array, -1 for zero entries."""
    nz = coeffs != 0
    last = nz.shape[0] - 1 - np.argmax(nz[::-1], axis=0)
    return np.where(nz.any(axis=0), last, -1)


def row_degrees(a: PolyMatrix) -> list:
    """Per-row maximal entry degree, MINUS_INFINITY for zero rows."""
    degs = entry_degrees(a.coeffs).max(axis=1, initial=-1)
    return [int(d) if d >= 0 else MINUS_INFINITY for d in degs]


def leading_row_matrix(a: PolyMatrix) -> np.ndarray:
    """Constant matrix of the coefficients at each row's row degree."""
    degs = row_degrees(a)
    out = np.zeros((a.rows, a.cols), dtype=np.int64)
    for i, d in enumerate(degs):
        if d is MINUS_INFINITY or d == MINUS_INFINITY:
            raise ZeroRow(f"row {i} is identically zero")
        out[i] = a.coeffs[int(d), i, :]
    return out


def is_row_reduced(a: PolyMatrix) -> bool:
    """True iff the row leading matrix has full row rank.

    Full row rank of ``a`` itself is the caller's responsibility.
    """
    return const_rank(leading_row_matrix(a), a.field.p) == a.rows


def regular_value(a: PolyMatrix, rng=None) -> tuple:
    """(x0, det A(x0)) for a random x0 with det A(x0) != 0, which certifies A non-singular.

    Draws distinct points; det A has degree <= n deg(A), so once that many
    plus one have all been singular, A is singular (SingularInput). A field
    with fewer elements than that raises FieldTooSmall when it runs out.
    """
    rng = np.random.default_rng(rng)
    n, d, p = a.rows, int_degree(a), a.field.p
    tried = set()
    budget = min(p, n * d + 1)
    while len(tried) < budget:
        cand = int(rng.integers(0, p))
        if cand in tried:
            continue
        tried.add(cand)
        if value := const_det(pm_eval(a, cand), p):
            return cand, value
    if len(tried) > n * d:
        raise SingularInput("det A vanishes identically: A is singular")
    raise FieldTooSmall("no regular point found in the whole field")
