"""The four applications: generic inverse, determinant, row reduction,
and left factorization from a right one.

Inverse and determinant run the block-elimination recursion on diag(A, I)
of power-of-two size: at each round the two halves of every diagonal block
are annihilated by minimal nullspace bases from one kernel sweep. The
inverse certifies U A = B. The determinant follows only the upper-left
block, bounds each level's kernel degrees from below (else
GenericityFailure) and checks its result at a random point. Both stop at
blocks of size s <= 4, which need no order basis: the transform rows of a
block M are the rows of adj(M), each scaled as mbasis scales a minimal
row, and adj(M) M = det(M) I. On generic input they are, row for row,
those of the minimal recursion. Otherwise they can exceed the minimal
degree, since at the 4 x 4 level each diagonal entry is a constant times
det M whatever the block's columns share: on diag(B1, B2) every one is a
multiple of det B1 det B2. U A = B still certifies the inverse.
Row reduction goes through expansion/reconstruction of the proper tail of
A^{-1} and certifies its answer with the two transforms between A and R.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    CertificateFailure, DimensionMismatch, FieldTooSmall, GenericityFailure, NotSquare,
    ReconstructionFailure, SelfCheckFailure, SingularAtZero, SingularInput, WrongRowCount, ZeroRow,
)
from .fraction import proper_tail, truncated_inverse
from .linalg import det as const_det
from .nullspace import _kernel_bases, rank
from .poly import Polynomial
from .polymat import (
    PolyMatrix, entry_degrees, int_degree, is_row_reduced, pm_eval, pm_mul, pm_mul_batch,
    pm_shift_var, pm_truncate, regular_point, regular_value, row_degrees,
)
from .reconstruct import LeftFactorization, matfrac_rec


@dataclass(frozen=True)
class InverseRepresentation:
    """U A = B with B diagonal; A^{-1} = B^{-1} U."""

    transform: PolyMatrix
    diagonal: PolyMatrix


def _require_square(a: PolyMatrix):
    if not a.is_square():
        raise NotSquare(f"need a square matrix, got {a.rows} x {a.cols}")


def _block_diag(blocks) -> PolyMatrix:
    fld = blocks[0].field
    length = max(b.coeffs.shape[0] for b in blocks)
    n = sum(b.rows for b in blocks)
    out = np.zeros((length, n, n), dtype=np.int64)
    at = 0
    for b in blocks:
        out[: b.coeffs.shape[0], at: at + b.rows, at: at + b.cols] = b.coeffs
        at += b.rows
    return PolyMatrix(fld, out)


def _padded(a: PolyMatrix) -> PolyMatrix:
    """diag(A, I) of the next power-of-two size (1 for n = 0); A itself at a power of two."""
    size = 1 << max(a.rows - 1, 0).bit_length()
    return a if size == a.rows else _block_diag([a, PolyMatrix.identity(a.field, size - a.rows)])


# The 4 x 4 cofactor table of a column pair: at row r, column j (r != j), the pair's 2 x 2
# minor on the other two rows u < v, times the sign (-1)^(j + the place of r among the rows
# other than j); 0 at r = j.
_U, _V = (np.array([[sorted({0, 1, 2, 3} - {r, j})[k] if r != j else k for j in range(4)]
                    for r in range(4)]) for k in (0, 1))
_SIGN = np.array([[(-1) ** (j + r - (r > j)) if r != j else 0 for j in range(4)]
                  for r in range(4)])


def _adjugates(blocks) -> list:
    """Per s x s block M (s <= 4), adj(M) with each row scaled so that its
    last entry of largest degree is monic, as mbasis normalizes a minimal
    kernel row; a zero row stays zero. Row i of adj(M) annihilates every
    column of M but column i. A smaller block is padded to diag(M, I),
    whose adjugate is diag(adj M, det M I). The 4 x 4 ones take two batched
    products: the 2 x 2 minors of the column pairs {0, 1} and {2, 3}, from
    outer products, and the cofactors by Laplace expansion along the
    columns of one pair, each with the other pair's minors.
    """
    fld, count, s = blocks[0].field, len(blocks), blocks[0].rows
    stacked = PolyMatrix.vstack(blocks).coeffs
    m = np.zeros((stacked.shape[0], count, 4, 4), dtype=np.int64)
    m[:, :, :s, :s] = stacked.reshape(-1, count, s, s)
    m[0, :, range(s, 4), range(s, 4)] = 1
    # P[r, t] = M[r, c] M[t, c + 1], so the pair's minor on rows u, v is P[u, v] - P[v, u]
    pairs = [(j, c) for j in range(count) for c in (0, 2)]
    outer = pm_mul_batch([PolyMatrix(fld, m[:, j, :, c: c + 1]) for j, c in pairs],
                         [PolyMatrix(fld, m[:, j, None, :, c + 1]) for j, c in pairs])
    tables = [PolyMatrix(fld, _SIGN * (q.coeffs[:, _U, _V] - q.coeffs[:, _V, _U])) for q in outer]
    # rows 0, 1 of adj M are (M_1, -M_0)^T times the {2, 3} table, rows 2, 3 (M_3, -M_2)^T
    # times the {0, 1} table
    halves = pm_mul_batch(
        [PolyMatrix(fld, np.stack([m[:, j, :, c + 1], -m[:, j, :, c]], axis=1)) for j, c in pairs],
        [tables[k ^ 1] for k in range(2 * count)])
    rows = PolyMatrix.vstack(halves).coeffs.reshape(-1, count, 4, 4)[:, :, :s, :s]
    rows = rows.reshape(-1, count * s, s)
    degs = entry_degrees(PolyMatrix._canonical(fld, rows))
    at, piv = np.arange(count * s), s - 1 - np.argmax(degs[:, ::-1], axis=1)
    lead = rows[degs[at, piv], at, piv]
    scale = np.array([pow(int(c), -1, fld.p) if c else 1 for c in lead], dtype=np.int64)
    return [PolyMatrix(fld, rows[:, j * s: (j + 1) * s] * scale[None, j * s: (j + 1) * s, None])
            for j in range(count)]


def _elimination_level(blocks, expected_deg: int) -> tuple:
    """One round on s x s blocks: per block its s x s round transform, and
    the blocks that the transforms leave. Blocks of s <= 4 take their scaled
    adjugate and leave the diagonal of its product with the block, s blocks
    of 1 x 1. Larger ones take minimal nullspace bases of both column halves,
    s/2 rows each, from one kernel sweep that starts at the expected degree,
    and leave two s/2 x s/2 blocks."""
    s = blocks[0].rows
    if s <= 4:
        rounds = _adjugates(blocks)
        return rounds, pm_mul_batch([r.take_rows([i]) for r in rounds for i in range(s)],
                                    [b.take_cols([i]) for b in blocks for i in range(s)])
    half = s // 2
    halves = [h for b in blocks for h in (b.take_cols(range(half, s)), b.take_cols(range(half)))]
    bases = _kernel_bases(halves, [half] * len(halves), expected_deg)
    if any(basis.row_count > half for basis in bases):
        raise SingularInput(f"a column half has more than {half} kernel rows: A is singular")
    kernels = [basis.matrix for basis in bases]
    # the kernel of the right half (top) keeps the left half, and the other way round
    rounds = [PolyMatrix.vstack(kernels[i: i + 2]) for i in range(0, len(kernels), 2)]
    return rounds, pm_mul_batch(kernels, [halves[i ^ 1] for i in range(len(halves))])


def generic_inverse(a: PolyMatrix, seed=None) -> InverseRepresentation:
    """Diagonalizing transform for a non-singular A of any dimension n.

    Runs on diag(A, I) of power-of-two size and keeps the top-left n x n
    blocks (U diag(A, I) diagonal forces U_21 A = 0, so U_21 = 0). Each
    round makes one kernel sweep for both halves of every block, one batched
    product for the new blocks and one for the transform. The last round, on
    blocks M of size s <= 4, takes the scaled rows of adj(M) instead, and
    leaves each diagonal entry a constant times det M; on non-generic input
    these can exceed the minimal degrees.
    Genericity only lets a sweep stop at its first degree cap; U A = B
    certifies the result. A singular A raises SingularInput, from a half
    with too many kernel rows or a zero diagonal entry. ``seed`` is unused:
    nothing is drawn at random.
    """
    _require_square(a)
    n, padded = a.rows, _padded(a)
    d = int_degree(a)
    transform = PolyMatrix.identity(a.field, padded.rows)
    blocks = [padded]
    step = 1
    while blocks[0].rows > 1:
        s = blocks[0].rows
        rounds, blocks = _elimination_level(blocks, 2 ** (step - 1) * d)
        # the round's transform is block diagonal: block j multiplies rows j s .. j s + s - 1
        own_rows = [transform.take_rows(range(j * s, (j + 1) * s)) for j in range(len(rounds))]
        transform = PolyMatrix.vstack(pm_mul_batch(rounds, own_rows))
        step += 1

    transform, diagonal = (PolyMatrix._canonical(a.field, m.coeffs[:, :n, :n])  # views
                           for m in (transform, _block_diag(blocks)))
    if pm_mul(transform, a) != diagonal:
        raise SelfCheckFailure("diagonalization product check failed")
    for i in range(n):
        if diagonal.entry(i, i).is_zero():
            raise SingularInput("zero diagonal entry: A is singular")
    return InverseRepresentation(transform, diagonal)


def generic_det(a: PolyMatrix, seed=None) -> Polynomial:
    """det(A) via the upper-left branch of the recursion on diag(A, I).

    Each level takes the right half's kernel from the inverse's sweep. By
    Forney its degree sum is the half's maximal-minor degree less that of
    the minors' gcd g, and the next block's det is the block's over g, times
    a constant. A sum below the smaller of the half's column degree sum and
    its s/2 largest row degrees raises GenericityFailure; else g is a
    constant, and so is b_11 / det A. ``seed`` draws x0 = regular_point(A),
    where b_11 is rescaled (a singular A gives 0), and x1 != x0, where it is
    checked (else SelfCheckFailure).
    """
    _require_square(a)
    p, rng = a.field.p, np.random.default_rng(seed)
    try:
        x0, det_x0 = regular_value(a, rng)
    except SingularInput:
        return Polynomial.zero(a.field)
    block = _padded(a)
    n, size, d = a.rows, block.rows, int_degree(a)
    while block.rows > 4:
        s, right = block.rows, block.take_cols(range(block.rows // 2, block.rows))
        [kernel] = _kernel_bases([right], [s // 2], size // s * d)
        # at the top, the half is diag(A's last n - s/2 columns, I): bound those columns' minors
        degs = entry_degrees(right)[:n, :n - s // 2]
        bound = min(degs.max(axis=0).sum(), np.sort(degs.max(axis=1))[-degs.shape[1]:].sum())
        if sum(kernel.kronecker_degrees) != bound:
            raise GenericityFailure(f"at size {s} the right half's kernel degrees "
                                    f"{kernel.kronecker_degrees} sum below their bound {bound}")
        block = pm_mul(kernel.matrix, block.take_cols(range(s // 2)))
    b11 = pm_mul(_adjugates([block])[0].take_rows([0]), block.take_cols([0])).entry(0, 0)
    b11_x0, x1 = int(b11(x0)), (x0 + 1 + int(rng.integers(0, p - 1))) % p
    det = b11 * (det_x0 * pow(b11_x0, -1, p) % p) if b11_x0 else b11
    if not b11_x0 or int(det(x1)) != const_det(pm_eval(a, x1), p):
        raise SelfCheckFailure(f"det check at x0 = {x0}, x1 = {x1} failed")
    return det


def _certify(a: PolyMatrix, r: PolyMatrix, x0: int):
    """T = R A^{-1} and W = A R^{-1} as series at x0, checked: T A = R, W R = A.

    The orders are Cramer bounds on deg T and deg W, valid whenever R is a
    row-reduced form of A, so truncating there can only make a wrong R fail.
    T W R = R with R non-singular gives T W = I: A and R are unimodularly
    equivalent, whatever the field size.
    """
    try:
        if not is_row_reduced(r):
            raise CertificateFailure("R is not row-reduced")
        da, dr = row_degrees(a), row_degrees(r)
        k_t = max(max(dr) + sum(da) - min(da) - sum(dr) + 1, 1)
        k_w = max(max(da) - min(dr) + 1, 1)
        a_s, r_s = pm_shift_var(a, x0), pm_shift_var(r, x0)
        t = pm_truncate(pm_mul(r_s, truncated_inverse(a_s, k_t).to_polymat()), k_t)
        w = pm_truncate(pm_mul(a_s, truncated_inverse(r_s, k_w).to_polymat()), k_w)
    except (ZeroRow, SingularAtZero) as exc:  # A(x0) is non-singular, so only a wrong R
        raise CertificateFailure("R has a zero row or is singular at x0") from exc
    t, w = pm_shift_var(t, -x0), pm_shift_var(w, -x0)
    if pm_mul(t, a) != r:
        raise CertificateFailure("T A = R check failed")
    if pm_mul(w, r) != a:
        raise CertificateFailure("W R = A check failed")
    return {"shift": x0, "transform": t, "inverse": w}


def row_reduce(a: PolyMatrix, seed=None):
    """Row-reduced R unimodularly left equivalent to a non-singular A.

    Expands the proper tail of A^{-1} at order h = (n-1)d + 1 to 2d + 1
    coefficients and reconstructs it as R^{-1} S. The expansion point is a
    random x0 = regular_point(A), so A(x0) is non-singular; the shift is
    undone on the output, which preserves row degrees and the leading row
    matrix. A singular A raises SingularInput once det A vanishes at
    n deg(A) + 1 distinct points, or, in a field with fewer, once its exact
    rank is below n.

    Returns (R, certificate) with certificate {"shift": x0, "transform": T,
    "inverse": W}: T A = R and W R = A hold exactly, so T is unimodular
    with inverse W. An R that fails this check raises CertificateFailure.
    """
    _require_square(a)
    n = a.rows
    d = int_degree(a)
    try:
        x0 = regular_point(a, seed)
    except FieldTooSmall:
        if rank(a, seed) < n:
            raise SingularInput("A has rank below its dimension: A is singular") from None
        raise
    if n == 0:  # T and W are 0 x 0 too; the certificate's row degrees would be empty
        return a, {"shift": x0, "transform": a, "inverse": a}
    if d == 0:
        return a, _certify(a, a, x0)

    data = proper_tail(pm_shift_var(a, x0), (n - 1) * d + 1, 2 * d + 1)
    try:
        fact = matfrac_rec(data.tail, d, d)
    except WrongRowCount as exc:
        raise ReconstructionFailure(str(exc)) from exc
    reduced = pm_shift_var(fact.denominator, -x0)
    return reduced, _certify(a, reduced, x0)


def left_factorization(b: PolyMatrix, a: PolyMatrix, seed=None) -> LeftFactorization:
    """From a right fraction B A^{-1}, a left pair (U, V) with U A = V B.

    Takes the m kernel rows of the stacked [-A; B]. The exact ``rank`` shows
    A non-singular (else SingularInput) and V non-singular, so the rows are
    independent (else ReconstructionFailure). Coprimeness is not guaranteed.
    """
    _require_square(a)
    if b.cols != a.cols:
        raise DimensionMismatch(f"B has {b.cols} columns, A has {a.cols}")
    n = a.rows
    m = b.rows
    if rank(a, seed) < n:
        raise SingularInput("A has rank below its dimension: A is singular")
    stacked = PolyMatrix.vstack([-a, b])
    [basis] = _kernel_bases([stacked], [m], max(int_degree(stacked), 1))
    if basis.row_count != m:
        raise ReconstructionFailure(
            f"nullspace of the stacked matrix has {basis.row_count} rows, expected {m}"
        )
    numer = basis.matrix.take_cols(range(n))
    denom = basis.matrix.take_cols(range(n, n + m))
    if pm_mul(numer, a) != pm_mul(denom, b):
        raise CertificateFailure("U A = V B product check failed")
    if rank(denom, seed) < m:
        raise ReconstructionFailure("V is singular")
    return LeftFactorization(numer, denom)
