"""The four applications: generic inverse, determinant, row reduction,
and left factorization from a right one.

Inverse and determinant run the block-elimination recursion on diag(A, I)
of power-of-two size. A level keeps its B diagonal blocks of size s in one
(L, B, s, s) residue array, and the inverse its transform in one array, so
halves are slices and each product of a round is one stacked kernel call;
the round's one kernel sweep annihilates both halves of every block by
minimal nullspace bases. The inverse certifies U A = B. The determinant
follows only the upper-left block, bounds each level's kernel degrees
from below (else GenericityFailure) and checks its result at a random
point. Both stop at blocks of size s <= 4, which need no order basis: the
transform rows of a block M are the rows of adj(M), each scaled as mbasis
scales a minimal row, and adj(M) M = det(M) I. On generic input they are,
row for row, those of the minimal recursion; otherwise they can exceed
the minimal degree, and U A = B still certifies the inverse. Row
reduction goes through expansion/reconstruction of the proper tail of
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
    PolyMatrix, _mul, _mul_stacked, _normalize, entry_degrees, int_degree, is_row_reduced,
    pm_eval, pm_mul, pm_shift_var, regular_value, row_degrees,
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


def _padded(blocks: np.ndarray, size: int) -> np.ndarray:
    """diag(M, I) of size ``size`` per s x s block M of an (L, ..., s, s) residue array."""
    s = blocks.shape[-1]
    out = np.zeros((*blocks.shape[:-2], size, size), dtype=np.int64)
    out[..., :s, :s] = blocks
    out[0, ..., range(s, size), range(s, size)] = 1
    return out


# The 4 x 4 cofactor table of a column pair: at row r, column j (r != j), the pair's 2 x 2
# minor on the other two rows u < v, times the sign (-1)^(j + the place of r among the rows
# other than j); 0 at r = j.
_U, _V = (np.array([[sorted({0, 1, 2, 3} - {r, j})[k] if r != j else k for j in range(4)]
                    for r in range(4)]) for k in (0, 1))
_SIGN = np.array([[(-1) ** (j + r - (r > j)) if r != j else 0 for j in range(4)]
                  for r in range(4)])


def _pair_cofactors(first: np.ndarray, second: np.ndarray, field) -> np.ndarray:
    """The (L, N, 4, 4) cofactor tables of N column pairs, given as two (L, N, 4) arrays
    of their columns: one batched outer product P[r, t] = first[r] second[t], whose
    P[u, v] - P[v, u] is the pair's minor on rows u, v."""
    outer = _mul_stacked(first[..., None], second[..., None, :], field)
    return _SIGN * (outer[..., _U, _V] - outer[..., _V, _U]) % field.p


def _monic_rows(rows: np.ndarray, field) -> np.ndarray:
    """The rows of an (L, N, s) array, each scaled so that its last entry of largest
    degree is monic, as mbasis normalizes a minimal kernel row; a zero row stays zero."""
    p, count = field.p, rows.shape[1]
    degs = entry_degrees(rows)
    at, piv = np.arange(count), rows.shape[2] - 1 - np.argmax(degs[:, ::-1], axis=1)
    lead = rows[degs[at, piv], at, piv]
    scale = np.array([pow(int(c), -1, p) if c else 1 for c in lead], dtype=np.int64)
    return _normalize(rows * scale[:, None] % p)


def _adjugates(blocks: np.ndarray, field) -> np.ndarray:
    """Per s x s block M (s <= 4) of an (L, B, s, s) array, adj(M) with its rows
    made monic by _monic_rows. Row i of adj(M) annihilates every column of M but
    column i. A smaller block is padded to diag(M, I), whose adjugate is
    diag(adj M, det M I). The 4 x 4 ones take two batched products: the 2 x 2
    minors of the column pairs {0, 1} and {2, 3}, and the cofactors by Laplace
    expansion along the columns of one pair, each with the other pair's minors.
    """
    p, (length, count, s, _) = field.p, blocks.shape
    m = _padded(blocks, 4)
    # per block and column pair c: M_c and M_{c+1} as (L, B, pair, row)
    even, odd = (m[..., k::2].transpose(0, 1, 3, 2) for k in (0, 1))
    tables = _pair_cofactors(even.reshape(length, 2 * count, 4),
                             odd.reshape(length, 2 * count, 4), field)
    # rows 0, 1 of adj M are (M_1, -M_0)^T times the {2, 3} table, rows 2, 3 (M_3, -M_2)^T
    # times the {0, 1} table
    pairs = np.stack([odd, -even % p], axis=3).reshape(length, 2 * count, 2, 4)
    swapped = tables.reshape(-1, count, 2, 4, 4)[:, :, ::-1].reshape(-1, 2 * count, 4, 4)
    rows = _mul_stacked(pairs, swapped, field).reshape(-1, count, 4, 4)[:, :, :s, :s]
    return _monic_rows(rows.reshape(-1, count * s, s), field).reshape(-1, count, s, s)


def _first_adjugate_row(block: np.ndarray, field) -> np.ndarray:
    """Row 0 of _adjugates for one (L, s, s) block, as an (L', 1, s) array: M_1^T
    times the {2, 3} column pair's cofactors, which is all that row reads."""
    m = _padded(block[:, None], 4)
    row = _mul_stacked(m[..., None, :, 1], _pair_cofactors(m[..., 2], m[..., 3], field), field)
    return _monic_rows(row[:, :, 0, :block.shape[1]], field)


def _elimination_level(blocks: np.ndarray, field, expected_deg: int) -> tuple:
    """One round on the (L, B, s, s) array of diagonal blocks: the (L', B, s, s)
    round transforms, and the blocks that they leave. Blocks of s <= 4 take
    their scaled adjugate and leave the diagonal of its product with the
    block, B s blocks of 1 x 1. Larger ones take minimal nullspace bases of
    both column halves, s/2 rows each, from one kernel sweep that starts at
    the expected degree, and leave 2 B blocks of s/2 x s/2."""
    length, count, s, _ = blocks.shape
    if s <= 4:
        rounds = _adjugates(blocks, field)
        cols = blocks.transpose(0, 1, 3, 2).reshape(length, count * s, s, 1)
        return rounds, _mul_stacked(rounds.reshape(-1, count * s, 1, s), cols, field)
    half = s // 2
    # halves[:, 2 j] is the left column half of block j, halves[:, 2 j + 1] its right one
    halves = blocks.reshape(length, count, s, 2, half).transpose(0, 1, 3, 2, 4)
    halves = halves.reshape(length, 2 * count, s, half)
    # kernel i annihilates half i ^ 1 and multiplies half i: the right half's kernel on top
    kernels, _ = _kernel_bases(halves[:, np.arange(2 * count) ^ 1], [half] * (2 * count),
                               expected_deg, field)
    if kernels.shape[2] > half:
        raise SingularInput(f"a column half has more than {half} kernel rows: A is singular")
    return kernels.reshape(-1, count, s, s), _mul_stacked(kernels, halves, field)


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
    n, field, d = a.rows, a.field, int_degree(a)
    size = 1 << max(n - 1, 0).bit_length()  # a power of two, 1 for n = 0
    blocks = _padded(a.coeffs[:, None], size)
    transform = np.eye(size, dtype=np.int64)[None]
    while blocks.shape[2] > 1:
        s = blocks.shape[2]
        rounds, blocks = _elimination_level(blocks, field, size // s * d)
        # the round's transform is block diagonal: block j multiplies rows j s .. j s + s - 1
        transform = _mul_stacked(rounds, transform.reshape(-1, size // s, s, size), field)

    diagonal = np.zeros((blocks.shape[0], size, size), dtype=np.int64)
    diagonal[:, range(size), range(size)] = blocks[:, :, 0, 0]
    transform, diagonal = (PolyMatrix._canonical(field, m[:, :n, :n])  # views
                           for m in (transform.reshape(-1, size, size), diagonal))
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
    constant, and so is b_11 / det A. ``seed`` draws x0 by regular_value(A),
    where b_11 is rescaled (a singular A gives 0), and x1 != x0, where it is
    checked (else SelfCheckFailure).
    """
    _require_square(a)
    p, rng = a.field.p, np.random.default_rng(seed)
    try:
        x0, det_x0 = regular_value(a, rng)
    except SingularInput:
        return Polynomial.zero(a.field)
    n, d, size = a.rows, int_degree(a), 1 << max(a.rows - 1, 0).bit_length()
    block = _padded(a.coeffs, size)
    while block.shape[1] > 4:
        s = block.shape[1]
        kernel, [kron] = _kernel_bases(block[:, None, :, s // 2:], [s // 2], size // s * d,
                                       a.field)
        # at the top, the half is diag(A's last n - s/2 columns, I): bound those columns' minors
        degs = entry_degrees(block[:, :n, s // 2:n])
        bound = min(degs.max(axis=0).sum(), np.sort(degs.max(axis=1))[-degs.shape[1]:].sum())
        if sum(kron) != bound:
            raise GenericityFailure(f"at size {s} the right half's kernel degrees "
                                    f"{kron} sum below their bound {bound}")
        block = _mul_stacked(kernel, block[:, None, :, :s // 2], a.field)[:, 0]
    row0 = _first_adjugate_row(block, a.field)[:, None]
    b11 = Polynomial(a.field, _mul_stacked(row0, block[:, None, :, :1], a.field)[:, 0, 0, 0])
    b11_x0, x1 = int(b11(x0)), (x0 + 1 + int(rng.integers(0, p - 1))) % p
    det = b11 * (det_x0 * pow(b11_x0, -1, p) % p) if b11_x0 else b11
    if not b11_x0 or int(det(x1)) != const_det(pm_eval(a, x1), p):
        raise SelfCheckFailure(f"det check at x0 = {x0}, x1 = {x1} failed")
    return det


def _certify(a: PolyMatrix, r: PolyMatrix, x0: int, a_s: PolyMatrix, r_s: PolyMatrix):
    """T = R A^{-1} and W = A R^{-1} as series at x0, checked: T A = R, W R = A.

    a_s and r_s are A and R at x + x0, which the caller has built. The
    orders are Cramer bounds on deg T and deg W, valid whenever R is a
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
        t = _mul(r_s.coeffs, truncated_inverse(a_s, k_t).coeffs, a.field)[:k_t]
        w = _mul(a_s.coeffs, truncated_inverse(r_s, k_w).coeffs, a.field)[:k_w]
    except (ZeroRow, SingularAtZero) as exc:  # A(x0) is non-singular, so only a wrong R
        raise CertificateFailure("R has a zero row or is singular at x0") from exc
    t, w = (pm_shift_var(PolyMatrix._canonical(a.field, m), -x0) for m in (t, w))
    if pm_mul(t, a) != r:
        raise CertificateFailure("T A = R check failed")
    if pm_mul(w, r) != a:
        raise CertificateFailure("W R = A check failed")
    return {"shift": x0, "transform": t, "inverse": w}


def row_reduce(a: PolyMatrix, seed=None):
    """Row-reduced R unimodularly left equivalent to a non-singular A.

    Expands the proper tail of A^{-1} at order h = (n-1)d + 1 to 2d + 1
    coefficients and reconstructs it as R^{-1} S. The expansion point is a
    random x0 from regular_value(A), so A(x0) is non-singular; the shift is
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
        x0 = regular_value(a, seed)[0]
    except FieldTooSmall:
        if rank(a, seed) < n:
            raise SingularInput("A has rank below its dimension: A is singular") from None
        raise
    if n == 0:  # T and W are 0 x 0 too; the certificate's row degrees would be empty
        return a, {"shift": x0, "transform": a, "inverse": a}
    a_s = pm_shift_var(a, x0)
    if d == 0:
        return a, _certify(a, a, x0, a_s, a_s)

    data = proper_tail(a_s, (n - 1) * d + 1, 2 * d + 1)
    try:
        fact = matfrac_rec(data.tail, d, d)
    except WrongRowCount as exc:
        raise ReconstructionFailure(str(exc)) from exc
    reduced = pm_shift_var(fact.denominator, -x0)
    return reduced, _certify(a, reduced, x0, a_s, fact.denominator)


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
    rows, _ = _kernel_bases(stacked.coeffs[:, None], [m], max(int_degree(stacked), 1), a.field)
    if rows.shape[2] != m:
        raise ReconstructionFailure(
            f"nullspace of the stacked matrix has {rows.shape[2]} rows, expected {m}"
        )
    if _mul_stacked(rows, stacked.coeffs[:, None], a.field).any():  # [U | V] [-A; B] = 0
        raise CertificateFailure("U A = V B product check failed")
    numer = PolyMatrix._canonical(a.field, rows[:, 0, :, :n])
    denom = PolyMatrix._canonical(a.field, rows[:, 0, :, n:])
    if rank(denom, seed) < m:
        raise ReconstructionFailure("V is singular")
    return LeftFactorization(numer, denom)
