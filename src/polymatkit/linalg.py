"""Constant-matrix linear algebra over GF(p), numpy int64 backed.

All matrices are numpy arrays of canonical residues in [0, p). The prime is
assumed to fit in 31 bits so that a*b fits in an int64. Matrix products run
on float64 BLAS over 16-bit limbs, in chunks of the inner dimension short
enough for every partial sum to be exact (see ``_CHUNK``). Reduction is
delayed (Dumas, Giorgi & Pernet, ACM TOMS 2008): ``mul_unreduced`` adds the
chunks' exact results in int64, each below 2**53, so an int64 cell holds
up to ``TERMS`` of them before it must be reduced, and ``mod_matmul``
reduces each output cell once. Elimination stays in int64 and runs in one
loop, ``rref``: a pivot step is one ``nonzero`` and one broadcast update of
the other rows. ``rank``, ``det`` and ``inv`` read its result.
"""

from __future__ import annotations

import numpy as np

from .errors import SingularInput

_SPLIT = 1 << 16
# Inner-dimension chunk of the float64 products. Inner index i adds
# (a_i 2**16 mod p) hi_i + a_i lo_i < 3 * 2**46 to a dot product (p < 2**31,
# so hi < 2**15 and lo < 2**16); 42 such terms sum to less than 2**53, so
# every partial sum is exact in float64, and a chunk's result is an int64
# below 2**53.
_CHUNK = 42
# Chunk results (each below 2**53) an int64 accumulator holds without
# reduction: TERMS * 2**53 + p < 2**63. An inner dimension k gives
# ceil(k / 42) of them per output cell of mul_unreduced.
TERMS = 1023
# Multiplications per piece where callers cut wide products into column
# ranges: OpenBLAS runs a GEMM this small on one thread (two threads have
# taken 8 ms instead of 0.3 ms per call on a busy 2-core machine).
PRODUCT_MULTS = 1 << 18


def split_right(b: np.ndarray) -> list[np.ndarray]:
    """The right operand of ``mul_unreduced``: per inner chunk, float64 [hi; lo] of b.

    Splitting does not depend on p, so one split serves every left operand.
    """
    b_hi, b_lo = b >> 16, b & (_SPLIT - 1)
    return [
        np.concatenate((b_hi[..., s: s + _CHUNK, :], b_lo[..., s: s + _CHUNK, :]),
                       axis=-2, dtype=np.float64)
        for s in range(0, max(b.shape[-2], 1), _CHUNK)
    ]


def mul_unreduced(a: np.ndarray, b_split: list[np.ndarray], p: int) -> np.ndarray:
    """a @ b congruent mod p, unreduced: each cell is an int64 in [0, w 2**53).

    w = min(len(b_split), TERMS), which is ceil(k / 42) for an inner
    dimension k up to 42 TERMS. Each chunk forms [a 2**16 mod p | a] @
    [hi; lo] exactly in float64; the chunk results are summed in int64 and
    reduced after every TERMS of them (each is below 2**53 - 2**47, which
    leaves room for the reduced p).
    """
    a_hi = a * _SPLIT % p
    acc = None
    for i, b2 in enumerate(b_split):
        cut = slice(i * _CHUNK, (i + 1) * _CHUNK)
        a2 = np.concatenate((a_hi[..., cut], a[..., cut]), axis=-1, dtype=np.float64)
        part = (a2 @ b2).astype(np.int64)
        if acc is None:
            acc = part
            continue
        if i % TERMS == 0:  # acc holds TERMS chunk results
            acc %= p
        acc += part
    return acc


def mod_matmul(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """Exact (batched) matrix product modulo p, for residues below p < 2**31.

    Accepts stacked operands with broadcastable leading axes, like
    ``np.matmul``. b is split into 16-bit limbs b = hi 2**16 + lo once,
    every inner chunk of a multiplies its rows of [hi; lo], and each output
    cell is reduced once.
    """
    acc = mul_unreduced(a, split_right(b), p)
    acc %= p
    return acc


def rref(mat: np.ndarray, p: int) -> tuple[np.ndarray, list[int], int]:
    """Reduced row echelon form over GF(p): (rref, pivot columns, d), where d
    is the product of the pivots as met, negated once per row swap."""
    m = np.array(mat, dtype=np.int64, order="C")  # row operations run faster on C order
    m %= p
    rows, cols = m.shape
    pivots: list[int] = []
    d = 1
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        nz = m[r:, c].nonzero()[0]
        if nz.size == 0:
            continue
        if nz[0]:
            pr = nz[0] + r
            m[[r, pr]] = m[[pr, r]]
            d = -d
        row = m[r]
        piv = int(row[c])
        d = d * piv % p
        row *= pow(piv, -1, p)
        row %= p
        # clear column c outside row r; a full-matrix update beats gathering
        # the nonzero rows, and p < 2**31 keeps m - factors * row above -2**63
        factors = m[:, c].copy()
        factors[r] = 0
        m -= factors[:, None] * row
        m %= p
        pivots.append(c)
        r += 1
    return m, pivots, d


def rank(mat: np.ndarray, p: int) -> int:
    return len(rref(mat, p)[1])


def det(mat: np.ndarray, p: int) -> int:
    """Determinant over GF(p): the signed pivot product of ``rref``."""
    n = mat.shape[0]
    if mat.shape != (n, n):
        raise ValueError("det needs a square matrix")
    _, pivots, d = rref(mat, p)
    return d if len(pivots) == n else 0


def inv(mat: np.ndarray, p: int) -> np.ndarray:
    """Inverse over GF(p); raises SingularInput when singular."""
    n = mat.shape[0]
    aug = np.concatenate([mat, np.eye(n, dtype=np.int64)], axis=1)
    r, pivots, _ = rref(aug, p)
    if pivots[:n] != list(range(n)):
        raise SingularInput("matrix is singular over GF(p)")
    return r[:, n:]
