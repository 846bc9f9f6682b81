"""Constant-matrix linear algebra over GF(p), numpy int64 backed.

All matrices are numpy arrays of canonical residues in [0, p). The prime is
assumed to fit in 31 bits so that a*b fits in an int64; matrix products use
a 16-bit split of the right operand so accumulated sums stay below 2**63
for inner dimensions up to 2**15.
"""

from __future__ import annotations

import numpy as np

from .errors import SingularInput

_SPLIT = 1 << 16


def mod_matmul(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """Exact (batched) matrix product modulo p.

    Accepts stacked operands with broadcastable leading axes, like
    ``np.matmul``.
    """
    b_hi, b_lo = np.divmod(b, _SPLIT)
    hi = (a @ b_hi) % p
    lo = (a @ b_lo) % p
    return (hi * _SPLIT + lo) % p


def rref(mat: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form over GF(p); returns (rref, pivot columns)."""
    m = mat.astype(np.int64, copy=True) % p
    rows, cols = m.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        nz = np.flatnonzero(m[r:, c])
        if nz.size == 0:
            continue
        pr = nz[0] + r
        if pr != r:
            m[[r, pr]] = m[[pr, r]]
        m[r] = m[r] * pow(int(m[r, c]), -1, p) % p
        # clear column c outside row r; a full-matrix update beats gathering
        # the nonzero rows, and p < 2**31 keeps m - outer above -2**63
        factors = m[:, c].copy()
        factors[r] = 0
        m -= np.outer(factors, m[r])
        m %= p
        pivots.append(c)
        r += 1
    return m, pivots


def rank(mat: np.ndarray, p: int) -> int:
    if mat.size == 0:
        return 0
    return len(rref(mat, p)[1])


def det(mat: np.ndarray, p: int) -> int:
    """Determinant over GF(p) by Gaussian elimination."""
    m = mat.astype(np.int64, copy=True) % p
    n = m.shape[0]
    if m.shape != (n, n):
        raise ValueError("det needs a square matrix")
    result = 1
    for c in range(n):
        nz = np.nonzero(m[c:, c])[0]
        if nz.size == 0:
            return 0
        pr = nz[0] + c
        if pr != c:
            m[[c, pr]] = m[[pr, c]]
            result = -result % p
        piv = int(m[c, c])
        result = result * piv % p
        below = np.nonzero(m[c + 1:, c])[0] + c + 1
        if below.size:
            factors = m[below, c] * pow(piv, -1, p) % p
            m[below] = (m[below] - np.outer(factors, m[c])) % p
    return result


def inv(mat: np.ndarray, p: int) -> np.ndarray:
    """Inverse over GF(p); raises SingularInput when singular."""
    n = mat.shape[0]
    aug = np.concatenate([mat % p, np.eye(n, dtype=np.int64)], axis=1)
    r, pivots = rref(aug, p)
    if pivots[:n] != list(range(n)):
        raise SingularInput("matrix is singular over GF(p)")
    return r[:, n:]


def solve_right(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """Solve A X = B for X with A square non-singular over GF(p)."""
    return mod_matmul(inv(a, p), b % p, p)


def left_kernel(mat: np.ndarray, p: int) -> np.ndarray:
    """Basis (as rows) of {v : v M = 0} over GF(p)."""
    rows = mat.shape[0]
    r, pivots = rref(mat.T % p, p)
    free = [j for j in range(rows) if j not in pivots]
    basis = np.zeros((len(free), rows), dtype=np.int64)
    for k, j in enumerate(free):
        basis[k, j] = 1
        for i, c in enumerate(pivots):
            basis[k, c] = (-int(r[i, j])) % p
    return basis
