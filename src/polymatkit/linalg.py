"""Constant-matrix linear algebra over GF(p), numpy int64 backed.

All matrices are numpy arrays of canonical residues in [0, p). The prime is
assumed to fit in 31 bits so that a*b fits in an int64. Matrix products run
on float64 BLAS over 16-bit limbs, in chunks of the inner dimension short
enough for every partial sum to be exact (see ``_CHUNK``). Reduction is
delayed (Dumas, Giorgi & Pernet, ACM TOMS 2008): ``mul_unreduced`` adds the
chunks' exact results in int64, each below 2**53, so an int64 cell holds
up to ``TERMS`` of them before it must be reduced, and ``mod_matmul``
reduces each output cell once. Elimination stays in int64 and runs in one
loop, ``rref``: a step clears an invertible 2×2 pivot block (Jeannerod,
Pernet & Storjohann, JSC 2013), or else one pivot, with one int64 product
and one ``% p``. ``rank``, ``det`` and ``inv`` read its result.

Wide arrays are reduced by ``_reduce``, x - (x // p) p, whose floor division
by a scalar numpy runs through libdivide (Granlund & Montgomery, PLDI 1994) at
half the cost of ``%``. The floor quotient is exact on all its inputs: NTT
products below p**2, ``mul_unreduced`` sums below TERMS 2**53 + p and
order-basis updates in (-w 2**53, p). ``rref``'s small arrays keep ``%``, the
faster there. Scratch arrays persist per thread in ``_workspace``.
"""

from __future__ import annotations

import math
import threading

import numpy as np

from .errors import SingularInput

_SPLIT = 1 << 16
# Inner-dimension chunk of the float64 products. Inner index i adds
# (a_i 2**16 mod p) hi_i + a_i lo_i < 3 * 2**46 to a dot product (p < 2**31,
# so hi < 2**15 and lo < 2**16); 42 such terms sum to less than 2**53, so
# every partial sum is exact in float64, and a chunk's result is an int64
# below 2**53. Sums of them are reduced by floor division (``_reduce``).
_CHUNK = 42
# Chunk results (each below 2**53) an int64 accumulator holds without
# reduction: TERMS * 2**53 + p < 2**63, so their floor quotient by p is exact.
# An inner dimension k gives ceil(k / 42) of them per output cell of mul_unreduced.
TERMS = 1023
# Multiplications per piece where callers cut wide products into column
# ranges: OpenBLAS runs a GEMM this small on one thread (two threads have
# taken 8 ms instead of 0.3 ms per call on a busy 2-core machine).
PRODUCT_MULTS = 1 << 18


_WIDE = 1 << 10  # below this many cells _reduce makes one ``%`` call, the faster there
# below this many cells (64 KiB) a new array faults no pages in, and split_right and
# mul_unreduced use numpy's own temporaries, which take fewer numpy calls
_SCRATCH_CELLS = 1 << 13
WORKSPACE_BYTES = 4 << 20  # per thread, over all slots
_slots = threading.local()  # this thread's workspace buffers, by slot name


def _workspace(slot: str, shape: tuple, dtype=np.int64) -> np.ndarray:
    """This thread's scratch array for ``slot``, kept across calls and grown to its
    largest request while all slots fit in WORKSPACE_BYTES; a small or an
    over-bound request gets a new array. No kernel returns a slot's array."""
    cells = math.prod(shape)
    if cells < _SCRATCH_CELLS:
        return np.empty(shape, dtype)
    slots = vars(_slots)
    buf = slots.get(slot)
    if buf is None or buf.size < cells:
        held = sum(b.nbytes for name, b in slots.items() if name != slot)
        if held + cells * np.dtype(dtype).itemsize > WORKSPACE_BYTES:
            return np.empty(shape, dtype)
        buf = slots[slot] = np.empty(cells, dtype)
    return buf[:cells].reshape(shape)


# drops this thread's buffers, like the cache_clear of functools' caches
_workspace.cache_clear = lambda: vars(_slots).clear()


def _reduce(x: np.ndarray, p: int, quo: np.ndarray | None = None) -> np.ndarray:
    """x mod p in place for int64 x, as x - (x // p) p; the quotient goes to ``quo``."""
    if x.size < _WIDE:
        return np.remainder(x, p, out=x)
    quo = _workspace("quo", x.shape) if quo is None else quo
    return np.subtract(x, np.multiply(np.floor_divide(x, p, out=quo), p, out=quo), out=x)


def split_right(b: np.ndarray) -> list[np.ndarray]:
    """The right operand of ``mul_unreduced``: per inner chunk, float64 [hi; lo] of b.

    Splitting does not depend on p, so one split serves every left operand. A
    wide b is shifted and masked into the workspace's ``limbs``, which the next
    split overwrites; a small one takes fewer numpy calls through int64 limbs.
    """
    k = b.shape[-2]
    if b.size < _SCRATCH_CELLS:
        hi, lo = b >> 16, b & (_SPLIT - 1)
        return [np.concatenate((hi[..., s: s + _CHUNK, :], lo[..., s: s + _CHUNK, :]), axis=-2,
                               dtype=np.float64) for s in range(0, max(k, 1), _CHUNK)]
    limbs = _workspace("limbs", (*b.shape[:-2], 2 * k, b.shape[-1]), np.float64)
    out = []
    for s in range(0, k, _CHUNK):
        c, rows = min(_CHUNK, k - s), b[..., s: s + _CHUNK, :]
        out.append(limbs[..., 2 * s: 2 * (s + c), :])
        np.right_shift(rows, 16, out=out[-1][..., :c, :], casting="unsafe")
        np.bitwise_and(rows, _SPLIT - 1, out=out[-1][..., c:, :], casting="unsafe")
    return out


def mul_unreduced(a: np.ndarray, b_split: list[np.ndarray], p: int,
                  out: np.ndarray | None = None) -> np.ndarray:
    """a @ b congruent mod p, unreduced: each cell is an int64 in [0, w 2**53).

    w = min(len(b_split), TERMS), which is ceil(k / 42) for an inner
    dimension k up to 42 TERMS. Each chunk forms [a 2**16 mod p | a] @
    [hi; lo] exactly in float64; the chunk results are summed in int64 and
    reduced after every TERMS of them (each is below 2**53 - 2**47, which
    leaves room for the reduced p). The sum goes to ``out``, or else to the
    first chunk's product cast to a new array; later chunk products, and a
    wide a's limbs, are workspace arrays.
    """
    wide = a.size >= _SCRATCH_CELLS  # a small a takes fewer numpy calls with new temporaries
    a_hi = _reduce(np.multiply(a, _SPLIT, out=_workspace("a_hi", a.shape) if wide else None), p)
    acc = out
    for i, b2 in enumerate(b_split):
        cut = slice(i * _CHUNK, (i + 1) * _CHUNK)
        halves = (a_hi[..., cut], a[..., cut])
        a2 = (np.concatenate(halves, -1, out=_workspace("a2", (*a.shape[:-1], b2.shape[-2]), float))
              if wide else np.concatenate(halves, -1, dtype=np.float64))
        part = np.matmul(a2, b2, out=None if acc is None else _workspace("part", acc.shape, float))
        if acc is None:
            acc = part.astype(np.int64)
        elif i == 0:
            acc[...] = part
        else:
            if i % TERMS == 0:  # acc holds TERMS chunk results
                _reduce(acc, p)
            np.add(acc, part, out=acc, dtype=np.int64, casting="unsafe")  # int64 sum of exact parts
    return acc


def mod_matmul(a: np.ndarray, b: np.ndarray, p: int, out: np.ndarray | None = None) -> np.ndarray:
    """Exact (batched) matrix product modulo p, for residues below p < 2**31.

    Accepts stacked operands with broadcastable leading axes, like
    ``np.matmul``. b is split into 16-bit limbs b = hi 2**16 + lo once,
    every inner chunk of a multiplies its rows of [hi; lo], and each output
    cell is reduced once. The product goes to ``out`` (b itself may be
    given: it is split first), or else to a new array.
    """
    return _reduce(mul_unreduced(a, split_right(b), p, out), p)


def rref(mat: np.ndarray, p: int) -> tuple[np.ndarray, list[int], int]:
    """Reduced row echelon form over GF(p): (rref, pivot columns, d), where d
    is the product of the pivots as met, negated once per row swap.

    When the 2×2 block B at rows r, r + 1 and columns c, c + 1 is invertible,
    both columns pivot in those rows, one step clears them by B⁻¹, and d gains
    det B: the two pivots times the sign of their swap within B. Otherwise
    column c pivots at its first nonzero from row r on. Either way the output
    is that of one pivot per step.
    """
    m = np.array(mat, dtype=np.int64, order="C")  # row operations run faster on C order
    m %= p
    rows, cols = m.shape
    pivots: list[int] = []
    d = 1
    r = c = 0
    while r < rows and c < cols:
        blk = m[r:r + 2, c:c + 2].tolist()
        (b00, b01), (b10, b11) = blk if r + 1 < rows and c + 1 < cols else ((0, 0), (0, 0))
        piv = (b00 * b11 - b01 * b10) % p  # det B
        if piv:  # columns c and c + 1 pivot in rows r and r + 1
            t = pow(piv, -1, p)
            b_inv = [[b11 * t % p, -b01 * t % p], [-b10 * t % p, b00 * t % p]]
        else:
            nz = m[r:, c].nonzero()[0]
            if nz.size == 0:
                c += 1
                continue
            if nz[0]:
                m[[r, r + nz[0]]] = m[[r + nz[0], r]]
                d = -d
            piv = int(m[r, c])
            b_inv = [[pow(piv, -1, p)]]
        d = d * piv % p
        k = len(b_inv)
        new = np.array(b_inv, dtype=np.int64) @ m[r:r + k] % p
        # clear the pivot columns in every row, then overwrite the pivot rows; a cell
        # drops by at most k (p - 1)**2 < 2**63 for k <= 2, as p < 2**31
        m -= m[:, c:c + k] @ new
        m %= p
        m[r:r + k] = new
        pivots.extend(range(c, c + k))
        r, c = r + k, c + k
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
