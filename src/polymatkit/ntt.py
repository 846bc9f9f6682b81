"""Number-theoretic transform over GF(p), vectorized along the last axis.

Any length L = c 2**k (c odd) dividing p - 1 is supported; ``transform_length``
picks the smallest L >= n with c in {1, 3, 5, 15}, at most 25 % above n where
15 | p - 1. For c > 1, the c interleaved subsequences go through one batched
radix-2 transform, a twiddle by w**(s u) and the c-point DFT as ``mod_matmul``
(column pieces of at most ``PRODUCT_MULTS`` multiplications). Butterflies
divide only to reduce the twiddle product: sums and differences come back to
[0, p) by an unsigned minimum with the value -/+ p (two array passes; the
sign-mask correction takes four). Inputs must be canonical residues in [0, p).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .field import PrimeField
from .linalg import PRODUCT_MULTS, _reduce, _workspace, mod_matmul


def _powers(p: int, w: int, count: int) -> np.ndarray:
    """w**0, ..., w**(count - 1) mod p."""
    out = np.empty(count, dtype=np.int64)
    acc = 1
    for j in range(count):
        out[j] = acc
        acc = acc * w % p
    return out


@lru_cache(maxsize=64)
def _gather(c: int, m: int) -> np.ndarray:
    """(c, m) input positions: subsequence s = x[s::c], in bit-reversed order."""
    rev = np.zeros(1, dtype=np.int64)
    while rev.size < m:
        rev = np.concatenate((2 * rev, 2 * rev + 1))
    return c * rev + np.arange(c)[:, None]


@lru_cache(maxsize=256)
def _twiddles(p: int, m: int, root: int) -> tuple[np.ndarray, ...]:
    """Per-stage twiddle columns of a length-m radix-2 transform with this root."""
    half = _powers(p, root, m // 2)
    spans = (2 << s for s in range(m.bit_length() - 1))
    return tuple(half[:: m // span, None].copy() for span in spans)


@lru_cache(maxsize=256)
def _cpoint(p: int, c: int, m: int, root: int, scale: int) -> tuple[np.ndarray, np.ndarray]:
    """The (c, m, 1) twiddles root**(s u) and the c-point DFT matrix, times ``scale``."""
    powers = _powers(p, root, c * m)
    s = np.arange(c)[:, None]
    return powers[s * np.arange(m)][:, :, None], powers[s * s.T * m % (c * m)] * scale % p


def _radix2(y: np.ndarray, p: int, stages: tuple[np.ndarray, ...]) -> None:
    """In-place radix-2 transforms along axis 1 of y (c, m, batch), input in bit-reversed order.

    Sums s in [0, 2p) become min(s, s - p), differences d in (-p, p) min(d, d + p),
    compared as unsigned, where a negative value reads as 2**63 or more."""
    t, d = _workspace("radix2", (2, y.size // 2))
    u = np.uint64
    for tw in stages:
        view = y.reshape(-1, 2, tw.shape[0], y.shape[-1])
        even, odd = view[:, 0], view[:, 1]
        t, d = t.reshape(even.shape), d.reshape(even.shape)
        tw_odd = odd
        if tw.shape[0] > 1:
            tw_odd = np.multiply(odd, tw, out=t)
            _reduce(t, p, quo=d)  # t < p**2; d is free until the difference
        np.subtract(even, tw_odd, out=d)
        even += tw_odd
        np.subtract(even, p, out=t)
        np.minimum(even.view(u), t.view(u), out=even.view(u))
        np.add(d, p, out=odd)
        np.minimum(odd.view(u), d.view(u), out=odd.view(u))


def ntt(a: np.ndarray, field: PrimeField, inverse: bool = False,
        out: np.ndarray | None = None) -> np.ndarray:
    """Forward or inverse NTT along the last axis of ``a`` (canonical residues).

    The batch is the contiguous axis of the work array: an ``a`` whose last
    axis has the largest stride, like pm_mul's (n, m, L) views of (L, n, m)
    arrays, is gathered in whole rows, and the result comes back in that
    layout, as a view of the work array: ``out`` (a.size int64 cells), or
    else a new array.
    """
    length = a.shape[-1]
    p = field.p
    root = int(field.root_of_unity(length))
    if inverse:
        root = pow(root, -1, p)
    m = length & -length
    c = length // m
    # (c, m, batch); mode="clip" (the positions are in range) writes straight to out
    y = np.take(a.reshape(-1, length).T, _gather(c, m), axis=0, mode="clip",
                out=(np.empty(a.size, np.int64) if out is None else out).reshape(c, m, -1))
    _radix2(y, p, _twiddles(p, m, pow(root, c, p)))
    scale = pow(length, -1, p) if inverse else 1
    if c > 1:
        twiddle, dft = _cpoint(p, c, m, root, scale)
        y *= twiddle
        _reduce(y, p)
        cols = y.reshape(c, -1)
        step = max(1, PRODUCT_MULTS // dft.size)
        for lo in range(0, cols.shape[1], step):
            mod_matmul(dft, cols[:, lo: lo + step], p, out=cols[:, lo: lo + step])
    elif inverse:
        y *= scale
        _reduce(y, p)
    return y.reshape(length, -1).T.reshape(a.shape)


def transform_length(field: PrimeField, n: int) -> int | None:
    """The smallest length c 2**k >= n with c in {1, 3, 5, 15} that ``ntt`` supports
    over ``field``, or None."""
    best = None
    for c in (1, 3, 5, 15):
        m = 1 << max(0, (-(-n // c) - 1).bit_length())
        if (field.p - 1) % (c * m) == 0 and (best is None or c * m < best):
            best = c * m
    return best
