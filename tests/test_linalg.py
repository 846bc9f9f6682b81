import numpy as np
import pytest

from polymatkit.field import DEFAULT_PRIME
from polymatkit.linalg import mod_matmul, mul_split, rref, split_right


def _rref_ref(rows, p):
    """Gauss-Jordan on Python ints, the reference for the numpy version."""
    m = [[int(v) % p for v in row] for row in rows]
    pivots, r = [], 0
    for c in range(len(m[0])):
        if r == len(m):
            break
        k = next((i for i in range(r, len(m)) if m[i][c]), None)
        if k is None:
            continue
        m[r], m[k] = m[k], m[r]
        inv = pow(m[r][c], -1, p)
        m[r] = [v * inv % p for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [(a - f * b) % p for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m, pivots


@pytest.mark.parametrize("p", [2, 97, 2**31 - 1, DEFAULT_PRIME])
def test_rref_matches_exact_reference(p, rng):
    for rows, cols in ((8, 16), (16, 8), (5, 5), (1, 4)):
        a = rng.integers(0, p, size=(rows, cols))
        a[rng.random((rows, cols)) < 0.2] = p - 1  # largest residues stress int64
        a[:, 1] = 0                                # a zero column
        if rows > 2:
            a[2] = a[0]                            # a repeated row
        got, piv = rref(a, p)
        want, want_piv = _rref_ref(a.tolist(), p)
        assert piv == want_piv
        assert got.tolist() == want


def _matmul_ref(a, b, p):
    """np.matmul over Python ints, reduced mod p."""
    return np.matmul(a.astype(object), b.astype(object)) % p


@pytest.mark.parametrize("p", [2, 97, 2**31 - 1, DEFAULT_PRIME])
@pytest.mark.parametrize("k", [0, 1, 42, 43, 63, 64, 65, 200])
@pytest.mark.parametrize("a_shape, b_shape", [
    ((5,), (7,)),          # 2-D x 2-D
    ((5,), (3, 7)),        # 2-D x stacked, broadcast
    ((2, 1, 5), (3, 7)),   # stacked x stacked, broadcast
    ((4, 5), (4, 7)),      # stacked x stacked
])
def test_mod_matmul_exact(p, k, a_shape, b_shape, rng):
    # random residues just below p: all-(p - 1) operands stay exact even
    # without chunking the inner dimension, these do not
    low = max(0, p - 2**20)
    a = rng.integers(low, p, size=(*a_shape, k))
    b = rng.integers(low, p, size=(*b_shape[:-1], k, b_shape[-1]))
    got = mod_matmul(a, b, p)
    want_shape = np.broadcast_shapes(a.shape[:-2], b.shape[:-2]) + (a.shape[-2], b.shape[-1])
    assert got.shape == want_shape
    assert got.dtype == np.int64
    if k == 0:
        assert not got.any()
    else:
        assert got.tolist() == _matmul_ref(a, b, p).tolist()


@pytest.mark.parametrize("p", [97, 2**31 - 1, DEFAULT_PRIME])
def test_one_split_serves_many_left_operands(p, rng):
    b = rng.integers(0, p, size=(90, 6))
    b_split = split_right(b)
    for rows in (1, 7, 33):
        a = rng.integers(max(0, p - 2**20), p, size=(rows, 90))
        assert mul_split(a, b_split, p).tolist() == _matmul_ref(a, b, p).tolist()
