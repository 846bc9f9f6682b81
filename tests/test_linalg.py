from itertools import permutations

import numpy as np
import pytest

from polymatkit import linalg
from polymatkit.field import DEFAULT_PRIME
from polymatkit.linalg import det, mod_matmul, mul_unreduced, rank, rref, split_right
from polymatkit.oracle import left_kernel


def _rref_ref(a, p):
    """Gauss-Jordan on Python ints, one pivot at a time, the reference for the
    numpy version: (rref rows, pivot columns, signed pivot product)."""
    m = [[int(v) % p for v in row] for row in a.tolist()]
    pivots, r, d = [], 0, 1
    for c in range(a.shape[1]):
        if r == len(m):
            break
        k = next((i for i in range(r, len(m)) if m[i][c]), None)
        if k is None:
            continue
        if k != r:
            m[r], m[k] = m[k], m[r]
            d = -d
        d = d * m[r][c] % p
        inv = pow(m[r][c], -1, p)
        m[r] = [v * inv % p for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [(a - f * b) % p for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m, pivots, d


def _assert_rref_exact(a, p):
    got, piv, d = rref(a, p)
    want, want_piv, want_d = _rref_ref(a, p)
    assert piv == want_piv
    assert got.tolist() == want
    assert d == want_d


@pytest.mark.parametrize("p", [2, 3, 97, 2**31 - 1, DEFAULT_PRIME])
def test_rref_matches_exact_reference(p, rng):
    shapes = ((8, 16), (16, 8), (5, 5), (1, 4), (0, 4), (4, 0), (1, 1), (2, 2), (9, 3), (3, 9))
    for rows, cols in shapes:
        a = rng.integers(0, p, size=(rows, cols))
        _assert_rref_exact(a, p)
        a[rng.random((rows, cols)) < 0.2] = p - 1  # largest residues stress int64
        if cols > 1:
            a[:, 1] = 0                            # a zero column
        if rows > 2:
            a[2] = a[0]                            # a repeated row
        _assert_rref_exact(a, p)
    # rref clears the 2 x 2 block at rows r, r + 1 and columns c, c + 1 in one
    # step when it is invertible, else one pivot; each case below forces a branch
    swap_in_block = np.array([[0, 1, 2, 5], [1, 3, 4, 6], [2, 5, 1, 1]])
    # column 0 pivots at row 0, then the block at rows 1-2 is zero in column 1,
    # which pivots from row 3
    pivot_below_block = np.array([[1, 1, 2, 3], [1, 1, 5, 6], [1, 1, 7, 9], [0, 1, 4, 4]])
    odd_rows = rng.integers(0, p, size=(5, 7))      # the last pivot is single
    zero_col = rng.integers(0, p, size=(4, 6))
    zero_col[:, 1] = 0                              # a zero column inside the first block
    all_top = np.full((6, 7), p - 1)
    # B = [[p-1, p-1], [p-1, p-2]] has det 1 and its rows' tails are B times an
    # all-(p - 1) tail, so the pivot rows become all p - 1 beyond B, and every
    # row below with p - 1 in both pivot columns drops by 2 (p - 1)**2, the
    # bound of the block update
    bound = np.full((5, 6), p - 1)
    bound[1, 1] = p - 2
    bound[:2, 2:] = np.array([[2], [3]]) % p
    for a in (swap_in_block, pivot_below_block, odd_rows, zero_col, all_top, bound):
        _assert_rref_exact(a % p, p)


def test_rref_takes_two_pivots_per_step(monkeypatch, rng):
    # one modular inverse per step: a generic matrix at the default prime
    # takes its pivots two at a time
    calls = []

    def counting_pow(*args):
        calls.append(args)
        return pow(*args)

    monkeypatch.setattr(linalg, "pow", counting_pow, raising=False)
    for shape, most in (((8, 16), 4), ((32, 64), 16)):
        a = rng.integers(0, DEFAULT_PRIME, size=shape)
        calls.clear()
        _assert_rref_exact(a, DEFAULT_PRIME)
        assert len(calls) <= most


@pytest.mark.parametrize("p", [2, 97, 2**31 - 1])
def test_left_kernel_and_rank(p, rng):
    for rows, cols in ((1, 1), (4, 2), (2, 5), (6, 6), (7, 3)):
        a = rng.integers(0, p, size=(rows, cols))
        a[rng.random((rows, cols)) < 0.3] = 0
        if rows > 2:
            a[2] = a[0]                            # a repeated row
        _, piv, _ = _rref_ref(a.T, p)
        free = [j for j in range(rows) if j not in piv]
        kern = left_kernel(a, p)
        # the one kernel basis that is the identity on the non-pivot rows
        assert kern[:, free].tolist() == np.eye(len(free), dtype=int).tolist()
        assert not _matmul_ref(kern, a, p).any()
        assert rank(a, p) == len(piv)
    for shape in ((0, 3), (3, 0)):
        assert rank(np.zeros(shape, dtype=np.int64), p) == 0


def _det_ref(rows, p):
    """Leibniz formula on Python ints, the reference for ``det``."""
    n, total = len(rows), 0
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = -1 if inversions % 2 else 1
        for i, j in enumerate(perm):
            term *= int(rows[i][j])
        total += term
    return total % p


@pytest.mark.parametrize("p", [2, 3, 97, 2**31 - 1, DEFAULT_PRIME])
def test_det_matches_exact_reference(p, rng):
    cases = [np.zeros((0, 0), dtype=np.int64), np.array([[p - 1]]), np.full((5, 5), p - 1)]
    for n in (1, 2, 3, 5, 6, 8):
        a = rng.integers(0, p, size=(n, n))
        a[rng.random((n, n)) < 0.3] = p - 1  # largest residues stress int64
        cases.append(a.copy())
        if n > 1:
            swap = a.copy()
            swap[0, 0] = 0                    # the first pivot needs a row swap
            swap[1, 0] = max(swap[1, 0], 1)
            cases.append(swap)
            zero_col = a.copy()
            zero_col[:, n - 1] = 0            # a zero column
            cases.append(zero_col)
            repeated = a.copy()
            repeated[n - 1] = repeated[0]     # a repeated row
            cases.append(repeated)
    for a in cases:
        assert det(a, p) == _det_ref(a.tolist(), p)
    assert det(np.zeros((0, 0), dtype=np.int64), p) == 1
    assert det(np.array([[p - 1]]), p) == p - 1


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


def test_mod_matmul_past_the_unreduced_terms(rng):
    # 1100 chunks of 42 inner indices: their unreduced sum of all-(p - 1)
    # products passes 2**63, so the accumulator must be reduced on the way
    p = 2**31 - 1
    k = 1100 * 42
    a = np.full((2, k), p - 1, dtype=np.int64)
    b = np.full((k, 3), p - 1, dtype=np.int64)
    a[1] = rng.integers(p - 2**20, p, size=k)
    assert mod_matmul(a, b, p).tolist() == _matmul_ref(a, b, p).tolist()


@pytest.mark.parametrize("p", [97, 2**31 - 1, DEFAULT_PRIME])
def test_one_split_serves_many_left_operands(p, rng):
    b = rng.integers(0, p, size=(90, 6))
    b_split = split_right(b)
    for rows in (1, 7, 33):
        a = rng.integers(max(0, p - 2**20), p, size=(rows, 90))
        assert (mul_unreduced(a, b_split, p) % p).tolist() == _matmul_ref(a, b, p).tolist()


PRIMES = [2, 3, 97, 65537, 2**31 - 1, DEFAULT_PRIME]


def _call_site_ranges(p, rng):
    """Inputs of _reduce's call sites, extremes first: NTT products in [0, (p-1)**2],
    mul_unreduced sums in [0, TERMS 2**53 + p) and order-basis updates in
    (-w 2**53, p), w up to TERMS."""
    top = linalg.TERMS * 2**53 + p - 1
    low = -linalg.TERMS * 2**53 + 1
    ranges = {
        "ntt": ([0, 1, p - 1, p, p + 1, (p - 1) ** 2], 0, (p - 1) ** 2 + 1),
        "sums": ([0, p - 1, p, 2**53 - 1, 2**53, top], 0, top + 1),
        "updates": ([low, -2**53, -p - 1, -p, -p + 1, -1, 0, p - 1], low, p),
    }
    for name, (edges, lo, hi) in ranges.items():
        cells = linalg._WIDE + len(edges)
        x = rng.integers(lo, hi, size=cells, dtype=np.int64)
        x[:len(edges)] = edges
        yield name, x


@pytest.mark.parametrize("p", PRIMES)
def test_reduce_equals_python_mod_over_call_site_ranges(p, rng):
    # wide arrays take the floor-division path, small ones one % call; a
    # truncating (C-style) quotient would leave the negative updates negative
    for name, x in _call_site_ranges(p, rng):
        want = [v % p for v in x.tolist()]
        for arr in (x, x[:7]):
            got = linalg._reduce(arr.copy(), p)
            assert got.tolist() == want[:arr.size], (name, arr.size)
        quo = np.empty_like(x)
        assert linalg._reduce(x.reshape(-1, 2).copy(), p, quo=quo.reshape(-1, 2)).ravel().tolist() \
            == want, name
