import tracemalloc

import numpy as np
import pytest

import polymatkit as pk
from polymatkit import ntt, polymat
from polymatkit.errors import (DimensionMismatch, FieldTooSmall, PrimeMismatch, SingularInput,
                               ZeroRow)
from polymatkit.field import DEFAULT_PRIME
from polymatkit.linalg import PRODUCT_MULTS
from polymatkit.linalg import det as const_det
from polymatkit.oracle import naive_mul
from polymatkit.poly import MINUS_INFINITY
from polymatkit.polymat import PolyMatrix, SeriesMatrix, regular_value


def anchor(fd):
    """[[1, x], [x, 1]]"""
    return PolyMatrix.from_lists(fd, [[[1], [0, 1]], [[0, 1], [1]]])


def test_degree_cache(fd, rng):
    a = pk.rand_instance(3, 3, 5, 1, field=fd)
    true_deg = max(
        a.entry(i, j).degree for i in range(3) for j in range(3)
    )
    assert a.degree == true_deg
    assert PolyMatrix.zero(fd, 2, 2).degree == MINUS_INFINITY


def test_mul_identity(fd, rng):
    a = pk.rand_instance(4, 4, 3, 7, field=fd)
    assert pk.pm_mul(a, PolyMatrix.identity(fd, 4)) == a


def test_mul_anchor(fd):
    a = anchor(fd)
    b = PolyMatrix.from_lists(fd, [[[1], [0, -1]], [[0, -1], [1]]])
    prod = pk.pm_mul(a, b)
    one_minus_x2 = [1, 0, fd.p - 1]
    want = PolyMatrix.from_lists(fd, [[one_minus_x2, [0]], [[0], one_minus_x2]])
    assert prod == want


def test_mul_matches_naive_8x8_deg16(fd):
    a = pk.rand_instance(8, 8, 16, 11, field=fd)
    b = pk.rand_instance(8, 8, 16, 12, field=fd)
    assert pk.pm_mul(a, b) == naive_mul(a, b)


@pytest.mark.parametrize("la, lb", [(16, 16), (16, 40), (17, 17), (17, 40), (9, 128), (128, 9)])
def test_mul_either_side_of_block_cut(fd, la, lb):
    # operands of at most 16 slices multiply by blocks, longer pairs by NTT
    a = pk.rand_instance(3, 4, la - 1, la, field=fd)
    b = pk.rand_instance(4, 2, lb - 1, lb, field=fd)
    assert pk.pm_mul(a, b) == naive_mul(a, b)


def test_mul_small_prime_block_path(f97, rng):
    # p=97 supports NTT lengths up to 96 = 3 * 2**5; the product length 121
    # exceeds them, so this product takes the quadratic block products
    a = pk.rand_instance(2, 2, 60, 21, field=f97)
    b = pk.rand_instance(2, 2, 60, 22, field=f97)
    assert pk.pm_mul(a, b) == naive_mul(a, b)


def _counting_ntt(monkeypatch):
    """Wrap ntt.ntt; returns the list of the arrays it transforms (shapes only)."""
    seen = []
    ntt_fn = ntt.ntt

    def counting(arr, *args, **kwargs):
        seen.append(arr.shape)
        return ntt_fn(arr, *args, **kwargs)

    monkeypatch.setattr(ntt, "ntt", counting)
    return seen


@pytest.mark.parametrize("p, lengths", [
    (DEFAULT_PRIME, range(33, 49)),    # transform lengths 40 = 5 * 8 and 48 = 3 * 16
    (DEFAULT_PRIME, range(65, 81)),    # 80 = 5 * 16
    (DEFAULT_PRIME, range(97, 121)),   # 120 = 15 * 8
    (97, range(33, 97)),               # 48 and 96: 97 has no root of unity of order 64
])
def test_mul_mixed_radix_lengths(p, lengths, monkeypatch):
    fld = pk.get_field(p)
    seen = _counting_ntt(monkeypatch)
    for out_len in lengths:
        la = (out_len + 1) // 2  # both operands have more than 16 slices
        lb = out_len + 1 - la
        a = pk.rand_instance(2, 3, la - 1, out_len, field=fld)
        b = pk.rand_instance(3, 2, lb - 1, out_len + 1, field=fld)
        assert a.coeffs.shape[0] == la and b.coeffs.shape[0] == lb
        seen.clear()
        assert pk.pm_mul(a, b) == naive_mul(a, b), out_len
        assert [s[-1] for s in seen] == [ntt.transform_length(fld, out_len)] * 3, out_len


def test_mul_no_padding_cliff(fd, monkeypatch):
    # counts transform points, not time: one degree past a power of two must
    # not double the transform length
    seen = _counting_ntt(monkeypatch)
    points = []
    for d in (31, 32, 63, 64):
        a = pk.rand_instance(4, 4, d, d, field=fd)
        b = pk.rand_instance(4, 4, d, d + 1, field=fd)
        seen.clear()
        pk.pm_mul(a, b)
        points.append(sum(np.prod(s) for s in seen))
    assert 0 < points[1] <= 1.3 * points[0] and 0 < points[3] <= 1.3 * points[2], points


def test_operands_over_different_primes(fd, f97):
    a, b = PolyMatrix.identity(fd, 2), PolyMatrix.identity(f97, 2)
    with pytest.raises(PrimeMismatch):
        pk.pm_mul(a, b)
    with pytest.raises(PrimeMismatch):
        a + b
    with pytest.raises(PrimeMismatch):
        a - b


def test_stacking_and_scalars_over_different_primes(f97):
    a = pk.rand_instance(2, 2, 2, 3, field=f97)
    b = pk.rand_instance(2, 2, 2, 3, field=pk.get_field(2**31 - 1))
    for stack in (PolyMatrix.vstack, PolyMatrix.hstack):
        with pytest.raises(PrimeMismatch, match="p=97 and p=2147483647"):
            stack([a, b])
        assert stack([a, a]).field == f97
    for product in (lambda c: a * c, lambda c: c * a):
        with pytest.raises(PrimeMismatch, match="p=97 and p=5"):
            product(pk.FieldElement(3, pk.get_field(5)))
    # int scalars and scalars of the matrix's own field reduce mod p, on either side
    three = pk.FieldElement(3, f97)
    assert a * 100 == a * three == PolyMatrix(f97, a.coeffs * 3)
    assert 100 * a == three * a == a * three
    with pytest.raises(TypeError):
        "3" * a


@pytest.mark.parametrize("shape, d", [
    ((16, 16, 16), 64),   # one slice of A per block product, 65 of them
    ((4, 4, 4), 64),      # 63 slices of A per block product, the last has 2
    ((16, 16, 2), 64),
    ((3, 70, 2), 5),      # inner dimension above the float64 chunk of 42
    ((3, 70, 2), 30),
])
def test_mul_block_path_matches_naive(shape, d):
    # 2^31 - 1 has no root of unity of order 2, so every product takes the blocks
    fld = pk.get_field(2**31 - 1)
    n, k, m = shape
    a = pk.rand_instance(n, k, d, 41, field=fld)
    b = pk.rand_instance(k, m, d, 42, field=fld)
    assert pk.pm_mul(a, b) == naive_mul(a, b)


def _all_top(fld, length, rows, cols):
    """A rows x cols matrix of length slices whose every coefficient is p - 1."""
    return PolyMatrix(fld, np.full((length, rows, cols), fld.p - 1, dtype=np.int64))


@pytest.mark.parametrize("length", [1023, 1024, 1100])
def test_mul_blocks_delayed_reduction_bound(length):
    # all coefficients p - 1 make every unreduced A_i B_j as large as it gets
    # (near ceil(k / 42) 2**53), and min(la, lb) of them meet in the middle
    # cells: without the early reductions their sum passes 2**63 at 1100
    # slices for k = 42, and from 1023 slices for k = 43 and 100
    fld = pk.get_field(2**31 - 1)
    # every entry of A (1 x k) is f and of B (k x 1) is g, so A B = k f g
    f, g = _all_top(fld, length, 1, 1), _all_top(fld, length + 7, 1, 1)
    fg = naive_mul(f, g)
    for k in (1, 42, 43, 100):
        want = PolyMatrix(fld, k * fg.coeffs)
        a, b = _all_top(fld, length, 1, k), _all_top(fld, length + 7, k, 1)
        assert pk.pm_mul(a, b) == want
        assert pk.pm_mul(b.transpose(), a.transpose()) == want  # the longer operand on the left


def stacked_products(a: list, b: list, fld) -> list:
    """a[i] * b[i] for each i, from one _mul_stacked call on the stacked coefficient arrays.

    The outputs are adopted without reduction, so a kernel residue outside [0, p)
    shows as a mismatch."""
    prod = polymat._mul_stacked(polymat._stack([x.coeffs for x in a]),
                                polymat._stack([y.coeffs for y in b]), fld)
    return [PolyMatrix._canonical(fld, np.ascontiguousarray(prod[:, i])) for i in range(len(a))]


def test_mul_blocks_delayed_reduction_batch():
    # a batch of three on the block path, early reductions included (k = 43)
    fld = pk.get_field(2**31 - 1)
    lengths = [(1100, 1100), (1024, 1030), (600, 1100)]
    a = [_all_top(fld, la, 1, 43) for la, _ in lengths]
    b = [_all_top(fld, lb, 43, 1) for _, lb in lengths]
    want = [PolyMatrix(fld, 43 * naive_mul(_all_top(fld, la, 1, 1), _all_top(fld, lb, 1, 1)).coeffs)
            for la, lb in lengths]
    assert stacked_products(a, b, fld) == want


@pytest.mark.parametrize("p, lengths, kernel", [
    (DEFAULT_PRIME, (20, 30), "_mul_ntt"), (97, (20, 30), "_mul_ntt"),
    (DEFAULT_PRIME, (5, 9), "_mul_blocks"), (2**31 - 1, (20, 30), "_mul_blocks"),
    (97, (40, 60), "_mul_blocks"),  # product length 99 > p - 1: no transform
])
def test_mul_output_canonical(p, lengths, kernel, monkeypatch):
    # kernel outputs are adopted without a second reduction, so each kernel
    # must return residues in [0, p), trimmed
    fld = pk.get_field(p)
    calls = _spy(monkeypatch, kernel)
    a = _all_top(fld, lengths[0], 3, 4)
    b = pk.rand_instance(4, 2, lengths[1] - 1, 61, field=fld)
    got = pk.pm_mul(a, b)
    assert len(calls) == 1
    assert got.coeffs.dtype == np.int64
    assert 0 <= got.coeffs.min() and got.coeffs.max() < p
    assert got.coeffs[-1].any()
    assert got == naive_mul(a, b)


def test_constructors_reduce(fd):
    p = fd.p
    raw = np.array([[[-1, p]], [[2 * p + 3, -p - 5]], [[p, 0]]], dtype=np.int64)
    want = np.array([[[p - 1, 0]], [[3, p - 5]]])
    assert PolyMatrix(fd, raw).coeffs.tolist() == want.tolist()  # reduced, then trimmed
    s = SeriesMatrix(fd, 3, raw)
    assert s.coeffs.tolist() == [*want.tolist(), [[0, 0]]]
    assert s.slice(1, 3).coeffs.tolist() == s.coeffs[1:].tolist()
    assert s.to_polymat().coeffs.tolist() == want.tolist()
    with pytest.raises(ValueError):
        s.slice(2, 4)


def test_mul_block_path_memory():
    # operands and output take 0.5 MiB; capping the cells of each block
    # product keeps the peak near that (2**18-cell blocks reach 7 MiB)
    fld = pk.get_field(2**31 - 1)
    a = pk.rand_instance(16, 16, 64, 43, field=fld)
    b = pk.rand_instance(16, 16, 64, 44, field=fld)
    pk.pm_mul(a, b)
    tracemalloc.start()
    try:
        pk.pm_mul(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 2**20


def _spy(monkeypatch, name):
    calls = []
    kernel = getattr(polymat, name)

    def spy(a, b, *rest):
        calls.append((a.shape, b.shape))
        return kernel(a, b, *rest)

    monkeypatch.setattr(polymat, name, spy)
    return calls


@pytest.mark.parametrize("p", [DEFAULT_PRIME, 2**31 - 1, 97])
def test_mul_batch_equals_pairwise(p, monkeypatch):
    fld = pk.get_field(p)
    rng = np.random.default_rng(p % 1009)
    ntt_calls, block_calls = _spy(monkeypatch, "_mul_ntt"), _spy(monkeypatch, "_mul_blocks")
    # (n, k, m, degrees of a, degrees of b): long operands for the NTT (except at
    # 2^31 - 1, which has none), short ones for the blocks, lengths mixed in a batch
    cases = [(3, 4, 2, [20, 31, 17, 25], [24, 18, 30, 17]),
             (3, 4, 2, [2, 9, 0, 15], [15, 4, 7, 1]),
             (2, 2, 2, [12], [40]),
             (5, 3, 1, [3, 40, 17], [30, 2, 17]),
             (1, 1, 1, [0, 0], [0, 5])]
    for n, k, m, da, db in cases:
        a = [pk.rand_instance(n, k, d, int(rng.integers(1 << 30)), field=fld) for d in da]
        b = [pk.rand_instance(k, m, d, int(rng.integers(1 << 30)), field=fld) for d in db]
        if len(a) > 1:
            a[0] = PolyMatrix.zero(fld, n, k)  # a zero operand inside the batch
        before = len(ntt_calls) + len(block_calls)
        got = stacked_products(a, b, fld)
        assert len(ntt_calls) + len(block_calls) == before + 1  # one kernel call per batch
        assert got == [pk.pm_mul(x, y) for x, y in zip(a, b)]
        assert got == [naive_mul(x, y) for x, y in zip(a, b)]
    assert block_calls and (ntt_calls or p == 2**31 - 1)
    assert max(shape[0][1] for shape in ntt_calls + block_calls) == 4  # B in the second axis


def test_mul_batch_edge_shapes(fd):
    a = pk.rand_instance(2, 3, 4, 51, field=fd)
    b = pk.rand_instance(3, 2, 20, 52, field=fd)
    assert stacked_products([a], [b], fd) == [pk.pm_mul(a, b)]
    zero = PolyMatrix.zero(fd, 2, 3)
    assert stacked_products([zero, zero], [b, b], fd) == [PolyMatrix.zero(fd, 2, 2)] * 2
    for n, k, m in ((0, 3, 2), (2, 0, 2), (2, 3, 0)):
        x, y = PolyMatrix.zero(fd, n, k), PolyMatrix.zero(fd, k, m)
        got = stacked_products([x, x], [y, y], fd)
        assert got == [PolyMatrix.zero(fd, n, m)] * 2 and got[0].coeffs.shape == (1, n, m)
        assert pk.pm_mul(x, y) == got[0]


def test_mul_block_chunks_capped_by_multiplications(monkeypatch):
    # every chunk GEMM of _mul_blocks stays within PRODUCT_MULTS unless it is one slice
    seen = []
    real = polymat.mul_unreduced

    def spy(a, b_split, p, *out):
        seen.append((a.shape, sum(b.shape[-2] for b in b_split) // 2, b_split[0].shape[-1]))
        return real(a, b_split, p, *out)

    monkeypatch.setattr(polymat, "mul_unreduced", spy)
    fld = pk.get_field(2**31 - 1)
    cases = ((16, 16, 16, 8, 1), (4, 4, 4, 64, 1), (2, 3, 2, 9, 5), (16, 16, 16, 64, 2))
    for n, k, m, d, batch in cases:
        a = [pk.rand_instance(n, k, d, 60 + i, field=fld) for i in range(batch)]
        b = [pk.rand_instance(k, m, d, 70 + i, field=fld) for i in range(batch)]
        seen.clear()
        assert stacked_products(a, b, fld) == [naive_mul(x, y) for x, y in zip(a, b)]
        for (bat, rows, inner), inner2, cols in seen:
            assert inner == inner2 == k
            assert rows == n or bat * rows * inner * cols <= PRODUCT_MULTS


def test_mul_dimension_mismatch(fd):
    with pytest.raises(DimensionMismatch):
        pk.pm_mul(PolyMatrix.zero(fd, 2, 3), PolyMatrix.zero(fd, 2, 3))
    b = pk.rand_instance(2, 3, 2, 53, field=fd)
    with pytest.raises(DimensionMismatch):
        pk.pm_mul(b, b)


def test_mul_associative_bilinear(fd, rng):
    a = pk.rand_instance(2, 3, 4, 31, field=fd)
    b = pk.rand_instance(3, 2, 4, 32, field=fd)
    c = pk.rand_instance(2, 2, 4, 33, field=fd)
    assert pk.pm_mul(pk.pm_mul(a, b), c) == pk.pm_mul(a, pk.pm_mul(b, c))
    a2 = pk.rand_instance(2, 3, 4, 34, field=fd)
    assert pk.pm_mul(a + a2, b) == pk.pm_mul(a, b) + pk.pm_mul(a2, b)


def test_eval_simple(fd):
    a = anchor(fd)
    assert np.array_equal(pk.pm_eval(a, 0), np.eye(2, dtype=np.int64))
    xi = PolyMatrix.from_lists(fd, [[[0, 1], [0]], [[0], [0, 1]]])
    assert np.array_equal(pk.pm_eval(xi, 1), np.eye(2, dtype=np.int64))


def test_eval_matches_entries(fd, rng):
    a = pk.rand_instance(3, 4, 5, 41, field=fd)
    x0 = int(rng.integers(0, fd.p))
    ev = pk.pm_eval(a, x0)
    for i in range(3):
        for j in range(4):
            assert int(ev[i, j]) == int(pk.poly_eval(a.entry(i, j), x0))


def test_eval_homomorphism(fd, rng):
    from polymatkit.linalg import mod_matmul
    a = pk.rand_instance(3, 3, 6, 51, field=fd)
    b = pk.rand_instance(3, 3, 6, 52, field=fd)
    t = int(rng.integers(0, fd.p))
    lhs = pk.pm_eval(pk.pm_mul(a, b), t)
    rhs = mod_matmul(pk.pm_eval(a, t), pk.pm_eval(b, t), fd.p)
    assert np.array_equal(lhs, rhs)


def test_leading_row_matrix(fd):
    a = anchor(fd)
    assert np.array_equal(pk.leading_row_matrix(a), np.array([[0, 1], [1, 0]]))
    c = PolyMatrix.constant(fd, np.array([[3, 4], [5, 6]]))
    assert np.array_equal(pk.leading_row_matrix(c), np.array([[3, 4], [5, 6]]))
    m = PolyMatrix.from_lists(fd, [[[1], [0, -1]], [[0, 1], [0]]])
    assert np.array_equal(
        pk.leading_row_matrix(m), np.array([[0, fd.p - 1], [1, 0]])
    )


def test_leading_row_matrix_zero_row(fd):
    m = PolyMatrix.from_lists(fd, [[[1], [1]], [[0], [0]]])
    with pytest.raises(ZeroRow):
        pk.leading_row_matrix(m)


def test_is_row_reduced(fd):
    assert pk.is_row_reduced(PolyMatrix.identity(fd, 3))
    bad = PolyMatrix.from_lists(fd, [[[1], [0, 1]], [[0, 1], [1, 0, 1]]])
    assert not pk.is_row_reduced(bad)
    good = PolyMatrix.from_lists(fd, [[[1], [0, -1]], [[0, 1], [0]]])
    assert pk.is_row_reduced(good)


def test_regular_point(fd):
    x = PolyMatrix.from_lists(fd, [[[0, 1]]])  # [[x]]: singular at 0 only
    x0, value = regular_value(x, 3)
    assert x0 != 0 and value == x0
    a = anchor(fd)
    x0, value = regular_value(a, 3)
    assert value == const_det(pk.pm_eval(a, x0), fd.p) != 0
    with pytest.raises(SingularInput):
        regular_value(PolyMatrix.zero(fd, 1, 1), 3)
    singular = PolyMatrix.from_lists(fd, [[[0, 1], [0, 0, 1]], [[1], [0, 1]]])
    with pytest.raises(SingularInput):  # det x^2 - x^2 vanishes identically
        regular_value(singular, 3)
    f5 = pk.get_field(5)
    with pytest.raises(FieldTooSmall):  # det x^5 - x vanishes on all of GF(5)
        regular_value(PolyMatrix.from_lists(f5, [[[0, 4, 0, 0, 0, 1]]]), 3)


def test_truncate(fd, rng):
    a = pk.rand_instance(2, 2, 4, 61, field=fd)
    assert pk.pm_truncate(a, 0).is_zero()
    b = PolyMatrix.identity(fd, 2) + pk.rand_instance(2, 2, 3, 62, field=fd).shift(1)
    assert pk.pm_truncate(b, 1) == PolyMatrix.constant(fd, pk.pm_eval(b, 0))
    s = a.to_series(5)
    assert np.array_equal(pk.pm_truncate(s, 3).coeffs, s.coeffs[:3])


def test_shift_var_round_trip(fd, rng):
    a = pk.rand_instance(3, 3, 6, 71, field=fd)
    assert pk.pm_shift_var(a, 0) == a
    x0 = int(rng.integers(1, fd.p))
    assert pk.pm_shift_var(pk.pm_shift_var(a, x0), (-x0) % fd.p) == a
    xi = PolyMatrix.from_lists(fd, [[[0, 1], [0]], [[0], [0, 1]]])
    want = PolyMatrix.from_lists(fd, [[[1, 1], [0]], [[0], [1, 1]]])
    assert pk.pm_shift_var(xi, 1) == want


def _shift_var_loop(a: PolyMatrix, x0) -> PolyMatrix:
    """The Taylor shift as L**2 / 2 slice updates, the reference for pm_shift_var."""
    p = a.field.p
    v = int(x0) % p
    c = a.coeffs.copy()
    length = c.shape[0]
    for i in range(length - 1):
        for j in range(length - 2, i - 1, -1):
            c[j] = (c[j] + v * c[j + 1]) % p
    return PolyMatrix(a.field, c)


@pytest.mark.parametrize("p", [97, 65537, 2**31 - 1, DEFAULT_PRIME])
@pytest.mark.parametrize("length", [1, 2, 9, 130])
def test_shift_var_matches_loop(p, length):
    fld = pk.get_field(p)
    rng = np.random.default_rng(p % 1000 + length)
    arr = rng.integers(0, p, size=(length, 2, 3))
    arr[rng.random(arr.shape) < 0.2] = p - 1
    arr[-1, 0, 0] = 1  # nonzero top slice, so no trimming
    a = PolyMatrix(fld, arr)
    for x0 in (0, 1, -1, int(rng.integers(2, p))):
        assert pk.pm_shift_var(a, x0) == _shift_var_loop(a, x0)


def test_row_degrees_sentinel(fd):
    m = PolyMatrix.from_lists(fd, [[[1, 1], [0]], [[0], [0]]])
    assert pk.row_degrees(m) == [1, MINUS_INFINITY]


def test_series_round_trip(fd):
    a = pk.rand_instance(2, 3, 4, 81, field=fd)
    s = a.to_series(5)
    assert s.order == 5
    assert s.to_polymat() == a
    assert s.slice(1, 3).order == 2


def test_immutability(fd):
    a = PolyMatrix.identity(fd, 2)
    with pytest.raises(AttributeError):
        a.rows = 5
    with pytest.raises(ValueError):
        a.coeffs[0, 0, 0] = 9
