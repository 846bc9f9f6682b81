import numpy as np
import pytest

import polymatkit as pk
from polymatkit import approxbasis
from polymatkit.approxbasis import (
    PMBASIS_THRESHOLD,
    ApproximantBasis,
    _pmbasis,
    _raise,
    mbasis,
    pmbasis,
    series_product,
    shifted_row_degrees,
)
from polymatkit.errors import OrderExceedsData
from polymatkit.field import DEFAULT_PRIME
from polymatkit.linalg import rank as const_rank
from polymatkit.oracle import det_by_interpolation, left_kernel, minimal_basis_bruteforce
from polymatkit.poly import MINUS_INFINITY
from polymatkit.polymat import PolyMatrix, SeriesMatrix, int_degree


def series(field, arr):
    arr = np.asarray(arr, dtype=np.int64)
    return SeriesMatrix(field, arr.shape[0], arr)


def shift_array(shifts, n):
    """The (B, n) shift array of B shifts, None meaning the zero shift."""
    return np.array([[0] * n if s is None else s for s in shifts], dtype=np.int64).reshape(-1, n)


def unstacked(field, got, sigma, shifts):
    """Per problem, the ApproximantBasis of an engine's (bases, degrees) output; the
    degrees it returns must be each basis's shifted row degrees."""
    bases, degrees = got
    out = []
    for b, shift in enumerate(shifts):
        mat = PolyMatrix._canonical(field, np.ascontiguousarray(bases[:, b]))
        shift = [0] * mat.rows if shift is None else list(shift)
        assert degrees[b].tolist() == shifted_row_degrees(mat, shift)
        out.append(ApproximantBasis(mat, sigma, pk.row_degrees(mat), shift))
    return out


def test_zero_input_gives_identity(fd):
    f = SeriesMatrix.zero(fd, 4, 3, 2)
    basis = mbasis(f, 4)
    assert basis.basis == PolyMatrix.identity(fd, 3)
    assert basis.row_degrees == [0, 0, 0]


def test_column_vector_x_one(fd):
    # F = [x, 1]^T at order 2: both minimal indices are 1
    f = series(fd, [[[0], [1]], [[1], [0]]])
    basis = mbasis(f, 2)
    assert sorted(basis.row_degrees) == [1, 1]
    assert not series_product(basis.basis, f, 2).coeffs.any()
    assert pk.is_row_reduced(basis.basis)


def test_scalar_one_gives_x_cubed(fd):
    f = series(fd, [[[1]], [[0]], [[0]]])
    basis = mbasis(f, 3)
    assert basis.row_degrees == [3]
    assert basis.basis.entry(0, 0) == pk.Polynomial(fd, [0, 0, 0, 1])


def test_order_exceeds_data(fd):
    f = SeriesMatrix.zero(fd, 2, 2, 1)
    with pytest.raises(OrderExceedsData):
        mbasis(f, 3)
    with pytest.raises(OrderExceedsData):
        pmbasis(f, 3)


@pytest.mark.parametrize("algo", [mbasis, pmbasis])
def test_negative_order_rejected(fd, algo):
    f = SeriesMatrix.zero(fd, 2, 2, 1)
    with pytest.raises(ValueError, match="sigma must be nonnegative, got -1"):
        algo(f, -1)
    with pytest.raises(ValueError, match="shift length must equal the row count"):
        algo(f, 2, [0])


def test_pmbasis_base_case_equals_mbasis(f97, rng):
    arr = rng.integers(0, 97, size=(1, 3, 2))
    f = series(f97, arr)
    assert pmbasis(f, 1).row_degrees == mbasis(f, 1).row_degrees


def test_determinant_is_power_of_x(f97, rng):
    for _ in range(10):
        arr = rng.integers(0, 97, size=(4, 3, 2))
        f = series(f97, arr)
        basis = mbasis(f, 4)
        det = det_by_interpolation(basis.basis)
        nz = np.nonzero(det.coeffs)[0]
        assert nz.size == 1  # det = c * x^k


def test_minimality_against_bruteforce(f97, rng):
    for n in (1, 2, 3):
        for m in (1, 2):
            for sigma in (1, 2, 3, 4, 5):
                for _ in range(4):
                    arr = rng.integers(0, 97, size=(sigma, n, m))
                    f = series(f97, arr)
                    ref = minimal_basis_bruteforce(f, sigma)
                    for algo in (mbasis, pmbasis):
                        got = algo(f, sigma)
                        assert sorted(got.row_degrees) == sorted(ref.row_degrees)
                        assert not series_product(got.basis, f, sigma).coeffs.any()


def test_pmbasis_deep_recursion(fd, rng):
    sigma = 3 * PMBASIS_THRESHOLD  # two levels of splitting above the leaves
    for _ in range(5):
        arr = rng.integers(0, fd.p, size=(sigma, 4, 2))
        f = series(fd, arr)
        it = mbasis(f, sigma)
        dc = pmbasis(f, sigma)
        assert sorted(it.row_degrees) == sorted(dc.row_degrees)
        assert not series_product(dc.basis, f, sigma).coeffs.any()
        assert pk.is_row_reduced(dc.basis)


def test_completeness_random_approximants(f97, rng):
    # every approximant of degree <= sigma decomposes over the basis:
    # solve u N = v coefficient-wise and check the solution is polynomial
    for _ in range(25):
        n, m, sigma = 3, 1, 4
        arr = rng.integers(0, 97, size=(sigma, n, m))
        f = series(f97, arr)
        basis = mbasis(f, sigma)
        ref = minimal_basis_bruteforce(f, sigma)
        # rows of the oracle basis are approximants; each must be a
        # K[x]-combination of the computed basis rows. Solve the linear
        # system u * N = v with deg(u_i) <= sigma.
        nb = basis.basis
        for r in range(ref.basis.rows):
            v = ref.basis.take_rows([r])
            t = sigma
            cols = []
            for j in range(n):
                for k in range(t + 1):
                    shifted = nb.take_rows([j]).shift(k)
                    flat = np.zeros((2 * sigma + 2, n), dtype=np.int64)
                    take = min(flat.shape[0], shifted.coeffs.shape[0])
                    flat[:take] = shifted.coeffs[:take, 0, :]
                    cols.append(flat.reshape(-1))
            vflat = np.zeros((2 * sigma + 2, n), dtype=np.int64)
            take = min(vflat.shape[0], v.coeffs.shape[0])
            vflat[:take] = v.coeffs[:take, 0, :]
            system = np.vstack(cols + [(-vflat.reshape(-1)) % 97])
            kern = left_kernel(system, 97)
            # some kernel row must use the target vector (last coordinate != 0)
            assert kern.size and np.any(kern[:, -1] % 97 != 0)


def test_shift_changes_pivoting(f97, rng):
    arr = rng.integers(0, 97, size=(3, 3, 1))
    f = series(f97, arr)
    plain = mbasis(f, 3)
    shifted = mbasis(f, 3, shift=[5, 0, 0])
    assert not series_product(shifted.basis, f, 3).coeffs.any()
    assert plain.order == shifted.order == 3
    # the minimal indices are the shifted row degrees, the same for pmbasis
    assert shifted.minimal_indices == sorted(_shifted_degrees_ref(shifted.basis, [5, 0, 0]))
    assert pmbasis(f, 3, shift=[5, 0, 0]).minimal_indices == shifted.minimal_indices


def _shifted_degrees_ref(a, shift):
    """Entry-by-entry shifted row degrees, the reference for the array version."""
    out = []
    for i in range(a.rows):
        degs = [a.entry(i, j).degree + shift[j] for j in range(a.cols) if not a.entry(i, j).is_zero()]
        out.append(max(degs) if degs else MINUS_INFINITY)
    return out


def _poly_det(rows):
    """Determinant of a small square matrix of Polynomials by cofactor expansion."""
    if len(rows) == 1:
        return rows[0][0]
    total = None
    for j, a in enumerate(rows[0]):
        term = a * _poly_det([r[:j] + r[j + 1:] for r in rows[1:]])
        total = term if total is None else (total - term if j % 2 else total + term)
    return total


def _check_order_basis(got, f, sigma, shift):
    """Order, s-reducedness and det = c * x**k, k = sum(rdeg_s) - sum(s)."""
    n, p = f.rows, f.field.p
    assert got.order == sigma
    assert not series_product(got.basis, f, sigma).coeffs.any()
    rdeg = _shifted_degrees_ref(got.basis, shift)
    lead = np.array([[got.basis.entry(i, j).coeff(rdeg[i] - shift[j]) for j in range(n)]
                     for i in range(n)], dtype=np.int64)
    assert const_rank(lead, p) == n
    det = _poly_det([[got.basis.entry(i, j) for j in range(n)] for i in range(n)])
    k = sum(rdeg) - sum(shift)
    assert det.degree == k and not det.coeffs[:k].any()
    assert got.minimal_indices == sorted(rdeg)


@pytest.mark.parametrize("p", [2, 3, 97, 65537, 2**31 - 1, DEFAULT_PRIME])
def test_order_basis_invariants(p, monkeypatch):
    fld = pk.get_field(p)
    rng = np.random.default_rng(p)
    # a small leaf makes pmbasis split several times at these orders
    monkeypatch.setattr(approxbasis, "PMBASIS_THRESHOLD", 3)
    for i in range(18):
        n, m, sigma = int(rng.integers(1, 5)), int(rng.integers(1, 4)), int(rng.integers(1, 17))
        low = 0
        if i >= 12:  # more columns than rows, and shifts below zero
            m, low = n + int(rng.integers(1, 3)), -3
        # a small range, so ties are common
        shift = [int(s) for s in rng.integers(low, low + 3, size=n)]
        arr = rng.integers(0, p, size=(sigma, n, m))
        arr[rng.random(arr.shape) < 0.2] = p - 1  # largest residues stress int64
        f = series(fld, arr)
        it, dc = mbasis(f, sigma, shift), pmbasis(f, sigma, shift)
        _check_order_basis(it, f, sigma, shift)
        _check_order_basis(dc, f, sigma, shift)
        assert it.minimal_indices == dc.minimal_indices


@pytest.mark.parametrize("n, m, sigma", [(2, 1, 33), (16, 8, 64)])
def test_mbasis_one_product_per_order(n, m, sigma, monkeypatch):
    # a count, not a timing: the basis and residual updates of an order
    # share one product, so no order pays a second call's overhead
    products = []
    product = approxbasis.mul_unreduced

    def counted(a, b_split, p):
        products.append(1)
        return product(a, b_split, p)

    monkeypatch.setattr(approxbasis, "mul_unreduced", counted)
    rng = np.random.default_rng(n * 1000 + sigma)
    fld = pk.default_field()
    f = series(fld, rng.integers(0, fld.p, size=(sigma, n, m)))
    got = mbasis(f, sigma)
    assert not series_product(got.basis, f, sigma).coeffs.any()
    assert 0 < len(products) <= sigma


@pytest.mark.parametrize("algo", [mbasis, pmbasis])
def test_order_basis_edge_cases(f97, rng, algo, monkeypatch):
    monkeypatch.setattr(approxbasis, "PMBASIS_THRESHOLD", 2)
    shift = [2, 0, 0]
    ident = PolyMatrix.identity(f97, 3)
    arr = rng.integers(0, 97, size=(6, 3, 2))
    for f, sigma in ((series(f97, arr), 0),                  # sigma = 0
                     (SeriesMatrix.zero(f97, 6, 3, 0), 6),   # m = 0
                     (SeriesMatrix.zero(f97, 6, 3, 2), 6)):  # the zero series
        got = algo(f, sigma, shift)
        assert got.basis == ident and got.minimal_indices == [0, 0, 2]
    arr[0, :, 1] = 0        # f(0) has a zero column ...
    arr[0, 2] = arr[0, 1]   # ... and two equal rows
    f = series(f97, arr)
    _check_order_basis(algo(f, 6, shift), f, 6, shift)


def test_shifted_row_degrees_match_entry_loop(f97, rng):
    for rows, cols in ((3, 4), (4, 1), (2, 0)):
        arr = rng.integers(0, 97, size=(5, rows, cols)) * (rng.random((5, rows, cols)) < 0.3)
        arr[:, 0] = 0  # a zero row
        a = PolyMatrix(f97, arr)
        shift = [int(s) for s in rng.integers(-3, 4, size=cols)]
        assert shifted_row_degrees(a, shift) == _shifted_degrees_ref(a, shift)
        assert pk.row_degrees(a) == _shifted_degrees_ref(a, [0] * cols)


@pytest.mark.parametrize("p", [97, 65537, DEFAULT_PRIME])
@pytest.mark.parametrize("algo", [mbasis, pmbasis])
def test_batch_equals_separate_calls(p, algo):
    # the engine beneath algo on a stacked (sigma, B, n, m) batch
    engine = getattr(approxbasis, "_" + algo.__name__)
    fld = pk.get_field(p)
    rng = np.random.default_rng(p + 1)
    # orders on both sides of the leaf, so the batch also goes through the recursion
    for i, sigma in enumerate([0, 1, 5, 12, PMBASIS_THRESHOLD, PMBASIS_THRESHOLD + 7] * 2):
        batch, n = int(rng.integers(1, 6)), int(rng.integers(1, 5))
        m = n + int(rng.integers(1, 3)) if i % 3 == 2 else int(rng.integers(1, n + 1))
        arr = rng.integers(0, p, size=(batch, sigma, n, m))
        arr[rng.random(arr.shape) < 0.1] = p - 1
        if i % 4 == 1:
            arr[int(rng.integers(0, batch))] = 0  # a zero problem inside the batch
        fs = [series(fld, a) for a in arr]
        # a small range, so ties are common; the plain batch gets the zero shift
        shifts = ([[int(s) for s in rng.integers(-2, 2, size=n)] for _ in fs] if i % 2
                  else [None] * batch)
        got = unstacked(fld, engine(arr.transpose(1, 0, 2, 3), sigma, shift_array(shifts, n), fld),
                        sigma, shifts)
        assert len(got) == batch
        for b, (f, basis) in enumerate(zip(fs, got)):
            one = algo(f, sigma, shifts[b])
            assert basis.basis == one.basis and basis.row_degrees == one.row_degrees
            assert basis.shift == one.shift and basis.order == one.order == sigma
            _check_order_basis(basis, f, sigma, one.shift)


@pytest.mark.parametrize("cells", [24, 512])
def test_batch_recursion_with_small_leaf(monkeypatch, cells):
    # a small leaf makes the batch recurse; 24 cells cut each mbasis into batches of 2, 2 and 1
    monkeypatch.setattr(approxbasis, "PMBASIS_THRESHOLD", 3)
    monkeypatch.setattr(approxbasis, "BATCH_CELLS", cells)
    fld = pk.get_field(97)
    rng = np.random.default_rng(5)
    arr = np.stack([rng.integers(0, 97, size=(17, 3, 2)) for _ in range(5)], axis=1)
    shifts = [[0, 1, 1], [2, 0, 0], [0, 0, 0], [1, 1, 0], [0, 0, 5]]
    got = unstacked(fld, _pmbasis(arr, 17, shift_array(shifts, 3), fld), 17, shifts)
    assert len(got) == 5
    for b, (basis, shift) in enumerate(zip(got, shifts)):
        f = series(fld, arr[:, b])
        assert basis.basis == pmbasis(f, 17, shift).basis == mbasis(f, 17, shift).basis


@pytest.mark.parametrize("p", [97, DEFAULT_PRIME])
def test_batch_glue_above_the_leaf(p):
    # at the real leaf, sigma > PMBASIS_THRESHOLD recurses once: the residuals and final
    # products are one batched product each, over first bases of different degrees
    fld = pk.get_field(p)
    rng = np.random.default_rng(p)
    sigma, n, m = PMBASIS_THRESHOLD + 9, 4, 2
    arr = rng.integers(0, p, size=(4, sigma, n, m))
    arr[1] = 0                   # the zero series: its first basis is the identity
    arr[2, :, :, 1] = 0          # a zero column: a lower-degree first basis
    arr[3, : sigma // 2] = 0     # f = O(x^(sigma/2))
    fs = [series(fld, a) for a in arr]
    shifts = [[0, 1, 2, 3], None, [3, 0, 0, 1], [0, 0, 0, 0]]
    stacked, half = arr.transpose(1, 0, 2, 3), (sigma + 1) // 2
    got = unstacked(fld, _pmbasis(stacked, sigma, shift_array(shifts, n), fld), sigma, shifts)
    firsts = unstacked(fld, _pmbasis(stacked[:half], half, shift_array(shifts, n), fld), half,
                       shifts)
    assert len({int_degree(b.basis) for b in firsts}) > 1  # operands of several lengths
    for basis, f, shift in zip(got, fs, shifts):
        assert basis.basis == mbasis(f, sigma, shift).basis
        _check_order_basis(basis, f, sigma, shift or [0] * n)


def test_rows_up_to_sorts_by_degree_then_index(f97):
    # rows of degree 2, 0, zero, 1, 0
    basis = PolyMatrix.from_lists(f97, [[[1, 0, 1]], [[5]], [[0]], [[0, 3]], [[7]]])
    found = ApproximantBasis(basis, 3, pk.row_degrees(basis))
    rows, degs = found.rows_up_to(1)
    assert rows == basis.take_rows([1, 4, 3]) and degs == [0, 0, 1]
    rows, degs = found.rows_up_to(-1)
    assert (rows.rows, rows.cols, degs) == (0, 1, [])


@pytest.mark.parametrize("p", [2, 3, 97, DEFAULT_PRIME])
def test_raise_order_equals_direct(p):
    # raising _pmbasis(F[:sigma1], sigma1, s) to sigma2 gives pmbasis(F, sigma2, s) bit for bit
    fld = pk.get_field(p)
    rng = np.random.default_rng(p + 7)
    cases = [  # n, m, sigma1, sigma2, shift (None: no shift; small ranges tie)
        (4, 2, 0, 9, None), (4, 2, 9, 13, None), (3, 1, 1, 2, [0, 0, 0]),
        (5, 3, 7, 12, [1, 0, 1, 0, 2]), (4, 4, 3, 8, [0, 0, 0, 0]),
        (3, 2, 30, PMBASIS_THRESHOLD + 21, [2, 2, 0]), (2, 1, 40, 2 * PMBASIS_THRESHOLD + 3, None),
    ]
    for n, m, sigma1, sigma2, shift in cases:
        f = series(fld, rng.integers(0, p, size=(sigma2, n, m)))
        first = _pmbasis(f.coeffs[:sigma1, None], sigma1, shift_array([shift], n), fld)
        [got] = unstacked(fld, _raise(f.coeffs[:, None], sigma1, *first, sigma2, fld), sigma2,
                          [shift])
        assert got == pmbasis(f, sigma2, shift) == mbasis(f, sigma2, shift)
        # the raising step reads F only where it needs it: the longer series gives the same
        longer = np.concatenate([f.coeffs, rng.integers(0, p, size=(3, n, m))])
        assert unstacked(fld, _raise(longer[:, None], sigma1, *first, sigma2, fld), sigma2,
                         [shift]) == [got]


@pytest.mark.parametrize("p", [97, DEFAULT_PRIME])
def test_raise_order_batch_equals_separate_calls(p):
    fld = pk.get_field(p)
    rng = np.random.default_rng(p)
    sigma1, sigma2, n, m = 6, PMBASIS_THRESHOLD + 5, 4, 2
    arr = rng.integers(0, p, size=(5, sigma2, n, m))
    arr[1] = 0                  # the zero series
    arr[2, :, :, 1] = 0         # a zero column
    arr[3, :sigma2 // 2] = 0    # f = O(x^(sigma2/2))
    fs = [series(fld, a) for a in arr]
    shifts = [[0, 1, 1, 0], None, [2, 0, 0, 2], [0, 0, 0, 0], [1, 1, 1, 1]]
    stacked = arr.transpose(1, 0, 2, 3)
    firsts = _pmbasis(stacked[:sigma1], sigma1, shift_array(shifts, n), fld)
    got = unstacked(fld, _raise(stacked, sigma1, *firsts, sigma2, fld), sigma2, shifts)
    assert len(got) == len(fs)
    for b, (basis, f, shift) in enumerate(zip(got, fs, shifts)):
        first = _pmbasis(f.coeffs[:sigma1, None], sigma1, shift_array([shift], n), fld)
        [one] = unstacked(fld, _raise(f.coeffs[:, None], sigma1, *first, sigma2, fld), sigma2,
                          [shift])
        assert basis == one == pmbasis(f, sigma2, shift)
        _check_order_basis(basis, f, sigma2, shift or [0] * n)
