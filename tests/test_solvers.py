import itertools

import numpy as np
import pytest

import polymatkit as pk
from polymatkit import nullspace, solvers
from polymatkit.errors import (
    CertificateFailure,
    DimensionMismatch,
    FieldTooSmall,
    GenericityFailure,
    NotSquare,
    PrimeMismatch,
    ReconstructionFailure,
    SelfCheckFailure,
    SingularInput,
)
from polymatkit.linalg import det as const_det, rank as crank
from polymatkit.oracle import det_by_interpolation, naive_mul, unimodular_equiv_check
from polymatkit.nullspace import _kernel_bases, minimal_vectors_up_to, rank
from polymatkit.polymat import PolyMatrix, int_degree, pm_eval, pm_mul, row_degrees
from polymatkit.reconstruct import LeftFactorization, matfrac_rec
from polymatkit.solvers import (
    generic_det,
    generic_inverse,
    left_factorization,
    row_reduce,
)


def anchor(fd):
    return PolyMatrix.from_lists(fd, [[[1], [0, 1]], [[0, 1], [1]]])


def nonsingular_at_zero(fd, n, d, rng):
    while True:
        a = pk.rand_instance(n, n, d, int(rng.integers(0, 2**31)), field=fd)
        if const_det(pm_eval(a, 0), fd.p) != 0:
            return a


# -- generic inverse ---------------------------------------------------------

def test_inverse_constant(fd):
    a = PolyMatrix.constant(fd, np.array([[2, 1], [1, 1]]))
    rep = generic_inverse(a, 0)
    assert pm_mul(rep.transform, a) == rep.diagonal
    off = rep.diagonal.coeffs.copy()
    off[:, 0, 0] = 0
    off[:, 1, 1] = 0
    assert not off.any()


def test_inverse_anchor(fd):
    a = anchor(fd)
    rep = generic_inverse(a, 0)
    assert pm_mul(rep.transform, a) == rep.diagonal
    b11 = rep.diagonal.entry(0, 0)
    # b11 is a nonzero constant multiple of 1 - x^2
    c = int(b11.coeff(0))
    assert c != 0
    assert b11 == pk.Polynomial(fd, [c, 0, (-c) % fd.p])


def test_inverse_not_power_of_two(fd):
    # the recursion runs on diag(A, 1); U and B are its top-left 3 x 3 blocks
    a = pk.rand_instance(3, 3, 1, 1, field=fd)
    rep = generic_inverse(a, 0)
    assert_diagonalized(a, rep)
    assert [rep.diagonal.entry(i, i).degree for i in range(3)] == [3, 3, 3]


def test_inverse_of_the_empty_matrix(fd):
    empty = PolyMatrix.zero(fd, 0, 0)
    rep = generic_inverse(empty, 0)
    assert rep.transform == empty and rep.diagonal == empty


def test_inverse_random_degrees(fd, rng):
    failures = 0
    total = 0
    for n in (2, 4, 8):
        for d in (1, 2):
            for _ in range(3):
                a = pk.rand_instance(n, n, d, int(rng.integers(0, 2**31)), field=fd)
                total += 1
                try:
                    rep = generic_inverse(a, int(rng.integers(0, 2**31)))
                except SingularInput:
                    failures += 1
                    continue
                assert pm_mul(rep.transform, a) == rep.diagonal
                for i in range(n):
                    assert rep.diagonal.entry(i, i).degree == n * d
    assert failures <= total // 5


def test_inverse_diagonal_constant_multiple_of_det(fd, rng):
    a = nonsingular_at_zero(fd, 4, 2, rng)
    rep = generic_inverse(a, 7)
    det = det_by_interpolation(a)
    for i in range(4):
        bii = rep.diagonal.entry(i, i)
        ratios = set()
        for _ in range(3):
            x0 = int(rng.integers(0, fd.p))
            dv = int(pk.poly_eval(det, x0))
            bv = int(pk.poly_eval(bii, x0))
            if dv == 0:
                continue
            ratios.add(bv * pow(dv, -1, fd.p) % fd.p)
        assert len(ratios) == 1


def block_diag(blocks):
    """diag(blocks[0], blocks[1], ...), built here so that the reference recursion below
    shares no code with the one under test."""
    length = max(b.coeffs.shape[0] for b in blocks)
    n = sum(b.rows for b in blocks)
    out = np.zeros((length, n, n), dtype=np.int64)
    at = 0
    for b in blocks:
        out[: b.coeffs.shape[0], at: at + b.rows, at: at + b.cols] = b.coeffs
        at += b.rows
    return PolyMatrix(blocks[0].field, out)


def per_half_inverse(a):
    """The elimination recursion with minimal_vectors_up_to calls per column half, the cap
    doubled from the expected degree until the half has s/2 kernel rows."""
    def kernel(half, cap):
        while (found := minimal_vectors_up_to(half, cap)).row_count < half.cols:
            cap *= 2
        return found

    d, transform, blocks, step = int_degree(a), PolyMatrix.identity(a.field, a.rows), [a], 1
    while blocks[0].rows > 1:
        expected, rounds, nxt = 2 ** (step - 1) * d, [], []
        for block in blocks:
            s = block.rows
            left, right = block.take_cols(range(s // 2)), block.take_cols(range(s // 2, s))
            top, bottom = kernel(right, expected), kernel(left, expected)
            rounds.append(PolyMatrix.vstack([top.matrix, bottom.matrix]))
            nxt += [pm_mul(top.matrix, left), pm_mul(bottom.matrix, right)]
        transform, blocks, step = pm_mul(block_diag(rounds), transform), nxt, step + 1
    return transform, block_diag(blocks)


@pytest.mark.parametrize("n, d", [(1, 3), (2, 3), (3, 2), (4, 2), (6, 2), (8, 2), (12, 1), (16, 1),
                                  (32, 1)])
def test_batched_levels_match_per_half_calls(fd, rng, n, d):
    # at any n the recursion runs on diag(A, I) of power-of-two size: compare its top-left blocks
    a = nonsingular_at_zero(fd, n, d, rng)
    size = 1 << max(n - 1, 0).bit_length()
    transform, diagonal = (m.take_rows(range(n)).take_cols(range(n)) for m in
                           per_half_inverse(block_diag([a, PolyMatrix.identity(fd, size - n)])))
    rep = generic_inverse(a, 0)
    assert rep.transform == transform and rep.diagonal == diagonal
    # generic_det follows the upper-left branch: b_11 rescaled to det A; x = 0 is a regular point
    b11 = diagonal.entry(0, 0)
    scale = const_det(pm_eval(a, 0), fd.p) * pow(int(b11.coeff(0)), -1, fd.p) % fd.p
    assert generic_det(a, 0) == b11 * scale


def test_inverse_singular_input_names_singularity(fd, f97):
    planted = pk.rand_instance(4, 4, 2, 11, profile="planted-rank", rank=2, field=fd)
    zero_column = PolyMatrix.from_lists(f97, [[[1, 1], [0]], [[0, 1], [0]]])
    planted6 = pk.rand_instance(6, 6, 2, 12, profile="planted-rank", rank=5, field=f97)
    for a in (PolyMatrix.zero(f97, 4, 4), planted, zero_column, zero_column.transpose(),
              planted6):
        with pytest.raises(SingularInput):
            generic_inverse(a, 3)


def assert_diagonalized(a, rep):
    """U A = B by the quadratic reference product, B diagonal with no zero entry."""
    assert naive_mul(rep.transform, a) == rep.diagonal
    n = a.rows
    off = rep.diagonal.coeffs.copy()
    off[:, range(n), range(n)] = 0
    assert not off.any()
    assert all(not rep.diagonal.entry(i, i).is_zero() for i in range(n))


def test_inverse_non_generic_input_is_diagonalized(fd):
    # det A = 1 - x^2: non-singular, but its nullspace degrees are not the generic ones
    a = PolyMatrix.from_lists(fd, [[[1], [0, 1], [0], [0]], [[0, 1], [1], [0], [0]],
                                   [[0], [0], [1], [0, 0, 1]], [[0], [0], [0], [1]]])
    assert_diagonalized(a, generic_inverse(a, 3))
    # det = x^2 + x vanishes on all of GF(2), yet the product check certifies the result
    a = PolyMatrix.from_lists(pk.get_field(2), [[[0, 1, 1], [0]], [[0], [1]]])
    assert_diagonalized(a, generic_inverse(a, 3))


def one_high_row_square(fld, n, d, high, seed):
    """Entries of degree d except row 0, of degree high."""
    arr = np.zeros((high + 1, n, n), dtype=np.int64)
    arr[: d + 1] = pk.rand_instance(n, n, d, seed, field=fld).coeffs
    arr[:, 0, :] = pk.rand_instance(1, n, high, seed + 1, field=fld).coeffs[:, 0, :]
    return PolyMatrix(fld, arr)


@pytest.mark.parametrize("p, n, d, high", [
    (2013265921, 4, 1, 8),  # diagonal degrees 11; the kernels' degrees are not 2^k d
    (97, 8, 2, 12),
    (3, 4, 2, 2),           # a plain random input, non-generic over GF(3)
])
def test_inverse_of_non_generic_inputs(p, n, d, high):
    a = one_high_row_square(pk.get_field(p), n, d, high, 5)
    assert_diagonalized(a, generic_inverse(a, 0))



def gcd_degree(u, v, p):
    """deg gcd(u, v) over GF(p) by Euclid, from coefficient arrays (lowest first)."""
    def trim(w):
        while w and w[-1] == 0:
            w.pop()
        return w

    u, v = trim([int(c) % p for c in u]), trim([int(c) % p for c in v])
    while v:
        inv = pow(v[-1], -1, p)
        while len(u) >= len(v):
            q, at = u[-1] * inv % p, len(u) - len(v)
            for i, c in enumerate(v):
                u[at + i] = (u[at + i] - q * c) % p
            trim(u)
        u, v = v, u
    return len(u) - 1


@pytest.mark.parametrize("p", [2, 3, 97, 2013265921])
def test_adjugate_rows_are_the_minimal_kernel_rows(p):
    # row 0 of each block has degree top, row 1 degree bottom: equal and unequal column degrees
    fld, rng = pk.get_field(p), np.random.default_rng(p)
    coprime = 0
    for top, bottom in [(2, 2), (3, 1), (0, 4), (1, 1), (4, 2)]:
        for _ in range(12):
            coeffs = rng.integers(0, p, (5, 2, 2))
            coeffs[top + 1:, 0] = 0
            coeffs[bottom + 1:, 1] = 0
            coeffs[top, 0] = rng.integers(1, p, 2)
            coeffs[bottom, 1] = rng.integers(1, p, 2)
            block = PolyMatrix(fld, coeffs)
            adj = solvers._adjugates(block.coeffs[:, None], fld)[:, 0]
            rows = [PolyMatrix(fld, adj[:, :1]), PolyMatrix(fld, adj[:, 1:])]
            for row, half in zip(rows, (block.take_cols([1]), block.take_cols([0]))):
                minimal = minimal_vectors_up_to(half, 8)
                excess = gcd_degree(half.coeffs[:, 0, 0], half.coeffs[:, 1, 0], p)
                assert pm_mul(row, half).is_zero()
                assert row.degree == minimal.kronecker_degrees[0] + excess
                if excess == 0:
                    assert row == minimal.matrix
                    coprime += 1
    assert coprime > 0


def planted_common_factor(fld, rng):
    """A non-singular 2 x 2 block whose right column is divisible by x + 1."""
    factor = PolyMatrix.from_lists(fld, [[[1, 1]]])
    while True:
        block = pk.rand_instance(2, 2, 2, int(rng.integers(0, 2**31)), field=fld)
        block = PolyMatrix.hstack([block.take_cols([0]), pm_mul(block.take_cols([1]), factor)])
        if not laplace_det(block).is_zero():
            return block


def laplace_det(a):
    """det A by Laplace expansion along the rows, one minor per column subset, with the
    quadratic reference product, as a 1 x 1 matrix."""
    entry = [[a.take_rows([i]).take_cols([j]) for j in range(a.rows)] for i in range(a.rows)]
    minors = {(): PolyMatrix.identity(a.field, 1)}  # rows 0 .. k-1 on the columns of the key
    for k in range(1, a.rows + 1):
        for cols in itertools.combinations(range(a.rows), k):
            total = PolyMatrix.zero(a.field, 1, 1)
            for t, j in enumerate(cols):
                term = naive_mul(entry[k - 1][j], minors[cols[:t] + cols[t + 1:]])
                total = total - term if (k - 1 - t) % 2 else total + term
            minors[cols] = total
    return minors[tuple(range(a.rows))]


def assert_det_multiples(a, rep):
    """Every diagonal entry of the representation is a nonzero constant times det A."""
    det = laplace_det(a).entry(0, 0)
    for i in range(a.rows):
        entry = rep.diagonal.entry(i, i)
        ratio = int(entry.coeffs[-1]) * pow(int(det.coeffs[-1]), -1, a.field.p)
        assert entry == det * ratio


@pytest.mark.parametrize("p", [2, 3, 97])
def test_inverse_with_a_common_factor_in_a_2x2_column(p):
    # n = 2: a diagonal entry exceeds the minimal recursion's by the degree of its column's gcd,
    # at least 1 for the planted right column; U A = B still certifies the result
    fld, rng = pk.get_field(p), np.random.default_rng(p)
    a = planted_common_factor(fld, rng)
    rep = generic_inverse(a, 0)
    assert_diagonalized(a, rep)
    excess = [gcd_degree(a.coeffs[:, 0, c], a.coeffs[:, 1, c], p) for c in (1, 0)]
    assert excess[0]
    _, minimal_diagonal = per_half_inverse(a)
    assert row_degrees(rep.diagonal) == [
        deg + extra for deg, extra in zip(row_degrees(minimal_diagonal), excess)]
    # n = 4: diag(B1, B2) is one 4 x 4 base block, whose adjugate rows make every diagonal
    # entry a constant times det A = det B1 det B2, above the minimal degree per 2 x 2 gcd
    a = block_diag([planted_common_factor(fld, rng) for _ in range(2)])
    rep = generic_inverse(a, 0)
    assert_diagonalized(a, rep)
    assert_det_multiples(a, rep)


@pytest.mark.parametrize("p", [2, 3, 97])
def test_inverse_with_a_common_factor_in_a_4x4_column(p):
    # x + 1 divides column 2, so the 3 x 3 minors that keep it share that factor
    fld, rng = pk.get_field(p), np.random.default_rng(p)
    factor = PolyMatrix.from_lists(fld, [[[1, 1]]])
    checked = 0
    while checked < 4:
        a = pk.rand_instance(4, 4, 2, int(rng.integers(0, 2**31)), field=fld)
        a = PolyMatrix.hstack([a.take_cols([0, 1]), pm_mul(a.take_cols([2]), factor),
                               a.take_cols([3])])
        if laplace_det(a).is_zero():
            continue
        rep = generic_inverse(a, 0)
        assert_diagonalized(a, rep)
        assert_det_multiples(a, rep)
        checked += 1


@pytest.mark.parametrize("p, n", [(p, n) for p in (65537, 2013265921) for n in (4, 8)])
def test_4x4_base_case_matches_per_half_calls(p, n):
    # on generic input each scaled adjugate row is the minimal recursion's transform row
    fld, rng = pk.get_field(p), np.random.default_rng(n)
    for d in (1, 2, 4):
        a = nonsingular_at_zero(fld, n, d, rng)
        transform, diagonal = per_half_inverse(a)
        rep = generic_inverse(a, 0)
        assert rep.transform == transform and rep.diagonal == diagonal


@pytest.mark.parametrize("n, d", [(n, d) for n in (2, 4, 8, 16) for d in (1, 3)])
def test_2x2_level_needs_no_order_basis(fd, rng, n, d, monkeypatch):
    # blocks of at most 4 x 4 take their transform rows in closed form: no kernel problem
    # has 4 rows or fewer
    rows = []

    def spy(a, bases, degrees, cap, field, inner=nullspace._select):
        rows.extend([a.shape[2]] * a.shape[1])
        return inner(a, bases, degrees, cap, field)

    monkeypatch.setattr(nullspace, "_select", spy)  # both recursions' sweep, at every cap
    a = nonsingular_at_zero(fd, n, d, rng)
    generic_inverse(a, 0)
    generic_det(a, 0)
    assert all(r > 4 for r in rows)
    assert bool(rows) == (n > 4)


def test_inverse_builds_as_many_matrices_at_every_size(fd, monkeypatch):
    # the levels and their kernel sweeps run on residue arrays: only the boundary builds
    # PolyMatrix objects, so their number does not grow with the number of levels
    built = []
    real = PolyMatrix._adopt

    def counted(self, *args):
        built.append(1)
        return real(self, *args)

    mats = [pk.rand_instance(n, n, 4, n, field=fd) for n in (8, 32)]
    for a in mats:
        generic_inverse(a, 0)  # warm: the NTT tables are built once per length
    monkeypatch.setattr(PolyMatrix, "_adopt", counted)
    counts = []
    for a in mats:
        built.clear()
        generic_inverse(a, 0)
        counts.append(len(built))
    assert counts[0] == counts[1]


# -- generic determinant -----------------------------------------------------

def test_det_constant(fd):
    a = PolyMatrix.constant(fd, np.array([[2, 1], [1, 1]]))
    assert generic_det(a, 0) == pk.Polynomial(fd, [1])


def test_det_anchor(fd):
    assert generic_det(anchor(fd), 0) == pk.Polynomial(fd, [1, 0, fd.p - 1])


def test_det_random_matches_oracle(fd, rng):
    for n in (2, 4):
        for d in (1, 2, 3):
            for _ in range(3):
                a = nonsingular_at_zero(fd, n, d, rng)
                assert generic_det(a, int(rng.integers(0, 2**31))) == det_by_interpolation(a)


def test_det_point_check_rejects_a_wrong_b11(fd, rng, monkeypatch):
    # b_11 + x^(deg + 1) is no constant times det A, and a 4 x 4 input takes no kernel, so no
    # degree check sees it: only the check at x1 != x0, after the rescaling at x0, does
    a = nonsingular_at_zero(fd, 4, 2, rng)
    mul = solvers.pm_mul

    def corrupt(x, y):
        out = mul(x, y)
        return out + PolyMatrix.identity(fd, 1).shift(out.degree + 1) if out.rows == 1 else out

    assert generic_det(a, 0) == det_by_interpolation(a)
    monkeypatch.setattr(solvers, "pm_mul", corrupt)
    with pytest.raises(SelfCheckFailure, match="det check"):
        generic_det(a, 0)


def right_half_times_x(fld, seed):
    """An 8 x 8 A whose right four columns are multiplied by x, so the right half's maximal
    minors share x^4: b_11 would be det A / x^4 times a constant."""
    a = pk.rand_instance(8, 8, 2, seed, field=fld)
    return PolyMatrix.hstack([a.take_cols(range(4)), a.take_cols(range(4, 8)).shift(1)])


@pytest.mark.parametrize("p", [2, 97])
def test_det_degree_check_rejects_a_shared_factor(p):
    # whatever x0 and x1 the seed draws, the right half's kernel degrees sum at least 4 below
    # their bound; a singular A gives 0, and over GF(2) det A can vanish on the whole field
    fld = pk.get_field(p)
    for seed in range(20):
        a = right_half_times_x(fld, seed)
        det = laplace_det(a).entry(0, 0)
        if p <= 8 * int_degree(a) and all(int(det(x)) == 0 for x in range(p)):
            with pytest.raises(FieldTooSmall):
                generic_det(a, seed)
        elif det.is_zero():
            assert generic_det(a, seed).is_zero()
        else:
            with pytest.raises(GenericityFailure, match="at size 8"):
                generic_det(a, seed)


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("n", [5, 6, 8])
def test_det_at_any_n_over_a_small_field(p, n):
    # a small field shows non-generic degrees often: the degree check rejects what it cannot
    # certify, and whatever returns is the exact determinant
    fld, returned = pk.get_field(p), 0
    for seed in range(12):
        a = pk.rand_instance(n, n, 2, seed, field=fld)
        det = laplace_det(a).entry(0, 0)
        try:
            got = generic_det(a, seed)
        except (GenericityFailure, FieldTooSmall) as exc:
            vanishes = all(int(det(x)) == 0 for x in range(p))
            assert isinstance(exc, FieldTooSmall) == (vanishes and p <= n * int_degree(a))
            continue
        assert got == det
        returned += 1
    assert returned


def assert_det_needs_no_genericity(p, n):
    """generic_det is the Laplace determinant on 200 seeded n x n inputs, or FieldTooSmall
    where det A vanishes on all of GF(p) and GF(p) has at most n deg A points."""
    fld, rng = pk.get_field(p), np.random.default_rng(p)
    for _ in range(200):
        a = pk.rand_instance(n, n, int(rng.integers(1, 4)), int(rng.integers(0, 2**31)), field=fld)
        det, seed = laplace_det(a).entry(0, 0), int(rng.integers(0, 2**31))
        if p <= n * int_degree(a) and all(int(det(x)) == 0 for x in range(p)):
            with pytest.raises(FieldTooSmall):
                generic_det(a, seed)
        else:
            assert generic_det(a, seed) == det


@pytest.mark.parametrize("p", [2, 3, 97])
def test_det_2x2_has_no_genericity_condition(p):
    assert_det_needs_no_genericity(p, 2)


@pytest.mark.parametrize("p", [2, 3, 97])
def test_det_4x4_has_no_genericity_condition(p):
    assert_det_needs_no_genericity(p, 4)


def test_det_singular_at_zero(fd):
    a = PolyMatrix.from_lists(fd, [[[0, 1], [0]], [[0], [0, 1]]])  # x I
    assert generic_det(a, 0) == pk.Polynomial(fd, [0, 0, 1])


def test_det_of_the_empty_matrix(fd):
    assert generic_det(PolyMatrix.zero(fd, 0, 0), 0) == pk.Polynomial(fd, [1])


@pytest.mark.parametrize("n", [4, 6])
def test_det_of_a_singular_input_is_zero(fd, n):
    a = pk.rand_instance(n, n, 2, 11, profile="planted-rank", rank=n - 1, field=fd)
    assert generic_det(a, 0).is_zero()


# -- every n: the recursions on diag(A, I) ------------------------------------

@pytest.mark.parametrize("p", [3, 97, 2**31 - 1])
@pytest.mark.parametrize("n", [3, 5, 6, 7, 12])
def test_inverse_at_any_n(p, n):
    fld = pk.get_field(p)
    for a in (pk.rand_instance(n, n, 2, n, field=fld), one_high_row_square(fld, n, 1, 6, n)):
        assert rank(a, 0) == n
        assert_diagonalized(a, generic_inverse(a, 0))


@pytest.mark.parametrize("p", [97, 2**31 - 1])
@pytest.mark.parametrize("n", [3, 5, 6, 7, 12])
def test_det_at_any_n(p, n):
    # GF(3) holds too few points to interpolate these determinants
    fld = pk.get_field(p)
    for a in (pk.rand_instance(n, n, 2, n, field=fld), one_high_row_square(fld, n, 1, 6, n)):
        assert generic_det(a, n) == det_by_interpolation(a)


# -- row reduction -----------------------------------------------------------

def assert_certified(a, r, cert):
    """The certificate row_reduce returns: T A = R and W R = A, exactly."""
    assert pm_mul(cert["transform"], a) == r
    assert pm_mul(cert["inverse"], r) == a


def nonreduced_p97(f97):
    """A = U0 B at p = 97: U0 unimodular of degree 3, so A is far from reduced."""
    rng = np.random.default_rng(97)
    n = 4
    low = np.zeros((4, n, n), dtype=np.int64)
    low[0] = np.eye(n, dtype=np.int64)
    i, j = np.tril_indices(n, -1)
    low[:, i, j] = rng.integers(1, 97, size=(4, i.size))  # unit lower triangular
    u0 = PolyMatrix(f97, low[:, rng.permutation(n)])
    return pm_mul(u0, pk.rand_instance(n, n, 2, 5, field=f97))


def one_high_row(fd):
    """Rows of degree 2 except one of degree 12."""
    arr = np.zeros((13, 4, 4), dtype=np.int64)
    arr[:3] = pk.rand_instance(4, 4, 2, 41, field=fd).coeffs
    arr[:, 2, :] = pk.rand_instance(1, 4, 12, 43, field=fd).coeffs[:, 0, :]
    return PolyMatrix(fd, arr)


def test_rowreduce_already_reduced_degrees(fd):
    a = PolyMatrix.from_lists(fd, [[[1], [0]], [[0], [1, 1]]])
    r, cert = row_reduce(a, 0)
    assert pk.is_row_reduced(r)
    assert_certified(a, r, cert)
    assert sorted(row_degrees(r)) == [0, 1]


def test_rowreduce_unimodular_input_gives_constant(fd):
    a = PolyMatrix.from_lists(fd, [[[1], [0, 1]], [[0, 1], [1, 0, 1]]])  # det = 1
    r, cert = row_reduce(a, 0)
    assert r.degree == 0
    assert_certified(a, r, cert)
    assert const_det(pm_eval(r, 0), fd.p) != 0


def test_rowreduce_anchor(fd):
    r, cert = row_reduce(anchor(fd), 0)
    assert pk.is_row_reduced(r)
    assert_certified(anchor(fd), r, cert)
    assert det_by_interpolation(r).degree == 2


def test_rowreduce_random(fd, rng):
    for trial in range(15):
        n = int(rng.integers(2, 6))
        d = int(rng.integers(1, 4))
        a = pk.rand_instance(n, n, d, int(rng.integers(0, 2**31)), field=fd)
        r, cert = row_reduce(a, int(rng.integers(0, 2**31)))
        assert pk.is_row_reduced(r)
        assert_certified(a, r, cert)
        assert det_by_interpolation(r).degree == det_by_interpolation(a).degree
        assert unimodular_equiv_check(a, r, seed=trial)


def test_rowreduce_nonreduced_input_p97(f97):
    a = nonreduced_p97(f97)
    assert not pk.is_row_reduced(a)
    r, cert = row_reduce(a, 3)
    assert pk.is_row_reduced(r)
    assert_certified(a, r, cert)
    # the transform is a genuine series truncation, not a constant
    assert cert["transform"].degree > 1
    assert det_by_interpolation(r).degree == det_by_interpolation(a).degree


def test_rowreduce_one_high_row(fd):
    a = one_high_row(fd)
    r, cert = row_reduce(a, 7)
    assert pk.is_row_reduced(r)
    assert_certified(a, r, cert)
    assert sum(row_degrees(r)) == det_by_interpolation(a).degree
    assert unimodular_equiv_check(a, r, seed=1)


def test_rowreduce_shifts_when_singular_at_zero(fd, rng):
    # x*I + (matrix vanishing at 0) forces det A(0) = 0
    base = pk.rand_instance(3, 3, 1, 171, field=fd)
    xi = PolyMatrix.from_lists(
        fd, [[[0, 1] if i == j else [0] for j in range(3)] for i in range(3)]
    )
    a = pm_mul(xi, base)
    if det_by_interpolation(a).is_zero():
        pytest.skip("random instance degenerate")
    r, cert = row_reduce(a, 5)
    assert cert["shift"] != 0
    assert pk.is_row_reduced(r)
    assert_certified(a, r, cert)
    assert unimodular_equiv_check(a, r, seed=9)


def test_rowreduce_singular_input_raises_singular(fd):
    a = pk.rand_instance(4, 4, 2, 11, profile="planted-rank", rank=3, field=fd)
    with pytest.raises(SingularInput):
        row_reduce(a, 0)


def test_rowreduce_field_exhausted_raises_field_too_small():
    f5 = pk.get_field(5)
    a = PolyMatrix.from_lists(f5, [[[0, 4, 0, 0, 0, 1]]])  # x^5 - x vanishes on GF(5)
    with pytest.raises(FieldTooSmall):
        row_reduce(a, 0)


def test_rowreduce_singular_over_small_field_raises_singular():
    # det A = 0, and GF(2) has too few points to show it by evaluation
    f2 = pk.get_field(2)
    a = PolyMatrix.from_lists(f2, [[[0, 1], [0, 0, 1]], [[1], [0, 1]]])
    with pytest.raises(SingularInput):
        row_reduce(a, 0)


def test_rowreduce_empty_matrix(fd):
    a = PolyMatrix.zero(fd, 0, 0)
    reduced, cert = row_reduce(a, seed=1)
    assert reduced == a and cert["transform"] == a and cert["inverse"] == a


def test_rowreduce_constant_input(fd):
    a = PolyMatrix.constant(fd, np.array([[1, 2], [3, 5]]))
    r, cert = row_reduce(a, 0)
    assert r == a
    assert_certified(a, r, cert)


@pytest.mark.parametrize("c, cause", [(1, "W R = A"), (0, "singular at x0")])
def test_rowreduce_rejects_wrong_denominator(fd, monkeypatch, c, cause):
    # rows of degree 0 and 3; R with its degree-0 row times (x + c), in the
    # shifted variable, lies in A's row module but is not equivalent to A
    a = PolyMatrix.from_lists(fd, [[[1], [2]], [[0, 1, 0, 1], [1, 0, 1]]])

    def perturbed(f, dl, dr):
        fact = matfrac_rec(f, dl, dr)
        m = PolyMatrix.from_lists(f.field, [[[c, 1], [0]], [[0], [1]]])
        return LeftFactorization(fact.numerator, pm_mul(m, fact.denominator))

    monkeypatch.setattr(solvers, "matfrac_rec", perturbed)
    with pytest.raises(ReconstructionFailure, match=cause):
        row_reduce(a, 3)


def test_solvers_reject_non_square(fd):
    a = pk.rand_instance(2, 3, 1, 3, field=fd)
    for call in (generic_det, generic_inverse, row_reduce):
        with pytest.raises(NotSquare):
            call(a, 0)
    with pytest.raises(NotSquare):
        left_factorization(pk.rand_instance(2, 3, 1, 4, field=fd), a, 0)
    with pytest.raises(DimensionMismatch):
        left_factorization(a, anchor(fd), 0)  # B has 3 columns, A has 2


# -- self-checks: a wrong intermediate result raises the typed error ----------

def bumped(m: PolyMatrix) -> PolyMatrix:
    """m plus 1 in the constant coefficient of entry (0, 0)."""
    coeffs = np.zeros((max(m.coeffs.shape[0], 1), m.rows, m.cols), dtype=np.int64)
    coeffs[:m.coeffs.shape[0]] = m.coeffs
    coeffs[0, 0, 0] += 1
    return PolyMatrix(m.field, coeffs)


def test_inverse_rejects_a_wrong_diagonalization_product(fd, monkeypatch):
    monkeypatch.setattr(solvers, "pm_mul", lambda a, b: bumped(pm_mul(a, b)))
    with pytest.raises(SelfCheckFailure, match="diagonalization product check failed"):
        generic_inverse(anchor(fd), 0)


def test_certify_rejects_a_non_reduced_r(fd):
    r = PolyMatrix.from_lists(fd, [[[1], [0, 1]], [[1], [0, 1]]])  # leading row matrix singular
    with pytest.raises(CertificateFailure, match="R is not row-reduced"):
        solvers._certify(anchor(fd), r, 0)


def test_certify_rejects_an_r_not_equivalent_to_a(fd):
    # diag(x + 1, 1) A is row-reduced and in A's row module, but T = diag(x + 1, 1)
    # exceeds the Cramer bound on deg T, so the truncated T fails T A = R
    a = anchor(fd)
    r = pm_mul(PolyMatrix.from_lists(fd, [[[1, 1], [0]], [[0], [1]]]), a)
    with pytest.raises(CertificateFailure, match="T A = R check failed"):
        solvers._certify(a, r, 0)


def test_factor_rejects_a_wrong_nullspace_row(fd, monkeypatch):
    def wrong_kernels(a, counts, delta, field):
        rows, found = _kernel_bases(a, counts, delta, field)
        return bumped(PolyMatrix._canonical(field, rows[:, 0])).coeffs[:, None], found

    monkeypatch.setattr(solvers, "_kernel_bases", wrong_kernels)
    with pytest.raises(CertificateFailure, match="U A = V B product check failed"):
        left_factorization(PolyMatrix.identity(fd, 2), anchor(fd), 0)


# -- left factorization ------------------------------------------------------

def test_factor_b_zero(fd):
    a = anchor(fd)
    b = PolyMatrix.zero(fd, 2, 2)
    fact = left_factorization(b, a, 0)
    assert fact.numerator.is_zero()
    assert crank(pm_eval(fact.denominator, 5), fd.p) == 2


def test_factor_scalar(fd):
    a = PolyMatrix.from_lists(fd, [[[1, fd.p - 1]]])  # 1 - x
    b = PolyMatrix.identity(fd, 1)
    fact = left_factorization(b, a, 0)
    assert pm_mul(fact.numerator, a) == pm_mul(fact.denominator, b)
    # (U, V) = c (1, 1-x)
    c = int(fact.numerator.coeffs[0, 0, 0])
    assert c != 0
    assert fact.denominator == a * c


def test_factor_b_equals_a(fd):
    a = anchor(fd)
    fact = left_factorization(a, a, 0)
    assert pm_mul(fact.numerator, a) == pm_mul(fact.denominator, a)


def test_factor_random(fd, rng):
    done = 0
    while done < 15:
        n = int(rng.integers(1, 5))
        d = int(rng.integers(0, 4))
        a = pk.rand_instance(n, n, d, int(rng.integers(0, 2**31)), field=fd)
        if det_by_interpolation(a).is_zero():
            continue
        m = int(rng.integers(1, 4))
        b = pk.rand_instance(m, n, d, int(rng.integers(0, 2**31)), field=fd)
        fact = left_factorization(b, a, int(rng.integers(0, 2**31)))
        assert pm_mul(fact.numerator, a) == pm_mul(fact.denominator, b)
        x0 = int(rng.integers(0, fd.p))
        assert crank(pm_eval(fact.denominator, x0), fd.p) == m
        done += 1


def test_factor_over_gf2_without_a_regular_point():
    # A = diag(x^2 + x, 1) is singular at both points of GF(2) but non-singular
    f2 = pk.get_field(2)
    a = PolyMatrix.from_lists(f2, [[[0, 1, 1], [0]], [[0], [1]]])
    b = PolyMatrix.from_lists(f2, [[[1], [0, 1]]])
    for seed in range(3):
        fact = left_factorization(b, a, seed)
        assert naive_mul(fact.numerator, a) == naive_mul(fact.denominator, b)
        assert not fact.denominator.entry(0, 0).is_zero()
    singular = PolyMatrix.from_lists(f2, [[[0, 1], [0, 0, 1]], [[1], [0, 1]]])
    with pytest.raises(SingularInput):
        left_factorization(b, singular, 0)


def test_factor_over_gf3(rng):
    f3 = pk.get_field(3)
    for seed in range(4):
        a = pk.rand_instance(3, 3, 2, seed, field=f3)
        b = pk.rand_instance(2, 3, 2, seed + 100, field=f3)
        fact = left_factorization(b, a, int(rng.integers(0, 2**31)))
        assert naive_mul(fact.numerator, a) == naive_mul(fact.denominator, b)
        v = fact.denominator.entry
        assert not (v(0, 0) * v(1, 1) - v(0, 1) * v(1, 0)).is_zero()  # V non-singular


def test_factor_singular_a_rejected(fd):
    a = PolyMatrix.from_lists(fd, [[[0, 1], [0, 0, 1]], [[1], [0, 1]]])
    b = PolyMatrix.identity(fd, 2)
    with pytest.raises(SingularInput):
        left_factorization(b, a, 0)


def test_factor_mixed_primes_rejected_before_nullspace(f97, monkeypatch):
    def no_nullspace(*args):
        raise AssertionError("the kernel sweep ran on operands over two primes")

    monkeypatch.setattr(solvers, "_kernel_bases", no_nullspace)
    a = anchor(pk.get_field(2**31 - 1))
    with pytest.raises(PrimeMismatch, match="p=2147483647 and p=97"):
        left_factorization(PolyMatrix.identity(f97, 2), a, 0)
