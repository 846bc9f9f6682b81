import numpy as np
import pytest

import polymatkit as pk
from polymatkit.errors import (CapTooSmall, DimensionMismatch, FieldTooSmall, NotSquare,
                               SingularInput)
from polymatkit.oracle import (
    det_by_interpolation,
    is_unimodular,
    minimal_basis_bruteforce,
    naive_mul,
    nullspace_bruteforce,
    true_rank,
    unimodular_equiv_check,
)
from polymatkit.polymat import PolyMatrix, SeriesMatrix


def anchor(fd):
    return PolyMatrix.from_lists(fd, [[[1], [0, 1]], [[0, 1], [1]]])


def test_naive_mul_identity_and_zero(fd):
    a = pk.rand_instance(3, 3, 2, 1, field=fd)
    assert naive_mul(a, PolyMatrix.identity(fd, 3)) == a
    assert naive_mul(a, PolyMatrix.zero(fd, 3, 2)).is_zero()


def test_det_interpolation_examples(fd):
    assert det_by_interpolation(PolyMatrix.identity(fd, 3)) == pk.Polynomial(fd, [1])
    assert det_by_interpolation(anchor(fd)) == pk.Polynomial(fd, [1, 0, fd.p - 1])
    diag = PolyMatrix.from_lists(fd, [[[1, fd.p - 1], [0]], [[0], [1, 1]]])
    assert det_by_interpolation(diag) == pk.Polynomial(fd, [1, 0, fd.p - 1])


def test_det_multiplicativity(fd, rng):
    for _ in range(5):
        a = pk.rand_instance(3, 3, 2, int(rng.integers(0, 2**31)), field=fd)
        b = pk.rand_instance(3, 3, 2, int(rng.integers(0, 2**31)), field=fd)
        got = det_by_interpolation(pk.pm_mul(a, b))
        assert got == det_by_interpolation(a) * det_by_interpolation(b)


def test_bruteforce_basis_zero_input(f97):
    f = SeriesMatrix.zero(f97, 2, 2, 1)
    basis = minimal_basis_bruteforce(f, 2)
    assert sorted(basis.row_degrees) == [0, 0]


def test_bruteforce_basis_column(f97):
    arr = np.zeros((2, 2, 1), dtype=np.int64)
    arr[1, 0, 0] = 1  # x
    arr[0, 1, 0] = 1  # 1
    basis = minimal_basis_bruteforce(SeriesMatrix(f97, 2, arr), 2)
    assert sorted(basis.row_degrees) == [1, 1]


def test_bruteforce_basis_scalar(f97):
    arr = np.zeros((3, 1, 1), dtype=np.int64)
    arr[0, 0, 0] = 1
    basis = minimal_basis_bruteforce(SeriesMatrix(f97, 3, arr), 3)
    assert basis.row_degrees == [3]


def test_bruteforce_basis_size_guard(f97):
    with pytest.raises(ValueError):
        minimal_basis_bruteforce(SeriesMatrix.zero(f97, 9, 2, 1), 9)


def test_true_rank(fd):
    assert true_rank(PolyMatrix.identity(fd, 4)) == 4
    sing = PolyMatrix.from_lists(fd, [[[0, 1], [0, 0, 1]], [[1], [0, 1]]])
    assert true_rank(sing) == 1


def test_true_rank_exact_over_gf2():
    # diag(x^2 + x, 1) is singular at every point of GF(2), yet has rank 2
    f2 = pk.get_field(2)
    a = PolyMatrix.from_lists(f2, [[[0, 1, 1], [0]], [[0], [1]]])
    assert true_rank(a) == 2
    assert true_rank(a.transpose()) == 2
    assert true_rank(PolyMatrix.zero(f2, 0, 3)) == 0
    assert true_rank(PolyMatrix.zero(f2, 3, 2)) == 0
    assert nullspace_bruteforce(a, 2).row_count == 0
    with pytest.raises(ValueError):
        true_rank(pk.rand_instance(8, 8, 8, 1, field=f2))


def test_nullspace_bruteforce_examples(fd):
    assert nullspace_bruteforce(PolyMatrix.identity(fd, 2), 1).row_count == 0
    sing = PolyMatrix.from_lists(fd, [[[0, 1], [0, 0, 1]], [[1], [0, 1]]])
    ns = nullspace_bruteforce(sing, 1)
    assert ns.row_count == 1
    assert ns.kronecker_degrees == [1]
    assert pk.pm_mul(ns.matrix, sing).is_zero()
    z = nullspace_bruteforce(PolyMatrix.zero(fd, 2, 2), 0)
    assert z.row_count == 2
    assert z.kronecker_degrees == [0, 0]


def test_nullspace_bruteforce_cap_too_small(fd):
    sing = PolyMatrix.from_lists(fd, [[[0, 1], [0, 0, 1]], [[1], [0, 1]]])
    with pytest.raises(CapTooSmall):
        nullspace_bruteforce(sing, 0)


def test_unimodular_equiv_trivial(fd, rng):
    a = pk.rand_instance(2, 2, 2, 301, field=fd)
    if det_by_interpolation(a).is_zero():
        pytest.skip("degenerate random matrix")
    assert unimodular_equiv_check(a, a, seed=1)
    u = PolyMatrix.from_lists(fd, [[[1], [0, 1]], [[0], [1]]])
    assert unimodular_equiv_check(a, pk.pm_mul(u, a), seed=1)


def test_unimodular_equiv_false(fd):
    a = PolyMatrix.from_lists(fd, [[[1], [0]], [[0], [1, fd.p - 1]]])
    r = PolyMatrix.from_lists(fd, [[[1], [0]], [[0], [1, 1]]])
    assert not unimodular_equiv_check(a, r, seed=1)


def test_unimodular_equiv_singular_reference(fd):
    sing = PolyMatrix.from_lists(fd, [[[0, 1], [0, 0, 1]], [[1], [0, 1]]])
    with pytest.raises(SingularInput):
        unimodular_equiv_check(sing, sing, seed=1)


def test_unimodular_equiv_non_square_reference(fd):
    # shape is checked before the non-singularity certificate, which needs det
    a = pk.rand_instance(2, 3, 1, 303, field=fd)
    with pytest.raises(DimensionMismatch):
        unimodular_equiv_check(a, a, seed=1)


def test_is_unimodular(fd):
    assert is_unimodular(PolyMatrix.identity(fd, 3))
    diag = PolyMatrix.from_lists(fd, [[[1, 0, fd.p - 1], [0]], [[0], [1]]])
    assert not is_unimodular(diag)
    tri = PolyMatrix.from_lists(fd, [[[1], [0, 1]], [[0], [1]]])
    assert is_unimodular(tri)
    # [[1, x^2 + 1], [0, 1]] [[1, 0], [x^3, 1]]: degree 5, det 1
    upper = PolyMatrix.from_lists(fd, [[[1], [1, 0, 1]], [[0], [1]]])
    lower = PolyMatrix.from_lists(fd, [[[1], [0]], [[0, 0, 0, 1], [1]]])
    assert is_unimodular(pk.pm_mul(upper, lower))
    # det x^2 - x + 1 takes the value 1 at both x = 0 and x = 1
    same_at_0_1 = PolyMatrix.from_lists(fd, [[[1, fd.p - 1, 1], [0]], [[0], [1]]])
    assert not is_unimodular(same_at_0_1)
    with pytest.raises(NotSquare):
        is_unimodular(PolyMatrix.zero(fd, 2, 3))
    with pytest.raises(FieldTooSmall):  # needs 2 * 2 + 1 points
        is_unimodular(PolyMatrix.from_lists(pk.get_field(3), [[[1, 0, 1], [0]], [[0], [1]]]))
