import numpy as np
import pytest

import polymatkit as pk
from polymatkit.errors import OrderExceedsData, WrongRowCount
from polymatkit.fraction import proper_tail
from polymatkit.oracle import det_by_interpolation
from polymatkit.linalg import det as const_det, rank as crank
from polymatkit.polymat import (
    PolyMatrix,
    SeriesMatrix,
    leading_row_matrix,
    pm_eval,
    pm_mul,
    pm_truncate,
)
from polymatkit.reconstruct import matfrac_rec


def anchor(fd):
    return PolyMatrix.from_lists(fd, [[[1], [0, 1]], [[0, 1], [1]]])


def test_zero_expansion(fd):
    f = SeriesMatrix.zero(fd, 1, 2, 2)
    fact = matfrac_rec(f, 0, 0)
    assert fact.numerator.is_zero()
    assert fact.denominator.degree == 0
    assert const_det(pm_eval(fact.denominator, 0), fd.p) != 0


def test_scalar_geometric(fd):
    # H = 1/(1-x): expansion 1,1,1
    f = SeriesMatrix(fd, 3, np.ones((3, 1, 1), dtype=np.int64))
    fact = matfrac_rec(f, 1, 1)
    u, v = fact.numerator, fact.denominator
    assert v.degree == 1
    # V = c(1-x), U = c
    c = int(u.coeffs[0, 0, 0])
    assert c != 0
    assert list(v.coeffs[:, 0, 0]) == [c, (-c) % fd.p]
    prod = pm_truncate(pm_mul(v, f.to_polymat()), 3)
    assert prod == pm_truncate(u.to_series(3), 3)


def test_anchor_det_degree(fd):
    data = proper_tail(anchor(fd), 2, 3)
    fact = matfrac_rec(data.tail, 1, 1)
    dv = det_by_interpolation(fact.denominator)
    assert dv.degree == 2


def test_wrong_row_count_on_bad_degrees(fd):
    # H = x admits no denominator of degree 0: the order basis has no
    # constant rows, so the row-count precondition check fires
    arr = np.zeros((2, 1, 1), dtype=np.int64)
    arr[1, 0, 0] = 1
    f = SeriesMatrix(fd, 2, arr)
    with pytest.raises(WrongRowCount):
        matfrac_rec(f, 0, 1)


def test_order_too_small(fd):
    f = SeriesMatrix.zero(fd, 2, 2, 2)
    with pytest.raises(OrderExceedsData):
        matfrac_rec(f, 1, 1)


def test_round_trip_random(fd, rng):
    for trial in range(20):
        n = int(rng.integers(2, 7))
        d = int(rng.integers(1, 5))
        while True:
            a = pk.rand_instance(n, n, d, int(rng.integers(0, 2**31)), field=fd)
            if const_det(pm_eval(a, 0), fd.p) != 0:
                break
        h = (n - 1) * d + 1
        data = proper_tail(a, h, 2 * d + 1)
        fact = matfrac_rec(data.tail, d, d)
        # right numerator: H = (HA) A^{-1} with HA = (I - S_h A) / x^h
        from polymatkit.fraction import exact_x_power_divide, truncated_inverse
        s = truncated_inverse(a, h).to_polymat()
        b_right = exact_x_power_divide(PolyMatrix.identity(fd, n) - pm_mul(s, a), h)
        # H = V^{-1} U and H = B_r A^{-1}  =>  U A = V B_r
        assert pm_mul(fact.numerator, a) == pm_mul(fact.denominator, b_right)
        # coprimeness consequence: deg det V = deg det A
        assert det_by_interpolation(fact.denominator).degree == \
            det_by_interpolation(a).degree


def test_selected_block_row_reduced(fd, rng):
    # the [U V] block is row-reduced with leading matrix [0 L], L nonsingular
    for _ in range(10):
        n, d = 3, 2
        while True:
            a = pk.rand_instance(n, n, d, int(rng.integers(0, 2**31)), field=fd)
            if const_det(pm_eval(a, 0), fd.p) != 0:
                break
        data = proper_tail(a, (n - 1) * d + 1, 2 * d + 1)
        fact = matfrac_rec(data.tail, d, d)
        block = PolyMatrix.hstack([fact.numerator, fact.denominator])
        lead = leading_row_matrix(block)
        assert not lead[:, :n].any()  # [0 | L]
        assert crank(lead[:, n:], fd.p) == n


def test_strict_properness_row_degrees(fd, rng):
    from polymatkit.poly import MINUS_INFINITY
    from polymatkit.polymat import row_degrees

    n, d = 3, 2
    while True:
        a = pk.rand_instance(n, n, d, int(rng.integers(0, 2**31)), field=fd)
        if const_det(pm_eval(a, 0), fd.p) != 0:
            break
    data = proper_tail(a, (n - 1) * d + 1, 2 * d + 1)
    fact = matfrac_rec(data.tail, d, d)
    du = row_degrees(fact.numerator)
    dv = row_degrees(fact.denominator)
    for x, y in zip(du, dv):
        assert x == MINUS_INFINITY or x < y
