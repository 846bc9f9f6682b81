import bisect

import numpy as np
import pytest

import polymatkit as pk
from polymatkit import fraction, ntt, polymat
from polymatkit.errors import DimensionMismatch, NotSquare, PrimeMismatch, SingularAtZero
from polymatkit.field import DEFAULT_PRIME
from polymatkit.fraction import (
    exact_x_power_divide,
    expansion_slice,
    proper_tail,
    truncated_inverse,
)
from polymatkit.linalg import det as const_det
from polymatkit.oracle import naive_mul
from polymatkit.polymat import PolyMatrix, SeriesMatrix, int_degree, pm_eval, pm_mul, pm_truncate


def anchor(fd):
    return PolyMatrix.from_lists(fd, [[[1], [0, 1]], [[0, 1], [1]]])


def nonsingular_at_zero(fd, n, d, seed):
    rng = np.random.default_rng(seed)
    while True:
        a = pk.rand_instance(n, n, d, int(rng.integers(0, 2**31)), field=fd)
        if const_det(pm_eval(a, 0), fd.p) != 0:
            return a


def test_truncated_inverse_identity(fd):
    s = truncated_inverse(PolyMatrix.identity(fd, 3), 5)
    assert s.to_polymat() == PolyMatrix.identity(fd, 3)


def test_truncated_inverse_geometric(fd):
    a = PolyMatrix.from_lists(fd, [[[1, fd.p - 1]]])  # [[1 - x]]
    s = truncated_inverse(a, 4)
    assert list(s.coeffs[:, 0, 0]) == [1, 1, 1, 1]


def test_truncated_inverse_anchor(fd):
    s = truncated_inverse(anchor(fd), 4)
    m1 = np.array([[0, fd.p - 1], [fd.p - 1, 0]])
    assert np.array_equal(s.coeffs[0], np.eye(2, dtype=np.int64))
    assert np.array_equal(s.coeffs[1], m1)
    assert np.array_equal(s.coeffs[2], np.eye(2, dtype=np.int64))
    assert np.array_equal(s.coeffs[3], m1)


def test_truncated_inverse_product_check(fd, rng):
    for _ in range(30):
        n = int(rng.integers(1, 9))
        d = int(rng.integers(0, 9))
        k = int(rng.integers(1, 65))
        a = nonsingular_at_zero(fd, n, d, int(rng.integers(0, 2**31)))
        s = truncated_inverse(a, k)
        prod = pm_truncate(pm_mul(a, s.to_polymat()), k)
        assert prod == pm_truncate(PolyMatrix.identity(fd, n).to_series(k), k)


@pytest.mark.parametrize("p", [97, 65537, 2**31 - 1, DEFAULT_PRIME])
def test_truncated_inverse_orders(p):
    # each order of the ceil-halving schedule, with deg A both below and above k
    fld = pk.get_field(p)
    rng = np.random.default_rng(p)
    for k in (1, 2, 3, 16, 17, 64, 65, int(rng.integers(4, 80))):
        for d in (int(rng.integers(0, k)), k + int(rng.integers(0, 5))):
            a = nonsingular_at_zero(fld, 3, d, int(rng.integers(0, 2**31)))
            s = truncated_inverse(a, k)
            assert s.order == k
            prod = pm_truncate(naive_mul(a, s.to_polymat()), k)
            assert prod == PolyMatrix.identity(fld, 3), (p, k, d)


def test_truncated_inverse_no_padding_cliff(fd, monkeypatch):
    # counts transform points, not time: one order past a power of two must
    # not push the Newton products to the next transform length
    a = nonsingular_at_zero(fd, 4, 40, 5)
    points = []
    ntt_fn = ntt.ntt

    def counting_ntt(arr, *args, **kwargs):
        points[-1] += arr.size
        return ntt_fn(arr, *args, **kwargs)

    monkeypatch.setattr(ntt, "ntt", counting_ntt)
    for k in (128, 129):
        points.append(0)
        truncated_inverse(a, k)
    assert 0 < points[1] <= 1.25 * points[0], points


def test_truncated_inverse_zero_order(fd):
    s = truncated_inverse(anchor(fd), 0)
    assert s.order == 0 and s.coeffs.shape == (0, 2, 2)


def test_fraction_entry_points_reject_bad_arguments(fd):
    a = anchor(fd)
    rect = pk.rand_instance(3, 2, 2, 1, field=fd)
    b = PolyMatrix.identity(fd, 2)
    with pytest.raises(NotSquare):
        truncated_inverse(rect, 4)
    with pytest.raises(NotSquare):
        expansion_slice(rect, rect, 5, 2)
    with pytest.raises(NotSquare):
        proper_tail(rect, 10, 2)
    with pytest.raises(DimensionMismatch):
        expansion_slice(a, rect, 5, 2)
    with pytest.raises(PrimeMismatch):
        expansion_slice(a, PolyMatrix.identity(pk.get_field(97), 2), 5, 2)
    for bad in (
        lambda: truncated_inverse(a, -1),
        lambda: expansion_slice(a, b, -3, 2),
        lambda: expansion_slice(a, b, 3, -1),
        lambda: proper_tail(a, -2, 3),
        lambda: proper_tail(a, 10, -1),
    ):
        with pytest.raises(ValueError, match="nonnegative"):
            bad()


def test_truncated_inverse_singular_at_zero(fd):
    a = PolyMatrix.from_lists(fd, [[[0, 1]]])  # [[x]]
    with pytest.raises(SingularAtZero):
        truncated_inverse(a, 3)


def test_expansion_slice_low_window(fd):
    a = anchor(fd)
    sl = expansion_slice(a, a, 0, 1)
    assert np.array_equal(sl.coeffs[0], np.eye(2, dtype=np.int64))


def test_expansion_slice_anchor(fd):
    sl = expansion_slice(anchor(fd), PolyMatrix.identity(fd, 2), 2, 2)
    assert np.array_equal(sl.coeffs[0], np.eye(2, dtype=np.int64))
    assert np.array_equal(sl.coeffs[1], np.array([[0, fd.p - 1], [fd.p - 1, 0]]))


def test_expansion_slice_geometric_far(fd):
    a = PolyMatrix.from_lists(fd, [[[1, fd.p - 1]]])
    b = PolyMatrix.identity(fd, 1)
    sl = expansion_slice(a, b, 100, 3)
    assert list(sl.coeffs[:, 0, 0]) == [1, 1, 1]


def newton_window(a, b, h, delta):
    """F_h..F_{h+delta-1} of A^{-1} B from one truncated inverse, engine-free."""
    s = truncated_inverse(a, h + delta).to_polymat()
    return pm_mul(s, b).to_series(h + delta).coeffs[h:]


def crossover(n, d):
    """The least h at which the engine rule picks lifting for an n x n A of degree d."""
    return bisect.bisect_left(range(2**20), True, key=lambda h: not fraction._newton_wins(n, d, h))


def test_expansion_slice_around_crossover(fd, rng):
    for trial in range(12):
        n = int(rng.integers(1, 6))
        d = int(rng.integers(1, 6))
        a = nonsingular_at_zero(fd, n, d, int(rng.integers(0, 2**31)))
        cross = crossover(n, int_degree(a))
        for db in (0, d):
            b = pk.rand_instance(
                n, int(rng.integers(1, 4)), db, int(rng.integers(0, 2**31)), field=fd
            )
            hs = (cross + db - 1, cross + db, cross + db + 1,
                  int(rng.integers(cross + db + 2, cross + db + 40 * d + 40)))
            for h in hs:
                delta = int(rng.integers(1, 12))
                got = expansion_slice(a, b, h, delta).coeffs
                assert np.array_equal(got, newton_window(a, b, h, delta)), (trial, n, d, db, h)


def test_expansion_slice_numerator_above_order(fd, rng):
    for trial in range(8):
        n = int(rng.integers(1, 5))
        d = int(rng.integers(1, 4))
        a = nonsingular_at_zero(fd, n, d, int(rng.integers(0, 2**31)))
        db = int(rng.integers(d + 1, 4 * d + 3))
        b = pk.rand_instance(n, 2, db, int(rng.integers(0, 2**31)), field=fd)
        for h in (0, db - 1, db + crossover(n, int_degree(a)) + 5):
            got = expansion_slice(a, b, h, 6).coeffs
            assert np.array_equal(got, newton_window(a, b, h, 6)), (trial, n, d, db, h)


def test_proper_tail_scalar(fd):
    a = PolyMatrix.from_lists(fd, [[[1, fd.p - 1]]])  # 1 - x, n=1 d=1, h=1
    data = proper_tail(a, 1, 3)
    assert list(data.tail.coeffs[:, 0, 0]) == [1, 1, 1]
    assert data.numerator == PolyMatrix.identity(fd, 1)


def test_proper_tail_anchor(fd):
    data = proper_tail(anchor(fd), 2, 3)
    assert data.numerator == PolyMatrix.identity(fd, 2)
    # tail equals the expansion of the inverse shifted by h=2
    s = truncated_inverse(anchor(fd), 5)
    assert np.array_equal(data.tail.coeffs, s.coeffs[2:5])


def test_proper_tail_identity(fd):
    data = proper_tail(PolyMatrix.identity(fd, 2), 1, 2)
    assert data.numerator.is_zero()
    assert not data.tail.coeffs.any()


def test_proper_tail_invariants_random(fd, rng):
    from polymatkit.poly import MINUS_INFINITY

    for _ in range(20):
        n = int(rng.integers(2, 7))
        d = int(rng.integers(1, 5))
        a = nonsingular_at_zero(fd, n, d, int(rng.integers(0, 2**31)))
        h = (n - 1) * d + 1
        data = proper_tail(a, h, 2 * d + 1)
        numdeg = data.numerator.degree
        assert numdeg == MINUS_INFINITY or numdeg < d
        # A * H === B mod x^sigma
        prod = pm_truncate(pm_mul(a, data.tail.to_polymat()), 2 * d + 1)
        assert prod == pm_truncate(data.numerator.to_series(2 * d + 1), 2 * d + 1)


def test_proper_tail_lifting_side(fd, rng):
    for n, d in ((32, 1), (24, 3)):
        a = nonsingular_at_zero(fd, n, d, int(rng.integers(0, 2**31)))
        h = (n - 1) * d + 1
        assert int_degree(a) == d and not fraction._newton_wins(n, d, h)
        data = proper_tail(a, h, 2 * d + 1)
        s = truncated_inverse(a, h + 2 * d + 1)
        ident = PolyMatrix.identity(fd, n)
        want = exact_x_power_divide(ident - pm_mul(a, pm_truncate(s, h)), h)
        assert data.numerator == want
        assert np.array_equal(data.tail.coeffs, s.coeffs[h:])


def test_proper_tail_rejects_small_h(fd):
    a = anchor(fd)
    with pytest.raises(ValueError):
        proper_tail(a, 1, 3)  # need h > (n-1)d = 1


def expansion_input(fld, n, d, rng):
    """A of degree exactly d with A(0) unit lower triangular, so non-singular at 0."""
    c = rng.integers(0, fld.p, size=(d + 1, n, n))
    c[0] = np.tril(c[0], -1) + np.eye(n, dtype=np.int64)
    if d:
        c[d, 0, 0] = 1
    return PolyMatrix(fld, c)


def lift_c(d, h):
    """When _expand lifts, its chain ends in [h - c, h] and it runs Newton to c + width."""
    return h - max(h // d - 1, 0) * d


def lift_orders(d, h, width):
    """The lifting chain _expand runs for a degree-d A when _newton_wins says no."""
    c = lift_c(d, h)
    return fraction._lift_plan(h, d, c, c + width)


def plan_calls(orders, d):
    """Kernel calls of a chain: one for a start t_0 > 0, three per doubling, two per increment."""
    steps = zip(orders, orders[1:])
    return (orders[0] > 0) + sum(3 if u == 2 * t + d else 2 for t, u in steps)


def binary_chain_calls(d, h):
    """Kernel calls of the chain from R_0 = I along the bits of h // d: a doubling per
    bit after the leading one, and a step by d after each doubling into a one bit."""
    bits = bin(h // d)[3:]
    return 3 * len(bits) + 2 * bits.count("1")


def test_lift_plan_is_valid_and_never_costlier_than_the_binary_chain():
    for d in range(1, 17):
        for width in range(0, 2 * d + 1):
            for h in (*range(0, 4 * d + width + 2), *range(5, 2**14 + 1, 101)):
                c = lift_c(d, h)
                k = c + width
                orders = fraction._lift_plan(h, d, c, k)
                assert 0 <= orders[0] <= k and h - c <= orders[-1] <= h, (d, width, h, orders)
                for t, u in zip(orders, orders[1:]):
                    assert t > 0 and (u == 2 * t + d or 1 <= u - t <= d), (d, width, h, orders)
                assert plan_calls(orders, d) <= binary_chain_calls(d, h), (d, width, h, orders)


def test_lift_plan_makes_the_fewest_calls():
    # against every chain, by a shortest-path sweep over the orders 0..h
    for d in range(1, 7):
        for width in range(0, 2 * d + 1):
            for h in range(0, 160):
                c = lift_c(d, h)
                k = c + width
                best = [0] + [1 if t <= k else h * 3 for t in range(1, h + 1)]
                for t in range(k + 1, h + 1):
                    best[t] = min(best[t], 2 + min(best[max(t - d, 1):t]))
                    if t - d >= 2 and (t - d) % 2 == 0:
                        best[t] = min(best[t], 3 + best[(t - d) // 2])
                orders = fraction._lift_plan(h, d, c, k)
                assert plan_calls(orders, d) == min(best[max(h - c, 0):]), (d, width, h)


@pytest.mark.parametrize("p", [2, 3, 97, 2**31 - 1, DEFAULT_PRIME])
def test_engines_agree(p, monkeypatch):
    # (n, d, h, width): d = 0, h = 0, width 0, n = 1, h < d, and h + width <= d,
    # so lifting's truncated inverse has order 2d + width while Newton's has k <= deg A
    fld = pk.get_field(p)
    rng = np.random.default_rng(p)
    cases = [(1, 0, 0, 0), (2, 0, 7, 3), (1, 1, 0, 0), (1, 3, 0, 2), (3, 4, 2, 0), (2, 5, 3, 1),
             (1, 2, 9, 4), (3, 1, 40, 0), (2, 3, 3, 5), (4, 2, 17, 6)]
    cases += [(int(rng.integers(1, 5)), int(rng.integers(1, 6)), int(rng.integers(0, 120)),
               int(rng.integers(0, 12))) for _ in range(8)]
    # lifting chains of doublings only, then chains with increments
    doublings = [(3, 3, 72, 5), (2, 8, 993, 15), (2, 2, 254, 0)]
    increments = [(3, 3, 12, 5), (2, 4, 300, 4), (3, 5, 611, 2), (3, 2, 250, 0)]
    for n, d, h, width in doublings + increments:
        orders = lift_orders(d, h, width)
        steps = [u - t for t, u in zip(orders, orders[1:])]
        assert steps and all(b > d for b in steps) == ((n, d, h, width) in doublings), orders
    for n, d, h, width in cases + doublings + increments:
        a = expansion_input(fld, n, d, rng)
        got = []
        for newton in (True, False):
            monkeypatch.setattr(fraction, "_newton_wins", lambda *_, newton=newton: newton)
            got.append(fraction._expand(a, h, width))
        (r_newton, w_newton), (r_lift, w_lift) = got
        assert np.array_equal(r_newton, r_lift) and np.array_equal(w_newton, w_lift), (n, d, h, width)
        assert w_newton.shape == (width, n, n)


def test_lifting_doubling_makes_three_kernel_calls(fd, monkeypatch):
    # at d = 3 and width 5 the chains for h = 9, 18, 36, 72 each add one doubling to the
    # last, and the one for h = 12 adds an increment to that for h = 9; every h runs
    # Newton to the same order
    a = nonsingular_at_zero(fd, 4, 3, 11)
    hs = (9, 18, 36, 72, 12)
    chains = [lift_orders(3, h, 5) for h in hs]
    assert len({lift_c(3, h) for h in hs}) == 1
    for shorter, longer in zip(chains[:3], chains[1:4]):
        assert longer == shorter + [2 * shorter[-1] + 3], chains
    assert chains[4][:-1] == chains[0] and chains[4][-1] - chains[0][-1] <= 3, chains
    calls = []
    products = fraction._mul_stacked

    def counting(*args):
        calls[-1] += 1
        return products(*args)

    # the engine's stacked products, and its single-pair ones through polymat._mul
    monkeypatch.setattr(fraction, "_mul_stacked", counting)
    monkeypatch.setattr(polymat, "_mul_stacked", counting)
    monkeypatch.setattr(fraction, "_newton_wins", lambda *_: False)
    for h in hs:
        calls.append(0)
        fraction._expand(a, h, 5)
    assert [b - a for a, b in zip(calls[:3], calls[1:4])] == [3, 3, 3], calls
    assert calls[4] - calls[0] == 2, calls


def test_engine_builds_only_the_result(fd, monkeypatch):
    # the engine runs on residue arrays: a warmed call builds no PolyMatrix and one
    # SeriesMatrix, the truncated inverse (expansion_slice's result is an ExpansionSlice)
    a = nonsingular_at_zero(fd, 8, 8, 3)
    b = pk.rand_instance(8, 8, 7, 4, field=fd)
    calls = [lambda h=h: expansion_slice(a, b, h, 16) for h in (40, 300, 1000)]
    calls.append(lambda: truncated_inverse(a, 256))
    for call in calls:
        call()  # warm: the NTT tables are built once per length
    built = []
    for cls in (PolyMatrix, SeriesMatrix):
        def counted(self, *args, real=cls._adopt, name=cls.__name__):
            built.append(name)
            return real(self, *args)

        monkeypatch.setattr(cls, "_adopt", counted)
    counts = []
    for call in calls:
        built.clear()
        call()
        counts.append(built.copy())
    assert counts == [["SeriesMatrix"]] * 4


def engine_order(a, h, width):
    """The order of the engine's one truncated inverse: h + width for a Newton run, else
    c + width with c from lift_c, d <= c < 2d once lifting takes a step."""
    d = int_degree(a)
    if d == 0 or fraction._newton_wins(a.rows, d, h):
        return h + width
    return lift_c(d, h) + width


def test_engine_makes_one_truncated_inverse_call(fd, monkeypatch):
    # the benchmark tracer reads the k of this call through the module-global name, so
    # each expansion_slice and proper_tail call must reach it exactly once from there
    seen = []
    real = fraction.truncated_inverse

    def spy(a, k):
        seen.append(k)
        return real(a, k)

    monkeypatch.setattr(fraction, "truncated_inverse", spy)
    for n, d, db in ((2, 3, 0), (3, 1, 2), (2, 0, 1), (8, 8, 7)):
        a = nonsingular_at_zero(fd, n, d, n + d)
        b = pk.rand_instance(n, 2, db, 5, field=fd)
        db = int_degree(b)
        for h, delta in ((0, 3), (d, 0), (40, 16), (crossover(n, max(d, 1)) + 2 * d, 5)):
            seen.clear()
            expansion_slice(a, b, h, delta)
            lo = max(h - db, 0)
            assert seen == [engine_order(a, lo, h + delta - lo)], (n, d, h, delta)
        for h in ((n - 1) * d + 1, 1000):
            seen.clear()
            proper_tail(a, h, 2 * d + 1)
            assert seen == [engine_order(a, h, 2 * d + 1)], (n, d, h)
    assert seen[0] < 1000  # the last call lifted
