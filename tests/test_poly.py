import numpy as np
import pytest

import polymatkit as pk
from polymatkit.errors import DuplicateAbscissa, PrimeMismatch
from polymatkit.poly import MINUS_INFINITY, Polynomial
from polymatkit.polymat import PolyMatrix


def P(field, *coeffs):
    return Polynomial(field, coeffs)


def schoolbook(a, b, p):
    out = np.zeros(len(a) + len(b) - 1, dtype=object)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + int(x) * int(y)) % p
    return out.astype(np.int64)


def test_zero_degree_sentinel(fd):
    z = Polynomial.zero(fd)
    assert z.degree == MINUS_INFINITY
    assert z.is_zero()
    assert max(z.degree, 5) == 5  # degree arithmetic stays total


def test_mul_simple(fd):
    a = P(fd, 1, 1)          # 1 + x
    b = P(fd, 1, fd.p - 1)   # 1 - x
    c = a * b
    assert list(c.coeffs) == [1, 0, fd.p - 1]


def test_mul_zero(fd):
    a = P(fd, 3, 1, 4)
    assert (a * Polynomial.zero(fd)).is_zero()


def test_mul_degree_additivity(fd, rng):
    for _ in range(20):
        da, db = rng.integers(0, 50, 2)
        a = Polynomial(fd, np.append(rng.integers(0, fd.p, da), 1))
        b = Polynomial(fd, np.append(rng.integers(0, fd.p, db), 1))
        assert (a * b).degree == a.degree + b.degree


@pytest.mark.parametrize("dmax", [31, 200])
def test_mul_matches_schoolbook(fd, rng, dmax):
    # 2^31 - 1 gives the largest residues the exact product must carry
    for field in (fd, pk.get_field(97), pk.get_field(2**31 - 1)):
        for _ in range(25):
            a = rng.integers(0, field.p, int(rng.integers(1, dmax + 1)))
            b = rng.integers(0, field.p, int(rng.integers(1, dmax + 1)))
            got = Polynomial(field, a) * Polynomial(field, b)
            want = Polynomial(field, schoolbook(a, b, field.p))
            assert got == want


def test_eval_simple(fd):
    a = P(fd, 1, 0, fd.p - 1)  # 1 - x^2
    assert int(pk.poly_eval(a, 0)) == 1
    assert int(pk.poly_eval(a, 1)) == 0


def test_eval_matches_power_sum(fd, rng):
    for _ in range(50):
        a = Polynomial(fd, rng.integers(0, fd.p, 20))
        x0 = int(rng.integers(0, fd.p))
        want = sum(int(c) * pow(x0, k, fd.p) for k, c in enumerate(a.coeffs)) % fd.p
        assert int(pk.poly_eval(a, x0)) == want


def test_eval_mul_homomorphism(fd, rng):
    for _ in range(20):
        a = Polynomial(fd, rng.integers(0, fd.p, 12))
        b = Polynomial(fd, rng.integers(0, fd.p, 9))
        t = int(rng.integers(0, fd.p))
        assert pk.poly_eval(a * b, t) == pk.poly_eval(a, t) * pk.poly_eval(b, t)


def test_interpolate_parabola(fd):
    pts = [(0, 1), (1, 0), (fd.p - 1, 0)]
    got = pk.poly_interpolate(fd, pts)
    assert got == P(fd, 1, 0, fd.p - 1)


def test_interpolate_constant(fd):
    assert pk.poly_interpolate(fd, [(0, 17)]) == P(fd, 17)


def test_interpolate_round_trip(fd, rng):
    a = Polynomial(fd, rng.integers(1, fd.p, 6))
    pts = [(x, int(pk.poly_eval(a, x))) for x in range(6)]
    assert pk.poly_interpolate(fd, pts) == a
    # 37 points: det of the CLI's rowreduce size, n = d = 6
    a = Polynomial(fd, rng.integers(1, fd.p, 37))
    xs = rng.choice(fd.p, size=37, replace=False)
    pts = [(int(x), int(pk.poly_eval(a, x))) for x in xs]
    assert pk.poly_interpolate(fd, pts) == a


def test_interpolate_duplicate_raises(fd):
    with pytest.raises(DuplicateAbscissa):
        pk.poly_interpolate(fd, [(1, 2), (1, 3)])


def shift(a, x0):
    """a(x + x0), through the matrix Taylor shift on a 1x1 matrix."""
    return pk.pm_shift_var(PolyMatrix.from_lists(a.field, [[a]]), x0).entry(0, 0)


def test_shift_var_simple(fd):
    x = Polynomial.x(fd)
    assert shift(x, 1) == P(fd, 1, 1)


def test_shift_var_identity(fd, rng):
    a = Polynomial(fd, rng.integers(0, fd.p, 8))
    assert shift(a, 0) == a


def test_shift_var_binomial(fd):
    a = P(fd, 1, 0, fd.p - 1)  # 1 - x^2
    # a(x+1) = 1 - (x+1)^2 = -x^2 - 2x
    got = shift(a, 1)
    assert got == P(fd, 0, fd.p - 2, fd.p - 1)


def test_shift_round_trip(fd, rng):
    for _ in range(100):
        a = Polynomial(fd, rng.integers(0, fd.p, int(rng.integers(1, 15))))
        x0 = int(rng.integers(0, fd.p))
        back = shift(shift(a, x0), (-x0) % fd.p)
        assert back == a


def test_prime_mismatch_is_typed(fd, f97):
    a, b = P(fd, 1, 2), P(f97, 1, 2)
    for op in (lambda: a + b, lambda: a - b, lambda: a * b):
        with pytest.raises(PrimeMismatch, match="p=2013265921 and p=97"):
            op()


def test_scalar_over_another_prime_is_rejected(f97):
    a = P(f97, 1, 2)
    for product in (lambda c: a * c, lambda c: c * a):
        with pytest.raises(PrimeMismatch, match="p=97 and p=5"):
            product(pk.FieldElement(3, pk.get_field(5)))
    three = pk.FieldElement(3, f97)
    assert a * 100 == 100 * a == a * three == three * a == P(f97, 3, 6)
