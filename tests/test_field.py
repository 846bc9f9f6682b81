import numpy as np
import pytest

import polymatkit as pk
from polymatkit.errors import (PolymatError, PrimeMismatch, UnsupportedOrder, UnsupportedPrime,
                               ZeroInverse)
from polymatkit.field import FieldElement


def test_default_prime_structure(fd):
    assert fd.p == 2013265921
    assert fd.p == 15 * 2**27 + 1
    assert fd.two_adicity == 27


def test_inverse_identity(fd):
    assert FieldElement(1, fd).inverse() == 1


def test_inverse_two(fd):
    # extended-Euclid reference: 2 * r mod p must be 1
    r = FieldElement(2, fd).inverse()
    assert int(r) == 1006632961
    assert (2 * int(r)) % fd.p == 1


def test_inverse_zero_raises(fd):
    with pytest.raises(ZeroInverse):
        FieldElement(0, fd).inverse()


def test_root_of_unity_small(fd):
    assert int(fd.root_of_unity(1)) == 1
    assert int(fd.root_of_unity(2)) == fd.p - 1


def test_root_of_unity_max_order(fd):
    w = int(fd.root_of_unity(2**27))
    assert pow(w, 2**27, fd.p) == 1
    assert pow(w, 2**26, fd.p) == fd.p - 1


def test_root_of_unity_rejects(fd):
    # p - 1 = 15 * 2**27: neither 7 nor 2**28 divides it
    with pytest.raises(UnsupportedOrder):
        fd.root_of_unity(7)
    with pytest.raises(UnsupportedOrder):
        fd.root_of_unity(2**28)
    with pytest.raises(UnsupportedOrder):
        pk.get_field(97).root_of_unity(64)  # 96 = 3 * 2**5


def _is_primitive(w: int, order: int, p: int) -> bool:
    primes = [q for q in (2, 3, 5) if order % q == 0]
    return pow(w, order, p) == 1 and all(pow(w, order // q, p) != 1 for q in primes)


@pytest.mark.parametrize("c", [3, 5, 15])
def test_root_of_unity_mixed_orders(fd, c):
    for k in (0, 1, 4, 27):
        order = c * 2**k
        assert _is_primitive(int(fd.root_of_unity(order)), order, fd.p), order


def test_root_of_unity_small_prime(f97):
    for order in (3, 6, 32, 48, 96):
        assert _is_primitive(int(f97.root_of_unity(order)), order, 97), order


def test_root_square_relation(fd):
    for k in (2, 4, 8, 1024):
        w2k = fd.root_of_unity(2 * k)
        wk = fd.root_of_unity(k)
        assert w2k * w2k == wk


def test_field_axioms_random(fd, rng):
    p = fd.p
    a = rng.integers(0, p, 10_000)
    b = rng.integers(0, p, 10_000)
    c = rng.integers(0, p, 10_000)
    assert np.array_equal((a + b) % p, (b + a) % p)
    assert np.array_equal(a * b % p, b * a % p)
    assert np.array_equal((a + b) % p * c % p, (a * c + b * c) % p)
    # associativity on a random sample of triples
    for i in rng.integers(0, 10_000, 100):
        x, y, z = int(a[i]), int(b[i]), int(c[i])
        assert (x * y % p) * z % p == x * (y * z % p) % p


def test_inverse_random(fd, rng):
    for v in rng.integers(1, fd.p, 200):
        assert int(FieldElement(int(v), fd).inverse()) * int(v) % fd.p == 1


def test_small_field_and_nonprime():
    f = pk.get_field(97)
    assert f.p == 97
    with pytest.raises(ValueError):
        pk.PrimeField(91)


def test_field_element_operators(f97):
    a = FieldElement(50, f97)
    b = FieldElement(60, f97)
    assert int(a + b) == 13
    assert int(a - b) == 87
    assert int(a * b) == 3000 % 97
    assert int(-a) == 47
    assert a == 50 + 97
    assert isinstance(a**3, FieldElement)
    assert int(a * np.int64(2)) == int(np.int64(53) - a) == 3
    # other operand types are left to their own reflected methods
    for op in (a.__add__, a.__sub__, a.__rsub__, a.__mul__):
        assert op("2") is NotImplemented and op(2.0) is NotImplemented
    with pytest.raises(TypeError):
        a * "2"


def test_primes_from_2_to_the_31_are_rejected():
    assert pk.PrimeField(2**31 - 1).p == 2**31 - 1
    with pytest.raises(UnsupportedPrime):
        pk.PrimeField(2147483659)  # the least prime above 2**31
    # typed, and not a ValueError, so the parser does not report it as a parse error
    assert issubclass(UnsupportedPrime, PolymatError) and not issubclass(UnsupportedPrime, ValueError)


def test_element_prime_mismatch_is_typed(fd, f97):
    a, b = FieldElement(3, fd), FieldElement(3, f97)
    for op in (lambda: a + b, lambda: a * b, lambda: a - b):
        with pytest.raises(PrimeMismatch, match="p=2013265921 and p=97"):
            op()
