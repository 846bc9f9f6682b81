import subprocess
import sys

import numpy as np
import pytest

import polymatkit as pk
from polymatkit.errors import (InvalidModulus, PolymatError, PrimeMismatch, UnsupportedOrder,
                               UnsupportedPrime, ZeroInverse)
from polymatkit.field import FieldElement, is_prime


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


@pytest.mark.parametrize("p", [10**3999 + 1, 10**5000], ids=["4000-digit", "5001-digit"])
def test_huge_modulus_is_unsupported_at_once(p):
    # the 2**31 bound is checked before any primality work, and the message has no digits of p
    with pytest.raises(UnsupportedPrime, match=f"{p.bit_length()}-bit modulus"):
        pk.PrimeField(p)


@pytest.mark.parametrize("p", [91, 0, 1, -7])
def test_invalid_modulus_is_typed(p):
    with pytest.raises(InvalidModulus, match="not prime") as info:
        pk.PrimeField(p)
    # a PolymatError for the CLI, and still a ValueError for the parser and older callers
    assert isinstance(info.value, PolymatError) and isinstance(info.value, ValueError)


@pytest.mark.parametrize("p", [97.0, True, "97"])
def test_non_integer_modulus_is_rejected(p):
    with pytest.raises(ValueError, match="not an integer"):
        pk.PrimeField(p)


def test_numpy_integer_modulus():
    f = pk.PrimeField(np.int64(97))
    assert f.p == 97 and type(f.p) is int


@pytest.mark.parametrize("e", [-1, -3])
def test_zero_to_a_negative_power_raises_zero_inverse(f97, e):
    with pytest.raises(ZeroInverse):
        FieldElement(0, f97) ** e
    assert int(FieldElement(5, f97) ** e) == pow(5, e, 97)


def _small_primes(limit):
    sieve = np.ones(limit, dtype=bool)
    sieve[:2] = False
    for q in range(2, int(limit**0.5) + 1):
        if sieve[q]:
            sieve[q * q::q] = False
    return sieve


def test_is_prime_matches_a_sieve_below_10_to_the_5():
    sieve = _small_primes(10**5)
    assert [n for n in range(-3, 10**5) if is_prime(n)] == np.flatnonzero(sieve).tolist()


def test_is_prime_matches_trial_division_on_random_words():
    divisors = np.flatnonzero(_small_primes(46341))  # every prime up to sqrt(2**31)
    for n in np.random.default_rng(31).integers(2, 2**31, 10_000).tolist():
        small = divisors[divisors * divisors <= n]
        assert is_prime(n) == (not np.any(n % small == 0)), n


@pytest.mark.parametrize("n", [2047, 1373653, 25326001, 561, 1105, 1729, 41041, 825265,
                               321197185])
def test_strong_pseudoprimes_and_carmichael_numbers_are_composite(n):
    assert not is_prime(n)


@pytest.mark.parametrize("n", [2, 7, 61, 2**31 - 1, 754974721, 943718401, 2013265921])
def test_bases_and_ntt_primes_are_prime(n):
    assert is_prime(n)


GENERATORS = {2: 1, 3: 2, 5: 2, 7: 3, 97: 5, 7681: 17, 12289: 11, 65537: 3, 754974721: 11,
              943718401: 7, 2013265921: 31, 2**31 - 1: 7, 2147483629: 2}


@pytest.mark.parametrize("p, g", GENERATORS.items())
def test_generator_is_the_least_primitive_root(p, g):
    # pinned: every root of unity, NTT grid and output is derived from it
    assert pk.PrimeField(p).generator == g


def test_import_does_not_load_sympy():
    code = "import sys, polymatkit, polymatkit.cli; print(sys.modules.get('sympy') is not None)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
