"""Word-sized prime field arithmetic.

The default prime 2013265921 = 15 * 2**27 + 1 is NTT-friendly: it supports
evaluation/interpolation grids of length up to 2**27 while keeping all
products of canonical representatives inside 64-bit words.

Field set-up needs no computer-algebra package: below 2**31, Miller-Rabin on
the bases 2, 7 and 61 is exact (Jaeschke 1993), and p - 1 is trial-divided.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from numbers import Integral

from .errors import InvalidModulus, PrimeMismatch, UnsupportedOrder, UnsupportedPrime, ZeroInverse

DEFAULT_PRIME = 2013265921
# Residues are multiplied in int64, so every kernel needs p < 2**31.
PRIME_LIMIT = 1 << 31


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n < 4,759,123,141 (bases 2, 7, 61)."""
    if n < 2:
        return False
    for a in (2, 7, 61):
        if n % a == 0:
            return n == a
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = 2**s * d with d odd
    d = (n - 1) >> s
    for a in (2, 7, 61):
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeField:
    """The field Z/pZ for a prime p < 2**31.

    A non-integer or non-prime p raises InvalidModulus (a ValueError); p >= 2**31
    raises UnsupportedPrime before any primality test. Elements are canonical
    residues in [0, p). The field caches its two-adicity (largest k with
    2**k | p-1) and its least primitive root, from which ``root_of_unity``
    takes a root of every order dividing p - 1 for NTT grids.
    """

    def __init__(self, p: int = DEFAULT_PRIME):
        if not isinstance(p, Integral) or isinstance(p, bool):
            raise InvalidModulus(f"{p!r} is not an integer")
        if p >= PRIME_LIMIT:
            raise UnsupportedPrime(f"a {int(p).bit_length()}-bit modulus is not below 2**31")
        if not is_prime(int(p)):
            raise InvalidModulus(f"modulus {p} is not prime")
        self.p = int(p)
        self.two_adicity = ((self.p - 1) & (1 - self.p)).bit_length() - 1
        self.generator = self._find_generator()

    def _find_generator(self) -> int:
        """The least g whose order is p - 1 (g = 1 for p = 2)."""
        divisors, n, q = [], self.p - 1, 2
        while q * q <= n:  # the prime divisors of p - 1, by trial division
            if n % q == 0:
                divisors.append(q)
                while n % q == 0:
                    n //= q
            q += 1 if q == 2 else 2
        divisors += [n] if n > 1 else []
        for g in range(1, self.p):
            if all(pow(g, (self.p - 1) // q, self.p) != 1 for q in divisors):
                return g
        raise AssertionError("no primitive root found (p not prime?)")

    def __eq__(self, other):
        return isinstance(other, PrimeField) and self.p == other.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    def __repr__(self):
        return f"PrimeField({self.p})"

    def inv(self, a: int) -> int:
        a %= self.p
        if a == 0:
            raise ZeroInverse("0 has no multiplicative inverse")
        return pow(a, -1, self.p)

    def root_of_unity(self, order: int) -> "FieldElement":
        """A primitive root of unity of the given order, e.g. an NTT length c * 2**k.

        Orders that do not divide p - 1 raise UnsupportedOrder."""
        if order < 1 or (self.p - 1) % order:
            raise UnsupportedOrder(f"order {order} does not divide p - 1 = {self.p - 1}")
        return FieldElement(pow(self.generator, (self.p - 1) // order, self.p), self)


@dataclass(frozen=True)
class FieldElement:
    """A canonical residue in [0, p), tied to its field."""

    value: int
    field: PrimeField

    def __post_init__(self):
        object.__setattr__(self, "value", self.value % self.field.p)

    def _coerce(self, other):
        """The residue of an integer or a FieldElement of this field; None for other types."""
        if isinstance(other, FieldElement):
            if other.field != self.field:
                raise PrimeMismatch(f"operands over p={self.field.p} and p={other.field.p}")
            return other.value
        if isinstance(other, Integral):
            return int(other) % self.field.p
        return None

    # other operand types get NotImplemented, so Python tries their reflected method
    def __add__(self, other):
        v = self._coerce(other)
        return NotImplemented if v is None else FieldElement(self.value + v, self.field)

    __radd__ = __add__

    def __sub__(self, other):
        v = self._coerce(other)
        return NotImplemented if v is None else FieldElement(self.value - v, self.field)

    def __rsub__(self, other):
        v = self._coerce(other)
        return NotImplemented if v is None else FieldElement(v - self.value, self.field)

    def __mul__(self, other):
        v = self._coerce(other)
        return NotImplemented if v is None else FieldElement(self.value * v, self.field)

    __rmul__ = __mul__

    def __neg__(self):
        return FieldElement(-self.value, self.field)

    def __pow__(self, e: int):
        if e < 0:  # invert first, so 0 ** -e raises ZeroInverse
            return self.inverse() ** -e
        return FieldElement(pow(self.value, e, self.field.p), self.field)

    def __eq__(self, other):
        if isinstance(other, FieldElement):
            return self.field == other.field and self.value == other.value
        if isinstance(other, int):
            return self.value == other % self.field.p
        return NotImplemented

    def __hash__(self):
        return hash((self.value, self.field.p))

    def __int__(self):
        return self.value

    def __repr__(self):
        return f"{self.value} (mod {self.field.p})"

    def inverse(self) -> "FieldElement":
        """Multiplicative inverse; raises ZeroInverse on 0."""
        return FieldElement(self.field.inv(self.value), self.field)


@lru_cache(maxsize=None)
def default_field() -> PrimeField:
    return PrimeField(DEFAULT_PRIME)


@lru_cache(maxsize=32)
def get_field(p: int) -> PrimeField:
    """Cached field constructor (generator search is not free)."""
    return PrimeField(p)
