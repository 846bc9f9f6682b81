"""Dense univariate polynomials over a prime field.

Coefficients are stored low-to-high in an int64 numpy array of canonical
residues, with trailing zeros stripped. The zero polynomial has an empty
coefficient array and degree ``MINUS_INFINITY`` (a true sentinel, so degree
arithmetic via ``max`` stays total).

Products are exact quadratic convolutions over Python ints. They are the
reference that ``oracle.naive_mul`` checks ``pm_mul`` against, so this
module uses none of ``pm_mul``'s kernels (``ntt``, ``linalg``).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DuplicateAbscissa, PrimeMismatch
from .field import FieldElement, PrimeField

MINUS_INFINITY = -math.inf


class Polynomial:
    """Immutable dense polynomial over a PrimeField."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: PrimeField, coeffs=()):
        arr = np.asarray(coeffs, dtype=np.int64).reshape(-1) % field.p
        nz = np.nonzero(arr)[0]
        arr = arr[: nz[-1] + 1] if nz.size else arr[:0]
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "coeffs", arr)
        arr.flags.writeable = False

    def __setattr__(self, *a):
        raise AttributeError("Polynomial is immutable")

    # -- constructors --

    @classmethod
    def zero(cls, field: PrimeField) -> "Polynomial":
        return cls(field, ())

    @classmethod
    def one(cls, field: PrimeField) -> "Polynomial":
        return cls(field, (1,))

    @classmethod
    def x(cls, field: PrimeField) -> "Polynomial":
        return cls(field, (0, 1))

    @classmethod
    def constant(cls, field: PrimeField, c: int) -> "Polynomial":
        return cls(field, (int(c) % field.p,))

    # -- basic queries --

    @property
    def degree(self):
        return len(self.coeffs) - 1 if len(self.coeffs) else MINUS_INFINITY

    def is_zero(self) -> bool:
        return len(self.coeffs) == 0

    def coeff(self, k: int) -> int:
        return int(self.coeffs[k]) if 0 <= k < len(self.coeffs) else 0

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.field == other.field and np.array_equal(self.coeffs, other.coeffs)

    def __hash__(self):
        return hash((self.field.p, self.coeffs.tobytes()))

    def __repr__(self):
        if self.is_zero():
            return "Poly[0]"
        return "Poly[" + " + ".join(
            f"{c}*x^{k}" if k else str(c)
            for k, c in enumerate(self.coeffs) if c
        ) + "]"

    # -- arithmetic --

    def _check(self, other):
        """PrimeMismatch unless ``other`` (a polynomial or a FieldElement) is over this field."""
        if self.field != other.field:
            raise PrimeMismatch(f"operands over p={self.field.p} and p={other.field.p}")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        n = max(len(self.coeffs), len(other.coeffs))
        out = np.zeros(n, dtype=np.int64)
        out[: len(self.coeffs)] += self.coeffs
        out[: len(other.coeffs)] += other.coeffs
        return Polynomial(self.field, out)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        n = max(len(self.coeffs), len(other.coeffs))
        out = np.zeros(n, dtype=np.int64)
        out[: len(self.coeffs)] += self.coeffs
        out[: len(other.coeffs)] -= other.coeffs
        return Polynomial(self.field, out)

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.field, -self.coeffs)

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, int):
            return Polynomial(self.field, self.coeffs * (other % self.field.p))
        self._check(other)
        if isinstance(other, FieldElement):
            return Polynomial(self.field, self.coeffs * other.value)
        if self.is_zero() or other.is_zero():
            return Polynomial.zero(self.field)
        prod = np.convolve(self.coeffs.astype(object), other.coeffs.astype(object))
        return Polynomial(self.field, prod % self.field.p)

    __rmul__ = __mul__

    def shift(self, k: int) -> "Polynomial":
        """Multiply by x**k."""
        if self.is_zero():
            return self
        return Polynomial(self.field, np.concatenate([np.zeros(k, dtype=np.int64), self.coeffs]))

    def __call__(self, x0) -> FieldElement:
        return poly_eval(self, x0)


def poly_eval(a: Polynomial, x0) -> FieldElement:
    """Horner evaluation at x0."""
    p = a.field.p
    v = int(x0) % p
    acc = 0
    for c in a.coeffs[::-1]:
        acc = (acc * v + int(c)) % p
    return FieldElement(acc, a.field)


def poly_interpolate(field: PrimeField, points) -> Polynomial:
    """Unique polynomial of degree < len(points) through the given points.

    ``points`` is a sequence of (abscissa, value) pairs with pairwise
    distinct abscissae. Newton's divided differences, O(k^2).
    """
    p = field.p
    xs = [int(x) % p for x, _ in points]
    ys = [int(y) % p for _, y in points]
    if len(set(xs)) != len(xs):
        raise DuplicateAbscissa("interpolation abscissae must be pairwise distinct")
    # divided-difference coefficients
    dd = list(ys)
    for j in range(1, len(xs)):
        for i in range(len(xs) - 1, j - 1, -1):
            num = (dd[i] - dd[i - 1]) % p
            den = (xs[i] - xs[i - j]) % p
            dd[i] = num * pow(den, -1, p) % p
    # Horner assembly of the Newton form
    result = Polynomial.zero(field)
    for i in range(len(xs) - 1, -1, -1):
        result = result.shift(1) - result * xs[i] + Polynomial.constant(field, dd[i])
    return result
