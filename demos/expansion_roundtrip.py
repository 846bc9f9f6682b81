#!/usr/bin/env python3
"""Expand the inverse of a polynomial matrix as a power series, then get the
matrix back by reconstructing the fraction from finitely many coefficients.

The pipeline is:  A  ->  tail of A^{-1} at a high order  ->  (U, V) with
V^{-1} U equal to that tail and deg det V = deg det A.  The denominator V is
a row-reduced stand-in for A itself; this is exactly how row reduction works
internally.
"""

import numpy as np

import polymatkit as pk
from polymatkit.fraction import proper_tail
from polymatkit.oracle import det_by_interpolation

fd = pk.default_field()
rng = np.random.default_rng(11)

n, d = 4, 3
while True:
    a = pk.rand_instance(n, n, d, int(rng.integers(0, 2**31)))
    if not det_by_interpolation(a).is_zero():
        break

print(f"A: {n} x {n}, degree {a.degree}, det degree",
      det_by_interpolation(a).degree)

# slice of the expansion of A^{-1} at a high order, checked against the
# same coefficients of the truncated inverse A^{-1} mod x^(h + delta)
h, delta = 2 * n * d, 4
sl = pk.expansion_slice(a, pk.PolyMatrix.identity(fd, n), h, delta)
s = pk.truncated_inverse(a, h + delta)
print(f"slice F_{h}..F_{h + delta - 1} equals the truncated inverse's?",
      np.array_equal(sl.coeffs, s.coeffs[h:]))

# strictly proper tail H with A H = B, deg B < deg A
order = (n - 1) * d + 1
data = proper_tail(a, order, 2 * d + 1)
print(f"numerator B = A*H has degree {data.numerator.degree} < {d}")

# reconstruct: 2d+1 coefficients of H pin down a degree-(d, d) fraction
fact = pk.matfrac_rec(data.tail, d, d)
v = fact.denominator
print("denominator V row degrees:", pk.row_degrees(v))
print("deg det V =", det_by_interpolation(v).degree,
      " deg det A =", det_by_interpolation(a).degree)
assert det_by_interpolation(v).degree == det_by_interpolation(a).degree
print("V is row reduced?", pk.is_row_reduced(v))
