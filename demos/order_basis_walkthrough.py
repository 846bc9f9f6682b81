#!/usr/bin/env python3
"""Walk through a minimal approximant basis computation step by step.

We pick a small series matrix F over GF(97), ask for all row vectors N with
N * F = 0 mod x^sigma, and look at what "minimal" means in practice: the
sorted row degrees of the basis are invariants of the module, and the
brute-force search over degree-bounded linear systems finds the same ones.
"""

import numpy as np

import polymatkit as pk
from polymatkit.approxbasis import series_product
from polymatkit.oracle import minimal_basis_bruteforce

f97 = pk.get_field(97)
rng = np.random.default_rng(7)

n, m, sigma = 3, 1, 5
arr = rng.integers(0, 97, size=(sigma, n, m)).astype(np.int64)
f = pk.SeriesMatrix(f97, sigma, arr)

print(f"series matrix: {n} x {m}, order {sigma}, entries mod 97")
print(arr[:, :, 0].T, "(rows of coefficients, one line per matrix row)")
print()

basis = pk.pmbasis(f, sigma)
print("pmbasis row degrees:", basis.row_degrees)
print("sorted (the minimal indices):", basis.minimal_indices)
print("row reduced?", pk.is_row_reduced(basis.basis))

resid = series_product(basis.basis, f, sigma).coeffs
print("residual N*F mod x^sigma all zero?", not resid.any())
print()

# the iterative and divide-and-conquer algorithms agree on the invariants
it = pk.mbasis(f, sigma)
print("mbasis minimal indices:", it.minimal_indices)

# ... and so does an independent search that knows nothing about either
bf = minimal_basis_bruteforce(f, sigma)
print("brute force minimal indices:", bf.minimal_indices)
assert basis.minimal_indices == it.minimal_indices == bf.minimal_indices

# degree-constrained interpolation is the same machinery: a Pade-style
# approximant of a scalar series is the 2x1 case with F = [series; -1]
print()
print("pade-style example: approximate s = 1/(1-x) = 1 + x + x^2 + ...")
sarr = np.zeros((4, 2, 1), dtype=np.int64)
sarr[:, 0, 0] = 1          # the series
sarr[0, 1, 0] = 97 - 1     # the constant -1
pade = pk.pmbasis(pk.SeriesMatrix(f97, 4, sarr), 4)
for i in range(2):
    u = pade.basis.entry(i, 0)
    v = pade.basis.entry(i, 1)
    print(f"  row {i}: u = {u.coeffs.tolist()}, v = {v.coeffs.tolist()}"
          f"  (u*s = v mod x^4)")
