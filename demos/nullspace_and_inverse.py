#!/usr/bin/env python3
"""Kernel vectors and the block-diagonalizing inverse, both via order bases.

First half: plant a rank deficiency, then recover the minimal left nullspace
vectors -- the number of them is n - rank, and their degrees (the left
Kronecker indices) come out of the order basis for free.

Second half: for a non-singular square A, repeatedly annihilate half the
columns of every diagonal block; log2(n) rounds later A has been transformed
to a diagonal matrix, and the determinant falls out of one branch of the
same recursion. A size that is not a power of two, such as 6, runs on
diag(A, I) of size 8, and U and B are its top-left blocks.
"""

import numpy as np

import polymatkit as pk
from polymatkit.oracle import det_by_interpolation, true_rank

fd = pk.default_field()

# --- nullspace of a rank-2 matrix of size 4 --------------------------------
a = pk.rand_instance(4, 4, 2, seed=5, profile="planted-rank", rank=2)
print("planted instance: 4 x 4, degree", a.degree, "rank", true_rank(a))

basis = pk.general_nullspace(a, seed=1)
print("nullspace rows found:", basis.row_count)
print("left Kronecker indices:", basis.kronecker_degrees)
print("v * A = 0 exactly?", pk.pm_mul(basis.matrix, a).is_zero())
print("reported rank:", basis.input_rank)
print()

# --- generic inverse and determinant ---------------------------------------
rng = np.random.default_rng(3)
n, d = 4, 2
while True:
    b = pk.rand_instance(n, n, d, int(rng.integers(0, 2**31)))
    if det_by_interpolation(b).degree == n * d:
        break

rep = pk.generic_inverse(b, seed=2)
print(f"generic inverse of a {n} x {n} degree-{d} matrix:")
print("  U A = B with B diagonal; diagonal degrees:",
      [rep.diagonal.entry(i, i).degree for i in range(n)])
prod = pk.pm_mul(rep.transform, b)
print("  product check U*A == B:", prod == rep.diagonal)

det_fast = pk.generic_det(b, seed=2)
det_ref = det_by_interpolation(b)
print("  generic_det == interpolated det:", det_fast == det_ref)

# A^{-1} itself is B^{-1} U: each row of U divided by the matching diagonal
# entry. Check one entry numerically at a random point x0.
x0 = 12345
lhs = pk.pm_eval(rep.transform, x0)
diag = np.array([pk.poly_eval(rep.diagonal.entry(i, i), x0) for i in range(n)])
inv_at_x0 = (lhs * pow(int(diag[0]), -1, fd.p))[0] % fd.p  # first row of A^{-1}
from polymatkit.linalg import mod_matmul
row_times_a = mod_matmul(inv_at_x0[None, :], pk.pm_eval(b, x0), fd.p)[0]
print("  (first row of A^{-1}(x0)) * A(x0) == e_1:",
      bool((row_times_a == np.eye(n, dtype=np.int64)[0]).all()))
print("  first row of A^{-1}(x0) recovered from the representation:",
      inv_at_x0[:2], "...")

# --- a size that is not a power of two ---------------------------------------
c = pk.rand_instance(6, 6, 2, seed=11)
rep6 = pk.generic_inverse(c, seed=4)
print("generic inverse of a 6 x 6 degree-2 matrix (run on diag(A, I_2), 8 x 8):")
print("  product check U*A == B:", pk.pm_mul(rep6.transform, c) == rep6.diagonal,
      "with diagonal degrees", [rep6.diagonal.entry(i, i).degree for i in range(6)])
print("  generic_det == interpolated det:", pk.generic_det(c, seed=4) == det_by_interpolation(c))
