"""Independent brute-force references for the fast primitives.

Everything here favours transparency over speed: naive triple loops,
dense K-linear systems realizing the module definitions directly, and
series division with Cramer-bound truncation orders. Size guards reject
inputs that would make the exponential honesty silent instead of loud.
"""

from __future__ import annotations

import numpy as np

from .approxbasis import ApproximantBasis
from .errors import CapTooSmall, DimensionMismatch, FieldTooSmall, NotSquare, OracleTooLarge
from .fraction import truncated_inverse
from .linalg import det as const_det, rank as const_rank, rref
from .nullspace import NullspaceBasis
from .poly import Polynomial, poly_interpolate
from .polymat import (
    PolyMatrix,
    SeriesMatrix,
    int_degree,
    pm_eval,
    pm_mul,
    pm_shift_var,
    pm_truncate,
    regular_value,
    row_degrees,
)


def naive_mul(a: PolyMatrix, b: PolyMatrix) -> PolyMatrix:
    """Triple-loop product of Polynomial entries; the oracle for pm_mul."""
    if a.cols != b.rows:
        raise DimensionMismatch("naive_mul shape mismatch")
    grid = []
    for i in range(a.rows):
        row = []
        for j in range(b.cols):
            acc = Polynomial.zero(a.field)
            for k in range(a.cols):
                acc = acc + a.entry(i, k) * b.entry(k, j)
            row.append(acc)
        grid.append(row)
    return PolyMatrix.from_lists(a.field, grid)


def det_by_interpolation(a: PolyMatrix) -> Polynomial:
    """det(A) by evaluation at n*deg(A)+1 points plus interpolation."""
    if not a.is_square():
        raise DimensionMismatch("determinant of a non-square matrix")
    n = a.rows
    if n == 0:
        return Polynomial.one(a.field)
    d = int_degree(a)
    count = n * d + 1
    if a.field.p < count:
        raise FieldTooSmall(f"need {count} distinct points, p = {a.field.p}")
    pts = [(x, const_det(pm_eval(a, x), a.field.p)) for x in range(count)]
    return poly_interpolate(a.field, pts)


# -- degree-bounded K-linear solvers -----------------------------------------

def left_kernel(mat: np.ndarray, p: int) -> np.ndarray:
    """Basis (as rows) of {v : v M = 0} over GF(p)."""
    rows = mat.shape[0]
    r, pivots, _ = rref(mat.T, p)
    free = [j for j in range(rows) if j not in pivots]
    basis = np.eye(rows, dtype=np.int64)[free]
    basis[:, pivots] = -r[:len(pivots), free].T % p
    return basis


def _degree_bounded_solutions(eq_builder, n: int, t: int, p: int) -> np.ndarray:
    """Kernel rows (flattened degree-<=t row vectors) of a coefficient system.

    ``eq_builder(j, k)`` returns the equation-row contribution of unknown
    coefficient (row j of the vector, degree k) as a flat residue array.
    """
    cols = eq_builder(0, 0).shape[0]
    system = np.zeros((n * (t + 1), cols), dtype=np.int64)
    for j in range(n):
        for k in range(t + 1):
            system[j * (t + 1) + k] = eq_builder(j, k)
    return left_kernel(system, p)


class _SpanTracker:
    """Incremental K-span membership over flattened vectors."""

    def __init__(self, p: int, width: int):
        self.p = p
        self.width = width
        self.rows: list[np.ndarray] = []
        self.pivots: list[int] = []

    def _reduce(self, v: np.ndarray) -> np.ndarray:
        v = v.copy() % self.p
        for row, piv in zip(self.rows, self.pivots):
            c = int(v[piv])
            if c:
                v = (v - c * row) % self.p
        return v

    def add_if_new(self, v: np.ndarray) -> bool:
        r = self._reduce(v)
        nz = np.nonzero(r)[0]
        if nz.size == 0:
            return False
        piv = int(nz[0])
        r = r * pow(int(r[piv]), -1, self.p) % self.p
        self.rows.append(r)
        self.pivots.append(piv)
        return True


def _greedy_minimal_rows(solutions_at, n: int, width_of, t_max: int, p: int, need: int):
    """Greedy minimal-degree basis extraction shared by the two oracles.

    ``solutions_at(t)`` yields kernel rows for degree bound t;
    ``width_of(t)`` is the flattened length n*(t+1). Chosen rows of degree
    <= t-1, shifted by powers of x, must span the degree-<= t solution
    space before new degree-t rows are admitted.
    """
    chosen: list[tuple[int, np.ndarray]] = []  # (degree, coeff slices (deg+1, n))
    for t in range(t_max + 1):
        width = width_of(t)
        span = _SpanTracker(p, width)
        for deg, coeffs in chosen:
            for s in range(t - deg + 1):
                flat = np.zeros((n, t + 1), dtype=np.int64)
                flat[:, s: s + deg + 1] = coeffs.T
                span.add_if_new(flat.reshape(-1))
        for vec in solutions_at(t):
            if len(chosen) == need:
                break
            if span.add_if_new(vec):
                arr = vec.reshape(n, t + 1).T  # (t+1, n) slices
                chosen.append((t, arr))
        if len(chosen) == need:
            break
    return chosen


def minimal_basis_bruteforce(f: SeriesMatrix, sigma: int) -> ApproximantBasis:
    """Order basis by direct search over degree-bounded linear systems.

    Realizes minimality by construction: degree bounds t = 0, 1, ... are
    tried in order and solution vectors are admitted only when they leave
    the span of everything already chosen. Small sizes only.
    """
    n, m = f.rows, f.cols
    if n > 4 or sigma > 8:
        raise OracleTooLarge("brute-force order basis is limited to n <= 4, sigma <= 8")
    p = f.field.p
    fc = f.coeffs

    def solutions_at(t: int) -> np.ndarray:
        def eq(j: int, k: int) -> np.ndarray:
            rows = []
            for s in range(sigma):
                rows.append(fc[s - k, j, :] if 0 <= s - k < sigma else np.zeros(m, dtype=np.int64))
            return np.concatenate(rows)

        return _degree_bounded_solutions(eq, n, t, p)

    chosen = _greedy_minimal_rows(solutions_at, n, lambda t: n * (t + 1), sigma, p, n)
    length = max(deg for deg, _ in chosen) + 1
    arr = np.zeros((length, n, n), dtype=np.int64)
    for i, (deg, coeffs) in enumerate(chosen):
        arr[: deg + 1, i, :] = coeffs
    mat = PolyMatrix(f.field, arr)
    return ApproximantBasis(mat, sigma, row_degrees(mat))


def _kernel_solutions(a: PolyMatrix, t: int) -> np.ndarray:
    """A K-basis of the left kernel vectors of A of degree <= t, flattened
    (row j of the vector, degree k) -> index j (t + 1) + k."""
    n, m = a.rows, a.cols
    ac = a.coeffs
    out_len = t + int_degree(a) + 1

    def eq(j: int, k: int) -> np.ndarray:
        rows = []
        for s in range(out_len):
            rows.append(ac[s - k, j, :] if 0 <= s - k < ac.shape[0] else np.zeros(m, dtype=np.int64))
        return np.concatenate(rows)

    return _degree_bounded_solutions(eq, n, t, a.field.p)


def true_rank(a: PolyMatrix) -> int:
    """Exact rank over K(x), over any field, by dense linear algebra.

    Works on the side of A with fewer rows, n of them, so every minor has
    degree <= t = n deg(A). A field with more than t elements holds t + 1
    points, and a nonzero r x r minor is nonzero at one of them: the rank is
    the largest rank of A at those points. Otherwise, with k = n - rank
    minimal kernel vectors, all of degree <= t, the degree-<= t kernel has
    K-dimension sum (t - deg_i + 1), so going to degree t + 1 adds exactly k.
    """
    if a.rows > a.cols:
        a = a.transpose()
    n, p = a.rows, a.field.p
    t = n * int_degree(a)
    if p > t:
        return max(const_rank(pm_eval(a, x), p) for x in range(t + 1))
    if n * (t + 2) > 512:
        raise OracleTooLarge("brute-force rank over a small field limited to n*(n*deg + 2) <= 512")
    return n - (len(_kernel_solutions(a, t + 1)) - len(_kernel_solutions(a, t)))


def nullspace_bruteforce(a: PolyMatrix, degree_cap: int) -> NullspaceBasis:
    """Minimal left nullspace vectors up to degree_cap, by dense search."""
    n = a.rows
    p = a.field.p
    if n * (degree_cap + 1) > 512:
        raise OracleTooLarge("brute-force nullspace limited to n*(cap+1) <= 512")
    r = true_rank(a)
    need = n - r
    chosen = _greedy_minimal_rows(lambda t: _kernel_solutions(a, t), n,
                                  lambda t: n * (t + 1), degree_cap, p, need)
    if len(chosen) < need:
        raise CapTooSmall(
            f"found {len(chosen)} of {need} nullspace vectors below degree {degree_cap}"
        )
    length = max((deg for deg, _ in chosen), default=0) + 1
    arr = np.zeros((length, len(chosen), n), dtype=np.int64)
    for i, (deg, coeffs) in enumerate(chosen):
        arr[: deg + 1, i, :] = coeffs
    mat = PolyMatrix(a.field, arr)
    return NullspaceBasis(mat, sorted(deg for deg, _ in chosen), input_rank=r)


def unimodular_equiv_check(a: PolyMatrix, r: PolyMatrix, seed=None) -> bool:
    """True iff r = u a for a unimodular u (series division + Cramer bound).

    A singular reference raises SingularInput from ``regular_value``.
    """
    if (a.rows, a.cols) != (r.rows, r.cols) or not a.is_square():
        raise DimensionMismatch("equivalence check needs same-size square matrices")
    n = a.rows
    da = int_degree(a)
    dr = int_degree(r)
    bound = (n - 1) * da + dr  # deg(R * adj(A)) upper bound, before det division
    order = bound + da + 2
    x0 = regular_value(a, seed)[0]
    a_sh = pm_shift_var(a, x0)
    r_sh = pm_shift_var(r, x0)
    series = pm_truncate(pm_mul(r_sh, truncated_inverse(a_sh, order).to_polymat()), order)
    candidate = pm_truncate(series, bound + 1)
    if pm_mul(candidate, a_sh) != r_sh:
        return False
    return is_unimodular(candidate)


def is_unimodular(u: PolyMatrix) -> bool:
    """True iff det(u) is a nonzero constant.

    det u has degree <= n deg(u), so it is the constant c exactly when it
    takes the value c at the n deg(u) + 1 points 0, 1, ..., n deg(u).
    """
    if not u.is_square():
        raise NotSquare("unimodularity is defined for square matrices")
    p = u.field.p
    count = u.rows * int_degree(u) + 1
    if p < count:
        raise FieldTooSmall(f"need {count} distinct points, p = {p}")
    values = {const_det(pm_eval(u, x), p) for x in range(count)}
    return len(values) == 1 and 0 not in values
