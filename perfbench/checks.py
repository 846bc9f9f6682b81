"""Independent output checks for the benchmark's operations.

Nothing here calls polymatkit. The checks bring their own modular
arithmetic (int64 numpy with a 16-bit split, valid for p < 2**31) and test
each output against a defining identity at random points or along random
projection vectors (Schwartz-Zippel / Freivalds), or against an invariant
of the object (row-degree sums, leading matrices, det N = c x^(m sigma) for
order bases). One changed coefficient is detected unless a random draw hits
one of at most ``degree`` bad values out of p.

Polynomial matrices are plain coefficient arrays of shape (L, rows, cols);
vector polynomials have shape (L, n).
"""

from __future__ import annotations

import numpy as np

_SPLIT = 1 << 16


class CheckFailed(Exception):
    """An output returned as a success does not satisfy its check."""


def require(cond: bool, message: str):
    if not cond:
        raise CheckFailed(message)


# -- arithmetic ---------------------------------------------------------------

def matmul(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """Exact (a @ b) mod p for canonical residues, inner dimension < 2**15."""
    hi, lo = np.divmod(b, _SPLIT)
    return ((a @ hi) % p * _SPLIT + (a @ lo)) % p


def evaluate(c: np.ndarray, x: int, p: int) -> np.ndarray:
    """Value at x of a coefficient array (Horner along axis 0)."""
    acc = np.zeros(c.shape[1:], dtype=np.int64)
    for s in c[::-1]:
        acc = (acc * x + s) % p
    return acc


def times_vector(c: np.ndarray, v: np.ndarray, p: int) -> np.ndarray:
    """(L, n, m) times a constant m-vector, giving an (L, n) vector polynomial."""
    return ((c * v) % p).sum(axis=-1) % p


def mat_vec_poly(c: np.ndarray, w: np.ndarray, p: int, order: int | None = None) -> np.ndarray:
    """Product of a polynomial matrix (L, n, m) and a vector polynomial (K, m).

    Truncated to ``order`` coefficients when given, else the full product.
    """
    length = c.shape[0] + w.shape[0] - 1 if order is None else order
    out = np.zeros((length, c.shape[1]), dtype=np.int64)
    for j in range(min(c.shape[0], length)):
        k = min(w.shape[0], length - j)
        out[j: j + k] = (out[j: j + k] + matmul(w[:k], c[j].T, p)) % p
    return out


def vec_mat_poly(y: np.ndarray, c: np.ndarray, p: int) -> np.ndarray:
    """Product of a row-vector polynomial (K, n) and a polynomial matrix (L, n, m)."""
    out = np.zeros((y.shape[0] + c.shape[0] - 1, c.shape[2]), dtype=np.int64)
    for j in range(c.shape[0]):
        out[j: j + y.shape[0]] = (out[j: j + y.shape[0]] + matmul(y, c[j], p)) % p
    return out


def echelon(m: np.ndarray, p: int) -> tuple[int, int]:
    """(rank, det) by Gaussian elimination; det is 0 unless m is square of full rank."""
    m = m.astype(np.int64) % p
    rows, cols = m.shape
    det, r = 1, 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(m[r:, c])[0]
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            m[[r, pr]] = m[[pr, r]]
            det = -det
        piv = int(m[r, c])
        det = det * piv % p
        below = m[r + 1:, c] * pow(piv, -1, p) % p
        m[r + 1:] = (m[r + 1:] - np.outer(below, m[r]) % p) % p
        r += 1
    return r, (det % p if r == rows == cols else 0)


def rank(m: np.ndarray, p: int) -> int:
    return echelon(m, p)[0]


def det(m: np.ndarray, p: int) -> int:
    return echelon(m, p)[1]


def inverse(m: np.ndarray, p: int) -> np.ndarray:
    """Gauss-Jordan inverse; raises CheckFailed when m is singular."""
    n = m.shape[0]
    aug = np.concatenate([m % p, np.eye(n, dtype=np.int64)], axis=1)
    for c in range(n):
        nz = np.nonzero(aug[c:, c])[0]
        require(nz.size > 0, "matrix is singular")
        pr = c + int(nz[0])
        aug[[c, pr]] = aug[[pr, c]]
        aug[c] = aug[c] * pow(int(aug[c, c]), -1, p) % p
        col = aug[:, c].copy()
        col[c] = 0
        aug = (aug - np.outer(col, aug[c]) % p) % p
    return aug[:, n:]


def series_solve(a: np.ndarray, rhs: np.ndarray, terms: int, p: int) -> np.ndarray:
    """First ``terms`` coefficients of the power series a^-1 rhs, for a(0) invertible.

    rhs is a polynomial matrix (L, n, m) or a vector polynomial (L, n). The
    coefficients follow from sum_j a_j F_{k-j} = rhs_k, one order at a time.
    """
    n, d = a.shape[1], a.shape[0] - 1
    out = np.zeros((terms,) + rhs.shape[1:], dtype=np.int64)
    a0_inv = inverse(a[0], p)
    # tail[:, (j-1)n:jn] = a_j, so tail @ [F_{k-1}; ...; F_{k-d}] = sum_j a_j F_{k-j}
    tail = np.concatenate(list(a[1:]), axis=1) if d else np.zeros((n, 0), dtype=np.int64)
    for k in range(terms):
        acc = rhs[k] % p if k < rhs.shape[0] else np.zeros(rhs.shape[1:], dtype=np.int64)
        if d and k:
            hist = out[max(0, k - d): k][::-1].reshape((-1,) + rhs.shape[2:])
            acc = (acc - matmul(tail[:, : hist.shape[0]], hist, p)) % p
        out[k] = matmul(a0_inv, acc, p)
    return out


def taylor_shift(c: np.ndarray, x0: int, p: int) -> np.ndarray:
    """Coefficients of c(x + x0)."""
    out = c.astype(np.int64) % p
    length = out.shape[0]
    for i in range(length - 1):
        for j in range(length - 2, i - 1, -1):
            out[j] = (out[j] + x0 * out[j + 1]) % p
    return out


def entry_degrees(c: np.ndarray) -> np.ndarray:
    """Degree of every entry, -1 for zero entries."""
    nonzero = c != 0
    last = c.shape[0] - 1 - np.argmax(nonzero[::-1], axis=0)
    return np.where(nonzero.any(axis=0), last, -1)


def row_degrees(c: np.ndarray, shift=None) -> np.ndarray:
    """Shifted row degrees max_j(deg c_ij + s_j); -1 marks a zero row."""
    degs = entry_degrees(c)
    s = np.zeros(c.shape[2], dtype=np.int64) if shift is None else np.asarray(shift)
    shifted = np.where(degs >= 0, degs + s, -1)
    return shifted.max(axis=1)


def leading_matrix(c: np.ndarray, shift=None) -> np.ndarray:
    """Coefficient matrix at x^(rdeg_i - s_j): the shifted row leading matrix."""
    degs = entry_degrees(c)
    s = np.zeros(c.shape[2], dtype=np.int64) if shift is None else np.asarray(shift)
    rdeg = row_degrees(c, s)
    require(bool((rdeg >= 0).all()), "matrix has a zero row")
    out = np.zeros(degs.shape, dtype=np.int64)
    for i, j in zip(*np.nonzero((degs >= 0) & (degs + s == rdeg[:, None]))):
        out[i, j] = c[degs[i, j], i, j]
    return out


def random_point(rng, p: int) -> int:
    return int(rng.integers(1, p))


def random_vector(rng, p: int, n: int) -> np.ndarray:
    return rng.integers(1, p, size=n).astype(np.int64)


# -- checks -------------------------------------------------------------------

def check_product(a, b, c, p, rng):
    """c = a b: compare c(x) v with a(x) (b(x) v) at a random x and v."""
    require(c.shape[0] <= a.shape[0] + b.shape[0] - 1, "product degree too high")
    require(c.shape[1:] == (a.shape[1], b.shape[2]), "product has the wrong shape")
    x, v = random_point(rng, p), random_vector(rng, p, b.shape[2])
    rhs = matmul(evaluate(a, x, p), matmul(evaluate(b, x, p), v, p), p)
    require(np.array_equal(matmul(evaluate(c, x, p), v, p), rhs), "a b != c at a random point")


def check_order_basis(f, sigma, shift, basis, p, rng):
    """basis is an s-minimal approximant basis of order sigma for f.

    Certificate for f(0) of full column rank m: rows approximate f to order
    sigma (checked along a random right vector), and
    det(basis) = det(lm_s) * x^(m sigma) with the s-leading matrix lm_s
    nonsingular and sum(rdeg_s) - sum(s) = m sigma. A basis of the
    approximant module has determinant degree exactly m sigma, and an
    s-reduced one is s-minimal.
    """
    n, m = f.shape[1], f.shape[2]
    s = np.zeros(n, dtype=np.int64) if shift is None else np.asarray(shift)
    require(basis.shape[1:] == (n, n), "basis has the wrong shape")
    w = times_vector(f[:sigma], random_vector(rng, p, m), p)
    require(not mat_vec_poly(basis, w, p, order=sigma).any(), "basis rows do not approximate f")
    rdeg = row_degrees(basis, s)
    require(int(rdeg.sum() - s.sum()) == m * sigma, "shifted row degrees do not sum to m sigma")
    lead = det(leading_matrix(basis, s), p)
    require(lead != 0, "basis is not s-reduced")
    x = random_point(rng, p)
    require(
        det(evaluate(basis, x, p), p) == lead * pow(x, m * sigma, p) % p,
        "det(basis) is not c x^(m sigma)",
    )


def check_nullspace(a, rows, count, degree_sum, p, rng):
    """rows is a minimal left kernel basis of a with ``count`` rows.

    rows a = 0 (along a random right vector), full row rank at a random
    point, row-reduced, and degree sum equal to the generic sum of the
    minimal (Kronecker) indices.
    """
    require(rows.shape[1:] == (count, a.shape[1]), "kernel basis has the wrong shape")
    w = times_vector(a, random_vector(rng, p, a.shape[2]), p)
    require(not mat_vec_poly(rows, w, p).any(), "kernel rows do not annihilate the input")
    require(rank(evaluate(rows, random_point(rng, p), p), p) == count,
            "kernel rows are dependent at a random point")
    require(rank(leading_matrix(rows), p) == count, "kernel basis is not row-reduced")
    require(int(row_degrees(rows).sum()) == degree_sum, "kernel degrees are not minimal")


def check_det(a, coeffs, p, rng):
    """coeffs (low to high) equals det(a) at two random points."""
    n = a.shape[1]
    require(len(coeffs) <= n * (a.shape[0] - 1) + 1, "determinant degree too high")
    poly = np.asarray(coeffs, dtype=np.int64).reshape(-1)
    for _ in range(2):
        x = random_point(rng, p)
        require(int(evaluate(poly, x, p)) == det(evaluate(a, x, p), p),
                "determinant disagrees at a random point")


def check_inverse_rep(a, u, diag, p, rng):
    """u a = diag with diag diagonal and u nonsingular."""
    n = a.shape[1]
    off = diag.copy()
    off[:, np.arange(n), np.arange(n)] = 0
    require(not off.any(), "B is not diagonal")
    x, v = random_point(rng, p), random_vector(rng, p, n)
    ux = evaluate(u, x, p)
    lhs = matmul(ux, matmul(evaluate(a, x, p), v, p), p)
    require(np.array_equal(lhs, matmul(evaluate(diag, x, p), v, p)), "U A != B at a random point")
    require(det(ux, p) != 0, "U is singular at a random point")


def check_fraction(f, sigma, degree_left, numer, denom, p, rng):
    """V f = U mod x^sigma with V row-reduced of row degrees <= dL, U V^-1 proper.

    A planted generic fraction has all denominator row degrees equal to dL.
    """
    n = f.shape[1]
    require(denom.shape[1:] == (n, n) and numer.shape[1:] == (n, n), "wrong factor shapes")
    rdeg = row_degrees(denom)
    require(bool((rdeg == degree_left).all()), "denominator row degrees are not dL")
    require(bool((row_degrees(numer) < rdeg).all()), "fraction is not strictly proper")
    require(rank(leading_matrix(denom), p) == n, "denominator is not row-reduced")
    v = random_vector(rng, p, n)
    lhs = mat_vec_poly(denom, times_vector(f[:sigma], v, p), p, order=sigma)
    rhs = np.zeros_like(lhs)
    uv = times_vector(numer, v, p)[:sigma]
    rhs[: uv.shape[0]] = uv
    require(np.array_equal(lhs, rhs), "V F != U mod x^sigma")


def check_left_factorization(b, a, numer, denom, p, rng):
    """U a = V b with V square and nonsingular."""
    m = b.shape[1]
    require(denom.shape[1:] == (m, m) and numer.shape[1:] == (m, a.shape[1]), "wrong factor shapes")
    x, v = random_point(rng, p), random_vector(rng, p, a.shape[2])
    vx = evaluate(denom, x, p)
    lhs = matmul(evaluate(numer, x, p), matmul(evaluate(a, x, p), v, p), p)
    require(np.array_equal(lhs, matmul(vx, matmul(evaluate(b, x, p), v, p), p)),
            "U A != V B at a random point")
    require(det(vx, p) != 0, "V is singular at a random point")


def check_row_reduced_equiv(a, r, p, rng):
    """r is row-reduced and r = U a for a unimodular U.

    a must itself be row-reduced (the benchmark's inputs are). Then
    det r = c det a with c = det lm(r) / det lm(a), checked at a random
    point; and u^T r a^-1 is a polynomial row vector, checked by expanding
    it as a series to its degree bound and multiplying back.
    """
    n = a.shape[1]
    require(r.shape[1:] == (n, n), "reduced matrix has the wrong shape")
    lead_r = det(leading_matrix(r), p)
    require(lead_r != 0, "result is not row-reduced")
    rdeg_a, rdeg_r = row_degrees(a), row_degrees(r)
    require(int(rdeg_r.sum()) == int(rdeg_a.sum()), "determinant degree changed")
    lead_a = det(leading_matrix(a), p)
    x = random_point(rng, p)
    require(det(evaluate(r, x, p), p) * lead_a % p == lead_r * det(evaluate(a, x, p), p) % p,
            "det R is not a constant multiple of det A")
    # shift to a point where a is invertible, then solve y a = u^T r as a series
    x0 = 0
    while det(evaluate(a, x0, p), p) == 0:
        x0 = random_point(rng, p)
    a_s, r_s = taylor_shift(a, x0, p), taylor_shift(r, x0, p)
    w = matmul(random_vector(rng, p, n), r_s, p)  # (L, n): u^T r
    terms = max(int(rdeg_r.max() - rdeg_a.min()) + 1, 1)
    y = series_solve(a_s.transpose(0, 2, 1), w, terms, p)  # y a = w, transposed
    back = vec_mat_poly(y, a_s, p)
    want = np.zeros_like(back)
    want[: w.shape[0]] = w
    require(np.array_equal(back, want), "R A^-1 is not polynomial")


def check_truncated_inverse(a, s, k, p, rng):
    """a s = I mod x^k, along a random right vector."""
    n = a.shape[1]
    require(s.shape == (k, n, n), "truncated inverse has the wrong shape")
    v = random_vector(rng, p, n)
    got = mat_vec_poly(a, times_vector(s, v, p), p, order=k)
    want = np.zeros_like(got)
    want[0] = v
    require(np.array_equal(got, want), "A S != I mod x^k")


class ExpansionReference:
    """Projections F_k v of the expansion of A^-1 B, from the series recurrence.

    The sequence is computed once, up to the largest order any check asks for.
    """

    def __init__(self, a, b, p, rng):
        self.a, self.p = a, p
        self.v = random_vector(rng, p, b.shape[2])
        self.bv = times_vector(b, self.v, p)
        self.seq = np.zeros((0, a.shape[1]), dtype=np.int64)

    def upto(self, stop: int) -> np.ndarray:
        if stop > self.seq.shape[0]:
            self.seq = series_solve(self.a, self.bv, stop, self.p)
        return self.seq[:stop]

    def check(self, h: int, window: np.ndarray):
        """window[i] must be F_{h+i}."""
        ref = self.upto(h + window.shape[0])[h:]
        got = times_vector(window, self.v, self.p)
        require(np.array_equal(got, ref), f"expansion window at order {h} is wrong")
