"""Matrix fraction expansion: truncated inverses, high-order slices, proper tails.

``truncated_inverse`` is Newton iteration on the residual: from X = A^{-1}
mod x^t it computes only the new coefficients [t, t') from the residual's
new half, on the orders k, ceil(k/2), ..., 1 taken upward, so the last
step multiplies operands of about k/2 + deg(A) slices rather than 2k
(Hanrot, Quercia & Zimmermann 2004). The residual itself is a short
product: its coefficients [t, t') read only X's top deg(A) slices, so each
step multiplies A by deg(A) slices of X, not by all t of them.
``expansion_slice`` (a window F_h .. F_{h+delta-1} of the expansion of
A^{-1}B) and ``proper_tail`` (the residue R_h and a window of A^{-1}) share
one engine: a Newton run to order c + delta, then high-order lifting to
order h - c, which keeps only the residue R_t = (I - A S_t) / x^t of degree
< deg(A) and doubles t, so it takes O(log h) products of degree-O(deg A)
matrices (Storjohann 2003; Jeannerod & Villard 2005). ``_newton_wins``
picks c = h (no lifting) or deg(A) <= c < 2 deg(A), by a rule fitted on measured
times: Newton makes fewer product calls, lifting multiplies fewer
coefficients, so Newton wins up to h / deg(A) of about 8000 for n = 2,
d = 1 and of about 6 to 10 for n * deg(A) >= 256.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonPolynomialQuotient, NotSquare, SingularAtZero, SingularInput
from .linalg import inv as const_inv
from .polymat import (
    PolyMatrix, SeriesMatrix, int_degree, pm_eval, pm_mul, pm_mul_batch, pm_truncate,
)


@dataclass(frozen=True)
class ExpansionSlice:
    """delta consecutive expansion coefficients starting at order h."""

    start_order: int
    coeffs: np.ndarray  # shape (delta, n, m)


@dataclass(frozen=True)
class ProperFractionData:
    """Strictly proper tail H of A^{-1} at order h, with numerator B = A H."""

    tail: SeriesMatrix
    numerator: PolyMatrix


def _check_args(a: PolyMatrix, **orders: int) -> None:
    if not a.is_square():
        raise NotSquare(f"need a square A, got {a.rows} x {a.cols}")
    for name, value in orders.items():
        if value < 0:
            raise ValueError(f"{name} must be nonnegative, got {value}")


def _inv_at_zero(a: PolyMatrix) -> np.ndarray:
    try:
        return const_inv(pm_eval(a, 0), a.field.p)
    except SingularInput as exc:
        raise SingularAtZero("A(0) is singular; shift x before expanding") from exc


def truncated_inverse(a: PolyMatrix, k: int) -> SeriesMatrix:
    """S with A * S = I mod x**k, by Newton iteration on the residual.

    For t < t' <= 2t and X = A^{-1} mod x**t, A X = I + x**t E mod x**t'
    with E the coefficients [t, t') of (A mod x**t') X, and
    A^{-1} mod x**t' = X - x**t ((X E) mod x**(t'-t)). The orders are
    k, ceil(k/2), ..., 1, run upward.

    E is a short product: (A X)_j for j >= t sums A_i X_{j-i} over
    j - i >= t - deg(A) only, so with lo = max(0, t - deg(A)), E is the
    coefficients [t - lo, t' - lo) of (A mod x**t') (X div x**lo), a product
    of deg(A) + 1 by at most deg(A) slices.
    """
    _check_args(a, k=k)
    fld, n, d = a.field, a.rows, int_degree(a)
    x = PolyMatrix.constant(fld, _inv_at_zero(a))
    orders = [k]
    while orders[-1] > 1:
        orders.append((orders[-1] + 1) // 2)
    t = 1
    for t_next in reversed(orders[:-1]):
        lo = max(0, t - d)
        e = pm_mul(pm_truncate(a, t_next), _quo_x_power(x, lo)).coeffs[t - lo:t_next - lo]
        if e.any():
            new = pm_mul(pm_truncate(x, t_next - t), PolyMatrix(fld, e)).coeffs[:t_next - t]
            s = np.zeros((t + new.shape[0], n, n), dtype=np.int64)
            s[:x.coeffs.shape[0]] = x.coeffs
            s[t:] = -new
            x = PolyMatrix(fld, s)
        t = t_next
    return x.to_series(k)


def _quo_x_power(a: PolyMatrix, k: int) -> PolyMatrix:
    """Quotient of the division by x**k, dropping the low part."""
    if a.coeffs.shape[0] <= k:
        return PolyMatrix.zero(a.field, a.rows, a.cols)
    return PolyMatrix._canonical(a.field, a.coeffs[k:])


def exact_x_power_divide(a: PolyMatrix, k: int) -> PolyMatrix:
    """Divide by x**k, raising NonPolynomialQuotient on a nonzero low part."""
    if a.coeffs[:k].any():
        raise NonPolynomialQuotient(f"matrix is not divisible by x^{k}")
    return _quo_x_power(a, k)


def expansion_slice(
    a: PolyMatrix, b: PolyMatrix, h: int, delta: int, fast: bool = False
) -> ExpansionSlice:
    """Coefficients F_h..F_{h+delta-1} of the expansion of A^{-1} B at x=0.

    ``fast`` is accepted and has no effect: every call runs the one engine.
    """
    _check_args(a, h=h, delta=delta)
    db = int_degree(b)
    lo = max(h - db, 0)
    _, window = _expand(a, lo, h + delta - lo)
    # G = sum_i F_{h-db+i} x^i (F_j = 0 for j < 0); the slice is (G B)[db : db+delta]
    g = np.zeros((db + delta, a.rows, a.cols), dtype=np.int64)
    g[db + lo - h:] = window
    prod = pm_mul(PolyMatrix(a.field, g), b).to_series(db + delta)
    return ExpansionSlice(h, prod.coeffs[db:])


def proper_tail(a: PolyMatrix, h: int, sigma: int) -> ProperFractionData:
    """Tail fraction H = sum_i F_{h+i} x^i of A^{-1}, with B = A H polynomial.

    Requires h > (n-1) deg(A) so that H is strictly proper and B has degree
    below deg(A); B is the residue (I - A (A^{-1} mod x^h)) / x^h.
    """
    _check_args(a, h=h, sigma=sigma)
    n = a.rows
    d = int_degree(a)
    if h <= (n - 1) * d:
        raise ValueError(f"need h > (n-1)*deg(A) = {(n - 1) * d}, got {h}")
    numerator, window = _expand(a, h, sigma)
    # strict properness forces deg B < deg A; anything else is a bug
    if not numerator.is_zero() and numerator.degree >= d:
        raise NonPolynomialQuotient(
            f"numerator degree {numerator.degree} not below deg A = {d}"
        )
    return ProperFractionData(SeriesMatrix(a.field, sigma, window), numerator)


# -- the expansion engine: high-order lifting on short residues ---------------
#
# For t >= 0 write A^{-1} = S_t + x^t A^{-1} R_t with S_t = A^{-1} mod x^t and
# the residue R_t = (I - A S_t) / x^t, a polynomial matrix of degree < d.
# R_t alone determines everything after order t: F_{t+k} = (S_d R_t)_k for
# k < d, so R_{t+d} = (R_t - A W_t) / x^d with W_t = (S_d R_t) mod x^d, and
#   R_{2t+d} = R_{t+d} R_t + A ((W_t R_t) div x^d)
# doubles the order. Each step is a product of degree-O(d) matrices; a
# doubling sends its independent pairs as one batch each, so it makes three
# kernel calls: S_d R_t, then [A W_t, W_t R_t], then the two terms above.


def _newton_wins(n: int, d: int, h: int) -> bool:
    """Whether one Newton run to order h beats lifting for an n x n A of degree d >= 1.

    Fitted on _expand timings (width 2d) over n in 2..32, d in 1..16 and
    h/d in 2..128 at p = 2013265921 and 2**31 - 1: Newton wins while
    h/d < 2**e, e = 15.25 - 2.25 log2(n d) + 0.375 log2(n) log2(d), with
    log2 n and log2 d clamped to the measured ranges.
    """
    ln = min(max(math.log2(n), 1.0), 5.0)
    ld = min(math.log2(d), 4.0)
    return h < d * 2.0 ** (15.25 - 2.25 * (ln + ld) + 0.375 * ln * ld)


def _expand(a: PolyMatrix, h: int, width: int):
    """(R_h, [F_h, .., F_{h+width-1}]) for the expansion of A^{-1} at x = 0."""
    d = int_degree(a)
    lift = d > 0 and not _newton_wins(a.rows, d, h)  # lifting steps by d
    # lifting reaches R_t, t = h - c; c >= d whenever it takes a step (h >= 2d)
    c = h - max(h // d - 1, 0) * d if lift else h
    s = truncated_inverse(a, c + width)
    r = PolyMatrix.identity(a.field, a.rows)
    if lift:
        s_w = s.to_polymat()
        s_d = pm_truncate(s_w, d)

        def w_of(r):  # W_t from R_t
            return pm_truncate(pm_mul(s_d, r), d)

        # r is R_t with t = (m - 1) d as m runs through the leading bits of h // d
        for bit in bin(h // d)[3:]:
            w = w_of(r)
            aw, wr = pm_mul_batch([a, w], [w, r])
            r_next = exact_x_power_divide(r - aw, d)
            high, low = pm_mul_batch([r_next, a], [r, _quo_x_power(wr, d)])
            r = high + low  # m -> 2m
            if bit == "1":
                r = exact_x_power_divide(r - pm_mul(a, w_of(r)), d)  # m -> m + 1
        # h - t = c < 2d: one product with S mod x^(c + width) gives R_h and the window
        s = pm_mul(s_w, r).to_series(c + width)
    resid = exact_x_power_divide(r - pm_mul(a, pm_truncate(s, c)), c)
    return resid, s.coeffs[c:]
