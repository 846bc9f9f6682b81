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
d = 1 and of about 6 to 10 for n * deg(A) >= 256. Both run on int64
(L, n, n) residue arrays and multiply through ``polymat._mul_stacked``;
only the results are wrapped as matrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (DimensionMismatch, NonPolynomialQuotient, NotSquare, SingularAtZero,
                     SingularInput)
from .linalg import inv as const_inv
from .polymat import (PolyMatrix, SeriesMatrix, _mul_stacked, _normalize, _stack, int_degree,
                      pm_eval)


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


# -- residue arrays: the engine multiplies, pads and divides int64 (L, n, n) arrays

def _mul(x: np.ndarray, y: np.ndarray, field) -> np.ndarray:
    """The product of an (L, n, k) and an (L', k, m) residue array, trimmed."""
    return _mul_stacked(x[:, None], y[:, None], field)[:, 0]


def _fit(arr: np.ndarray, length: int) -> np.ndarray:
    """A new array of the first ``length`` slices of arr, zero-padded."""
    out = np.zeros((length, *arr.shape[1:]), dtype=np.int64)
    take = min(length, arr.shape[0])
    out[:take] = arr[:take]
    return out


def _sub_quo(x: np.ndarray, y: np.ndarray, k: int, p: int) -> np.ndarray:
    """(x - y) / x**k, trimmed, for residue arrays of any lengths, raising
    NonPolynomialQuotient on a nonzero low part."""
    diff = _fit(x, max(x.shape[0], y.shape[0], k + 1))
    diff[:y.shape[0]] -= y
    diff %= p
    if diff[:k].any():
        raise NonPolynomialQuotient(f"matrix is not divisible by x^{k}")
    return _normalize(diff[k:])


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
    fld, d = a.field, int_degree(a)
    x = np.zeros((max(k, 1), a.rows, a.rows), dtype=np.int64)  # X, zero from slice `size` on
    x[0], size = _inv_at_zero(a), 1
    orders = [k]
    while orders[-1] > 1:
        orders.append((orders[-1] + 1) // 2)
    t = 1
    for t_next in reversed(orders[:-1]):
        lo = max(0, t - d)
        e = _mul(a.coeffs[:t_next], x[lo:size], fld)[t - lo:t_next - lo]
        if e.any():
            new = _mul(x[:min(size, t_next - t)], e, fld)[:t_next - t]
            size = t + new.shape[0]
            x[t:size] = -new % fld.p
        t = t_next
    return SeriesMatrix._canonical(fld, x[:k])


def exact_x_power_divide(a: PolyMatrix, k: int) -> PolyMatrix:
    """Divide by x**k, raising NonPolynomialQuotient on a nonzero low part."""
    return PolyMatrix._canonical(a.field, _sub_quo(a.coeffs, a.coeffs[:0], k, a.field.p))


def expansion_slice(
    a: PolyMatrix, b: PolyMatrix, h: int, delta: int, fast: bool = False
) -> ExpansionSlice:
    """Coefficients F_h..F_{h+delta-1} of the expansion of A^{-1} B at x=0.

    ``fast`` is accepted and has no effect: every call runs the one engine.
    """
    _check_args(a, h=h, delta=delta)
    a._check_field(b)
    if b.rows != a.cols:
        raise DimensionMismatch(f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}")
    db = int_degree(b)
    lo = max(h - db, 0)
    _, window = _expand(a, lo, h + delta - lo)
    # G = sum_i F_{h-db+i} x^i (F_j = 0 for j < 0); the slice is (G B)[db : db+delta]
    g = np.zeros((db + delta, a.rows, a.cols), dtype=np.int64)
    g[db + lo - h:] = window
    return ExpansionSlice(h, _fit(_mul(g, b.coeffs, a.field), db + delta)[db:])


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
    resid, window = _expand(a, h, sigma)
    numerator = PolyMatrix._canonical(a.field, resid)
    # strict properness forces deg B < deg A; anything else is a bug
    if not numerator.is_zero() and numerator.degree >= d:
        raise NonPolynomialQuotient(
            f"numerator degree {numerator.degree} not below deg A = {d}"
        )
    return ProperFractionData(SeriesMatrix._canonical(a.field, window), numerator)


# -- the expansion engine: high-order lifting on short residues ---------------
#
# For t >= 0 write A^{-1} = S_t + x^t A^{-1} R_t with S_t = A^{-1} mod x^t and
# the residue R_t = (I - A S_t) / x^t, a polynomial matrix of degree < d.
# R_t alone determines everything after order t: F_{t+k} = (S_d R_t)_k for
# k < d, so R_{t+d} = (R_t - A W_t) / x^d with W_t = (S_d R_t) mod x^d, and
#   R_{2t+d} = R_{t+d} R_t + A ((W_t R_t) div x^d)
# doubles the order. Each step is a product of degree-O(d) matrices on
# residue arrays; a doubling stacks its two independent pairs into one
# kernel call each, so it makes three: S_d R_t, then [A W_t, W_t R_t], then
# [R_{t+d} R_t, A ((W_t R_t) div x^d)], whose two products are summed.


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
    """(R_h, [F_h, .., F_{h+width-1}]) for the expansion of A^{-1} at x = 0, as residue arrays."""
    fld, p, d = a.field, a.field.p, int_degree(a)
    lift = d > 0 and not _newton_wins(a.rows, d, h)  # lifting steps by d
    # lifting reaches R_t, t = h - c; c >= d whenever it takes a step (h >= 2d)
    c = h - max(h // d - 1, 0) * d if lift else h
    s = truncated_inverse(a, c + width).coeffs
    r = np.eye(a.rows, dtype=np.int64)[None]
    if lift:
        def w_of(r):  # W_t from R_t
            return _mul(s[:d], r, fld)[:d]

        # r is R_t with t = (m - 1) d as m runs through the leading bits of h // d
        for bit in bin(h // d)[3:]:
            w = w_of(r)
            aw_wr = _mul_stacked(_stack([a.coeffs, w]), _stack([w, r]), fld)
            r_next = _sub_quo(r, aw_wr[:, 0], d, p)
            pair = _mul_stacked(_stack([r_next, a.coeffs]), _stack([r, aw_wr[d:, 1]]), fld)
            r = pair.sum(axis=1) % p  # m -> 2m
            if bit == "1":
                r = _sub_quo(r, _mul(a.coeffs, w_of(r), fld), d, p)  # m -> m + 1
        # h - t = c < 2d: one product with S mod x^(c + width) gives R_h and the window
        s = _fit(_mul(s, r, fld), c + width)
    return _sub_quo(r, _mul(a.coeffs, s[:c], fld), c, p), s[c:]
