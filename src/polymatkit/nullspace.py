"""Nullspace computations driven by approximant bases.

A minimal approximant basis of order delta + d + 1 for a degree-d matrix
contains exactly the minimal nullspace vectors of degree at most delta
(their degrees are the left Kronecker indices). The routines here select
those rows and always verify v A = 0 exactly before returning (Las Vegas
contract). One degree sweep, ``_kernel_bases``, serves ``general_nullspace``
(and so the exact ``rank``) and the solvers: it takes B same-shape matrices
as one (L, B, r, c) residue array, returns their kernel rows as one
zero-padded (L, B, k, r) array, and at each doubled cap raises every order
basis from the previous cap's (``approxbasis._raise``) instead of
recomputing it from order 0. It needs no random point, so it runs over any
field, GF(2) and GF(3) too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .approxbasis import _pmbasis, _raise, _rows_up_to
from .errors import NullspaceCheckFailure, RankDeficient
from .linalg import rank as const_rank
from .polymat import PolyMatrix, _mul_stacked, _normalize, int_degree, is_row_reduced, pm_eval


@dataclass(frozen=True)
class NullspaceBasis:
    """Rows spanning (part of) the left nullspace of a polynomial matrix."""

    matrix: PolyMatrix
    kronecker_degrees: list
    input_rank: int | None = None

    @property
    def row_count(self) -> int:
        return self.matrix.rows


def rank(a: PolyMatrix, seed=None) -> int:
    """Exact rank of A over K(x), over any field: the ``input_rank`` of
    ``general_nullspace`` on the side of A with fewer rows. ``seed`` only
    draws the point ranks that let a full-rank input skip the sweep."""
    return general_nullspace(a if a.rows <= a.cols else a.transpose(), seed).input_rank


def _select(a: np.ndarray, bases: np.ndarray, degrees: np.ndarray, cap: int, field) -> tuple:
    """The rows of degree at most cap of the order bases of the (L, B, r, c)
    matrices a, as ``approxbasis._rows_up_to`` returns them, certified to
    annihilate their matrices by one product check."""
    rows, found = _rows_up_to(bases, degrees, cap)
    if _mul_stacked(rows, a, field).any():
        raise NullspaceCheckFailure("order-basis rows of degree <= delta do not annihilate A")
    return rows, found


def _gather(parts: list, batch: int) -> np.ndarray:
    """The (L, batch, k, c) array of (indices, (L', len(indices), k', c) array)
    parts that cover the batch in order, zero-padded: one part is all of it."""
    if len(parts) == 1:
        return parts[0][1]
    length, k = (max(arr.shape[axis] for _, arr in parts) for axis in (0, 2))
    out = np.zeros((length, batch, k, parts[0][1].shape[3]), dtype=np.int64)
    for idx, arr in parts:
        out[:len(arr), idx, :arr.shape[2]] = arr
    return out


def _cap_step(a: np.ndarray, state, delta: int, field) -> tuple:
    """One degree cap for the (L, B, r, c) matrices a: (complete, state, rows, degrees).

    The cap is delta, clamped at the largest Kronecker bound rows * deg(A),
    at least 1: no left Kronecker index of A exceeds it, so a cap at or
    above it selects the same rows and leaves A's basis ``complete``. Below,
    the cap is clamped at -1: every negative cap selects no row. A's order
    basis of order cap + deg(A) + 1 is ``_pmbasis``'s (``state`` None: from
    order 0), or its basis in ``state`` = (orders, bases, shifted row
    degrees) raised to that order, batched by (old order, new order).
    ``_select`` certifies the rows of degree <= cap of all of them at once.
    """
    batch, r = a.shape[1], a.shape[2]
    deg = (np.arange(len(a))[:, None] * a.any(axis=(2, 3))).max(axis=0)  # 0 for A = 0
    bound = np.maximum(r * deg, 1)
    cap = max(min(delta, int(bound.max())), -1)
    orders = cap + deg + 1
    olds = np.zeros_like(orders) if state is None else state[0]
    groups = {}
    for b, key in enumerate(zip(olds.tolist(), orders.tolist())):
        groups.setdefault(key, []).append(b)
    parts, degrees = [], np.empty((batch, r), dtype=np.int64)
    for (old, sigma), idx in groups.items():
        if old:
            got = _raise(a[:, idx], old, _normalize(state[1][:, idx]), state[2][idx], sigma, field)
        else:
            got = _pmbasis(a[:, idx], sigma, np.zeros((len(idx), r), dtype=np.int64), field)
        parts.append((idx, got[0]))
        degrees[idx] = got[1]
    bases = _gather(parts, batch)
    return (cap >= bound, (orders, bases, degrees), *_select(a, bases, degrees, cap, field))


def minimal_vectors_up_to(a: PolyMatrix, delta: int) -> NullspaceBasis:
    """All minimal left nullspace vectors of A of degree at most delta.

    Computes an order basis of order delta + deg(A) + 1 and keeps the rows
    of degree at most delta; those are certified by an exact product check.
    A delta above rows * deg(A), which no Kronecker index exceeds, is taken
    as that bound; a negative delta gives no row.
    """
    _, _, rows, [degs] = _cap_step(a.coeffs[:, None], None, delta, a.field)
    return NullspaceBasis(PolyMatrix._canonical(a.field, rows[:, 0]), degs)


def partial_nullspace(a: PolyMatrix, delta: int, seed=None) -> NullspaceBasis:
    """Minimal nullspace vectors of degree <= delta for a tall full-column-rank A.

    A is (n+m) x n with m <= n; full column rank is prechecked with the exact
    ``rank`` (RankDeficient otherwise). The vectors are those of
    ``minimal_vectors_up_to(a, delta)``, certified by its exact product check.
    """
    m = a.rows - a.cols
    if m < 0 or m > a.cols:
        raise RankDeficient(f"expected (n+m) x n with m <= n, got {a.rows} x {a.cols}")
    if rank(a, seed) < a.cols:
        raise RankDeficient("input is column-rank deficient")
    return minimal_vectors_up_to(a, delta)


def _kernel_bases(a: np.ndarray, counts: list, delta: int, field) -> tuple:
    """Minimal nullspace bases of the (L, B, r, c) matrices a, as ``_select`` returns them.

    Sweeps degree caps delta, 2 delta, 4 delta, ... with one ``_cap_step``
    per cap for the matrices not done, each raising its order basis from
    the previous cap's, so every order is computed once. Matrix b is done
    when it has ``counts[b]`` rows, or when its basis is complete.
    """
    todo, state, parts, kron = np.arange(a.shape[1]), None, [], {}
    while todo.size:
        complete, (orders, bases, degrees), rows, found = _cap_step(a[:, todo], state, delta, field)
        kron.update(zip(todo.tolist(), found))
        done = complete | np.array([len(d) >= counts[b] for b, d in zip(todo, found)])
        parts.append((todo[done], rows[:, done]))
        todo, state = todo[~done], (orders[~done], bases[:, ~done], degrees[~done])
        delta = max(2 * delta, 1)
    return _normalize(_gather(parts, a.shape[1])), [kron[b] for b in range(a.shape[1])]


def general_nullspace(a: PolyMatrix, seed=None) -> NullspaceBasis:
    """Exact rank and a full-row-rank basis of the left nullspace of A.

    The sweep stops at n - r rows, r the best of up to three point ranks
    (drawn until one reaches min(rows, cols)), or at the bound n*d on the
    Kronecker indices, so basis and rank are exact whatever the draws. Its
    rows annihilate A and are row-reduced, hence independent; both are checked.
    """
    rng = np.random.default_rng(seed)
    n, p = a.rows, a.field.p
    r = 0
    for _ in range(3):
        r = max(r, const_rank(pm_eval(a, int(rng.integers(0, p))), p))
        if r == min(n, a.cols):
            break
    if r == n:
        return NullspaceBasis(PolyMatrix.zero(a.field, 0, n), [], input_rank=r)
    rows, [degs] = _kernel_bases(a.coeffs[:, None], [n - r], max(int_degree(a), 1), a.field)
    found = PolyMatrix._canonical(a.field, rows[:, 0])
    if not is_row_reduced(found):
        raise NullspaceCheckFailure("nullspace rows are dependent or not minimal: not row-reduced")
    return NullspaceBasis(found, degs, input_rank=n - found.rows)
