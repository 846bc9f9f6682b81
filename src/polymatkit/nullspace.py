"""Nullspace computations driven by approximant bases.

A minimal approximant basis of order delta + d + 1 for a degree-d matrix
contains exactly the minimal nullspace vectors of degree at most delta
(their degrees are the left Kronecker indices). The routines here select
those rows and always verify v A = 0 exactly before returning (Las Vegas
contract). One degree sweep, ``_kernel_bases``, serves ``general_nullspace``
(and so the exact ``rank``) and the solvers' left factorization and inverse;
at each doubled cap it raises every matrix's order basis from the previous
cap's (``approxbasis.raise_order``) instead of recomputing it from order 0.
It needs no random point, so it runs over any field, GF(2) and GF(3) too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .approxbasis import pmbasis, raise_order
from .errors import NullspaceCheckFailure, RankDeficient
from .linalg import rank as const_rank
from .polymat import PolyMatrix, int_degree, is_row_reduced, pm_eval, pm_mul_batch


@dataclass(frozen=True)
class NullspaceBasis:
    """Rows spanning (part of) the left nullspace of a polynomial matrix."""

    matrix: PolyMatrix
    kronecker_degrees: list
    input_rank: int | None = None

    @property
    def row_count(self) -> int:
        return self.matrix.rows


def _empty_basis(a: PolyMatrix, input_rank=None) -> NullspaceBasis:
    empty = PolyMatrix(a.field, np.zeros((1, 0, a.rows), dtype=np.int64))
    return NullspaceBasis(empty, [], input_rank)


def rank(a: PolyMatrix, seed=None) -> int:
    """Exact rank of A over K(x), over any field: the ``input_rank`` of
    ``general_nullspace`` on the side of A with fewer rows. ``seed`` only
    draws the point ranks that let a full-rank input skip the sweep."""
    return general_nullspace(a if a.rows <= a.cols else a.transpose(), seed).input_rank


def _select(mats: list, bases: list, delta: int) -> list:
    """Per matrix A, the rows of its order basis of degree at most delta, certified
    to annihilate A by one batched product check per selected row count."""
    picks = [basis.rows_up_to(delta) for basis in bases]
    by_count = {}
    for j, (rows, _) in enumerate(picks):
        if rows.rows:
            by_count.setdefault(rows.rows, []).append(j)
    for idx in by_count.values():
        if not all(c.is_zero() for c in pm_mul_batch([picks[j][0] for j in idx],
                                                     [mats[j] for j in idx])):
            raise NullspaceCheckFailure("order-basis rows of degree <= delta do not annihilate A")
    return [NullspaceBasis(rows, degs) if rows.rows else _empty_basis(a)
            for a, (rows, degs) in zip(mats, picks)]


def _kronecker_bound(a: PolyMatrix) -> int:
    """rows * deg(A), at least 1: no left Kronecker index of A exceeds it, so
    every degree cap at or above it selects the same rows."""
    return max(a.rows * int_degree(a), 1)


def _cap_step(mats: list, bases: list, delta: int) -> tuple[int, list, list]:
    """One degree cap for the matrices in ``mats``: (cap, order bases, nullspace bases).

    The cap is delta, clamped at the largest Kronecker bound. Matrix A's
    order basis of order cap + deg(A) + 1 is ``pmbasis``'s, or its basis in
    ``bases`` raised to that order (None: from order 0), batched by (old
    order, new order, shape); ``_select`` certifies its rows of degree <= cap.
    """
    cap = min(delta, max(map(_kronecker_bound, mats), default=0))
    groups = {}
    for i, (a, basis) in enumerate(zip(mats, bases)):
        key = (basis.order if basis else 0, cap + int_degree(a) + 1, a.rows, a.cols)
        groups.setdefault(key, []).append(i)
    raised, found = [None] * len(mats), [None] * len(mats)
    for (old, sigma, _, _), idx in groups.items():
        fs = [mats[i].to_series(sigma) for i in idx]
        group = raise_order(fs, [bases[i] for i in idx], sigma) if old else pmbasis(fs, sigma)
        for i, basis, kernel in zip(idx, group, _select([mats[i] for i in idx], group, cap)):
            raised[i], found[i] = basis, kernel
    return cap, raised, found


def minimal_vectors_up_to(a: PolyMatrix | list, delta: int) -> NullspaceBasis | list:
    """All minimal left nullspace vectors of A of degree at most delta.

    Computes an order basis of order delta + deg(A) + 1 and keeps the rows
    of degree at most delta; those are certified by an exact product check.
    A delta above rows * deg(A), which no Kronecker index exceeds, is taken
    as that bound. ``a`` may also be a list of matrices: the result is then
    the list of their bases, from one batched order-basis call and one
    batched check per shape and order, with delta clamped at the largest bound.
    """
    batch = [a] if isinstance(a, PolyMatrix) else a
    _, _, found = _cap_step(batch, [None] * len(batch), delta)
    return found[0] if isinstance(a, PolyMatrix) else found


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


def _kernel_bases(mats: list, counts: list, delta: int) -> list:
    """Minimal nullspace bases of the matrices in ``mats``, one per matrix.

    Sweeps degree caps delta, 2 delta, 4 delta, ... with one ``_cap_step``
    per cap for the matrices not done, each raising its order basis from
    the previous cap's, so every order is computed once. Matrix i is done
    when it has ``counts[i]`` rows, or when the cap reaches its rows * deg,
    which no Kronecker index exceeds: then it is complete.
    """
    out, bases = [None] * len(mats), [None] * len(mats)
    todo = list(range(len(mats)))
    while todo:
        cap, raised, found = _cap_step([mats[i] for i in todo], [bases[i] for i in todo], delta)
        for i, basis, kernel in zip(todo, raised, found):
            bases[i], out[i] = basis, kernel
        todo = [i for i in todo if out[i].row_count < counts[i] and cap < _kronecker_bound(mats[i])]
        delta = max(2 * delta, 1)
    return out


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
        return _empty_basis(a, input_rank=r)
    [found] = _kernel_bases([a], [n - r], max(int_degree(a), 1))
    if not is_row_reduced(found.matrix):
        raise NullspaceCheckFailure("nullspace rows are dependent or not minimal: not row-reduced")
    return NullspaceBasis(found.matrix, found.kronecker_degrees, input_rank=n - found.row_count)
