"""Matrix fraction reconstruction (left coprime factorization).

Given the first dL + dR + 1 expansion coefficients of a strictly proper
H = V^{-1} U, one order-basis call on the stacked matrix [-I; F] recovers
(U, V): the n rows of degree <= dL of the basis split as [U | V], with V
row-reduced and the factorization left coprime.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .approxbasis import pmbasis
from .errors import DimensionMismatch, OrderExceedsData, WrongRowCount
from .polymat import PolyMatrix, SeriesMatrix


@dataclass(frozen=True)
class LeftFactorization:
    """H = V^{-1} U with polynomial U, V and V nonsingular row-reduced."""

    numerator: PolyMatrix
    denominator: PolyMatrix


def _stack_minus_identity(f: SeriesMatrix) -> SeriesMatrix:
    n = f.rows
    arr = np.zeros((f.order, 2 * n, f.cols), dtype=np.int64)
    arr[0, :n, :] = (-np.eye(n, dtype=np.int64)) % f.field.p
    arr[:, n:, :] = f.coeffs
    return SeriesMatrix(f.field, f.order, arr)


def matfrac_rec(f: SeriesMatrix, degree_left: int, degree_right: int) -> LeftFactorization:
    """Reconstruct H = V^{-1} U from its truncated expansion ``f``.

    ``f`` must hold at least degree_left + degree_right + 1 coefficients of
    a strictly proper H admitting factorizations of those degrees on the
    two sides; otherwise WrongRowCount reports the violated precondition.
    """
    if f.rows != f.cols:
        raise DimensionMismatch("reconstruction expects a square series")
    sigma = degree_left + degree_right + 1
    if f.order < sigma:
        raise OrderExceedsData(f"need {sigma} coefficients, have {f.order}")
    n = f.rows
    stacked = _stack_minus_identity(f.slice(0, sigma))
    block, _ = pmbasis(stacked, sigma).rows_up_to(degree_left)
    if block.rows != n:
        raise WrongRowCount(
            f"{block.rows} rows of degree <= {degree_left}, expected exactly {n}"
        )
    return LeftFactorization(block.take_cols(range(n)), block.take_cols(range(n, 2 * n)))
