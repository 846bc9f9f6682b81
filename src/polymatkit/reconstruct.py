"""Matrix fraction reconstruction (left coprime factorization).

Given the first dL + dR + 1 expansion coefficients of a strictly proper
H = V^{-1} U, one order basis of the stacked matrix [-I; F] recovers
(U, V): the n rows of degree <= dL of the basis split as [U | V], with V
row-reduced and the factorization left coprime. The order-basis engine
takes [-I; F] as one residue array; only U and V are wrapped as matrices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .approxbasis import _pmbasis, _rows_up_to
from .errors import DimensionMismatch, InvalidArgument, OrderExceedsData, WrongRowCount
from .polymat import PolyMatrix, SeriesMatrix


@dataclass(frozen=True)
class LeftFactorization:
    """H = V^{-1} U with polynomial U, V and V nonsingular row-reduced."""

    numerator: PolyMatrix
    denominator: PolyMatrix


def matfrac_rec(f: SeriesMatrix, degree_left: int, degree_right: int) -> LeftFactorization:
    """Reconstruct H = V^{-1} U from its truncated expansion ``f``.

    ``f`` must hold at least degree_left + degree_right + 1 coefficients of
    a strictly proper H admitting factorizations of those degrees on the
    two sides; otherwise WrongRowCount reports the violated precondition.
    """
    if f.rows != f.cols:
        raise DimensionMismatch("reconstruction expects a square series")
    if min(degree_left, degree_right) < 0:
        raise InvalidArgument(f"degrees must be nonnegative, got {degree_left}, {degree_right}")
    sigma = degree_left + degree_right + 1
    if f.order < sigma:
        raise OrderExceedsData(f"need {sigma} coefficients, have {f.order}")
    n, fld = f.rows, f.field
    stacked = np.zeros((sigma, 1, 2 * n, n), dtype=np.int64)
    stacked[0, 0, range(n), range(n)] = fld.p - 1
    stacked[:, 0, n:] = f.coeffs[:sigma]
    # the basis is nonsingular and unshifted: the engine's degrees are its row degrees
    bases, degrees = _pmbasis(stacked, sigma, np.zeros((1, 2 * n), dtype=np.int64), fld)
    rows, [picked] = _rows_up_to(bases, degrees, degree_left)
    if len(picked) != n:
        raise WrongRowCount(f"{len(picked)} rows of degree <= {degree_left}, expected exactly {n}")
    return LeftFactorization(PolyMatrix._canonical(fld, rows[:, 0, :, :n]),
                             PolyMatrix._canonical(fld, rows[:, 0, :, n:]))
