"""Exact linear algebra for univariate polynomial matrices over GF(p).

The two primitives are minimal approximant bases (``mbasis`` / ``pmbasis``)
and matrix fraction expansion/reconstruction (``expansion_slice``,
``proper_tail``, ``matfrac_rec``); rank, nullspace, determinant, generic
inverse, row reduction and coprime factorization all reduce to them plus
fast polynomial matrix multiplication.
"""

from .approxbasis import ApproximantBasis, mbasis, pmbasis
from .bench import BenchReport, bench
from .errors import PolymatError
from .field import (
    DEFAULT_PRIME,
    FieldElement,
    PrimeField,
    default_field,
    get_field,
)
from .fraction import (
    ExpansionSlice,
    ProperFractionData,
    expansion_slice,
    proper_tail,
    truncated_inverse,
)
from .instances import rand_instance
from .io import load, parse, save, serialize
from .nullspace import (
    NullspaceBasis,
    general_nullspace,
    minimal_vectors_up_to,
    partial_nullspace,
    rank,
)
from .poly import (
    MINUS_INFINITY,
    Polynomial,
    poly_eval,
    poly_interpolate,
)
from .polymat import (
    PolyMatrix,
    SeriesMatrix,
    is_row_reduced,
    leading_row_matrix,
    pm_eval,
    pm_mul,
    pm_shift_var,
    pm_truncate,
    row_degrees,
)
from .reconstruct import LeftFactorization, matfrac_rec
from .solvers import (
    InverseRepresentation,
    generic_det,
    generic_inverse,
    left_factorization,
    row_reduce,
)

__version__ = "0.1.0"

__all__ = [
    "ApproximantBasis",
    "BenchReport",
    "DEFAULT_PRIME",
    "ExpansionSlice",
    "FieldElement",
    "InverseRepresentation",
    "LeftFactorization",
    "MINUS_INFINITY",
    "NullspaceBasis",
    "PolyMatrix",
    "Polynomial",
    "PolymatError",
    "PrimeField",
    "ProperFractionData",
    "SeriesMatrix",
    "bench",
    "default_field",
    "expansion_slice",
    "general_nullspace",
    "generic_det",
    "generic_inverse",
    "get_field",
    "is_row_reduced",
    "leading_row_matrix",
    "left_factorization",
    "load",
    "matfrac_rec",
    "mbasis",
    "minimal_vectors_up_to",
    "parse",
    "partial_nullspace",
    "pm_eval",
    "pm_mul",
    "pm_shift_var",
    "pm_truncate",
    "pmbasis",
    "poly_eval",
    "poly_interpolate",
    "proper_tail",
    "rand_instance",
    "rank",
    "row_degrees",
    "row_reduce",
    "save",
    "serialize",
    "truncated_inverse",
]
