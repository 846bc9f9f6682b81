"""Exception hierarchy for polymatkit.

All library errors derive from PolymatError so callers can catch one base
class. The CLI maps these onto process exit codes: SelfCheckFailure (a
computed result failed the library's own exact check) to 2, the other
errors to 3 or, for ParseError, 4.
"""


class PolymatError(Exception):
    """Base class for all polymatkit errors."""


class InvalidArgument(PolymatError, ValueError):
    """An argument outside its domain; a ValueError too, as such arguments raised one before."""


class SelfCheckFailure(PolymatError):
    """A computed result failed the library's own exact check: a fault, not bad input."""


# -- field / polynomial layer ------------------------------------------------

class ZeroInverse(PolymatError):
    """Multiplicative inverse of zero requested."""


class UnsupportedOrder(PolymatError):
    """Requested root-of-unity order not available in this field."""


class DuplicateAbscissa(PolymatError):
    """Interpolation points share an abscissa."""


class FieldTooSmall(PolymatError):
    """The prime is too small for the requested evaluation-based routine."""


class InvalidModulus(PolymatError, ValueError):
    """The field modulus is not an integer, or not a prime. A ValueError too, so the
    parser reports a bad header prime as a ParseError."""


class UnsupportedPrime(PolymatError):
    """The prime is 2**31 or larger; the int64 and float64 product kernels would lose exactness."""


# -- matrix layer ------------------------------------------------------------

class DimensionMismatch(PolymatError):
    """Operand shapes are incompatible."""


class ZeroRow(PolymatError):
    """A row-degree based predicate met an identically zero row."""


class NotSquare(PolymatError):
    """A square matrix was required."""


class SingularInput(PolymatError):
    """The input matrix is singular where a non-singular one is required."""


class SingularAtZero(PolymatError):
    """A(0) is singular; expansion at x=0 is impossible without a shift."""


# -- approximant / nullspace layer -------------------------------------------

class OrderExceedsData(PolymatError):
    """Requested approximation order exceeds the stored series order."""


class RankDeficient(PolymatError):
    """A full-column-rank precondition failed."""


class NullspaceCheckFailure(SelfCheckFailure):
    """Order-basis rows selected as nullspace vectors do not annihilate the input,
    or are dependent at a point, which a minimal basis never is."""


class OracleTooLarge(PolymatError, ValueError):
    """The input exceeds a brute-force oracle's size guard. A ValueError too, as
    the guards raised before they were typed."""


class CapTooSmall(PolymatError):
    """Brute-force nullspace degree cap below the largest Kronecker index."""


# -- fraction / solver layer -------------------------------------------------

class NonPolynomialQuotient(SelfCheckFailure):
    """An exact polynomial division left a remainder: a fault, not bad input."""


class WrongRowCount(PolymatError):
    """Fraction reconstruction found an unexpected number of low-degree rows."""


class ReconstructionFailure(PolymatError):
    """Row reduction or factorization could not reconstruct its result."""


class CertificateFailure(ReconstructionFailure, SelfCheckFailure):
    """A reconstructed result failed its exact certificate check."""


class GenericityFailure(PolymatError):
    """generic_det's kernel degrees fall short of a bound: b_11 / det A may not be a constant."""


# -- CLI / serialization -----------------------------------------------------

class ParseError(PolymatError):
    """Malformed polymat text file."""

    def __init__(self, message, line=None, column=None):
        loc = ""
        if line is not None:
            loc = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + loc)
        self.line = line
        self.column = column


class RequestTooLarge(PolymatError):
    """A CLI size argument asks for a series or an output of more than io.MAX_COEFFS
    coefficients, the bound the parser puts on input files."""


class PrimeMismatch(PolymatError):
    """Operands over different primes: two input files, or two field elements,
    polynomials or matrices combined by one operation."""
