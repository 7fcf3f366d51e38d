"""Exception taxonomy for gcakit.

Everything derives from GcaError so callers (and the CLI) can treat any
domain failure as "bad input" with one except clause.
"""

__all__ = [
    "GcaError",
    "DimensionMismatch",
    "BadModulus",
    "NotAntisymmetric",
    "BadOrder",
    "DegenerateBlock",
    "InconsistentOrders",
    "InvalidFactorSet",
    "IrrationalPhase",
    "UnknownName",
    "ZeroVector",
    "EvenGeneratorCount",
    "BadDeterminant",
    "UnsupportedTransform",
    "IrrationalFlux",
    "NotReal",
    "NotHermitian",
    "EvenDimension",
    "DenominatorOverflow",
    "NotFinite",
]


class GcaError(Exception):
    """Base class for all gcakit domain errors."""


class DimensionMismatch(GcaError):
    """Operands have incompatible shapes or lengths."""


class BadModulus(GcaError):
    """The phase modulus must be an integer >= 2."""


class NotAntisymmetric(GcaError):
    """t[j][k] + t[k][j] (or a diagonal entry) is nonzero mod the modulus."""


class BadOrder(GcaError):
    """A generator or matrix order is not a positive integer in range."""


class DegenerateBlock(GcaError):
    """A commutation exponent vanishes mod the modulus: the pair commutes."""


class InconsistentOrders(GcaError):
    """Prescribed generator orders cannot coexist with the commutation data."""


class InvalidFactorSet(GcaError):
    """A multiplier table violates normalization or the associativity identity."""


class IrrationalPhase(GcaError):
    """A complex value is not (close to) a root of unity."""


class UnknownName(GcaError):
    """Requested catalog entry does not exist."""


class ZeroVector(GcaError):
    """All coefficients vanish where a nonzero vector is required."""


class EvenGeneratorCount(GcaError):
    """The operation needs an odd number of generators."""


class BadDeterminant(GcaError):
    """k*n - l*m is not congruent to 1 mod N."""


class UnsupportedTransform(GcaError):
    """No intertwiner of the implemented form verifies for these parameters."""


class IrrationalFlux(GcaError):
    """Flux values must be exact rationals (int or Fraction), not floats."""


class NotReal(GcaError):
    """Input must be real within tolerance."""


class NotHermitian(GcaError):
    """Input matrix must be Hermitian within tolerance."""


class EvenDimension(GcaError):
    """This transform is defined only in odd dimension."""


class DenominatorOverflow(GcaError):
    """A common phase denominator exceeds 2**62, the bound of the int64 exponents."""


class NotFinite(GcaError):
    """Dense input holds NaN, infinity or an entry of infinite modulus, or its
    transform leaves the float range."""
