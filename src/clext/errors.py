"""Exception types shared across the package."""


class ClextError(Exception):
    """Base class for all library errors."""


class LengthMismatchError(ClextError):
    """A parameter vector has the wrong number of entries."""


class ConjugationViolationError(ClextError):
    """kappa vector breaks the constraint conj(kappa_mu) = kappa_{lam-mu}."""


class NonFiniteError(ClextError):
    """A parameter vector has a NaN or infinite entry."""


class SumNotZeroError(ClextError):
    """alpha vector does not sum to zero."""


class NonUnitaryError(ClextError):
    """No unitary Fock representation exists for these parameters."""


class NotBoundedFromBelowError(ClextError):
    """Operation requires a bounded-from-below Fock representation."""


class NonUnitaryTruncationError(ClextError):
    """Truncation window contains a negative structure-function value."""


class DimensionTooLargeError(ClextError):
    """Requested truncation exceeds a finite-dimensional representation."""


class MarginTooLargeError(ClextError):
    """Interior margin does not fit inside the truncation."""


class EtaNormViolationError(ClextError):
    """Supercharge coefficients violate the norm constraint."""


class OrderMismatchError(ClextError):
    """Parasupersymmetry order p does not match lam = p + 1."""


class WrongLambdaError(ClextError):
    """Operation requires lam = 2."""


class WrongOrderError(ClextError):
    """Operation requires parasupersymmetry order p = 2."""


class ParseError(ClextError):
    """Malformed command line or config file."""


class ValidationError(ClextError):
    """Invalid combination of configuration values."""
