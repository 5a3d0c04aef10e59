"""Exception types raised by the library.

Violations of *data* contracts (metric axioms, report margins) are returned
as values, never raised; exceptions are reserved for calls whose inputs or
promised postconditions make the requested computation meaningless.
"""


class WgrError(Exception):
    """Base class for all library errors."""


class InvalidGeneratorError(WgrError):
    """Generator parameters outside their domain (n = 0, a >= b, ...)."""


class TooLargeError(WgrError):
    """Requested object exceeds a configured size cap."""


class EmptyBallError(WgrError):
    """A ball that must be nonempty has no member points."""


class EmptyAverageError(WgrError):
    """Averaging over a set of zero measure."""


class NoDataError(WgrError):
    """Every ball of a functional sweep was skipped; the sup is undefined."""


class InvalidDilationError(WgrError):
    """Dilation factor must be strictly positive."""


class InvalidParameterError(WgrError):
    """Scalar parameter outside its admissible range."""


class InvalidExponentError(WgrError):
    """Exponent p outside the admissible range of the inequality."""


class ThresholdError(WgrError):
    """Measured oscillation constant too large for the requested bound."""


class DegenerateWeightError(WgrError):
    """Weight vanishes on a reference ball where a positive average is needed."""


class CZPreconditionError(WgrError):
    """Stopping-time decomposition requested outside its admissible range."""


class CZConstructionError(WgrError):
    """A decomposition postcondition failed; carries the property and witness."""

    def __init__(self, message: str, prop: str = "", witness=None):
        super().__init__(message)
        self.prop = prop
        self.witness = witness


class NestingError(WgrError):
    """Two-level decomposition could not place a ball inside a 5-dilate."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class AlignmentError(WgrError):
    """Grid cells do not align with a generator's required geometry."""


class DomainError(WgrError):
    """Argument outside a special function's domain."""


class SchemaError(WgrError):
    """Configuration document violates the shipped schema."""


class LockError(WgrError):
    """Another run owns the output directory."""
