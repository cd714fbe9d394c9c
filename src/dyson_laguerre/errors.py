"""Exception types shared across the package."""


class DysonLaguerreError(Exception):
    """Base class for all package errors."""


class DomainError(DysonLaguerreError):
    """Input outside the mathematical domain of an operation."""


class CollisionError(DomainError):
    """Two coordinates coincide (within tolerance) where strict ordering is required."""


class ValidationError(DysonLaguerreError):
    """Parameter or configuration object violates a documented invariant."""


class StepRejected(DysonLaguerreError):
    """An SDE proposal left the admissible region.  The package no longer
    raises it: its path drivers halve the step, then raise NumericError."""


class NumericError(DysonLaguerreError):
    """A numerical procedure failed to converge or exhausted its retry budget."""


class EigenFailure(NumericError):
    """The symmetric eigensolver did not converge or produced non-finite output."""


class UnsupportedRegime(DysonLaguerreError):
    """No sampler or formula is available for the requested parameter regime."""


class SizeMismatch(DysonLaguerreError):
    """Two empirical measures have different atom counts where equality is required."""


class EmptySample(DysonLaguerreError):
    """An estimator received an empty sample set."""


class UnnormalizedReference(DysonLaguerreError):
    """A reference density was supplied with an invalid normalizing constant."""


class ParseError(DysonLaguerreError):
    """Configuration text could not be parsed.

    Attributes:
        line: 1-based line number of the offending token.
        column: 1-based column number.
    """

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        loc = ""
        if line is not None:
            loc = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + loc)


class SerializationError(DysonLaguerreError):
    """A report could not be serialized to the requested format."""
