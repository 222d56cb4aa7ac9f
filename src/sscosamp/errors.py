"""Exception types shared across the package."""

__all__ = [
    "SparseRecoveryError",
    "InvalidInputError",
    "NumericalFailureError",
    "InstanceTooLargeError",
]


class SparseRecoveryError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInputError(SparseRecoveryError, ValueError):
    """An argument violates a documented precondition."""


class NumericalFailureError(SparseRecoveryError, RuntimeError):
    """An iterative numerical procedure failed to converge or produced
    non-finite values.  Carries optional diagnostics.
    """

    def __init__(self, message, *, iteration=None, diagnostics=None):
        super().__init__(message)
        self.iteration = iteration
        self.diagnostics = diagnostics or {}


class InstanceTooLargeError(SparseRecoveryError, ValueError):
    """A combinatorial routine refused to run past its enumeration cap."""
