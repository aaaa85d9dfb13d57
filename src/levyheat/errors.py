"""Semantic exception hierarchy.

Every error raised by the library derives from :class:`LevyHeatError` and
carries the operation name that produced it, so orchestration code (and the
CLI) can report failures without guessing where they came from.
"""

from __future__ import annotations

__all__ = [
    "LevyHeatError", "ZeroVarianceError", "NonIntegrableError", "EmptyRestrictionError",
    "InfiniteActivityError", "BudgetExceededError", "AtomCapExceededError", "NonFiniteStateError",
    "MissingAtomLogError", "InvalidDeltaError", "OutOfRangeError", "ConfigMismatchError",
    "EmptySampleError", "ConfigError",
]


class LevyHeatError(Exception):
    """Base class for all library errors."""

    def __init__(self, message: str, *, operation: str | None = None):
        self.operation = operation
        if operation:
            message = f"[{operation}] {message}"
        super().__init__(message)


class ZeroVarianceError(LevyHeatError):
    """sigma^2(eps) = 0, e.g. a compound Poisson measure fully truncated away."""


class NonIntegrableError(LevyHeatError):
    """A quadrature that must converge diverged (bad custom density, etc.)."""


class EmptyRestrictionError(LevyHeatError):
    """The restriction {|z| > eta} of the measure carries no mass."""


class InfiniteActivityError(LevyHeatError):
    """The restriction {|z| > eta} has infinite mass (eta too small)."""


class BudgetExceededError(LevyHeatError):
    """Dropped-variance fraction above the configured budget; decrease eta."""


class AtomCapExceededError(LevyHeatError):
    """Expected atom count above the configured hard cap; increase eta."""


class NonFiniteStateError(LevyHeatError):
    """A solver mode became NaN/inf; message reports the step index."""


class MissingAtomLogError(LevyHeatError):
    """A diagnostic that replays jumps was handed a path without an atom log."""


class InvalidDeltaError(LevyHeatError):
    """Factorization exponent outside (0, 1/4)."""


class OutOfRangeError(LevyHeatError):
    """Evaluation point outside the stored grid/domain."""


class ConfigMismatchError(LevyHeatError):
    """Statistics over paths require all paths to share one configuration."""


class EmptySampleError(LevyHeatError):
    """Two-sample statistics need nonempty samples."""


class ConfigError(LevyHeatError):
    """Invalid or unknown experiment-configuration key/value."""
