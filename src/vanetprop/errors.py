"""Typed errors shared across the toolkit.

The CLI maps each class to a distinct exit status, so keep the hierarchy
flat and the distinctions meaningful.
"""


class ValidationError(ValueError):
    """Bad construction input or malformed data (negative rate, empty sample file, ...)."""


class DegenerateProcessError(ValueError):
    """1 - q = 0: every hop succeeds and the propagation process never terminates.

    All closed forms divide by the hop failure probability 1 - q; raising beats returning inf.
    The simulator also raises it where E[N] = q/(1-q) exceeds mc.MAX_MEAN_HOPS.
    """


class NumericError(RuntimeError):
    """A numerical routine failed to converge.

    Carries the best estimate so callers can still inspect it.
    """

    def __init__(self, message: str, estimate: float | None = None,
                 error_estimate: float | None = None):
        super().__init__(message)
        self.estimate = estimate
        self.error_estimate = error_estimate


class UnsupportedOrderError(ValidationError):
    """Moment order outside {1, 2}."""
