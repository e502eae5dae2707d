"""Typed errors shared across the toolkit, and `_check_real`, the one check of
every numeric parameter of a value object or solver: an int or a float
(np.float64 too), never a bool, finite and within its bounds.

The CLI maps each class to a distinct exit status, so keep the hierarchy
flat and the distinctions meaningful.
"""

import math


class ValidationError(ValueError):
    """Bad construction input or malformed data (negative rate, empty sample file, ...)."""


class DegenerateProcessError(ValueError):
    """1 - q = 0: every hop succeeds and the propagation process never terminates.

    All closed forms divide by the hop failure probability 1 - q; raising beats returning inf.
    The simulator, which reads no 1 - q, raises it where a block draws mc.MAX_MEAN_HOPS
    hops per trial before its trials close: as 1 - q -> 0 they would not end in useful time.
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


def _is_number(value, integer: bool = False) -> bool:
    """Whether value is an int or a float (an int with integer), subclasses too, not a bool."""
    return not isinstance(value, bool) and isinstance(value, int if integer else (int, float))


def _check_real(name: str, value, low=-math.inf, high=math.inf, *,
                strict: bool = False, integer: bool = False) -> None:
    """ValidationError unless value is a finite `_is_number` in [low, high] ((low, high]
    with strict); it is not converted, so a frozen field keeps the object it was given."""
    # most arguments are plain floats: one type test settles their kind
    if (type(value) is not float or integer) and not _is_number(value, integer):
        kind = "an int" if integer else "an int or a float"
        raise ValidationError(f"{name} must be {kind}, got {value!r}")
    # value - value is 0 for a finite value, NaN for NaN and the infinities;
    # the comparisons are exact for ints of any size
    if value - value == 0 and (low < value if strict else low <= value) and value <= high:
        return
    lo, hi = str(low).removesuffix(".0"), str(high).removesuffix(".0")  # 0.0 reads 0
    if high < math.inf:
        where = f"lie in {'(' if strict else '['}{lo}, {hi}]"
    elif low > -math.inf:
        where = f"be {'' if integer else 'finite and '}{'>' if strict else '>='} {lo}"
    else:
        where = "be finite"
    raise ValidationError(f"{name} must {where}, got {value!r}")
