"""Exception types shared across the package; ``check_range``, the one
range check that every bounded scalar argument goes through; and
``check_seed``, the one check of an integer seed.

The CLI maps these to exit code 1 (user/domain errors); anything else that
escapes is treated as an internal error (exit code 2).
"""

import math
import operator


class FnequivError(Exception):
    """Base class for all package errors."""


class ShapeError(FnequivError):
    """Structural mismatch: array shapes, layer counts, or dimensions disagree."""


class NumericError(FnequivError):
    """A computation produced a non-finite value.

    Carries the 1-based layer index at which the overflow/NaN appeared,
    when known.
    """

    def __init__(self, message, layer=None):
        super().__init__(message)
        self.layer = layer


class DomainError(FnequivError):
    """An argument is outside the mathematical domain of the operation."""


class ConfigError(FnequivError):
    """A configuration object is invalid for the requested computation."""


class UnsupportedTransformError(FnequivError):
    """The activation at the targeted layer does not admit this transform."""


class BudgetExceededError(FnequivError):
    """An enumeration would exceed the configured budget.

    ``required`` reports the size the request would have needed, or None
    when the request is refused before that size is formed (a grid whose
    exponent alone shows it is over budget).
    """

    def __init__(self, message, required=None):
        super().__init__(message)
        self.required = required


def check_range(name, value, low, high=math.inf, *, low_open=False, high_open=True, error=DomainError):
    """Raise ``error`` unless ``value`` lies between ``low`` and ``high``.

    ``low_open`` and ``high_open`` exclude an end; by default the upper end,
    +inf, is excluded, so the value must be finite.  Every comparison with
    NaN is false, so NaN fails every bound.  The message names the argument,
    the interval and the value.
    """
    above = low < value if low_open else low <= value
    below = value < high if high_open else value <= high
    if not (above and below):
        left, right = "(" if low_open else "[", ")" if high_open else "]"
        raise error(f"{name} must be in {left}{low}, {high}{right}, got {value}")


def check_seed(seed) -> int:
    """``seed`` as an int; ``DomainError`` unless it is a nonnegative integer."""
    try:
        seed = operator.index(seed)
    except TypeError:
        raise DomainError(f"seed must be an integer, got {seed!r}") from None
    check_range("seed", seed, 0)
    return seed
