"""Exception types and argument checks shared across the package."""

import numbers

__all__ = ["UnsupportedSizeError"]


class UnsupportedSizeError(Exception):
    """Raised when an exact computation would exceed its feasibility cap.

    Callers can distinguish this from a validation error (ValueError): the
    input is well formed, but the requested instance is too large for the
    algorithm behind the operation.
    """


def _check_count(name: str, value, low: int = 0, high: int | None = None) -> int:
    """A non-negative integer argument (numpy integers too) in [low, high]
    (no upper bound when high is None) as a Python int; bools, floats,
    negative and out-of-range values are refused, naming it."""
    if isinstance(value, bool) or not (
            isinstance(value, numbers.Integral) and value >= 0):
        raise ValueError(f"{name} must be a non-negative integer; got {value!r}")
    if high is None and value < low:
        raise ValueError(f"{name} must be at least {low}; got {value!r}")
    if high is not None and not low <= value <= high:
        raise ValueError(f"{name} must lie in [{low}, {high}]; got {value!r}")
    return int(value)


def _check_probability(name: str, value, open_low: bool = False,
                       open_high: bool = False) -> None:
    """A probability argument in [0, 1], open at either end on request;
    NaN and values outside are refused, naming it."""
    if not ((0.0 < value if open_low else 0.0 <= value)
            and (value < 1.0 if open_high else value <= 1.0)):
        low, high = "(" if open_low else "[", ")" if open_high else "]"
        raise ValueError(f"{name} must lie in {low}0, 1{high}; got {value!r}")


def _check_budget(value) -> int:
    """A table budget, the most entries of any table: a positive integer
    (numpy integers too) as a Python int; bools, floats and values below 1
    are refused, naming it."""
    if isinstance(value, bool) or not (
            isinstance(value, numbers.Integral) and value >= 1):
        raise ValueError(f"budget must be a positive integer; got {value!r}")
    return int(value)
