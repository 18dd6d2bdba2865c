"""Exception types and argument checks shared across the package."""

import numbers

__all__ = ["UnsupportedSizeError"]


class UnsupportedSizeError(Exception):
    """Raised when an exact computation would exceed its feasibility cap.

    Callers can distinguish this from a validation error (ValueError): the
    input is well formed, but the requested instance is too large for the
    algorithm behind the operation.
    """


def _check_count(name: str, value) -> int:
    """A non-negative integer argument (numpy integers too) as a Python
    int; bools, floats and negative values are refused, naming it."""
    if isinstance(value, bool) or not (
            isinstance(value, numbers.Integral) and value >= 0):
        raise ValueError(f"{name} must be a non-negative integer; got {value!r}")
    return int(value)


def _check_budget(value) -> int:
    """A table budget, the most entries of any table: a positive integer
    (numpy integers too) as a Python int; bools, floats and values below 1
    are refused, naming it."""
    if isinstance(value, bool) or not (
            isinstance(value, numbers.Integral) and value >= 1):
        raise ValueError(f"budget must be a positive integer; got {value!r}")
    return int(value)
