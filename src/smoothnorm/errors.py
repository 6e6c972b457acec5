"""Error taxonomy shared across the package.

Three failure classes: bad arguments, numerical non-convergence, and
constructions whose validity checks fail on instantiated data.
"""

import numbers


class ParameterError(ValueError):
    """Raised when an argument violates a documented precondition."""


class NumericError(RuntimeError):
    """Raised when an iterative routine exhausts its budget or range.

    Carries the last bracket so callers can inspect how far the
    computation got.
    """

    def __init__(self, message, bracket=None):
        super().__init__(message)
        self.bracket = bracket


class ConstructionError(RuntimeError):
    """Raised when a constructed instance fails its own validity checks."""


def check_integer(value, what) -> int:
    """value as an int, or a ParameterError naming it: bool is an int,
    and int() would truncate 2.5 or parse "1" silently."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ParameterError(f"{what} must be an integer, got {value!r}")
    return int(value)
