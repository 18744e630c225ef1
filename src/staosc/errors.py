"""Shared exception types and the input checks every layer uses."""

import math
from numbers import Integral


class IntegrationError(RuntimeError):
    """An ODE solve failed or missed its accuracy contract."""


class TruncationLeakageError(RuntimeError):
    """State amplitude escaped into the top of a truncated basis.

    Raised when more than the tolerated norm sits in the highest levels of
    a finite oscillator basis; the fix is to rerun with a larger dimension.
    """


def require_positive(**values: float) -> None:
    """Raise ValueError naming the first value outside (0, inf); NaN is outside."""
    for name, value in values.items():
        if not 0.0 < value < math.inf:
            raise ValueError(f"{name} must be positive and finite, got {value!r}")


def require_int(minimum: int, **values: int) -> None:
    """Raise ValueError naming the first value that is not an int (bool is not) >= minimum."""
    for name, value in values.items():
        if isinstance(value, bool) or not isinstance(value, Integral) or value < minimum:
            raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")
