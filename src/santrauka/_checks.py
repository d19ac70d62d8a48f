"""The one rule for numeric option values in every config and public function:
a bool is neither a count nor a real, and each error names the parameter first."""

from __future__ import annotations

import math
import numbers
import operator
import sys


def count(name: str, value, least: int) -> int:
    """``value`` as a plain int: an integer, not a bool, of at least ``least``."""
    if isinstance(value, bool) or not hasattr(type(value), "__index__"):
        raise TypeError(f"{name} must be an integer, not {type(value).__name__}")
    value = operator.index(value)
    if value < least:
        raise ValueError(f"{name} must be " + (f"at least {least}" if least else "nonnegative"))
    return value


def real(name: str, value):
    """``value`` unconverted: a real number, not a bool, NaN, an infinity or
    an integer too large for a float."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"{name} must be a number, not {type(value).__name__}")
    # a float32 is compared with the infinities it holds, not the largest
    # double, whose cast to it overflows
    if not -math.inf < value < math.inf or (
        isinstance(value, numbers.Integral) and abs(value) > sys.float_info.max
    ):
        raise ValueError(f"{name} must be a finite number, got {value}")
    return value
