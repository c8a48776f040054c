"""Exception types and the input checks shared across the library.

Every array a caller hands to a constructor or entry point is converted by
``real_array`` or ``finite_array``, and every scalar parameter by
``real_number`` or ``integer``, so bad data fails here with InputError.
The CLI maps InputError (and file/parse failures) to exit code 2 and
NumericalError to exit code 1.
"""
import math
import numbers

import numpy as np


class InputError(ValueError):
    """Malformed or inconsistent input (dimension mismatch, bad config, ...)."""


class NumericalError(ArithmeticError):
    """A computation became degenerate (singular innovation covariance, ...)."""


def is_int(value) -> bool:
    """An integer that is not a bool (numpy integers included).

    A plain int returns before the slower ``numbers.Integral`` check; ``bool``
    is a subclass of int, not int itself, so it still takes that check.
    """
    return type(value) is int or (
        isinstance(value, numbers.Integral) and not isinstance(value, bool)
    )


def real_number(value, what: str, interval: str) -> float:
    """``value`` as a float; InputError naming ``what`` unless it is a real
    number, not a bool, that converts to a float and lies in ``interval``.

    ``interval`` is written like ``"[0, 1)"`` or ``"(0, inf]"``: a bracket
    includes its bound and a parenthesis excludes it.
    """
    low, high = (float(bound) for bound in interval[1:-1].split(","))
    number = math.nan
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:  # an int beyond the float range, too long to print
            bits = int(value).bit_length()
            raise InputError(f"{what} must fit a float, got an integer of {bits} bits") from None
    above = low <= number if interval[0] == "[" else low < number
    if not (above and (number <= high if interval[-1] == "]" else number < high)):
        finite = "finite: " if interval.endswith("inf)") else ""
        raise InputError(f"{what} must be {finite}a real number in {interval}, got {value!r}")
    return number


def integer(value, what: str, low: int) -> int:
    """``value`` as an int; InputError naming ``what`` unless it is an integer,
    not a bool, that is at least ``low``.  Any size passes: a float need not hold it.
    """
    if not (is_int(value) and value >= low):
        raise InputError(f"{what} must be an integer >= {low}, got {value!r}")
    return int(value)


def real_array(values, what: str) -> np.ndarray:
    """``values`` as a float array; InputError naming ``what`` unless every element is real.

    Only integer and float arrays convert: ``astype(float)`` would cast a
    complex array to its real part with only a warning, parse strings and
    take bools as 0 and 1.
    """
    try:
        array = np.asarray(values)
        if array.dtype.kind not in "iuf":
            kind = {"c": "complex", "b": "bool", "U": "string"}.get(array.dtype.kind, "object")
            raise TypeError(f"{kind} elements are not real numbers")
        return array.astype(float, copy=False)
    except (TypeError, ValueError) as exc:  # complex, string, dict or ragged input
        raise InputError(f"malformed {what}: {exc}") from exc


def finite_array(values, what: str, shape: tuple[int, ...] | None = None) -> np.ndarray:
    """``real_array(values, what)``, which must also have ``shape`` if given and be finite."""
    array = real_array(values, what)
    if shape is not None and array.shape != shape:
        raise InputError(f"{what} must have shape {shape}, got {array.shape}")
    if not np.isfinite(array).all():
        raise InputError(f"{what} must be finite")
    return array
