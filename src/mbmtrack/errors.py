"""Exception types and the input checks shared across the library.

Every array a caller hands to a constructor or entry point is converted by
``real_array`` or ``finite_array``, every scalar parameter by
``real_number`` or ``integer``, and every input file is read by
``read_text``, so bad data fails here with InputError.  The CLI maps
InputError (and OSError) to exit code 2 and NumericalError to exit code 1.
"""
import math
import numbers
from pathlib import Path

import numpy as np


class InputError(ValueError):
    """Malformed or inconsistent input (dimension mismatch, bad config, ...)."""


class NumericalError(ArithmeticError):
    """A computation became degenerate (singular innovation covariance, ...)."""


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


def integer(value, what: str, low: int, high: float = math.inf) -> int:
    """``value`` as an int; InputError naming ``what`` unless it is an integer,
    not a bool, in [``low``, ``high``].  Any size passes: a float need not hold it.
    """
    # A plain int skips the slower check; a bool is not a plain int, so it takes it.
    integral = type(value) is int or (
        isinstance(value, numbers.Integral) and not isinstance(value, bool))
    if integral and low <= value <= high:
        return int(value)
    try:
        shown = repr(value)
    except ValueError:  # an int too long to print
        shown = f"an integer of {int(value).bit_length()} bits"
    bound = f"<= {high}" if integral and value > high else f">= {low}"
    raise InputError(f"{what} must be an integer {bound}, got {shown}")


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
    """A read-only copy of ``real_array(values, what)``, which must also have ``shape`` if
    given and be finite.  The caller's own array stays writable and is not aliased."""
    array = real_array(values, what).copy()
    array.flags.writeable = False
    if shape is not None and array.shape != shape:
        raise InputError(f"{what} must have shape {shape}, got {array.shape}")
    if not np.isfinite(array).all():
        raise InputError(f"{what} must be finite")
    return array


def read_text(path) -> str:
    """The text of the file at ``path``; InputError naming it unless it is UTF-8."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise InputError(f"{path} is not UTF-8 text: {exc}") from exc
