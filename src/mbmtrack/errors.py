"""Exception types and the input checks shared across the library.

Every array a caller hands to a constructor or entry point is converted by
``real_array`` or ``finite_array``, so bad data fails here with InputError.
The CLI maps InputError (and file/parse failures) to exit code 2 and
NumericalError to exit code 1.
"""
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


def real_array(values, what: str) -> np.ndarray:
    """``values`` as a float array; InputError naming ``what`` unless every element is real.

    ``np.asarray(values, dtype=float)`` rejects Python complex elements but
    casts a complex array to its real part with only a warning.
    """
    try:
        array = np.asarray(values)
        if array.dtype.kind == "c":
            raise TypeError("complex elements are not real numbers")
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
