"""Exception types and the input tests shared across the library.

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


def real_array(values) -> np.ndarray:
    """``values`` as a float array; TypeError or ValueError unless every element is real.

    ``np.asarray(values, dtype=float)`` rejects Python complex elements but
    casts a complex array to its real part with only a warning.
    """
    array = np.asarray(values)
    if array.dtype.kind == "c":
        raise TypeError("complex elements are not real numbers")
    return array.astype(float, copy=False)
