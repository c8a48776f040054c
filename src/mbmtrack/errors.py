"""Exception types and the integer test shared across the library.

The CLI maps InputError (and file/parse failures) to exit code 2 and
NumericalError to exit code 1.
"""
import numbers


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
