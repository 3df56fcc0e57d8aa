"""Exception hierarchy shared by all colorcomp modules, and the strict
integer coercion and range check every public entry point applies to its
integer arguments."""

from operator import index


class ColorCompError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(ColorCompError, ValueError):
    """An argument is outside the mathematical domain of the operation."""


class InputError(ColorCompError, ValueError):
    """Malformed or insufficient input data (bad strings, short weight prefixes)."""


class InternalError(ColorCompError, RuntimeError):
    """Internal consistency violation, e.g. an inexact division in a recurrence.

    Raised instead of silently truncating; indicates a bug in a formula.
    """


def as_int(value, name):
    """``value`` as an int, for the argument called ``name``.

    Accepts ints and integer-like objects (anything with ``__index__``).
    Rejects bools and every other type, integral floats included, with
    InputError: nothing is truncated.
    """
    if type(value) is int:
        return value
    if not isinstance(value, bool):
        try:
            return index(value)
        except TypeError:
            pass
    raise InputError(f"{name} must be an integer, got {value!r}")


def checked(value, name, low=1, high=None):
    """``value`` as an int in low..high (no upper bound when ``high`` is None).

    Coerces as :func:`as_int` does; a value out of range raises
    DomainError in one of two forms, ``{name} must be >= {low}`` below the
    range and ``{name} must be in {low}..{high}`` above it.
    """
    if type(value) is not int:
        value = as_int(value, name)
    if value < low:
        raise DomainError(f"{name} must be >= {low}, got {value}")
    if high is not None and value > high:
        raise DomainError(f"{name} must be in {low}..{high}, got {value}")
    return value
