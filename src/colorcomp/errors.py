"""Exception hierarchy shared by all colorcomp modules, and the strict
integer coercion every public entry point applies to its integer arguments."""

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
