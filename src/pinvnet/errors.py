"""Shared exception types, and the one check of each kind of setting: an
int, a real number, a switch, text (maybe one of a set of choices), a
library object of one class or a few, and a sequence. A bad value raises
InvalidArgumentError, a ValueError naming its field; the CLI maps it and
CsvParseError to exit 2, DomainViolationError and the other PinvnetErrors
to exit 1."""

import math
import numbers
from collections import abc

import numpy as np

__all__ = [
    "PinvnetError",
    "InvalidArgumentError",
    "DomainViolationError",
    "CsvParseError",
]


class PinvnetError(Exception):
    """Base class for all library errors."""


class InvalidArgumentError(PinvnetError, ValueError):
    """A value passed to an operation or a configuration violates its
    precondition."""


class DomainViolationError(PinvnetError, ValueError):
    """An inverse was requested outside the function's range.

    Carries the position of the first offending entry so callers can
    locate the violation in large matrices.
    """

    def __init__(self, message, position=None, value=None):
        super().__init__(message)
        self.position = position
        self.value = value


class CsvParseError(PinvnetError, ValueError):
    """A CSV file could not be parsed; carries the 1-based line number."""

    def __init__(self, message, line=None):
        super().__init__(message)
        self.line = line


def _floor(low, strict=False):
    return "" if low == -math.inf else f" {'>' if strict else '>='} {low}"


def _check_int(name, value, low=-math.inf):
    """Raise InvalidArgumentError naming `name` unless value is an int >= low
    (a bool is not)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
        raise InvalidArgumentError(f"{name} must be an int{_floor(low)}, got {value!r}")


def _check_real(name, value, low=-math.inf, strict=False):
    """Raise InvalidArgumentError naming `name` unless value is a finite real
    number >= low, or > low when strict (a bool is not)."""
    try:
        ok = (isinstance(value, numbers.Real) and not isinstance(value, bool)
              and math.isfinite(value) and (value > low if strict else value >= low))
    except OverflowError:  # an int past the float range
        ok = False
    if not ok:
        raise InvalidArgumentError(
            f"{name} must be a finite number{_floor(low, strict)}, got {value!r}")


def _check_bool(name, value):
    """Raise InvalidArgumentError naming `name` unless value is a (numpy) bool."""
    if not isinstance(value, (bool, np.bool_)):
        raise InvalidArgumentError(f"{name} must be true or false, got {value!r}")


def _check_text(name, value, choices=None):
    """Raise InvalidArgumentError naming `name` unless value is a str and, when
    choices are given, one of them."""
    if not isinstance(value, str) or (choices is not None and value not in choices):
        what = "text" if choices is None else "one of " + ", ".join(choices)
        raise InvalidArgumentError(f"{name} must be {what}, got {value!r}")


def _check_type(name, value, cls):
    """Raise InvalidArgumentError naming `name` unless value is a `cls`
    (for a tuple of classes, an instance of one of them)."""
    if not isinstance(value, cls):
        what = " or ".join(c.__name__ for c in (cls if isinstance(cls, tuple) else (cls,)))
        raise InvalidArgumentError(f"{name} must be a {what}, got {value!r}")


def _check_sequence(name, value, what):
    """value as a tuple, or InvalidArgumentError naming `name` unless it is
    a non-empty sequence or 1-D array of `what`: not text, which would read
    per character, and not a set or an iterator, whose order is arbitrary
    or spent once read. The entries are the caller's to check."""
    if (isinstance(value, (str, bytes))
            or not isinstance(value, (abc.Sequence, np.ndarray))
            or getattr(value, "ndim", 1) != 1 or len(value) == 0):
        raise InvalidArgumentError(
            f"{name} must be a non-empty sequence of {what}, got {value!r}")
    return tuple(value)
