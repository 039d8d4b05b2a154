"""Shared exception types, and the one check of an integer count or seed.

Every bad input value raises InvalidArgumentError, a ValueError; the CLI
maps it and CsvParseError to exit 2, DomainViolationError and the other
PinvnetErrors to exit 1."""

import numbers

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


def _check_int(name, value, low):
    """Raise InvalidArgumentError naming `name` unless value is an int >= low
    (a bool is not)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
        raise InvalidArgumentError(f"{name} must be an int >= {low}, got {value!r}")
