"""Shared exception types, and the one check of a random seed."""

import numbers

__all__ = [
    "PinvnetError",
    "InvalidArgumentError",
    "InvalidConfigurationError",
    "DomainViolationError",
    "CsvParseError",
]


class PinvnetError(Exception):
    """Base class for all library errors."""


class InvalidArgumentError(PinvnetError, ValueError):
    """A value passed to an operation violates its precondition."""


class InvalidConfigurationError(PinvnetError, ValueError):
    """A configuration object is internally inconsistent or unusable."""


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


def _check_seed(seed, error=InvalidArgumentError):
    """Raise `error` naming seed unless it is an int >= 0 (a bool is not)."""
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or seed < 0:
        raise error(f"seed must be an int >= 0, got {seed!r}")
