"""Exception types shared across the package, and the integer and real rules for arguments.

Everything user-facing derives from CiteRankError so the CLI can map
library failures to exit code 1 and reserve exit code 2 for genuine bugs.
"""

import math
from numbers import Integral, Real


class CiteRankError(Exception):
    """Base class for all errors raised by this package."""


class InputError(CiteRankError, ValueError):
    """A caller-supplied argument violates an operation's contract.

    Also a ValueError, so callers that catch ValueError for a bad argument
    keep working.
    """


def require_integer(value, name: str):
    """value if it is a Python or numpy integer and not a bool; InputError naming `name` otherwise."""
    if isinstance(value, Integral) and not isinstance(value, bool):
        return value
    raise InputError(f"{name} must be an integer, got {value!r}")


def require_real(value, name: str) -> float:
    """value as a float: a finite Python or numpy real, not a bool; InputError naming `name` otherwise."""
    if not isinstance(value, Real) or isinstance(value, bool):
        raise InputError(f"{name} must be a real number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an int or Fraction past the float range
        raise InputError(f"{name} must be finite, got a number beyond the float range") from None
    if not math.isfinite(number):
        raise InputError(f"{name} must be finite, got {number}")
    return number


class ParseError(CiteRankError):
    """Publication records could not be parsed (fatal in strict mode)."""


class TableFormatError(CiteRankError):
    """A CSV table is malformed (bad header, missing value, bad number)."""


class EncodingError(CiteRankError):
    """An input file is not valid UTF-8; no line is named, as files are decoded by chunk."""

    def __init__(self, path, exc: UnicodeDecodeError):
        super().__init__(f"{path}: not valid UTF-8 ({exc.reason})")


class DegenerateNetworkError(CiteRankError):
    """The network is too small for the requested statistic (N < 2)."""


class EmptyNetworkError(CiteRankError):
    """An operation that needs at least one node got an empty network."""


class NumericError(CiteRankError):
    """A solver produced a non-finite value or did not converge."""


class ScoringError(CiteRankError):
    """Score inputs are unusable (all-zero vector, non-positive scores)."""


class MissingColumnError(CiteRankError):
    """A required named column is absent from a score table."""


class UndefinedStatisticError(CiteRankError):
    """The requested statistic is undefined for the given data."""


class DegenerateControlError(UndefinedStatisticError):
    """A control variable is perfectly collinear with an input."""


class InvalidCorrelationMatrixError(CiteRankError):
    """Input is not a valid correlation matrix."""
