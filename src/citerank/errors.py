"""Exception types shared across the package.

Everything user-facing derives from CiteRankError so the CLI can map
library failures to exit code 1 and reserve exit code 2 for genuine bugs.
"""


class CiteRankError(Exception):
    """Base class for all errors raised by this package."""


class InputError(CiteRankError, ValueError):
    """A caller-supplied argument violates an operation's contract.

    Also a ValueError, so callers that catch ValueError for a bad argument
    keep working.
    """


class ParseError(CiteRankError):
    """Publication records could not be parsed (fatal in strict mode)."""


class TableFormatError(CiteRankError):
    """A CSV table is malformed (bad header, missing value, bad number)."""


class DegenerateNetworkError(CiteRankError):
    """The network is too small for the requested statistic (N < 2)."""


class EmptyNetworkError(CiteRankError):
    """An operation that needs at least one node got an empty network."""


class NumericError(CiteRankError):
    """A solver produced a non-finite intermediate value."""


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
