"""Exception hierarchy shared across the package.

Everything user-facing derives from :class:`HarmonicityError` so the CLI can
distinguish expected failures (bad input, unusable tuning, missing data) from
genuine bugs and report them without a traceback.
"""

from __future__ import annotations

__all__ = [
    "DataError",
    "HarmonicityError",
    "ParseError",
    "TuningError",
    "UndefinedMeasureError",
    "UsageError",
]


class HarmonicityError(Exception):
    """Base class for all errors raised by this package."""


class UsageError(HarmonicityError, ValueError):
    """An argument was outside the documented domain of an operation."""


class TuningError(UsageError):
    """A tuning without exact frequency ratios was used where ratios are
    required (equal temperament has irrational ratios, so period lengths
    have no finite common multiple), or a rational tuning's deviation bound
    is too coarse to give increasing ratios."""


class UndefinedMeasureError(UsageError):
    """A measure was requested for an input it is not defined on
    (e.g. pairwise-interval measures of a single tone)."""


class ParseError(UsageError):
    """Free-form user input (pitch specs, option values) could not be
    parsed; the message names the offending token and its position."""


class DataError(HarmonicityError):
    """An embedded or user-supplied dataset file is missing or malformed."""
