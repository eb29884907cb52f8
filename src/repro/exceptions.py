"""Exception hierarchy for the SuRF reproduction library.

All library-specific errors derive from :class:`ReproError` so callers can
catch a single base class when integrating the library.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this library."""


class ValidationError(ReproError, ValueError):
    """An argument failed validation (wrong shape, sign, range or type)."""


class NotFittedError(ReproError, RuntimeError):
    """An estimator or finder was used before ``fit`` was called."""


class DimensionMismatchError(ValidationError):
    """Two objects that must share dimensionality do not."""


class TimeoutExceededError(ReproError, RuntimeError):
    """A baseline algorithm exceeded its configured time budget."""

    def __init__(self, message: str, fraction_done: float = 0.0):
        super().__init__(message)
        #: Fraction of planned work finished before the timeout (Table I reports this).
        self.fraction_done = float(fraction_done)
