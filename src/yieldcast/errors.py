"""Exception hierarchy shared across the package.

Domain errors (bad input data, invalid configuration, degenerate math) all
derive from :class:`YieldcastError` so callers can distinguish them from
environment failures (`IoError`, plain `OSError`).
"""


class YieldcastError(Exception):
    """Base class for all domain errors raised by this package."""


class EmptyInput(YieldcastError):
    """An operation received no rows to work on."""


class InvalidConfig(YieldcastError):
    """A configuration value violates its documented constraints."""


class InvalidData(YieldcastError):
    """Input arrays contain non-finite or otherwise unusable values; `row`
    is the index of the input row at fault, where one is known."""

    def __init__(self, message: str, row: int | None = None):
        super().__init__(message)
        self.row = row


class ShapeError(YieldcastError):
    """Array dimensions do not match the fitted model or each other."""


class ConstantFeature(YieldcastError):
    """A feature column has zero variance where variance is required."""


class InsufficientRows(YieldcastError):
    """Too few rows for the requested computation (e.g. n <= p)."""


class Diverged(YieldcastError):
    """Iterative training produced non-finite parameters."""

    def __init__(self, epoch: int):
        super().__init__(f"training diverged at epoch {epoch}")
        self.epoch = epoch


class FormatError(YieldcastError):
    """A file does not match its expected format."""


class EmptyJoin(YieldcastError):
    """The panel merge produced zero rows."""


class UndefinedR2(YieldcastError):
    """R-squared is undefined because the target has zero variance."""


class UndefinedMape(YieldcastError):
    """MAPE is undefined because every target row was near zero."""


class UndefinedKappa(YieldcastError):
    """Kappa is undefined because chance agreement equals 1."""


class UnsupportedVersion(YieldcastError):
    """A serialized artifact declares a format version we cannot read."""


class FoldFailed(YieldcastError):
    """One or more cross-validation folds could not be completed."""

    def __init__(self, failures: list[tuple[int, str]]):
        detail = "; ".join(f"fold {i}: {msg}" for i, msg in failures)
        super().__init__(f"{len(failures)} fold(s) failed: {detail}")
        self.failures = failures


class IoError(YieldcastError):
    """Wraps an underlying OS-level read/write failure."""
