"""Exception types shared across the package.

The CLI maps these onto exit codes: configuration problems exit with 2,
data problems (parsing, schemas, container formats, degenerate inputs)
with 3, and plain OS-level I/O failures with 4.
"""


class RfSentryError(Exception):
    """Base class for all errors raised by this package."""


class ConfigurationError(RfSentryError):
    """A parameter or flag combination is invalid."""


class InvalidFrameError(RfSentryError):
    """A sample frame has the wrong length or contains non-finite values."""


class InsufficientDataError(RfSentryError):
    """Not enough input to produce a result (empty file, short segment, ...)."""


class DegenerateSpectrumError(RfSentryError):
    """A spectrum is unusable for the requested operation (e.g. zero band mean)."""


class ShapeError(RfSentryError):
    """Array dimensions do not match the operation's contract."""


class ParseError(RfSentryError):
    """A text input contains a token that cannot be parsed."""


class SchemaError(RfSentryError):
    """A label or manifest entry violates the label schema."""


class FormatError(RfSentryError):
    """A binary container is corrupt, truncated, or has the wrong version."""


class DataError(RfSentryError):
    """A dataset entry could not be processed; the message names the entry."""


class EmptyEvaluationError(RfSentryError):
    """An evaluation was requested over zero predictions."""


class TrainingError(RfSentryError):
    """Training aborted; the message names the offending row."""
