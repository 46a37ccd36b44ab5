"""Exception types shared across the package."""


class TehierError(Exception):
    """Base class for all errors raised by this package."""


class FormatError(TehierError):
    """Malformed input data (FASTA, CSV, taxonomy file)."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class LabelParseError(FormatError):
    """A hierarchy label token could not be parsed."""


class TaxonomyError(TehierError):
    """Structural problem with a taxonomy or an unknown node lookup."""


class DegenerateDataError(TehierError):
    """Training data cannot support the requested fit (e.g. one class only)."""


class DimensionError(TehierError):
    """Feature vector dimension does not match what a model expects."""


class ModelFileError(TehierError):
    """Model file is unreadable, truncated, or has an unsupported version."""


class GridSearchError(TehierError):
    """Grid search could not produce a usable parameter selection."""


class WorkerError(TehierError):
    """A worker process died, or could not send a task's outcome back."""
