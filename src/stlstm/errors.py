"""Exception hierarchy for the stlstm package, and the one size check numpy forces."""

import sys


class StlstmError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(StlstmError):
    """Operands have incompatible shapes; the message names both."""


class ConfigError(StlstmError):
    """Invalid configuration value, config file, or CLI input."""


class DataError(StlstmError):
    """Base class for dataset ingestion problems."""


class ManifestError(DataError):
    """Manifest file is malformed or internally inconsistent."""


class DateAlignmentError(DataError):
    """Location files do not share one gap-free, increasing date axis."""


class MissingValueError(DataError):
    """A cell is empty / NA and the active policy forbids filling it."""


class CsvFormatError(DataError):
    """A CSV cell or header could not be parsed."""


class CheckpointError(StlstmError):
    """Base class for checkpoint save and load failures."""


class CheckpointVersionError(CheckpointError):
    """Checkpoint declares an unsupported format version."""


class CheckpointFormatError(CheckpointError):
    """Checkpoint is truncated or contains unparseable records."""


class CheckpointShapeError(CheckpointError):
    """Checkpoint tensors disagree with the declared model spec."""


class NonFiniteModelError(CheckpointError):
    """A model holding a NaN or infinity was refused before it reached a file."""


class DivergenceError(StlstmError):
    """Training produced a non-finite loss or gradient; names where it happened."""

    def __init__(self, epoch: int, batch: int | None = None, tensor: str = "loss"):
        self.epoch, self.batch, self.tensor = epoch, batch, tensor
        where = f"epoch {epoch}" if batch is None else f"epoch {epoch}, batch {batch}"
        super().__init__(f"training diverged (non-finite {tensor}) at {where}")


class NonFiniteResultError(StlstmError):
    """A prediction or metric came out as NaN or infinity; ``row`` is the prediction's row."""

    def __init__(self, message: str, row: int | None = None):
        self.row = row
        super().__init__(message)


class ReportError(StlstmError):
    """Evaluation reports cannot be merged (e.g. duplicate grid cells)."""


def check_indexable(values: int, error: type[StlstmError], message: str) -> None:
    """Raise ``error(message)`` where numpy refuses ``values`` float64s with a ValueError."""
    # past its Py_ssize_t index type, even beside a zero-length axis
    if 8 * values > sys.maxsize:
        raise error(message)
