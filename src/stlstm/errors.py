"""The stlstm package's exceptions, the one size check numpy forces, and its one file writer."""

import contextlib
import os
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


def _std_fd(path) -> int | None:
    """1 or 2 if ``path`` names the file that stdout or stderr writes to, else None."""
    with contextlib.suppress(OSError):  # no such path, or a closed descriptor
        st = os.stat(path)
        for fd in (1, 2):
            if os.path.samestat(st, os.fstat(fd)):
                return fd
    return None


def write_file(path, *chunks) -> None:
    """Write bytes-like ``chunks`` (a str as UTF-8) to ``<path>.tmp``, then rename it to ``path``.

    A failure removes the temporary file, and an ``OSError`` names ``path``. A symlink's target
    is replaced. A path naming the file behind stdout or stderr (``/dev/stdout``, or the file
    stdout is redirected to) is written through that stream, after what was printed there; any
    other path that exists and is no regular file (a FIFO) is written in place.
    """
    fd = _std_fd(path)
    in_place = fd is not None or (os.path.exists(path) and not os.path.isfile(path))
    target = path if in_place else os.path.realpath(path)
    tmp = target if in_place else f"{target}.tmp"
    try:
        if fd is not None:
            (sys.stdout, sys.stderr)[fd - 1].flush()
        with open(tmp if fd is None else fd, "wb", closefd=fd is None) as fh:
            fh.writelines(c.encode() if isinstance(c, str) else c for c in chunks)
        if not in_place:
            os.replace(tmp, target)
    except BaseException as exc:
        if not in_place:
            with contextlib.suppress(OSError):
                os.remove(tmp)
        if isinstance(exc, OSError):
            exc.filename = os.fspath(path)
        raise
