"""The location-CSV reader as it was before clean files were split directly.

Every file goes through ``csv.reader`` and a list of row lists; a clean
grid is converted in one ``np.array`` call, anything else cell by cell.
Kept verbatim as the oracle that ``stlstm.data._read_location_csv`` must
match: the same dates, variables and value bits, or the same error class
and message.
"""

import csv
import datetime as dt
import math
from pathlib import Path

import numpy as np

from stlstm.errors import CsvFormatError, DataError, MissingValueError

_MISSING_TOKENS = {"", "na", "nan", "null"}


def _parse_date(text: str, where: str) -> dt.date:
    try:
        return dt.date.fromisoformat(text.strip())
    except ValueError as exc:
        raise CsvFormatError(f"{where}: bad ISO date {text!r}") from exc


def _bulk_values(rows: list[list[str]], width: int) -> np.ndarray | None:
    """The value grid of a clean file in one call; None if any cell needs the per-cell path.

    numpy converts each cell with Python's float(), which ignores the
    same surrounding whitespace str.strip() does, so a grid that parses
    here and is all finite equals the per-cell result bit for bit.
    """
    if any(len(row) != width for row in rows[1:]):
        return None
    try:
        data = np.array([row[1:] for row in rows[1:]], dtype=np.float64)
    except ValueError:
        return None
    return data if np.isfinite(data).all() else None


def read_location_csv(path: Path, missing_policy: str) -> tuple[list[dt.date], list[str], np.ndarray]:
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            rows = list(reader)
    except csv.Error as exc:
        raise CsvFormatError(f"{path}:{reader.line_num}: {exc}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    if not rows:
        raise CsvFormatError(f"{path}: empty file")
    if len(rows) == 1:
        raise CsvFormatError(f"{path}: header but no data rows")
    header = [h.strip() for h in rows[0]]
    if len(header) < 2 or header[0] != "date":
        raise CsvFormatError(f"{path}: header must be 'date,<var1>,...', got {header}")
    variables = header[1:]
    data = _bulk_values(rows, len(header))
    if data is not None:
        dates = [_parse_date(row[0], f"{path}:{r}") for r, row in enumerate(rows[1:], start=2)]
        return dates, variables, data
    # a ragged row, a missing token or a bad cell: parse cell by cell, which
    # forward-fills and names the line and variable of the first problem
    dates = []
    data = np.empty((len(rows) - 1, len(variables)))
    for r, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise CsvFormatError(f"{path}:{r}: expected {len(header)} cells, got {len(row)}")
        dates.append(_parse_date(row[0], f"{path}:{r}"))
        for j, cell in enumerate(row[1:]):
            text = cell.strip()
            if text.lower() in _MISSING_TOKENS:
                if missing_policy == "ffill":
                    if r == 2:
                        raise MissingValueError(
                            f"{path}:{r}: leading missing value in {variables[j]!r} "
                            "cannot be forward-filled"
                        )
                    data[r - 2, j] = data[r - 3, j]
                else:
                    raise MissingValueError(
                        f"{path}:{r}: missing value in {variables[j]!r} "
                        "(missing_policy='error')"
                    )
            else:
                try:
                    value = float(text)
                except ValueError as exc:
                    raise CsvFormatError(
                        f"{path}:{r}: unparseable cell {cell!r} in {variables[j]!r}"
                    ) from exc
                if not math.isfinite(value):
                    raise CsvFormatError(
                        f"{path}:{r}: non-finite cell {cell!r} in {variables[j]!r}"
                    )
                data[r - 2, j] = value
    return dates, variables, data
