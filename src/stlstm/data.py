"""Multi-location daily series: ingestion, windowing into ``WindowArrays``, synthetic data.

CSV format (one file per location): header ``date,<var1>,...,<varm>``
with ISO-8601 dates. Each file is tokenized once: a clean file (LF or
CRLF lines, no quotes, the header's comma count on every line) is split
on its commas directly, any other file, quoted cells included, goes
through csv.reader. Its cells are converted once in bulk, and cell by
cell only if that fails; both tokenizations give the same results and
errors.

Manifest format: one ``location_name,path`` line per location in
canonical order (paths relative to the manifest file), then
``target=<location>:<variable>`` and optionally
``test_start=<date>,test_end=<date>`` (inclusive dates).

The manifest's location order is THE order: input vectors concatenate
location blocks in it, and the spatio-temporal model slices them back
out by it.
"""

from __future__ import annotations

import csv
import datetime as dt
import io
import math
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    CsvFormatError,
    DataError,
    DateAlignmentError,
    ManifestError,
    MissingValueError,
    ShapeError,
    check_indexable,
    write_file,
)

_MISSING_TOKENS = {"", "na", "nan", "null"}


@dataclass(frozen=True)
class Manifest:
    locations: tuple[tuple[str, Path], ...]  # (name, csv path) in canonical order
    target: tuple[str, str]                  # (location, variable)
    test_range: tuple[dt.date, dt.date] | None = None  # inclusive

    def __post_init__(self) -> None:
        if not self.locations:
            raise ManifestError("manifest lists no locations")
        names = [name for name, _ in self.locations]
        if len(set(names)) != len(names):
            raise ManifestError(f"duplicate location names in manifest: {names}")
        if self.target[0] not in names:
            raise ManifestError(
                f"target location {self.target[0]!r} is not in the manifest ({names})"
            )
        if self.test_range is not None and self.test_range[0] > self.test_range[1]:
            raise ManifestError(
                f"test_start {self.test_range[0]} is after test_end {self.test_range[1]}"
            )


def _parse_date(text: str, where: str, error: type[DataError]) -> dt.date:
    try:
        return dt.date.fromisoformat(text.strip())
    except ValueError as exc:
        raise error(f"{where}: bad ISO date {text!r}") from exc


def load_manifest(path) -> Manifest:
    path = Path(path)
    locations: list[tuple[str, Path]] = []
    target = None
    test_start = test_end = None
    seen = {}  # the line that declared the target, and the one that declared the test range
    try:
        text = path.read_text()
    except UnicodeDecodeError as exc:
        raise ManifestError(f"{path}: not a text manifest ({exc.reason})") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        what = ("target" if line.startswith("target=") else
                "test range" if line.startswith(("test_start=", "test_end=")) else None)
        if what in seen:
            raise ManifestError(f"{path}:{lineno}: {what} repeats line {seen[what]}")
        if what:
            seen[what] = lineno
        if what == "target":
            value = line[len("target="):]
            if ":" not in value:
                raise ManifestError(f"{path}:{lineno}: target must be <location>:<variable>")
            loc, var = value.split(":", 1)
            target = (loc.strip(), var.strip())
        elif what == "test range":  # its two keys in either order
            parts = dict(p.split("=", 1) for p in line.split(",") if "=" in p)
            if sorted(parts) != ["test_end", "test_start"] or line.count(",") != 1:
                raise ManifestError(
                    f"{path}:{lineno}: expected test_start=<date>,test_end=<date>"
                )
            test_start = _parse_date(parts["test_start"], f"{path}:{lineno}", ManifestError)
            test_end = _parse_date(parts["test_end"], f"{path}:{lineno}", ManifestError)
        else:
            if "," not in line:
                raise ManifestError(f"{path}:{lineno}: expected 'location_name,path'")
            name, rel = line.split(",", 1)
            try:
                resolved = (path.parent / rel.strip()).resolve()
            except ValueError as exc:  # e.g. an embedded NUL byte
                raise ManifestError(f"{path}:{lineno}: bad location path {rel!r}: {exc}") from exc
            locations.append((name.strip(), resolved))
    if target is None:
        raise ManifestError(f"{path}: manifest declares no target")
    test_range = (test_start, test_end) if test_start is not None else None
    return Manifest(locations=tuple(locations), target=target, test_range=test_range)


@dataclass
class Dataset:
    """Aligned multi-location series plus train-range normalization stats.

    ``values`` has shape (L, c, m) in raw units; column stats are taken
    from rows strictly before the test range so test data can never
    leak into them.
    """

    dates: list[dt.date]
    values: np.ndarray
    locations: list[str]
    variables: list[str]
    target_loc: int
    target_var: int
    test_start_idx: int | None  # first test row
    test_end_idx: int | None    # one past the last test row
    norm_mean: np.ndarray       # (c*m,)
    norm_std: np.ndarray        # (c*m,)

    @property
    def n_days(self) -> int:
        return len(self.dates)

    @property
    def input_dim(self) -> int:
        return self.values.shape[1] * self.values.shape[2]

    def flat(self) -> np.ndarray:
        """(L, c*m) view: location blocks side by side in manifest order."""
        return self.values.reshape(self.n_days, -1)

    def target_column(self) -> int:
        return self.target_loc * len(self.variables) + self.target_var


def _split_plain(text: str) -> tuple[int, list[str]] | None:
    """Row width and every cell, row-major, of ``text`` by plain splitting.

    None if csv.reader must tokenize: splitting yields its cells only when
    the text has no quote (and no NUL, which csv.reader refused before
    Python 3.11), no line break but LF or CRLF, the header's comma count,
    at least one, on every line and no line over the csv field limit.
    """
    text = text.replace("\r\n", "\n")
    if '"' in text or "\0" in text or "\r" in text:
        return None
    lines = text.removesuffix("\n").split("\n")  # a final newline starts no row
    commas = lines[0].count(",")
    if (not commas or max(map(len, lines)) > csv.field_size_limit()
            or set(map(str.count, lines, repeat(","))) != {commas}):
        return None
    return commas + 1, ",".join(lines).split(",")


def _read_location_csv(path: Path, missing_policy: str) -> tuple[list[dt.date], list[str], np.ndarray]:
    """One location file's dates, variables and (rows, m) values.

    The text is read and tokenized once, by ``_split_plain`` or else by
    csv.reader (so quoted cells still work). A grid of complete rows is
    converted once, values by one ``np.array`` and dates by
    ``fromisoformat``; anything else, or any failure there, takes the
    per-cell loop, which alone forward-fills and words every error.
    """
    text = decode_error = None
    try:
        with open(path, newline="") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        decode_error = exc
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    plain = _split_plain(text) if text is not None else None
    if plain is not None:
        (width, cells), rows = plain, None
        header, n_rows = cells[:width], len(cells) // width
    else:
        try:  # an undecodable file is streamed, so that a csv error before the bad byte wins
            with (open(path, newline="") if text is None
                  else io.StringIO(text, newline="")) as fh:
                reader = csv.reader(fh)
                rows = list(reader)
        except csv.Error as exc:
            raise CsvFormatError(f"{path}:{reader.line_num}: {exc}") from exc
        except UnicodeDecodeError:  # the whole-file read's error names the byte's file offset
            raise DataError(f"cannot read {path}: {decode_error}") from decode_error
        except OSError as exc:
            raise DataError(f"cannot read {path}: {exc}") from exc
        if not rows:
            raise CsvFormatError(f"{path}: empty file")
        header, width, n_rows = rows[0], len(rows[0]), len(rows)
        cells = (None if any(len(row) != width for row in rows)
                 else [cell for row in rows for cell in row])
    if n_rows == 1:
        raise CsvFormatError(f"{path}: header but no data rows")
    header = [h.strip() for h in header]
    if len(header) < 2 or header[0] != "date":
        raise CsvFormatError(f"{path}: header must be 'date,<var1>,...', got {header}")
    variables = header[1:]
    if cells is not None:
        values = cells[width:]
        dates = values[::width]
        del values[::width]
        try:  # numpy converts each cell with Python's float(), as the per-cell loop does
            data = np.array(values, dtype=np.float64).reshape(n_rows - 1, width - 1)
            if np.isfinite(data).all():
                return [dt.date.fromisoformat(d.strip()) for d in dates], variables, data
        except ValueError:
            pass
        if rows is None:
            rows = [cells[i:i + width] for i in range(0, len(cells), width)]
    # a ragged row, a missing token, a bad cell or a bad date: parse cell by
    # cell, which forward-fills and names the line and variable of the first problem
    dates = []
    data = np.empty((len(rows) - 1, len(variables)))
    for r, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise CsvFormatError(f"{path}:{r}: expected {len(header)} cells, got {len(row)}")
        dates.append(_parse_date(row[0], f"{path}:{r}", CsvFormatError))
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


def _check_date_axis(dates: list[dt.date], path: Path) -> None:
    for a, b in zip(dates, dates[1:]):
        if (b - a).days != 1:  # not a + 1 day, which overflows after date.max
            raise DateAlignmentError(
                f"{path}: date axis must advance one day at a time, "
                f"found {a} followed by {b}"
            )


def date_row(dates: list[dt.date], day: dt.date) -> int | None:
    """The row of ``day`` on a date axis that advances one day a row, or None if it lies outside."""
    row = (day - dates[0]).days
    return row if 0 <= row < len(dates) else None


def load_dataset(manifest: Manifest, missing_policy: str = "error") -> Dataset:
    """Load and align every location file named by the manifest.

    ``missing_policy`` is 'error' (default) or 'ffill' (copy the
    previous day's value; a missing first row is always an error).
    """
    if missing_policy not in ("error", "ffill"):
        raise DataError(f"unknown missing_policy {missing_policy!r}")
    dates0: list[dt.date] | None = None
    variables0: list[str] | None = None
    per_loc = []
    for name, path in manifest.locations:
        dates, variables, data = _read_location_csv(path, missing_policy)
        _check_date_axis(dates, path)
        if variables0 is None:
            dates0, variables0 = dates, variables
        else:
            if variables != variables0:
                raise CsvFormatError(
                    f"{path}: variable columns {variables} differ from "
                    f"{manifest.locations[0][1]}'s {variables0}"
                )
            if dates != dates0:
                lo = max(dates[0], dates0[0])
                hi = min(dates[-1], dates0[-1])
                raise DateAlignmentError(
                    f"{path}: date axis differs from {manifest.locations[0][1]} "
                    f"(spans {dates[0]}..{dates[-1]} vs {dates0[0]}..{dates0[-1]}, "
                    f"overlap {lo}..{hi if lo <= hi else 'none'})"
                )
        per_loc.append(data)
    assert dates0 is not None and variables0 is not None

    target_loc_name, target_var_name = manifest.target
    loc_names = [name for name, _ in manifest.locations]
    if target_var_name not in variables0:
        raise DataError(
            f"unknown target variable {target_var_name!r}; files declare {variables0}"
        )
    values = np.stack(per_loc, axis=1)  # (L, c, m)

    test_start_idx = test_end_idx = None
    if manifest.test_range is not None:
        start, end = manifest.test_range
        test_start_idx, last = date_row(dates0, start), date_row(dates0, end)
        if test_start_idx is None or last is None:
            raise DateAlignmentError(
                f"test range {start}..{end} not covered by the data "
                f"({dates0[0]}..{dates0[-1]})"
            )
        test_end_idx = last + 1

    flat = values.reshape(len(dates0), -1)
    train_rows = flat[:test_start_idx] if test_start_idx is not None else flat
    if train_rows.shape[0] == 0:
        raise DataError("no rows before the test range to compute normalization stats")
    with np.errstate(over="ignore", invalid="ignore"):
        norm_mean = train_rows.mean(axis=0)
        norm_std = train_rows.std(axis=0)
    bad = np.flatnonzero(~np.isfinite(norm_mean + norm_std))
    if bad.size:
        loc, var = divmod(int(bad[0]), len(variables0))
        raise DataError(
            f"{loc_names[loc]}:{variables0[var]}: values too large, their normalization "
            "stats overflow float64"
        )

    return Dataset(dates=dates0, values=values, locations=loc_names,
                   variables=variables0,
                   target_loc=loc_names.index(target_loc_name),
                   target_var=variables0.index(target_var_name),
                   test_start_idx=test_start_idx, test_end_idx=test_end_idx,
                   norm_mean=norm_mean, norm_std=norm_std)


def normalize(ds: Dataset) -> np.ndarray:
    """Per-column z-score with train-range stats; constant columns become 0."""
    flat = ds.flat()
    safe = np.where(ds.norm_std > 0.0, ds.norm_std, 1.0)
    z = (flat - ds.norm_mean) / safe
    return np.where(ds.norm_std > 0.0, z, 0.0)


@dataclass
class Window:
    """One (input sequence, target) sample.

    ``inputs`` is (T, c*m), normalized and read-only; ``target`` is the
    raw-scale value of the target variable q days after the last input
    day. ``window_id`` is the absolute row index of the first input day.
    """

    inputs: np.ndarray
    target: float
    window_id: int
    target_date: dt.date


@dataclass
class WindowArrays:
    """The windows of one row range as arrays; window i is entry i of each.

    ``X`` (N, T, c*m) is a read-only sliding view of the normalized rows,
    so consecutive windows share T-1 rows of memory and the layer engine
    projects each row once. ``y`` (N,) holds the raw targets,
    ``window_ids`` (N,) each window's first input row and
    ``target_dates`` each window's target day. ``record[i]``, window i as
    a ``Window`` whose inputs are the view ``X[i]``, serves the benchmark.
    """

    X: np.ndarray
    y: np.ndarray
    window_ids: np.ndarray
    target_dates: list[dt.date]

    def __len__(self) -> int:
        return len(self.y)

    def __getitem__(self, i: int) -> Window:
        return Window(self.X[i], float(self.y[i]), int(self.window_ids[i]), self.target_dates[i])


def make_windows(ds: Dataset, seq_len: int, horizon: int,
                 start: int = 0, stop: int | None = None) -> WindowArrays:
    """All windows fully contained in rows [start, stop), as one record.

    A window starting at row d spans input rows d..d+T-1 and targets row
    d+T-1+q. A range shorter than T+q yields an empty record. Every
    window's inputs are a row of one read-only sliding view, the
    record's ``X``; no window is copied.
    """
    if seq_len < 1 or horizon < 1:
        raise ShapeError(f"seq_len and horizon must be >= 1, got {seq_len}, {horizon}")
    check_indexable(seq_len * ds.input_dim, ShapeError, f"seq_len={seq_len} and {ds.input_dim} "
                    "values a day give windows larger than numpy can index")
    L = ds.n_days
    stop = L if stop is None else stop
    if start < 0 or stop > L or start > stop:
        raise ShapeError(f"window range [{start}, {stop}) outside dataset of {L} rows")
    n = max(stop - start - seq_len - horizon + 1, 0)
    first_target = start + seq_len - 1 + horizon
    rows = normalize(ds)[start:start + n + seq_len - 1]
    X = (sliding_window_view(rows, seq_len, axis=0).transpose(0, 2, 1) if n
         else np.empty((0, seq_len, ds.input_dim)))
    y = ds.flat()[first_target:first_target + n, ds.target_column()].copy()
    return WindowArrays(X=X, y=y, window_ids=np.arange(start, start + n),
                        target_dates=ds.dates[first_target:first_target + n])


def train_windows(ds: Dataset, seq_len: int, horizon: int) -> WindowArrays:
    """Windows whose target day lies strictly before the test range."""
    stop = ds.test_start_idx if ds.test_start_idx is not None else ds.n_days
    return make_windows(ds, seq_len, horizon, 0, stop)


def test_windows(ds: Dataset, seq_len: int, horizon: int) -> WindowArrays:
    """Windows whose target day lies inside the test range.

    Inputs may reach back before the range (forecasts use history), so
    the underlying row range starts T+q-1 days before it.
    """
    if ds.test_start_idx is None or ds.test_end_idx is None:
        raise DataError("dataset has no test range (manifest declared none)")
    start = ds.test_start_idx - (seq_len - 1 + horizon)
    if start < 0:
        raise DataError(
            f"not enough history before the test range: need {seq_len - 1 + horizon} "
            f"rows, have {ds.test_start_idx}"
        )
    return make_windows(ds, seq_len, horizon, start, ds.test_end_idx)


test_windows.__test__ = False  # keep pytest from collecting the imported name


def windows_to_arrays(windows: WindowArrays) -> tuple[np.ndarray, np.ndarray]:
    """A record's windows as fresh (N, T, c*m) inputs and (N,) raw targets."""
    if not windows:
        raise ShapeError("no windows to stack")
    return np.array(windows.X), windows.y.copy()


# ---------------------------------------------------------------------------
# Synthetic coupled series

def _latent_recursion(eps: np.ndarray, lags: np.ndarray, ar_coef: float,
                      coupling: float) -> np.ndarray:
    """synthetic_series's latents (days, c): s(0) = eps(0), then its recursion.

    The recursion runs on Python floats, whose IEEE double arithmetic gives
    numpy's float64 bits operation for operation, and overflows to inf
    without a warning. A neighbour is skipped while t < delta_jk, which
    equals adding 0.0, as the sum is never -0.0.
    """
    c = eps.shape[1]
    coupled = c > 1 and coupling > 0.0
    lag_rows = lags.tolist()
    neighbours = [[(j, lag_rows[j][k]) for j in range(c) if j != k] for k in range(c)]
    eps_rows = eps.tolist()
    rows = [eps_rows[0]]
    for t, noise in enumerate(eps_rows[1:]):
        prev = rows[t]
        row = []
        for k in range(c):
            cross = 0.0
            if coupled:
                for j, lag in neighbours[k]:
                    if lag <= t:
                        cross += rows[t - lag][j]
                cross /= c - 1
            row.append(ar_coef * ((1.0 - coupling) * prev[k] + coupling * cross) + noise[k])
        rows.append(row)
    return np.array(rows)  # the lists die here, before synthetic_series's readouts


def synthetic_series(locations: int, vars_per_location: int, days: int,
                     coupling: float, seed: int, ar_coef: float = 0.7,
                     noise_std: float = 0.3
                     ) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """Latent AR system with lagged cross-location coupling, plus readouts.

    Each location k carries a latent s_k following

        s_k(t+1) = ar_coef * ((1 - kappa) * s_k(t)
                   + kappa * mean_{j != k} s_j(t - delta_jk)) + eps

    with eps ~ N(0, noise_std) and per-pair lags delta_jk in {1, 2}
    fixed by the seed. The convex mix keeps the system stationary for
    every coupling in [0, 1] and reduces to an uncoupled AR(1) at
    kappa = 0. Observed variables are fixed linear readouts of the
    local latent plus a shared seasonal term sin(2*pi*t/365) and
    observation noise; variable 1 of every location is 'temperature',
    scaled to look like degrees Celsius.

    Returns (latents (days, c), values (days, c, m), variable names).
    """
    if locations < 1 or vars_per_location < 1:
        raise DataError("need at least one location and one variable")
    if days < 1:
        raise DataError(f"need at least one day, got {days}")
    if not 0.0 <= coupling <= 1.0:
        raise DataError(f"coupling must be in [0, 1], got {coupling}")
    if not (math.isfinite(noise_std) and noise_std >= 0.0):
        raise DataError(f"noise_std must be finite and >= 0, got {noise_std}")
    if not math.isfinite(ar_coef):
        raise DataError(f"ar_coef must be finite, got {ar_coef}")
    if seed < 0:  # numpy's generators take no negative seed
        raise DataError(f"seed must be >= 0, got {seed}")
    c, m = locations, vars_per_location
    check_indexable(max(c * c, days * c * m), DataError,  # the (c, c) lags, the (days, c, m) values
                    f"locations={c}, vars_per_location={m} and days={days} need an array larger "
                    "than numpy can index")
    rng = np.random.default_rng(seed)

    lags = rng.integers(1, 3, size=(c, c))  # delta_jk in {1, 2}
    temp_gain = 3.0
    temp_season = 8.0
    temp_offset = 10.0
    gains = rng.uniform(-2.0, 2.0, size=(c, m))
    seasonals = rng.uniform(-2.0, 2.0, size=(c, m))
    offsets = rng.uniform(-1.0, 1.0, size=(c, m))
    gains[:, 0] = temp_gain
    seasonals[:, 0] = temp_season
    offsets[:, 0] = temp_offset

    eps = rng.normal(0.0, noise_std, size=(days, c))
    obs_noise = rng.normal(0.0, noise_std, size=(days, c, m))

    latents = _latent_recursion(eps, lags, ar_coef, coupling)
    # an overflow needs no numpy warning, as a non-finite series is refused below
    with np.errstate(over="ignore", invalid="ignore"):
        season = np.sin(2.0 * np.pi * np.arange(days) / 365.0)
        values = (offsets[None, :, :]
                  + gains[None, :, :] * latents[:, :, None]
                  + seasonals[None, :, :] * season[:, None, None]
                  + obs_noise)
    if not np.isfinite(values).all():
        raise DataError(f"synthetic series overflows float64 (ar_coef={ar_coef}, "
                        f"noise_std={noise_std})")
    variables = ["temperature"] + [f"var{v}" for v in range(2, m + 1)]
    return latents, values, variables


def gen_synthetic(out_dir, locations: int, vars_per_location: int, days: int,
                  coupling: float, seed: int, ar_coef: float = 0.7,
                  noise_std: float = 0.3, test_days: int | None = None) -> Path:
    """Write per-location CSVs plus a manifest; byte-identical per seed.

    The days run from 2007-01-01, and the last ``test_days`` of them
    (default days // 10) become the declared test range. Every argument
    is checked before anything is drawn or written. Returns the manifest path.
    """
    if days < 50:
        raise DataError(f"synthetic generator needs days >= 50, got {days}")
    if test_days is None:
        test_days = days // 10
    if not 0 < test_days < days:
        raise DataError(f"test_days must be in (0, days), got {test_days}")
    start_date = dt.date(2007, 1, 1)
    if days - 1 > (dt.date.max - start_date).days:
        raise DataError(f"{days} days from {start_date} run past {dt.date.max}")
    _, values, variables = synthetic_series(locations, vars_per_location, days,
                                            coupling, seed, ar_coef, noise_std)

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    dates = [start_date + dt.timedelta(days=t) for t in range(days)]
    date_cells = [date.isoformat() + "," for date in dates]  # the same in every file
    header = "date," + ",".join(variables)
    loc_names = [f"loc{k}" for k in range(1, locations + 1)]
    for k, name in enumerate(loc_names):
        # one row's Python floats at a time: a whole location's at once
        # (14,400 at paper scale) left the process's peak RSS 0.2 MB higher
        rows = (date + ",".join(map(repr, row.tolist()))
                for date, row in zip(date_cells, values[:, k]))
        write_file(out_dir / f"{name}.csv", header, "\n", "\n".join(rows), "\n")

    manifest_path = out_dir / "manifest.txt"
    write_file(manifest_path, *(f"{name},{name}.csv\n" for name in loc_names),
               f"target={loc_names[0]}:temperature\n",
               f"test_start={dates[days - test_days].isoformat()},"
               f"test_end={dates[-1].isoformat()}\n")
    return manifest_path
