"""MAE / MSE, median aggregation, and side-by-side comparison tables."""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .cell import ACTIVATIONS
from .errors import NonFiniteResultError, ReportError, ShapeError, StlstmError, write_file
from .model import KINDS

REPORT_CSV_HEADER = "testset,steps_ahead,target,activation,metric,stacked,st_stacked,winner"


def _paired(preds, truths) -> tuple[np.ndarray, np.ndarray]:
    p = np.asarray(preds, dtype=np.float64)
    t = np.asarray(truths, dtype=np.float64)
    if p.shape != t.shape:
        raise ShapeError(f"got {p.shape[0] if p.ndim else 0} predictions vs "
                         f"{t.shape[0] if t.ndim else 0} truths")
    if p.size == 0:
        raise ShapeError("cannot score an empty prediction list")
    return p, t


def _finite_mean(name: str, errors: np.ndarray) -> float:
    """The mean of ``errors``, refused when it is NaN or infinite (say, an overflowed square)."""
    value = float(np.mean(errors))
    if not math.isfinite(value):
        raise NonFiniteResultError(f"{name} is non-finite ({value!r})")
    return value


def mae(preds, truths) -> float:
    p, t = _paired(preds, truths)
    with np.errstate(over="ignore", invalid="ignore"):
        return _finite_mean("MAE", np.abs(p - t))


def mse(preds, truths) -> float:
    p, t = _paired(preds, truths)
    with np.errstate(over="ignore", invalid="ignore"):
        return _finite_mean("MSE", (p - t) ** 2)


def median_low(values) -> float:
    """Median using the lower-middle element for even counts.

    The reported value is always one of the inputs, so repeat-protocol
    results are reproducible without interpolation ambiguity.
    """
    values = list(values)
    if not values:
        raise ShapeError("median of an empty list")
    return sorted(values)[(len(values) - 1) // 2]


# The JSON type of each report field; a bool is an int to Python, but never one here.
_HEADER_TYPES = {"model_kind": str, "horizon": int, "target": str, "activation": str,
                 "testset": str}


def _typed(obj: dict, key: str, types):
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, types):
        raise ReportError(f"field {key!r} has the wrong JSON type: {value!r}")
    return value


@dataclass
class EvalReport:
    """Per-window predictions and summary errors for one grid cell."""

    model_kind: str
    horizon: int
    target: str
    activation: str
    testset: str
    window_ids: list[int]
    dates: list[str]
    predictions: list[float]
    truths: list[float]
    mae: float = field(init=False)
    mse: float = field(init=False)

    def __post_init__(self):
        if self.model_kind not in KINDS:
            raise ReportError(f"unknown model_kind {self.model_kind!r}; expected one of {KINDS}")
        if self.activation not in ACTIVATIONS:
            raise ReportError(f"unknown activation {self.activation!r}; "
                              f"expected one of {ACTIVATIONS}")
        if self.horizon < 1:
            raise ReportError(f"horizon must be >= 1, got {self.horizon}")
        for name in ("predictions", "truths"):
            if not all(math.isfinite(v) for v in getattr(self, name)):
                raise ReportError(f"report {self.model_kind}/{self.testset} has non-finite {name}")
        self.mae = mae(self.predictions, self.truths)
        self.mse = mse(self.predictions, self.truths)
        # mean |e| can never exceed sqrt(mean e^2); the slack is relative
        # because equal large errors round the two means differently
        if not self.mae <= math.sqrt(self.mse) * (1.0 + 1e-12) + 1e-12:
            raise ReportError(
                f"report {self.model_kind}/{self.testset} breaks MAE <= sqrt(MSE): "
                f"MAE={self.mae!r}, MSE={self.mse!r}"
            )

    @property
    def n_windows(self) -> int:
        return len(self.predictions)

    def to_json(self) -> str:
        return json.dumps({
            "model_kind": self.model_kind,
            "horizon": self.horizon,
            "target": self.target,
            "activation": self.activation,
            "testset": self.testset,
            "n_windows": self.n_windows,
            "mae": self.mae,
            "mse": self.mse,
            "windows": [
                {"window_id": w, "date": d, "prediction": p, "truth": t}
                for w, d, p, t in zip(self.window_ids, self.dates,
                                      self.predictions, self.truths)
            ],
        }, indent=2)

    def save(self, path) -> None:
        write_file(path, self.to_json(), "\n")

    @classmethod
    def load(cls, path) -> "EvalReport":
        try:
            raw = json.loads(Path(path).read_text())
            windows = raw["windows"]
            return cls(
                **{key: _typed(raw, key, types) for key, types in _HEADER_TYPES.items()},
                window_ids=[_typed(w, "window_id", int) for w in windows],
                dates=[_typed(w, "date", str) for w in windows],
                predictions=[_typed(w, "prediction", (int, float)) for w in windows],
                truths=[_typed(w, "truth", (int, float)) for w in windows],
            )
        except (ValueError, KeyError, TypeError, RecursionError, StlstmError) as exc:
            raise ReportError(f"{path}: not a valid evaluation report: {exc!r}") from exc


@dataclass
class ComparisonRow:
    testset: str
    steps_ahead: int
    target: str
    activation: str
    metric: str          # "MAE" | "MSE"
    stacked: float | None
    st_stacked: float | None
    winner: str          # "stacked" | "st_stacked" | "tie" | ""


def comparison_report(reports: list[EvalReport]) -> list[ComparisonRow]:
    """Merge per-model reports into one row per (cell, metric).

    A cell is (testset, steps_ahead, target, activation); each may carry
    at most one report per model kind. The smaller error wins; exact
    ties are marked 'tie' and both values are starred in text output.
    """
    cells: dict[tuple, dict[str, EvalReport]] = {}
    for rep in reports:
        key = (rep.testset, rep.horizon, rep.target, rep.activation)
        slot = cells.setdefault(key, {})
        if rep.model_kind in slot:
            raise ReportError(
                f"duplicate report for cell testset={rep.testset!r} "
                f"steps_ahead={rep.horizon} target={rep.target!r} "
                f"activation={rep.activation!r} kind={rep.model_kind!r}"
            )
        slot[rep.model_kind] = rep

    rows = []
    for key in sorted(cells):
        testset, q, target, act = key
        slot = cells[key]
        for metric in ("MAE", "MSE"):
            attr = metric.lower()
            a = getattr(slot["stacked"], attr) if "stacked" in slot else None
            b = getattr(slot["st_stacked"], attr) if "st_stacked" in slot else None
            if a is None or b is None:
                winner = ""
            elif a == b:
                winner = "tie"
            else:
                winner = "stacked" if a < b else "st_stacked"
            rows.append(ComparisonRow(testset=testset, steps_ahead=q, target=target,
                                      activation=act, metric=metric,
                                      stacked=a, st_stacked=b, winner=winner))
    return rows


def comparison_csv(rows: list[ComparisonRow]) -> str:
    """The table as CSV; a field holding a comma, a quote or a line break is quoted (RFC 4180)."""
    lines = [REPORT_CSV_HEADER]
    for r in rows:
        buf = io.StringIO()
        # csv.writer quotes a field holding a character of its line terminator: "\r\n"
        # also quotes a lone "\r", which "\n" would leave bare
        csv.writer(buf, lineterminator="\r\n").writerow(
            [r.testset, r.steps_ahead, r.target, r.activation, r.metric,
             "" if r.stacked is None else repr(r.stacked),
             "" if r.st_stacked is None else repr(r.st_stacked), r.winner])
        lines.append(buf.getvalue().removesuffix("\r\n"))
    return "\n".join(lines) + "\n"


def comparison_text(rows: list[ComparisonRow]) -> str:
    """Plain-text table; '*' marks the better model (both on a tie)."""
    header = ("testset", "q", "target", "act", "metric", "stacked", "st_stacked", "winner")
    body = []
    for r in rows:
        star_a = "*" if r.winner in ("stacked", "tie") else ""
        star_b = "*" if r.winner in ("st_stacked", "tie") else ""
        fmt = lambda v, s: "-" if v is None else f"{v:.4f}{s}"
        body.append((r.testset, str(r.steps_ahead), r.target, r.activation, r.metric,
                     fmt(r.stacked, star_a), fmt(r.st_stacked, star_b), r.winner))
    widths = [max(len(row[j]) for row in [header] + body) for j in range(len(header))]
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths))]
    lines.append("  ".join("-" * w for w in widths))
    for row in body:
        lines.append("  ".join(v.ljust(w) for v, w in zip(row, widths)))
    return "\n".join(lines) + "\n"
