"""Benchmark bookkeeping that needs no numpy.

Sample statistics with the tail-percentile rule, the attempted/failed
tally, in-memory span tracing with self-time accounting, and the
environment fingerprint printed with every result.
"""

from __future__ import annotations

import json
import math
import os
import platform
import statistics
import time
import traceback
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

# A percentile is reported only when at least this many samples lie beyond it.
MIN_BEYOND = 10


def percentile(values, q: float) -> float | None:
    """Nearest-rank q-th percentile, or None when fewer than MIN_BEYOND samples lie above it."""
    xs = sorted(values)
    if not xs:
        return None
    rank = max(1, math.ceil(q / 100.0 * len(xs)))
    if len(xs) - rank < MIN_BEYOND:
        return None
    return xs[rank - 1]


def tail_percentile(values, candidates=(99, 90, 75)) -> tuple[float, float] | None:
    """(q, value) for the highest candidate percentile the sample count supports."""
    for q in candidates:
        value = percentile(values, q)
        if value is not None:
            return q, value
    return None


def describe(values, unit: str, higher_is_better: bool = False) -> str:
    """'median unit (median, n=..., pQ=...)', with the worse tail named only when it is supported."""
    text = f"{statistics.median(values):.6g} {unit} (median, n={len(values)}"
    if higher_is_better:
        tail = tail_percentile([-v for v in values])
        tail = tail and (100 - tail[0], -tail[1])
    else:
        tail = tail_percentile(values)
    if tail is not None:
        text += f", p{tail[0]}={tail[1]:.6g}"
    return text + ")"


class Tally:
    """Attempted and failed operations, with failures attributed to a layer."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.by_layer: Counter = Counter()
        self.messages: list[str] = []

    def check(self, layer: str, ok: bool, message: str) -> bool:
        """Count one checked operation; a false ``ok`` is a failure of ``layer``."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.by_layer[layer] += 1
            if len(self.messages) < 20:
                self.messages.append(f"[{layer}] {message}")
        return ok

    @contextmanager
    def attempt(self, what: str):
        """Run one operation; an exception is counted as a failure, not propagated.

        The failure goes to the stlstm module whose frame raised it, or to
        'harness' when the library is not on the stack.
        """
        try:
            yield
        except Exception as exc:  # the benchmark keeps running and reports the failure
            self.check(raising_layer(exc), False,
                       f"{what}: {type(exc).__name__}: {exc}")
        else:
            self.attempted += 1

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def raising_layer(exc: BaseException) -> str:
    """Name of the innermost stlstm module on the exception's traceback."""
    layer = "harness"
    for frame in traceback.extract_tb(exc.__traceback__):
        path = Path(frame.filename)
        if path.parent.name == "stlstm":
            layer = path.stem
    return layer


class Tracer:
    """Nested spans kept in memory; each span records its parent and root.

    The root span of a tree is the operation (one train step, one CLI
    request) and its index is the identifier all spans of that operation
    share.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        sid = len(self.spans)
        root = sid if parent is None else self.spans[parent]["root"]
        record = {"id": sid, "name": name, "parent": parent, "root": root,
                  "start": self.clock(), "end": None}
        self.spans.append(record)
        self._stack.append(sid)
        try:
            yield
        finally:
            record["end"] = self.clock()
            self._stack.pop()

    def write(self, path: Path) -> None:
        with open(path, "w") as fh:
            for record in self.spans:
                fh.write(json.dumps(record) + "\n")


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the part of its interval its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = []
    for s in spans:
        covered, reach = 0.0, s["start"]
        for lo, hi in sorted(children.get(s["id"], [])):
            lo, hi = max(lo, reach), min(hi, s["end"])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s["end"] - s["start"] - covered)
    return out


def layer_means_ms(spans: list[dict], op_names) -> dict[str, float]:
    """Mean self time in ms for every span name.

    A name found inside root spans called ``op_names[i]`` (first match
    wins) is averaged per such operation, summing its spans within each
    one; a name found in none of them is averaged per span.
    """
    selfs = self_times(spans)
    per_root: dict[int, Counter] = {}
    per_name: dict[str, list[float]] = {}
    for s, t in zip(spans, selfs):
        per_root.setdefault(s["root"], Counter())[s["name"]] += t
        per_name.setdefault(s["name"], []).append(t)
    root_name = {s["id"]: s["name"] for s in spans if s["parent"] is None}
    out = {}
    for name, values in per_name.items():
        for op in op_names:
            sums = [c[name] for r, c in per_root.items() if root_name[r] == op and name in c]
            if sums:
                out[name] = 1e3 * sum(sums) / len(sums)
                break
        else:
            out[name] = 1e3 * sum(values) / len(values)
    return out


def git_commit(root: Path) -> str:
    """HEAD's commit id read from .git without running git; 'unknown' outside a checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def fingerprint(root: Path, seed: int, blas_env: dict) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_commit": git_commit(root),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas_env,
        "workload_seed": seed,
    }
