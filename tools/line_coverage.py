"""Check that the tests run every executable line of ``src/stlstm``, with the standard library alone.

Runs pytest in this process under a ``sys.settrace``/``threading.settrace``
line tracer. A module's executable lines are the line numbers of its code
objects (``co_lines()``). The check fails on an unreached line that
``ALLOWED`` does not list, and on a listed line that is now reached or
whose text no longer matches any line of its file.

Run from the repository root:

    PYTHONPATH=src python tools/line_coverage.py [pytest arguments]

With no arguments it runs tier-1 without the two training-heavy acceptance
criteria (5 and 6), plus the benchmark harness self-test. Subprocesses that
the tests start are not traced. Exit status: pytest's own if it fails,
else 1 if the check fails, else 0.
"""

from __future__ import annotations

import os
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "stlstm"
DEFAULT_ARGS = ["-q", "-p", "no:cacheprovider", str(ROOT / "tests"),
                str(ROOT / "benchmarks" / "test_harness.py"),
                "-k", "not criterion_5 and not criterion_6"]

# (file in src/stlstm, the line's exact text without its indentation, why no test runs it)
ALLOWED = [
    ("cli.py", "sys.exit(main())",
     "the console-script entry point; CI's installed-package smoke test runs it"),
    ("cli.py", "entry()", "runs only as python -m stlstm.cli, in a process of its own"),
]


def executable_lines(path: Path) -> set[int]:
    """The line numbers that the code objects compiled from ``path`` carry."""
    lines, todo = set(), [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        todo.extend(const for const in code.co_consts if hasattr(const, "co_lines"))
    return lines


def trace_pytest(args: list[str], files: list[Path]) -> tuple[int, dict[Path, set[int]]]:
    """Run pytest on ``args`` in this process; return its exit code and the lines run per file."""
    hits = {path: set() for path in files}
    by_name: dict[str, set[int] | None] = {}  # co_filename -> its file's hit set, or None

    def global_trace(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in by_name:
            by_name[name] = hits.get(Path(os.path.realpath(name)))
        lines = by_name[name]
        if lines is None:
            return None  # no line events for code outside the package
        lines.add(frame.f_lineno)

        def local_trace(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local_trace
        return local_trace

    import pytest

    threading.settrace(global_trace)
    sys.settrace(global_trace)
    try:
        code = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), hits


def check(hits: dict[Path, set[int]]) -> list[str]:
    """Every failure of the check, one line each: unreached lines, then stale ALLOWED entries."""
    texts = {path: [line.strip() for line in path.read_text().splitlines()] for path in hits}
    unreached = {path: sorted(executable_lines(path) - lines) for path, lines in hits.items()}
    listed, stale = set(), []
    for name, text, _ in ALLOWED:
        path = PACKAGE / name
        if text not in texts.get(path, []):
            stale.append(f"ALLOWED entry {name}: {text!r} matches no line of the file")
            continue
        matches = {(path, n) for n in unreached[path] if texts[path][n - 1] == text}
        if not matches:
            stale.append(f"ALLOWED entry {name}: {text!r} is reached now; remove the entry")
        elif len(matches) > 1:
            stale.append(f"ALLOWED entry {name}: {text!r} matches {len(matches)} unreached "
                         "lines; list one")
        listed |= matches
    return [f"{path.relative_to(ROOT)}:{n}: not reached: {texts[path][n - 1]}"
            for path, lines in unreached.items() for n in lines if (path, n) not in listed] + stale


def main(argv: list[str]) -> int:
    files = sorted(PACKAGE.glob("*.py"))
    start = time.perf_counter()
    code, hits = trace_pytest(argv or DEFAULT_ARGS, files)
    elapsed = time.perf_counter() - start
    if code != 0:
        print(f"line coverage: pytest exited {code}; no coverage verdict", file=sys.stderr)
        return code
    problems = check(hits)
    total = sum(len(executable_lines(path)) for path in files)
    for problem in problems:
        print(problem, file=sys.stderr)
    print(f"line coverage: {total} executable lines in src/stlstm, {len(ALLOWED)} listed as "
          f"unreached, {len(problems)} problem(s), {elapsed:.1f} s traced")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
