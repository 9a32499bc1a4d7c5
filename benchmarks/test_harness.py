"""Self-test of the benchmark's own bookkeeping; needs neither numpy nor stlstm.

    python3 -m pytest -q benchmarks/test_harness.py
"""

from __future__ import annotations

import itertools
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402


def test_percentile_needs_ten_samples_beyond_it():
    assert harness.percentile(range(1, 101), 90) == 90  # ranks 91..100 lie beyond
    assert harness.percentile(range(1, 100), 90) is None  # only 9 beyond
    assert harness.percentile(range(1, 21), 50) == 10
    assert harness.percentile(range(1, 20), 50) is None
    assert harness.percentile([], 50) is None


def test_tail_percentile_picks_the_highest_supported():
    assert harness.tail_percentile(range(1, 1001)) == (99, 990)
    assert harness.tail_percentile(range(1, 101)) == (90, 90)
    assert harness.tail_percentile(range(1, 41)) == (75, 30)
    assert harness.tail_percentile(range(1, 40)) is None
    assert "p90=" not in harness.describe(list(range(99)), "ms")
    assert "p90=90" in harness.describe(list(range(1, 101)), "ms")
    # for a throughput the worse tail is the low one
    assert "p10=11" in harness.describe(list(range(1, 101)), "1/s", higher_is_better=True)


def test_error_rate_counts_failures_against_attempts():
    tally = harness.Tally()
    assert tally.error_rate == 0.0
    assert tally.check("model", True, "")
    assert not tally.check("checkpoint", False, "bytes differ")
    with tally.attempt("op that works"):
        pass
    with tally.attempt("op that raises"):
        raise ValueError("boom")
    assert (tally.attempted, tally.failed) == (4, 2)
    assert tally.error_rate == 0.5
    assert tally.by_layer == {"checkpoint": 1, "harness": 1}
    assert "[harness] op that raises: ValueError: boom" in tally.messages


def test_failure_is_attributed_to_the_raising_library_module(tmp_path):
    fake = tmp_path / "stlstm" / "checkpoint.py"
    fake.parent.mkdir()
    fake.write_text("def load():\n    raise OSError('truncated')\n")
    namespace = {}
    exec(compile(fake.read_text(), str(fake), "exec"), namespace)
    tally = harness.Tally()
    with tally.attempt("load"):
        namespace["load"]()
    assert tally.by_layer == {"checkpoint": 1}


def test_attempt_does_not_swallow_interrupts():
    tally = harness.Tally()
    with pytest.raises(KeyboardInterrupt):
        with tally.attempt("op"):
            raise KeyboardInterrupt


def fake_clock(*ticks):
    it = iter(ticks)
    return lambda: next(it)


def test_self_time_subtracts_child_spans():
    tracer = harness.Tracer(clock=fake_clock(0, 1, 3, 4, 7, 10))
    with tracer.span("request"):        # 0 .. 10
        with tracer.span("load"):       # 1 .. 3
            pass
        with tracer.span("forward"):    # 4 .. 7
            pass
    assert harness.self_times(tracer.spans) == [5, 2, 3]
    assert [s["root"] for s in tracer.spans] == [0, 0, 0]
    assert [s["parent"] for s in tracer.spans] == [None, 0, 0]


def test_self_time_counts_overlapping_children_once():
    spans = [
        {"id": 0, "name": "op", "parent": None, "root": 0, "start": 0.0, "end": 10.0},
        {"id": 1, "name": "a", "parent": 0, "root": 0, "start": 1.0, "end": 5.0},
        {"id": 2, "name": "b", "parent": 0, "root": 0, "start": 4.0, "end": 12.0},
    ]
    assert harness.self_times(spans) == [1.0, 4.0, 8.0]


def test_layer_means_average_per_operation_then_per_call():
    ticks = itertools.count()
    tracer = harness.Tracer(clock=lambda: next(ticks) / 1e3)  # one tick is 1 ms
    for _ in range(2):
        with tracer.span("step"):
            with tracer.span("cell"):
                pass
            with tracer.span("cell"):
                pass
    with tracer.span("save"):
        pass
    with tracer.span("check"):
        with tracer.span("save"):
            pass
    means = harness.layer_means_ms(tracer.spans, ("step",))
    assert means["cell"] == pytest.approx(2.0)   # two 1-ms cells per step
    assert means["step"] == pytest.approx(3.0)   # 5 ms minus its cells' 2 ms
    assert means["save"] == pytest.approx(1.0)   # per call: not inside any step
    assert means["check"] == pytest.approx(2.0)


def test_git_commit_reads_refs_without_git(tmp_path):
    assert harness.git_commit(tmp_path) == "unknown"
    git = tmp_path / ".git"
    (git / "refs" / "heads").mkdir(parents=True)
    (git / "HEAD").write_text("ref: refs/heads/main\n")
    (git / "packed-refs").write_text("# pack-refs\nabc123 refs/heads/main\n")
    assert harness.git_commit(tmp_path) == "abc123"
    (git / "refs" / "heads" / "main").write_text("def456\n")
    assert harness.git_commit(tmp_path) == "def456"


def test_throughput_is_taken_relative_to_the_reference():
    import run

    samples = {"peak_rss_mb": 50.0, "save_ms.stacked": [5.0],
               "windows_per_s.stacked": [40.0, 60.0, 50.0],
               "reference_windows_per_s.stacked": [100.0, 300.0, 200.0],
               "windows_per_s.st_stacked": [10.0, 30.0, 20.0],
               "reference_windows_per_s.st_stacked": [50.0, 150.0]}
    assert run.end_to_end(samples, [0.3, 0.1, 0.2]) == {
        "setup_s": 0.2, "peak_rss_mb": 50.0,
        "relative_throughput.stacked": 0.25, "relative_throughput.st_stacked": 0.2}


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
