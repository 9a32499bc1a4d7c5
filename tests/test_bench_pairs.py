"""The pairs tool's summary arithmetic and its change-side export, without running a benchmark."""

import importlib.util
import json
import shutil
import subprocess
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
HIGHER = {"name": "x", "better": "higher", "bound": 0.25}


def runs_of(parent, change, name="x"):
    return [{"parent": {name: p}, "change": {name: c}} for p, c in zip(parent, change)]


# the parent's runs: median 1.0, quartiles 0.99125 and 1.00875
PARENT = [0.98, 0.985, 0.99, 0.995, 1.0, 1.0, 1.005, 1.01, 1.015, 1.02]


def test_nine_wins_of_ten_beyond_the_parents_spread_meet_the_gain_rule():
    change = [p + 0.1 for p in PARENT[:9]] + [PARENT[9] - 0.1]
    summary = bench_pairs.summarise(runs_of(PARENT, change), [HIGHER])["x"]
    assert summary["change_better_pairs"] == 9 and summary["parent_better_pairs"] == 1
    assert summary["parent"]["q3"] - summary["parent"]["q1"] == pytest.approx(0.0175)
    assert summary["gain_rule_met"] and not summary["worse_beyond_bound"]


def test_eight_wins_of_ten_do_not_meet_the_gain_rule():
    change = [p + 0.1 for p in PARENT[:8]] + [p - 0.1 for p in PARENT[8:]]
    summary = bench_pairs.summarise(runs_of(PARENT, change), [HIGHER])["x"]
    assert summary["change_better_pairs"] == 8
    assert not summary["gain_rule_met"]


def test_nine_wins_within_the_parents_spread_do_not_meet_the_gain_rule():
    change = [p + 0.001 for p in PARENT[:9]] + [PARENT[9] - 0.1]
    summary = bench_pairs.summarise(runs_of(PARENT, change), [HIGHER])["x"]
    assert summary["change_better_pairs"] == 9 and not summary["gain_rule_met"]


def test_a_tie_counts_for_neither_side():
    change = [p + 0.1 for p in PARENT[:9]] + [PARENT[9]]
    summary = bench_pairs.summarise(runs_of(PARENT, change), [HIGHER])["x"]
    assert summary["change_better_pairs"] == 9 and summary["parent_better_pairs"] == 0
    assert summary["pairs"] == 10 and summary["gain_rule_met"]
    change[0] = PARENT[0]  # a second tie leaves the change 8 wins
    assert not bench_pairs.summarise(runs_of(PARENT, change), [HIGHER])["x"]["gain_rule_met"]


@pytest.mark.parametrize("name", ["peak_rss_mb", "setup_s"])
def test_a_lower_reading_wins_for_memory_and_set_up_time(name):
    declared = [m for m in DECLARED if m["name"] == name]
    assert declared[0]["better"] == "lower"
    change = [p - 0.1 for p in PARENT]
    summary = bench_pairs.summarise(runs_of(PARENT, change, name), declared)[name]
    assert summary["change_better_pairs"] == 10 and summary["gain_rule_met"]
    summary = bench_pairs.summarise(runs_of(change, PARENT, name), declared)[name]
    assert summary["parent_better_pairs"] == 10 and not summary["gain_rule_met"]


@pytest.mark.parametrize("name, parent, inside, past", [
    ("relative_throughput.st_stacked", 2.0, 1.5001, 1.4999),  # higher is better, bound 0.25
    ("peak_rss_mb", 100.0, 109.99, 110.01),                   # lower is better, bound 0.1
    ("setup_s", 0.4, 0.4999, 0.5001),                         # lower is better, bound 0.25
])
def test_worse_beyond_bound_trips_just_past_the_bound(name, parent, inside, past):
    declared = [m for m in DECLARED if m["name"] == name]
    for change, worse in ((inside, False), (past, True)):
        summary = bench_pairs.summarise(runs_of([parent] * 3, [change] * 3, name), declared)
        assert summary[name]["bound"] == declared[0]["bound"]
        assert summary[name]["worse_beyond_bound"] is worse, change


def test_a_metric_missing_from_either_side_is_left_out():
    runs = [{"parent": {"x": 1.0}, "change": {}}]
    assert bench_pairs.summarise(runs, [HIGHER]) == {}


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 10, 11])
def test_spread_quartiles_are_numpys_linear_percentiles(n):
    values = list(np.random.default_rng(n).normal(size=n))
    got = bench_pairs.spread(values)
    q1, median, q3 = np.percentile(values, [25, 50, 75], method="linear")
    assert got["n"] == n
    assert got["median"] == pytest.approx(median, abs=1e-15)
    assert got["q1"] == pytest.approx(q1, abs=1e-15)
    assert got["q3"] == pytest.approx(q3, abs=1e-15)


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_the_change_side_holds_edits_and_new_files_but_no_ignored_one(tmp_path):
    repo = tmp_path / "repo"
    (repo / "pkg").mkdir(parents=True)

    def git(*args):
        subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@example.com",
                        "-c", "commit.gpgsign=false", *args],
                       cwd=repo, check=True, capture_output=True)

    (repo / "pkg" / "mod.py").write_text("committed\n")
    (repo / "gone.py").write_text("committed, then deleted\n")
    (repo / ".gitignore").write_text("*.log\n")
    git("init", "-q")
    git("add", "-A")
    git("commit", "-q", "-m", "base")
    (repo / "pkg" / "mod.py").write_text("edited\n")
    (repo / "pkg" / "new.py").write_text("untracked\n")
    (repo / "pkg" / "run.log").write_text("ignored\n")
    (repo / "gone.py").unlink()

    assert bench_pairs.export_worktree(repo, tmp_path / "change") == 3
    tree = tmp_path / "change" / "tree"
    files = sorted(str(p.relative_to(tree)) for p in tree.rglob("*") if p.is_file())
    assert files == [".gitignore", "pkg/mod.py", "pkg/new.py"]
    assert (tree / "pkg" / "mod.py").read_text() == "edited\n"
    assert (tree / "pkg" / "new.py").read_text() == "untracked\n"
