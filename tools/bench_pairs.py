"""Run the benchmark in alternating parent/change pairs and summarise each end-to-end metric.

    python tools/bench_pairs.py --parent <rev> --workload W --pairs N [--seconds S] [--first-seed K]

Exports ``<rev>`` with ``git archive`` into one temporary directory and the
working tree into a like one: every file that ``git ls-files --cached
--others --exclude-standard`` lists and that exists on disk, so uncommitted
edits and new files count and ignored files do not. Then the code is the
only difference between the two sides. It runs
``python3 benchmarks/run.py --workload W --seed K+i --seconds S --trace 0``
in each export, one run at a time: pair i uses seed K+i, and the side that
runs first alternates from pair to pair. Any run whose last line does not
report ``"correct": true, "failed": 0`` stops the tool with exit status 1.
Otherwise it prints one JSON object: both sides' sources, every run's
metrics, and for each end-to-end metric of BENCHMARK.json each side's
median and quartiles (linear interpolation, as numpy's percentiles), the
pairs each side won (ties count for neither), whether a claimed gain would
hold (the change wins at least nine tenths of the pairs, and the medians
differ in its favour by more than the distance between the parent's
quartiles), and whether the change is worse beyond the metric's bound (its
median is worse than the parent's by more than ``bound`` times the parent's
median). Standard library only; run from anywhere inside the repository.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def git(root: Path, *args: str) -> str:
    return subprocess.run(["git", *args], cwd=root, check=True, capture_output=True,
                          text=True).stdout


def export(rev: str, dest: Path) -> str:
    """Extract the tree of ``rev`` into ``dest / "tree"``; return its full commit id."""
    commit = git(ROOT, "rev-parse", "--verify", f"{rev}^{{commit}}").strip()
    archive = dest / "tree.tar"
    subprocess.run(["git", "archive", "--format=tar", "-o", str(archive), commit], cwd=ROOT,
                   check=True)
    with tarfile.open(archive) as tar:
        tar.extractall(dest / "tree", filter="data")
    archive.unlink()
    return commit


def export_worktree(root: Path, dest: Path) -> int:
    """Copy the working tree at ``root`` as git would see it into ``dest / "tree"``.

    Copies every tracked file with its uncommitted edits and every untracked
    file that is not ignored; a tracked file deleted on disk is left out, and
    a symbolic link stays a link. Returns the number of files copied.
    """
    tree = dest / "tree"
    tree.mkdir(parents=True)
    listed = git(root, "ls-files", "-z", "--cached", "--others", "--exclude-standard")
    copied = 0
    for name in dict.fromkeys(filter(None, listed.split("\0"))):
        src = root / name
        if src.is_symlink() or src.is_file():
            (tree / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, tree / name, follow_symlinks=False)
            copied += 1
    return copied


def run(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run from ``root``; its last line's JSON object."""
    cmd = [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {}
    if proc.returncode != 0 or result.get("correct") is not True or result.get("failed") != 0:
        sys.exit(f"bench_pairs: {' '.join(cmd)} in {root} exited {proc.returncode} and did not "
                 f"report \"correct\": true, \"failed\": 0\n{proc.stdout[-2000:]}"
                 f"{proc.stderr[-2000:]}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(values: list[float]) -> dict:
    q1, _, q3 = (statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1
                 else values * 3)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def summarise(runs: list[dict], declared: list[dict]) -> dict:
    out = {}
    for metric in declared:
        name, sign = metric["name"], 1.0 if metric["better"] == "higher" else -1.0
        pairs = [(r["parent"][name], r["change"][name]) for r in runs
                 if name in r["parent"] and name in r["change"]]
        if not pairs:
            continue
        parent = spread([p for p, _ in pairs])
        change = spread([c for _, c in pairs])
        wins = sum(sign * (c - p) > 0 for p, c in pairs)
        gap = sign * (change["median"] - parent["median"])
        out[name] = {
            "better": metric["better"], "parent": parent, "change": change,
            "change_better_pairs": wins,
            "parent_better_pairs": sum(sign * (c - p) < 0 for p, c in pairs),
            "pairs": len(pairs),
            "median_ratio": change["median"] / parent["median"] if parent["median"] else None,
            "gain_rule_met": wins >= 0.9 * len(pairs) and gap > parent["q3"] - parent["q1"],
            "bound": metric["bound"],
            "worse_beyond_bound": -gap > metric["bound"] * abs(parent["median"]),
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=None,
                        help="run length (default: BENCHMARK.json's run_seconds)")
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = contract["run_seconds"] if args.seconds is None else args.seconds

    runs = []
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        # like paths on both sides, so that only the files differ between them
        sides = {side: Path(tmp) / side for side in ("parent", "change")}
        sides["parent"].mkdir()
        commit = export(args.parent, sides["parent"])
        files = export_worktree(ROOT, sides["change"])
        sources = {"parent": f"git archive of {commit}",
                   "change": f"{files} files of the working tree over "
                             f"{git(ROOT, 'rev-parse', 'HEAD').strip()} "
                             "(git ls-files --cached --others --exclude-standard)"}
        for i in range(args.pairs):
            seed = args.first_seed + i
            first = ("parent", "change")[i % 2]
            order = (first, "change" if first == "parent" else "parent")
            record = {"seed": seed, "first": first}
            for side in order:
                record[side] = run(sides[side] / "tree", args.workload, seed, seconds)
                print(f"bench_pairs: pair {i + 1}/{args.pairs} seed {seed} {side}: "
                      f"{json.dumps(record[side])}", file=sys.stderr, flush=True)
            runs.append(record)
    print(json.dumps({"parent": args.parent, "parent_commit": commit, "sources": sources,
                      "workload": args.workload, "pairs": args.pairs, "seconds": seconds,
                      "seeds": [r["seed"] for r in runs], "runs": runs,
                      "metrics": summarise(runs, contract["end_to_end"])}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
