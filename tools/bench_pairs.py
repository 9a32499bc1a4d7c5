"""Run the benchmark in alternating parent/change pairs and summarise each end-to-end metric.

    python tools/bench_pairs.py --parent <rev> --workload W --pairs N [--seconds S] [--first-seed K]

Exports ``<rev>`` with ``git archive`` into a temporary directory, then runs
``python3 benchmarks/run.py --workload W --seed K+i --seconds S --trace 0``
there and in this working tree, one run at a time: pair i uses seed K+i,
and the side that runs first alternates from pair to pair. Any run whose
last line does not report ``"correct": true, "failed": 0`` stops the tool
with exit status 1. Otherwise it prints one JSON object: every run's
metrics, and for each end-to-end metric of BENCHMARK.json each side's
median and quartiles (linear interpolation, as numpy's percentiles), the
number of pairs the change won, and whether a claimed gain would hold:
the change wins at least nine tenths of the pairs, ties counting for
neither, and the medians differ in its favour by more than the distance
between the parent's quartiles. Standard library only; run from anywhere
inside the repository.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def export(rev: str, dest: Path) -> str:
    """Extract the tree of ``rev`` into ``dest``; return its full commit id."""
    commit = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT,
                            check=True, capture_output=True, text=True).stdout.strip()
    archive = dest / "tree.tar"
    subprocess.run(["git", "archive", "--format=tar", "-o", str(archive), commit], cwd=ROOT,
                   check=True)
    tree = dest / "tree"
    with tarfile.open(archive) as tar:
        tar.extractall(tree, filter="data")
    archive.unlink()
    return commit


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
            "change_better_pairs": wins, "pairs": len(pairs),
            "median_ratio": change["median"] / parent["median"] if parent["median"] else None,
            "gain_rule_met": wins >= 0.9 * len(pairs) and gap > parent["q3"] - parent["q1"],
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
        commit = export(args.parent, Path(tmp))
        sides = {"parent": Path(tmp) / "tree", "change": ROOT}
        for i in range(args.pairs):
            seed = args.first_seed + i
            first = ("parent", "change")[i % 2]
            order = (first, "change" if first == "parent" else "parent")
            record = {"seed": seed, "first": first}
            for side in order:
                record[side] = run(sides[side], args.workload, seed, seconds)
                print(f"bench_pairs: pair {i + 1}/{args.pairs} seed {seed} {side}: "
                      f"{json.dumps(record[side])}", file=sys.stderr, flush=True)
            runs.append(record)
    print(json.dumps({"parent": args.parent, "parent_commit": commit,
                      "workload": args.workload, "pairs": args.pairs, "seconds": seconds,
                      "seeds": [r["seed"] for r in runs], "runs": runs,
                      "metrics": summarise(runs, contract["end_to_end"])}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
