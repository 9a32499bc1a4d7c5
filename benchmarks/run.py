"""Run one benchmark workload and print its metrics.

    python3 benchmarks/run.py --workload train_small --seed 1 --seconds 30 --trace 0

Run from the repository root. With ``--trace 0`` the last line of
standard output is a JSON object holding every end-to-end metric of
BENCHMARK.json; with ``--trace 1`` it holds every per-layer metric,
measured in a separate traced run. The lines before it repeat each metric
with its sample count, the error rate and the environment fingerprint.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import harness

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
# One BLAS thread: the plain single-threaded baseline. The default
# multi-threaded OpenBLAS on a small shared machine also made single
# predict_batch calls take ten times their usual time.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# Set-ups per untraced run: half before the measured loop and half after it
# on a fresh workload, so that their median spans the run, not one moment.
SETUP_REPEATS = 8


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_setups(workload, count: int, tracer=None) -> list[float]:
    times = []
    for _ in range(count):
        t0 = time.perf_counter()
        workload.setup(tracer)
        times.append(time.perf_counter() - t0)
    return times


def end_to_end(samples: dict, setup_times: list[float]) -> dict[str, float]:
    """Gated metrics. Throughput is taken relative to the calibration timed
    in the same run, which cancels the shared host's speed swings."""
    out = {"setup_s": statistics.median(setup_times), "peak_rss_mb": samples["peak_rss_mb"]}
    for name, values in samples.items():
        if name.startswith("windows_per_s.") and values:
            kind = name.split(".", 1)[1]
            reference = statistics.median(samples[f"reference_windows_per_s.{kind}"])
            out[f"relative_throughput.{kind}"] = statistics.median(values) / reference
    return out


def report(samples: dict, setup_times: list[float], label: str) -> None:
    print(f"[{label}] setup_s: {harness.describe(setup_times, 's')}")
    units = {"windows_per_s": "windows/s", "reference_windows_per_s": "windows/s",
             "save_ms": "ms", "request_ms": "ms"}
    for name in sorted(samples):
        if name != "peak_rss_mb" and samples[name]:
            metric = name.split(".", 1)[0]
            print(f"[{label}] {name}: "
                  f"{harness.describe(samples[name], units[metric], units[metric] == 'windows/s')}")
    print(f"[{label}] peak_rss_mb: {samples['peak_rss_mb']:.6g} MB")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "stlstm" / "__init__.py").is_file():
        print(f"error: no stlstm sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    os.environ.update(BLAS_ENV)  # before numpy loads OpenBLAS
    sys.path.insert(0, str(SRC))
    import stlstm
    import workloads

    if Path(stlstm.__file__).resolve().parent != SRC / "stlstm":
        print(f"error: imported stlstm from {stlstm.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    env = harness.fingerprint(ROOT, args.seed, BLAS_ENV)
    print("env: " + json.dumps(env, sort_keys=True))
    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        tally = harness.Tally()
        make_workload = workloads.WORKLOADS[args.workload]
        workload = make_workload(args.seed, scratch)
        if args.trace == 0:
            setups = timed_setups(workload, SETUP_REPEATS // 2)
            workload.prepare(tally)
            samples = workloads.measure(workload, args.seconds, tally)
            samples["peak_rss_mb"] = peak_rss_mb()
            setups += timed_setups(make_workload(args.seed, scratch), SETUP_REPEATS // 2)
            workload.checks(tally)
            report(samples, setups, "untraced")
            values = end_to_end(samples, setups)
            declared = contract["end_to_end"]
        else:
            tracer = harness.Tracer()
            setups = timed_setups(workload, SETUP_REPEATS // 2)
            traced_setups = timed_setups(workload, SETUP_REPEATS // 2, tracer)
            workload.prepare(tally)
            plain = workloads.measure(workload, args.seconds / 2, tally)
            plain["peak_rss_mb"] = peak_rss_mb()
            traced = workloads.measure(workload, args.seconds / 2, tally, tracer)
            traced["peak_rss_mb"] = peak_rss_mb()
            workload.checks(tally, tracer)
            report(plain, setups, "untraced")
            report(traced, traced_setups, "traced")
            values = harness.layer_means_ms(tracer.spans, workload.op_names)
            values.update(workload.counts())
            base = end_to_end(plain, setups)
            for name, value in end_to_end(traced, traced_setups).items():
                if name in base:
                    values[f"trace_overhead.{name}"] = value - base[name]
            spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
            tracer.write(spans_path)
            print(f"wrote {len(tracer.spans)} spans to {spans_path}")
            declared = contract["per_layer"]
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    metrics = {}
    for m in declared:
        if m["name"] not in values:
            tally.check("harness", False, f"metric {m['name']} was not measured")
            continue
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"metric {m['name']} = {values[m['name']]!r} {m['unit']}")
    print(f"error_rate: {tally.error_rate!r} ({tally.failed} failed of {tally.attempted} attempted)")
    for layer, count in sorted(tally.by_layer.items()):
        print(f"failures in {layer}: {count}")
    for message in tally.messages:
        print(f"failure: {message}")
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
