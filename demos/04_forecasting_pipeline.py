#!/usr/bin/env python3
"""End-to-end: synthesize coupled weather-like data, train both models,
evaluate on the held-out range, and print the comparison table.

Equivalent CLI session:

    stlstm gen-synthetic --locations 5 --vars 3 --days 500 --coupling 0.6 --seed 7 --out demo-data
    stlstm train --manifest demo-data/manifest.txt --model-kind stacked --out runs/stacked ...
    stlstm evaluate --model runs/stacked/repeat0.ckpt --manifest demo-data/manifest.txt --report ...
    stlstm compare --reports ...

Run: python3 demos/04_forecasting_pipeline.py   (about a minute)
"""

import tempfile
from pathlib import Path

from stlstm import (
    EvalReport,
    ModelSpec,
    TrainConfig,
    comparison_report,
    comparison_text,
    gen_synthetic,
    load_dataset,
    load_manifest,
    test_windows,
    train_windows,
    train_repeated,
)
from stlstm.train import predict_batch

workdir = Path(tempfile.mkdtemp(prefix="stlstm-demo-"))
manifest_path = gen_synthetic(workdir, locations=5, vars_per_location=3, days=500,
                              coupling=0.6, seed=7)
ds = load_dataset(load_manifest(manifest_path))
print(f"synthetic data: {ds.n_days} days x {len(ds.locations)} locations x "
      f"{len(ds.variables)} variables, test rows {ds.test_start_idx}..{ds.test_end_idx - 1}")

reports = []
horizon = 1
tr = train_windows(ds, 10, horizon)
te = test_windows(ds, 10, horizon)
print(f"horizon {horizon}: {len(tr)} training windows, {len(te)} test windows")

for kind in ("stacked", "st_stacked"):
    spec = ModelSpec(kind=kind, locations=5, vars_per_location=3, n1=20, n2=32,
                     activation="tanh", seq_len=10, horizon=horizon)
    config = TrainConfig(epochs=60, repeats=3, seed=7)
    result = train_repeated(spec, config, tr, te)
    print(f"{kind}: median test MAE={result.median_mae:.3f} MSE={result.median_mse:.3f} "
          f"(median repeat: {result.best_index})")

    best = result.runs[result.best_index]
    preds = predict_batch(spec, best.params, te.X)
    reports.append(EvalReport(
        model_kind=kind, horizon=horizon, target="loc1:temperature",
        activation="tanh", testset="holdout",
        window_ids=te.window_ids.tolist(),
        dates=[date.isoformat() for date in te.target_dates],
        predictions=preds.tolist(), truths=te.y.tolist(),
    ))

print()
print(comparison_text(comparison_report(reports)))
print(f"(work dir: {workdir})")
