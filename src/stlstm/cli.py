"""Command-line pipeline: synthesize, train, predict, evaluate, verify.

Batch tool, no interactive mode. Exit codes are a stable contract:
0 success, 2 usage or input error, 3 numerical divergence during
training, 4 verification (gradient-check) failure. Every subcommand
prints an ``effective-config:`` banner with all defaults resolved, from
which the run can be reproduced.
"""

from __future__ import annotations

import argparse
import datetime as dt
import sys
from dataclasses import MISSING, fields
from pathlib import Path

import numpy as np

from .checkpoint import load_checkpoint, save_checkpoint
from .data import (
    Dataset,
    WindowArrays,
    date_row,
    gen_synthetic,
    load_dataset,
    load_manifest,
    make_windows,
    test_windows,
    train_windows,
)
from .errors import ConfigError, DivergenceError, NonFiniteResultError, StlstmError, write_file
from .metrics import EvalReport, comparison_csv, comparison_report, comparison_text
from .model import SPEC_FIELDS, ModelSpec, param_count, parse_field
from .train import CONFIG_FIELDS, TrainConfig, gradcheck, predict_batch, train_repeated

# every config key and train flag: the ModelSpec and TrainConfig fields
_FIELDS = {**SPEC_FIELDS, **CONFIG_FIELDS}
# every flag's type under the library's name for it: the config keys and gen_synthetic's
_TYPES = {**_FIELDS, "days": "int", "coupling": "float", "ar_coef": "float",
          "noise_std": "float", "test_days": "int"}
# the spellings a key takes besides --dashed-key and --raw_key, and the kinds' aliases
_ALIASES = {"kind": ("--model-kind", "--model_kind"), "vars_per_location": ("--vars",),
            "noise_std": ("--noise",)}
_KIND_ALIASES = {"st": "st_stacked", "st-stacked": "st_stacked"}

# each settings subcommand's flags and their defaults; None leaves a value
# to the library (test_days) or the data (train's locations, vars_per_location)
_GEN_DEFAULTS = {"locations": 5, "vars_per_location": 3, "days": 800, "coupling": 0.6,
                 "seed": 7, "ar_coef": 0.7, "noise_std": 0.3, "test_days": None}
_TRAIN_DEFAULTS = {f.name: None if f.default is MISSING else f.default
                   for cls in (ModelSpec, TrainConfig) for f in fields(cls)}
_TRAIN_DEFAULTS.update(kind="stacked", n1=20, n2=32)
_GRADCHECK_DEFAULTS = {"activation": "tanh", "seed": 0, "locations": 2, "vars_per_location": 3,
                       "n1": 8, "n2": 4, "seq_len": 5, "l2_lambda": 0.01}
_PARAM_COUNT_KEYS = ("kind", "locations", "vars_per_location", "n1", "n2")


def _flags(parser, keys, required: bool = False) -> None:
    """Register each settings key as a flag under its dashed and raw spellings and aliases."""
    for key in keys:
        names = [f"--{key.replace('_', '-')}"]
        if "_" in key:
            names.append(f"--{key}")
        parser.add_argument(*names, *_ALIASES.get(key, ()), dest=key, default=None,
                            required=required)


def read_config_file(path) -> dict:
    """Flat ``key = value`` text; keys are TrainConfig / ModelSpec field names, each value
    parsed by its field's type, and each key set at most once."""
    try:
        text = Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not a text config file ({exc.reason})") from exc
    out = {}
    lines = {}  # the line that set each key
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _FIELDS:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        if key in lines:
            raise ConfigError(f"{path}:{lineno}: key {key!r} repeats line {lines[key]}")
        lines[key] = lineno
        try:
            out[key] = parse_field(_FIELDS, key, value)
        except ConfigError as exc:
            raise ConfigError(f"{path}:{lineno}: {exc}") from None
    return out


def _resolve_settings(args, defaults: dict) -> dict:
    """``defaults`` < config file < explicit CLI flags, all keys coerced."""
    settings = dict(defaults)
    if getattr(args, "config", None):
        settings.update(read_config_file(args.config))
    for key in _TYPES:
        cli_value = getattr(args, key, None)
        if cli_value is not None:
            settings[key] = parse_field(_TYPES, key, cli_value)
    if "kind" in settings:
        settings["kind"] = _KIND_ALIASES.get(settings["kind"], settings["kind"])
    return settings


def _banner(args, **resolved) -> None:
    """Print every parsed argument (a list comma-joined), ``resolved`` laid over them."""
    items = {k: v for k, v in vars(args).items() if k not in ("command", "func", "config")}
    items.update(resolved)
    pairs = " ".join(f"{k}={','.join(v) if isinstance(v, list) else v}"
                     for k, v in sorted(items.items()))
    print(f"effective-config: command={args.command} {pairs}")


def _spec_from_settings(settings: dict, ds: Dataset | None = None) -> ModelSpec:
    """The settings' ModelSpec; a dataset's shape gives locations and vars_per_location."""
    data = {} if ds is None else {"locations": len(ds.locations),
                                  "vars_per_location": len(ds.variables)}
    for key, actual in data.items():
        declared = settings.get(key)
        if declared is not None and declared != actual:
            raise ConfigError(f"{key}={declared} disagrees with the manifest's data ({actual})")
    return ModelSpec(**{key: settings[key] for key in SPEC_FIELDS if key in settings} | data)


def _windows_for_range(ds: Dataset, spec: ModelSpec, range_text: str) -> WindowArrays:
    """Resolve --range into windows.

    'test' (the default) emits the windows whose targets cover the
    manifest's declared test range; 'START:END' ISO
    dates bound the rows a window may touch, inputs and target alike.
    """
    if range_text == "test":
        if ds.test_start_idx is None:
            raise ConfigError("manifest declares no test range; pass --range START:END")
        return test_windows(ds, spec.seq_len, spec.horizon)
    if ":" not in range_text:
        raise ConfigError(f"--range must be 'test' or 'START:END', got {range_text!r}")
    start_s, end_s = range_text.split(":", 1)
    try:
        start = dt.date.fromisoformat(start_s.strip())
        end = dt.date.fromisoformat(end_s.strip())
    except ValueError as exc:
        raise ConfigError(f"bad --range dates: {exc}") from exc
    if start > end:
        raise ConfigError(f"--range {range_text}: START {start} is after END {end}")
    first, last = date_row(ds.dates, start), date_row(ds.dates, end)
    if first is None or last is None:
        raise ConfigError(
            f"--range {start}:{end} not covered by the data "
            f"({ds.dates[0]}..{ds.dates[-1]})"
        )
    windows = make_windows(ds, spec.seq_len, spec.horizon, first, last + 1)
    if not windows:
        raise ConfigError(
            f"range too short: {range_text} spans {last - first + 1} rows, "
            f"a window needs seq_len + horizon = {spec.seq_len + spec.horizon}"
        )
    return windows


# ---------------------------------------------------------------------------
# Subcommands

def cmd_gen_synthetic(args) -> int:
    settings = _resolve_settings(args, _GEN_DEFAULTS)
    _banner(args, **settings)
    manifest = gen_synthetic(args.out, **settings)
    print(f"wrote {manifest}")
    return 0


def cmd_train(args) -> int:
    settings = _resolve_settings(args, _TRAIN_DEFAULTS)
    config = TrainConfig(**{name: settings[name] for name in CONFIG_FIELDS})
    manifest = load_manifest(args.manifest)
    ds = load_dataset(manifest, missing_policy=args.missing_policy)
    spec = _spec_from_settings(settings, ds)

    _banner(args, **settings | {"locations": spec.locations,
                                "vars_per_location": spec.vars_per_location})
    tr = train_windows(ds, spec.seq_len, spec.horizon)
    te = (test_windows(ds, spec.seq_len, spec.horizon)
          if ds.test_start_idx is not None else None)
    if not tr:
        rows = ds.n_days if ds.test_start_idx is None else ds.test_start_idx
        raise ConfigError(f"no training windows: {rows} rows before any test range, a window "
                          f"needs seq_len + horizon = {spec.seq_len + spec.horizon}")
    config.fitted_windows(len(tr))  # too few windows are refused before --out is created
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)  # an unusable --out fails before training
    result = train_repeated(spec, config, tr, te)

    log_lines = []
    for r, run in enumerate(result.runs):
        name = f"repeat{r}.ckpt"
        save_checkpoint(spec, run.params, out_dir / name)
        log_lines.append(f"repeat={r} seed={run.seed} final_loss={run.loss_curve[-1]!r} "
                         f"test_mae={run.test_mae!r} test_mse={run.test_mse!r}")
        log_lines.append(f"repeat={r} loss_curve=" +
                         " ".join(repr(v) for v in run.loss_curve))
        if run.val_curve is not None:
            log_lines.append(f"repeat={r} val_curve=" +
                             " ".join(repr(v) for v in run.val_curve))
    best_name = f"repeat{result.best_index}.ckpt"
    write_file(out_dir / "best.txt", best_name, "\n")
    log_lines.append(f"median_mae={result.median_mae!r} "
                     f"median_mse={result.median_mse!r} best={best_name}")
    write_file(out_dir / "run.log", "\n".join(log_lines), "\n")

    print(f"wrote {config.repeats} checkpoint(s) to {out_dir}")
    if result.median_mae is not None:
        print(f"median test MAE={result.median_mae:.6f} MSE={result.median_mse:.6f} "
              f"(best: {best_name})")
    return 0


def _load_model_and_windows(args):
    spec, params = load_checkpoint(args.model)
    manifest = load_manifest(args.manifest)
    ds = load_dataset(manifest, missing_policy=args.missing_policy)
    if len(ds.locations) != spec.locations or len(ds.variables) != spec.vars_per_location:
        raise ConfigError(
            f"checkpoint expects {spec.locations} locations x "
            f"{spec.vars_per_location} variables, manifest provides "
            f"{len(ds.locations)} x {len(ds.variables)}"
        )
    windows = _windows_for_range(ds, spec, args.range)
    return spec, params, manifest, ds, windows


def _predict_windows(spec: ModelSpec, params, windows: WindowArrays) -> np.ndarray:
    """Predict every window; a non-finite prediction names its window id and target date."""
    try:
        return predict_batch(spec, params, windows.X)
    except NonFiniteResultError as exc:
        raise NonFiniteResultError(f"{exc}: window {windows.window_ids[exc.row]}, target date "
                                   f"{windows.target_dates[exc.row].isoformat()}",
                                   exc.row) from None


def cmd_predict(args) -> int:
    _banner(args)
    spec, params, _, _, windows = _load_model_and_windows(args)
    values = _predict_windows(spec, params, windows)
    rows = zip(windows.window_ids.tolist(), windows.target_dates, values.tolist())
    write_file(args.out, "window_id,date,prediction\n",
               "".join(f"{window_id},{date.isoformat()},{v!r}\n" for window_id, date, v in rows))
    print(f"wrote {len(windows)} prediction(s) to {args.out}")
    return 0


def cmd_evaluate(args) -> int:
    _banner(args)
    spec, params, manifest, _, windows = _load_model_and_windows(args)
    report = EvalReport(
        model_kind=spec.kind, horizon=spec.horizon,
        target=f"{manifest.target[0]}:{manifest.target[1]}",
        activation=spec.activation, testset=args.label or args.range,
        window_ids=windows.window_ids.tolist(),
        dates=[date.isoformat() for date in windows.target_dates],
        predictions=_predict_windows(spec, params, windows).tolist(), truths=windows.y.tolist(),
    )
    print(f"n_windows={report.n_windows} MAE={report.mae!r} MSE={report.mse!r}")
    if args.report:
        report.save(args.report)
        print(f"wrote report to {args.report}")
    return 0


def cmd_compare(args) -> int:
    _banner(args)
    reports = [EvalReport.load(p) for p in args.reports]
    rows = comparison_report(reports)
    print(comparison_text(rows), end="")
    if args.out:
        write_file(args.out, comparison_csv(rows))
        print(f"wrote {args.out}")
    return 0


def cmd_gradcheck(args) -> int:
    settings = _resolve_settings(args, _GRADCHECK_DEFAULTS)
    spec = _spec_from_settings(settings)
    _banner(args, **settings)
    report = gradcheck(spec, seed=settings["seed"], l2_lambda=settings["l2_lambda"])
    print(f"checked {report.n_params} parameters: max_rel_err={report.max_rel_err:.3e} "
          f"worst={report.worst_param}")
    if not report.ok:
        print(f"verification FAILED: {report.worst_param} exceeds 1e-6", file=sys.stderr)
        return 4
    print("verification passed (max_rel_err < 1e-6)")
    return 0


def cmd_param_count(args) -> int:
    settings = _resolve_settings(args, {})
    spec = _spec_from_settings(settings)
    _banner(args, **settings)
    counts = param_count(spec)
    for key in ("layer1", "layer2", "head", "total"):
        print(f"{key}={counts[key]}")
    return 0


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stlstm",
        description="Stacked / spatio-temporal stacked LSTM forecasting pipeline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-synthetic", help="write coupled synthetic CSVs + manifest")
    p.add_argument("--out", required=True)
    _flags(p, _GEN_DEFAULTS)
    p.set_defaults(func=cmd_gen_synthetic)

    p = sub.add_parser("train", help="train one model kind with the repeat protocol")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config", default=None, help="flat key = value file")
    p.add_argument("--missing-policy", "--missing_policy", dest="missing_policy",
                   choices=("error", "ffill"), default="error")
    _flags(p, _TRAIN_DEFAULTS)
    p.set_defaults(func=cmd_train)

    for name, func in (("predict", cmd_predict), ("evaluate", cmd_evaluate)):
        p = sub.add_parser(name, help=f"{name} a trained checkpoint on a date range")
        p.add_argument("--model", required=True)
        p.add_argument("--manifest", required=True)
        p.add_argument("--range", default="test",
                       help="'test' (default) or 'START:END' ISO dates")
        p.add_argument("--missing-policy", "--missing_policy", dest="missing_policy",
                       choices=("error", "ffill"), default="error")
        if name == "predict":
            p.add_argument("--out", required=True)
        else:
            p.add_argument("--report", default=None, help="write an EvalReport JSON here")
            p.add_argument("--label", default=None, help="testset label for the report")
        p.set_defaults(func=func)

    p = sub.add_parser("compare", help="merge EvalReports into a comparison table")
    p.add_argument("--reports", nargs="+", required=True)
    p.add_argument("--out", default=None, help="also write the table as CSV")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("gradcheck", help="finite-difference check of all gradients")
    _flags(p, ["kind"], required=True)
    _flags(p, _GRADCHECK_DEFAULTS)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("param-count", help="closed-form parameter counts")
    _flags(p, _PARAM_COUNT_KEYS, required=True)
    p.set_defaults(func=cmd_param_count)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    for key, value in vars(args).items():
        if value == []:  # argparse reads "--seed=--" as an empty list, not as a value
            parser.error(f"argument {key}: expected one argument")
    try:
        return args.func(args)
    except DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except StlstmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # numpy refuses an array larger than the address space
        print(f"error: {exc or 'out of memory'}", file=sys.stderr)
        return 2
    except OSError as exc:
        where = "" if exc.filename is None else f": {exc.filename}"
        print(f"error: {exc.strerror or exc}{where}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
