import errno
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from ckpt_files import join_v3, split_v3

from stlstm import ModelSpec, gen_synthetic, init_model_params, load_checkpoint, save_checkpoint
from stlstm.cli import main
from stlstm.metrics import EvalReport, REPORT_CSV_HEADER
from stlstm.model import SPEC_FIELDS
from stlstm.train import CONFIG_FIELDS


def run_cli(argv, capsys):
    """Invoke the CLI in-process; argparse usage errors become exit codes."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


def gen_tiny(tmp_path, capsys, days=90, seed=3):
    out = tmp_path / "data"
    code, stdout, _ = run_cli(["gen-synthetic", "--locations", "2", "--vars", "2",
                               "--days", str(days), "--coupling", "0.5",
                               "--seed", str(seed), "--out", str(out)], capsys)
    assert code == 0
    return out / "manifest.txt"


def banner_items(stdout):
    """The key=value pairs of a run's effective-config banner, command included."""
    banner = next(line for line in stdout.splitlines() if line.startswith("effective-config:"))
    return dict(pair.split("=", 1) for pair in banner.split()[1:])


DATA = Path(__file__).parent / "data"

TRAIN_FAST = ["--epochs", "2", "--repeats", "2", "--n1", "4", "--n2", "3",
              "--seq-len", "6", "--learning-rate", "0.01"]


def test_gen_synthetic_is_byte_identical(tmp_path, capsys):
    a = tmp_path / "a"
    b = tmp_path / "b"
    for out in (a, b):
        code, stdout, _ = run_cli(["gen-synthetic", "--locations", "2", "--vars", "2",
                                   "--days", "60", "--seed", "5", "--out", str(out)], capsys)
        assert code == 0
        assert "effective-config:" in stdout
    for name in ("loc1.csv", "loc2.csv", "manifest.txt"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_gen_synthetic_banner_reproduces_the_run(tmp_path, capsys):
    a = tmp_path / "a"
    code, stdout, _ = run_cli(["gen-synthetic", "--locations", "2", "--vars", "2",
                               "--days", "70", "--coupling", "0.3", "--seed", "11",
                               "--ar-coef", "0.5", "--noise", "0.2", "--out", str(a)], capsys)
    assert code == 0
    items = banner_items(stdout)
    assert items.pop("command") == "gen-synthetic"
    b = tmp_path / "b"
    items["out"] = str(b)
    argv = ["gen-synthetic"]
    for key, value in items.items():
        if value != "None":
            argv += [f"--{key.replace('_', '-')}", value]
    code, _, _ = run_cli(argv, capsys)
    assert code == 0
    for name in ("loc1.csv", "loc2.csv", "manifest.txt"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_gen_synthetic_rejects_short_series(tmp_path, capsys):
    code, _, err = run_cli(["gen-synthetic", "--days", "10",
                            "--out", str(tmp_path / "x")], capsys)
    assert code == 2
    assert "days" in err


def test_gen_synthetic_refuses_days_past_the_calendar(tmp_path, capsys, monkeypatch):
    # 2007-01-01 plus 2,919,382 days is 9999-12-31, the last date a series can reach
    monkeypatch.chdir(tmp_path)
    code, _, err = run_cli(["gen-synthetic", "--days", "2919384", "--out", "d"], capsys)
    assert code == 2
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and "9999-12-31" in lines[0], err
    assert not (tmp_path / "d").exists()


@pytest.mark.parametrize("flags", [["--noise", "-1"], ["--noise", "nan"],
                                   ["--ar-coef", "nan"], ["--ar-coef", "1e308"]])
def test_gen_synthetic_refuses_a_series_that_is_not_finite(tmp_path, capsys, flags):
    code, _, err = run_cli(["gen-synthetic", *flags, "--out", str(tmp_path / "d")], capsys)
    assert code == 2
    assert "error:" in err and ("noise_std" in err or "ar_coef" in err)
    assert not list(tmp_path.rglob("*.csv"))


@pytest.mark.parametrize("argv", [["gen-synthetic", "--seed", "-1", "--out", "d"],
                                  ["gradcheck", "--model-kind", "stacked", "--seed", "-1"]])
def test_a_negative_seed_exits_2_before_writing(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    code, _, err = run_cli(argv, capsys)
    assert code == 2
    assert "error:" in err and "seed" in err
    assert not list(tmp_path.rglob("*.csv"))


@pytest.mark.parametrize("argv", [["gen-synthetic", "--bogus", "1"],
                                  ["train", "--manifest", "m.txt", "--optimizer", "adam"]])
def test_unknown_flag_is_a_usage_error(tmp_path, capsys, argv):
    code, _, err = run_cli(argv + ["--out", str(tmp_path / "out")], capsys)
    assert code == 2 and "unrecognized arguments" in err
    assert not (tmp_path / "out").exists()


def test_train_writes_checkpoints_log_and_pointer(tmp_path, capsys):
    manifest = gen_tiny(tmp_path, capsys)
    out = tmp_path / "run"
    code, stdout, _ = run_cli(["train", "--manifest", str(manifest), "--out", str(out),
                               "--model-kind", "st", *TRAIN_FAST], capsys)
    assert code == 0
    assert "effective-config:" in stdout and "kind=st_stacked" in stdout
    assert (out / "repeat0.ckpt").exists() and (out / "repeat1.ckpt").exists()
    assert (out / "best.txt").read_text().strip() in ("repeat0.ckpt", "repeat1.ckpt")
    log = (out / "run.log").read_text()
    assert "median_mae=" in log and "loss_curve=" in log


def test_train_is_reproducible_byte_for_byte(tmp_path, capsys):
    manifest = gen_tiny(tmp_path, capsys)
    runs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        code, _, _ = run_cli(["train", "--manifest", str(manifest), "--out", str(out),
                              "--seed", "9", *TRAIN_FAST], capsys)
        assert code == 0
        runs.append(out)
    for ckpt in ("repeat0.ckpt", "repeat1.ckpt"):
        assert (runs[0] / ckpt).read_bytes() == (runs[1] / ckpt).read_bytes()


def test_train_banner_reproduces_the_run_from_a_config_file(tmp_path, capsys):
    manifest = gen_tiny(tmp_path, capsys)
    first = tmp_path / "first"
    code, stdout, _ = run_cli(["train", "--manifest", str(manifest), "--out", str(first),
                               "--kind", "st", "--validation-holdout", "1", "--seed", "4",
                               *TRAIN_FAST], capsys)
    assert code == 0
    items = banner_items(stdout)
    cfg = tmp_path / "banner.cfg"
    cfg.write_text("".join(f"{key} = {items[key]}\n" for key in {**SPEC_FIELDS, **CONFIG_FIELDS}))
    again = tmp_path / "again"
    code, _, _ = run_cli(["train", "--manifest", str(manifest), "--config", str(cfg),
                          "--out", str(again)], capsys)
    assert code == 0
    for name in ("repeat0.ckpt", "repeat1.ckpt", "run.log", "best.txt"):
        assert (first / name).read_bytes() == (again / name).read_bytes()


def test_train_missing_manifest_names_the_path(tmp_path, capsys):
    code, _, err = run_cli(["train", "--manifest", str(tmp_path / "nope.txt"),
                            "--out", str(tmp_path / "o")], capsys)
    assert code == 2
    assert "nope.txt" in err


def test_unusable_paths_exit_2(tmp_path, capsys):
    manifest = gen_tiny(tmp_path, capsys)
    code, _, err = run_cli(["train", "--manifest", str(tmp_path), "--out", str(tmp_path / "o")],
                           capsys)
    assert code == 2
    assert str(tmp_path) in err
    taken = tmp_path / "taken"
    taken.write_text("")
    code, _, err = run_cli(["train", "--manifest", str(manifest), "--out", str(taken),
                            *TRAIN_FAST], capsys)
    assert code == 2
    assert "taken" in err


def test_config_file_and_flag_precedence(tmp_path, capsys):
    manifest = gen_tiny(tmp_path, capsys)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "epochs = 2\nrepeats = 1\nn1 = 4\nn2 = 3\nseq_len = 6\n"
        "learning_rate = 0.01\nkind = st_stacked\n"
    )
    out = tmp_path / "cfgrun"
    code, stdout, _ = run_cli(["train", "--manifest", str(manifest), "--config", str(cfg),
                               "--out", str(out), "--repeats", "2"], capsys)
    assert code == 0
    assert "repeats=2" in stdout      # flag overrides file
    assert "kind=st_stacked" in stdout  # file overrides default
    assert (out / "repeat1.ckpt").exists()


def test_config_file_rejects_unknown_keys(tmp_path, capsys):
    manifest = gen_tiny(tmp_path, capsys)
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("epoch = 2\n")
    code, _, err = run_cli(["train", "--manifest", str(manifest),
                            "--config", str(cfg), "--out", str(tmp_path / "o")], capsys)
    assert code == 2
    assert "epoch" in err


@pytest.mark.parametrize("line", ["epochs = abc", "learning_rate = fast",
                                  "forget_bias_init = maybe", "learning_rate = inf"])
def test_config_value_that_does_not_parse_exits_2(tmp_path, capsys, line):
    manifest = gen_tiny(tmp_path, capsys)
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n")
    code, _, err = run_cli(["train", "--manifest", str(manifest),
                            "--config", str(cfg), "--out", str(tmp_path / "o")], capsys)
    key, value = (part.strip() for part in line.split("="))
    assert code == 2
    assert key in err and value in err


def test_train_rejects_a_non_finite_csv_cell(tmp_path, capsys):
    manifest = gen_tiny(tmp_path, capsys)
    csv_path = manifest.parent / "loc2.csv"
    lines = csv_path.read_text().splitlines()
    date, _, rest = lines[4].split(",", 2)
    lines[4] = f"{date},inf,{rest}"
    csv_path.write_text("\n".join(lines) + "\n")
    code, _, err = run_cli(["train", "--manifest", str(manifest),
                            "--out", str(tmp_path / "o"), *TRAIN_FAST], capsys)
    assert code == 2
    assert f"{csv_path}:5" in err and "temperature" in err


def trained_checkpoint(tmp_path, capsys):
    manifest = gen_tiny(tmp_path, capsys)
    out = tmp_path / "run"
    code, _, _ = run_cli(["train", "--manifest", str(manifest), "--out", str(out),
                          *TRAIN_FAST], capsys)
    assert code == 0
    return manifest, out / "repeat0.ckpt"


def test_predict_then_evaluate_agree_exactly(tmp_path, capsys):
    manifest, ckpt = trained_checkpoint(tmp_path, capsys)
    pred_csv = tmp_path / "preds.csv"
    code, _, _ = run_cli(["predict", "--model", str(ckpt), "--manifest", str(manifest),
                          "--out", str(pred_csv)], capsys)
    assert code == 0
    lines = pred_csv.read_text().strip().splitlines()
    assert lines[0] == "window_id,date,prediction"

    code, stdout, _ = run_cli(["evaluate", "--model", str(ckpt),
                               "--manifest", str(manifest),
                               "--report", str(tmp_path / "rep.json")], capsys)
    assert code == 0
    printed_mae = float(stdout.split("MAE=")[1].split()[0])

    report = EvalReport.load(tmp_path / "rep.json")
    csv_preds = [float(line.split(",")[2]) for line in lines[1:]]
    assert csv_preds == report.predictions
    recomputed = float(np.mean(np.abs(np.array(csv_preds) - np.array(report.truths))))
    assert recomputed == printed_mae == report.mae


def test_evaluate_rejects_a_non_finite_checkpoint(tmp_path, capsys):
    manifest, ckpt = trained_checkpoint(tmp_path, capsys)
    head, values = split_v3(ckpt.read_bytes())
    # a NaN as the first value, under a CRC that matches it
    ckpt.write_bytes(join_v3(head, np.array(np.nan, dtype="<f8").tobytes() + values[8:]))
    code, stdout, err = run_cli(["evaluate", "--model", str(ckpt),
                                 "--manifest", str(manifest)], capsys)
    assert code == 2
    assert "MAE=" not in stdout
    assert f"{ckpt}: non-finite value nan at flat index 0 of tensor layer1.W_xi" in err


def test_evaluate_explicit_range_too_short(tmp_path, capsys):
    manifest, ckpt = trained_checkpoint(tmp_path, capsys)
    code, _, err = run_cli(["evaluate", "--model", str(ckpt), "--manifest", str(manifest),
                            "--range", "2007-01-01:2007-01-05"], capsys)
    assert code == 2
    assert "range too short" in err


@pytest.mark.parametrize("range_text", ["2007-03-01:2007-01-10", "2007-03-01:2007-02-28"])
def test_a_reversed_range_names_start_and_end(tmp_path, capsys, range_text):
    manifest = gen_tiny(tmp_path, capsys)  # 2007-01-01 .. 2007-03-31
    start, end = range_text.split(":")
    code, _, err = run_cli(["evaluate", "--model", str(DATA / "v3_stacked.ckpt"),
                            "--manifest", str(manifest), "--range", range_text], capsys)
    assert code == 2
    assert f"START {start} is after END {end}" in err


def test_an_uncovered_range_is_named_as_given(tmp_path, capsys):
    manifest = gen_tiny(tmp_path, capsys)  # 2007-01-01 .. 2007-03-31
    out = tmp_path / "preds.csv"
    code, _, err = run_cli(["predict", "--model", str(DATA / "v3_stacked.ckpt"),
                            "--manifest", str(manifest), "--range", "2006-01-01:2007-02-01",
                            "--out", str(out)], capsys)
    assert code == 2
    assert ("--range 2006-01-01:2007-02-01 not covered by the data (2007-01-01..2007-03-31)"
            in err)
    assert not out.exists()


TEST_LINE = "test_start=2007-03-23,test_end=2007-03-31\n"  # gen_tiny's last 9 of 90 days


def _edited(path, old, new):
    """``path`` with its one occurrence of ``old`` replaced by ``new``."""
    text = path.read_text()
    assert text.count(old) == 1
    path.write_text(text.replace(old, new))
    return path


def _written(tmp_path, data: bytes):
    path = tmp_path / "model.ckpt"
    path.write_bytes(data)
    return path


def _resealed(tmp_path, old: bytes, new: bytes):
    """The committed stacked checkpoint with ``old`` in its header replaced by ``new``, under a
    CRC that covers the edit."""
    head, values = split_v3((DATA / "v3_stacked.ckpt").read_bytes())
    assert head.count(old) == 1
    return _written(tmp_path, join_v3(head.replace(old, new), values))


def _edited_checkpoint(tmp_path, old: bytes, new: bytes):
    """The committed stacked checkpoint with ``old`` replaced by ``new`` and its CRC kept."""
    raw = (DATA / "v3_stacked.ckpt").read_bytes()
    assert raw.count(old) == 1
    return _written(tmp_path, raw.replace(old, new))


def _config(tmp_path, text: str):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return path


def _two_by_three_checkpoint(tmp_path):
    spec = ModelSpec(kind="stacked", locations=2, vars_per_location=3, n1=4, n2=3)
    path = tmp_path / "model.ckpt"
    save_checkpoint(spec, init_model_params(spec, np.random.default_rng(0)), path)
    return path


# Inputs that each must exit 2 with one error line and write nothing: for
# each, the fragment of that line and the arguments before --out, given the
# test's directory and a gen_tiny manifest (2 locations x 2 variables, 90 days).
REFUSALS = {
    "train-locations": ("disagrees with the manifest's data",
                        lambda t, m: ["train", "--manifest", m, "--locations", "3"]),
    "train-learning-rate": ("learning_rate must be >= 0",
                            lambda t, m: ["train", "--manifest", m, "--learning-rate", "-1"]),
    # the settings are checked before the manifest is read
    "train-epochs-before-manifest": ("epochs, batch_size and repeats must all be >= 1",
                                     lambda t, m: ["train", "--manifest", t / "nope.txt",
                                                   "--epochs", "0"]),
    "gen-coupling": ("coupling must be in [0, 1]",
                     lambda t, m: ["gen-synthetic", "--coupling", "2"]),
    "gen-locations": ("at least one location",
                      lambda t, m: ["gen-synthetic", "--locations", "0"]),
    "manifest-reversed-test-range": (
        "is after test_end",
        lambda t, m: ["train", "--manifest",
                      _edited(m, TEST_LINE, "test_start=2007-03-23,test_end=2007-03-01\n")]),
    "manifest-target-without-variable": (
        "target must be <location>:<variable>",
        lambda t, m: ["train", "--manifest", _edited(m, "target=loc1:temperature", "target=loc1")]),
    "manifest-test-range-past-the-data": (
        "not covered by the data",
        lambda t, m: ["train", "--manifest",
                      _edited(m, TEST_LINE, "test_start=2007-03-23,test_end=2007-04-30\n")]),
    "manifest-test-range-one-day-past-the-data": (
        "test range 2007-03-23..2007-04-01 not covered by the data (2007-01-01..2007-03-31)",
        lambda t, m: ["train", "--manifest",
                      _edited(m, TEST_LINE, "test_start=2007-03-23,test_end=2007-04-01\n")]),
    "predict-range-one-day-past-the-data": (
        "--range 2007-03-01:2007-04-01 not covered by the data (2007-01-01..2007-03-31)",
        lambda t, m: ["predict", "--model", DATA / "v3_stacked.ckpt",
                      "--manifest", m, "--range", "2007-03-01:2007-04-01"]),
    # a test window needs seq_len - 1 + horizon = 85 rows before the test range's 81
    "train-no-history": ("not enough history",
                         lambda t, m: ["train", "--manifest", m, "--seq-len", "85"]),
    # the test range starts on row seq_len + horizon - 1 = 10 (the defaults), so no
    # window fits before it
    "train-no-windows": (
        "no training windows: 10 rows before any test range, a window needs "
        "seq_len + horizon = 11",
        lambda t, m: ["train", "--manifest",
                      _edited(m, TEST_LINE, "test_start=2007-01-11,test_end=2007-03-31\n")]),
    "train-one-window-holdout": (
        "at least two training windows",
        lambda t, m: ["train", "--manifest",
                      _edited(m, TEST_LINE, "test_start=2007-01-12,test_end=2007-03-31\n"),
                      "--validation-holdout", "true"]),
    "predict-no-test-range": (
        "declares no test range",
        lambda t, m: ["predict", "--model", DATA / "v3_stacked.ckpt",
                      "--manifest", _edited(m, TEST_LINE, ""), "--range", "test"]),
    "predict-range-form": ("must be 'test' or 'START:END'",
                           lambda t, m: ["predict", "--model", DATA / "v3_stacked.ckpt",
                                         "--manifest", m, "--range", "foo"]),
    "predict-range-dates": ("bad --range dates",
                            lambda t, m: ["predict", "--model", DATA / "v3_stacked.ckpt",
                                          "--manifest", m, "--range", "2007-13-01:2007-02-01"]),
    "predict-checkpoint-data-mismatch": (
        "checkpoint expects 2 locations x 3 variables",
        lambda t, m: ["predict", "--model", _two_by_three_checkpoint(t), "--manifest", m]),
    "checkpoint-unknown-spec-key": (
        "unknown keys",
        lambda t, m: ["predict", "--manifest", m, "--model",
                      _resealed(t, b"horizon=1\n", b"horizon=1 extra=1\n")]),
    "checkpoint-repeated-spec-key": (
        "spec line repeats key 'horizon'",
        lambda t, m: ["predict", "--manifest", m, "--model",
                      _resealed(t, b"horizon=1\n", b"horizon=1 horizon=2\n")]),
    "checkpoint-v1": (
        "unsupported checkpoint version 'stlstm-checkpoint v1'",
        lambda t, m: ["predict", "--manifest", m, "--model",
                      _edited_checkpoint(t, b"stlstm-checkpoint v3\n",
                                         b"stlstm-checkpoint v1\n")]),
    "checkpoint-v2": (
        "unsupported checkpoint version 'stlstm-checkpoint v2', only 'stlstm-checkpoint v3'",
        lambda t, m: ["predict", "--manifest", m, "--model",
                      _edited_checkpoint(t, b"stlstm-checkpoint v3\n",
                                         b"stlstm-checkpoint v2\n")]),
    # spec edits that the v2 format, whose CRC covered the values alone, loaded as another model
    **{f"checkpoint-edited-{name}": (
        "the header and values fail their CRC-32 check",
        lambda t, m, old=old, new=new: ["predict", "--manifest", m, "--model",
                                        _edited_checkpoint(t, old, new)])
       for name, old, new in [("activation", b"activation=tanh", b"activation=sigmoid"),
                              ("horizon", b"horizon=1", b"horizon=7"),
                              ("seq-len", b"seq_len=4", b"seq_len=5"),
                              ("repeated-key", b"horizon=1", b"horizon=1 horizon=2")]},
    # a spec line edited under a recomputed CRC is trusted as far as its sizes go
    "checkpoint-seq-len-past-numpy": (
        "seq_len=10000000000000000000 and 4 values a day give windows larger than numpy can "
        "index",
        lambda t, m: ["predict", "--manifest", m, "--range", "2007-01-01:2007-03-01", "--model",
                      _resealed(t, b" seq_len=4 ", b" seq_len=10000000000000000000 ")]),
    "config-value-names-its-line": (
        "run.cfg:2: n1: expected an integer, got 'x'",
        lambda t, m: ["train", "--manifest", m, "--config", _config(t, "epochs = 2\nn1 = x\n")]),
    "config-repeated-key": (
        "run.cfg:2: key 'n1' repeats line 1",
        lambda t, m: ["train", "--manifest", m, "--config", _config(t, "n1 = 4\nn1 = 6\n")]),
    # Adam is the one optimizer
    "config-optimizer-key": (
        "run.cfg:1: unknown config key 'optimizer'",
        lambda t, m: ["train", "--manifest", m, "--config", _config(t, "optimizer = adam\n")]),
    "manifest-no-locations": (
        "manifest lists no locations",
        lambda t, m: ["train", "--manifest", _edited(m, "loc1,loc1.csv\nloc2,loc2.csv\n", "")]),
    "manifest-test-range-from-the-first-day": (
        "no rows before the test range to compute normalization stats",
        lambda t, m: ["train", "--manifest",
                      _edited(m, TEST_LINE, "test_start=2007-01-01,test_end=2007-03-31\n")]),
    "manifest-repeated-target": (
        "manifest.txt:4: target repeats line 3",
        lambda t, m: ["train", "--manifest",
                      _edited(m, "target=loc1:temperature\n",
                              "target=loc1:temperature\ntarget=loc2:temperature\n")]),
    "manifest-repeated-test-range": (
        "manifest.txt:5: test range repeats line 4",
        lambda t, m: ["predict", "--model", DATA / "v3_stacked.ckpt", "--manifest",
                      _edited(m, TEST_LINE,
                              TEST_LINE + "test_end=2007-03-31,test_start=2007-03-30\n")]),
    "compare-misspelled-kind": (
        "unknown model_kind 'stacekd'",
        lambda t, m: ["compare", "--reports", _edited_report(t / "a.json", model_kind="stacekd")]),
    "compare-deeply-nested-report": (
        "not a valid evaluation report: RecursionError(",
        lambda t, m: ["compare", "--reports", _written(t, b"[" * 100_000 + b"]" * 100_000)]),
    "checkpoint-trailing-byte": (
        "trailing data: 1 bytes after the last value",
        lambda t, m: ["predict", "--manifest", m, "--model",
                      _written(t, (DATA / "v3_stacked.ckpt").read_bytes() + b"\0")]),
}


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_a_refused_input_exits_2_with_one_error_line_and_writes_nothing(tmp_path, capsys, case):
    fragment, build = REFUSALS[case]
    manifest = gen_tiny(tmp_path, capsys)
    out = tmp_path / "out"
    code, _, err = run_cli([str(arg) for arg in build(tmp_path, manifest)] + ["--out", str(out)],
                           capsys)
    assert code == 2
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and fragment in lines[0], err
    assert not out.exists()


def test_train_without_a_test_range_names_the_lower_middle_final_loss(tmp_path, capsys):
    manifest = _edited(gen_tiny(tmp_path, capsys), TEST_LINE, "")
    out = tmp_path / "run"
    code, stdout, _ = run_cli(["train", "--manifest", str(manifest), "--out", str(out),
                               *TRAIN_FAST], capsys)
    assert code == 0
    log = (out / "run.log").read_text().splitlines()
    finals = [float(line.split("final_loss=")[1].split()[0]) for line in log
              if "final_loss=" in line]
    best = f"repeat{finals.index(min(finals))}.ckpt"  # the lower middle of two
    assert (out / "best.txt").read_text() == best + "\n"
    assert log[-1] == f"median_mae=None median_mse=None best={best}"
    assert "median test MAE" not in stdout


# Outputs of the committed v3 checkpoints on gen_synthetic(2 locations, 2
# variables, 300 days, coupling 0.6, seed 3), written before windows shared
# rows: the predict path must keep reproducing them byte for byte.
GOLDEN = DATA / "golden"
GOLDEN_RUNS = {
    "predict_test": ["predict", "--out"],
    "predict_full": ["predict", "--range", "2007-01-01:2007-10-27", "--out"],
    "evaluate_test": ["evaluate", "--report"],
}


@pytest.mark.parametrize("kind", ["stacked", "st_stacked"])
@pytest.mark.parametrize("run", sorted(GOLDEN_RUNS))
def test_outputs_match_the_golden_files_byte_for_byte(tmp_path, capsys, kind, run):
    manifest = gen_synthetic(tmp_path / "data", 2, 2, 300, 0.6, seed=3)
    name = f"{run}_{kind}.{'json' if run.startswith('evaluate') else 'csv'}"
    code, _, err = run_cli([*GOLDEN_RUNS[run], str(tmp_path / name),
                            "--model", str(DATA / f"v3_{kind}.ckpt"),
                            "--manifest", str(manifest)], capsys)
    assert code == 0, err
    assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes()


# One tiny gen-synthetic -> train run per kind, with and without the validation
# holdout, kept as written. run.log and best.txt must match byte for byte. The
# checkpoints are compared value by value, to 1e-15: OpenBLAS's Haswell and Zen
# kernels change a few last bits of the weights (by at most 1.4e-17), and its
# Sandybridge kernel changes more (by at most 5.6e-17).
TRAIN_GOLDEN = GOLDEN / "train"


@pytest.mark.parametrize("holdout", [False, True])
@pytest.mark.parametrize("kind", ["stacked", "st_stacked"])
def test_training_matches_the_golden_run(tmp_path, capsys, kind, holdout):
    data, out = tmp_path / "data", tmp_path / "run"
    code, _, _ = run_cli(["gen-synthetic", "--locations", "2", "--vars", "2", "--days", "80",
                          "--seed", "3", "--out", str(data)], capsys)
    assert code == 0
    code, _, err = run_cli(["train", "--manifest", str(data / "manifest.txt"), "--out", str(out),
                            "--model-kind", kind, "--n1", "4", "--n2", "3", "--seq-len", "5",
                            "--epochs", "3", "--repeats", "2",
                            "--validation-holdout", str(holdout).lower()], capsys)
    assert code == 0, err
    golden = TRAIN_GOLDEN / (f"{kind}_holdout" if holdout else kind)
    assert sorted(p.name for p in out.iterdir()) == sorted(p.name for p in golden.iterdir())
    for name in ("run.log", "best.txt"):
        assert (out / name).read_bytes() == (golden / name).read_bytes(), name
    for name in ("repeat0.ckpt", "repeat1.ckpt"):
        spec, params = load_checkpoint(out / name)
        want_spec, want = load_checkpoint(golden / name)
        assert spec == want_spec
        assert np.max(np.abs(params.flat - want.flat)) <= 1e-15, name


def test_compare_builds_the_grid_table(tmp_path, capsys):
    paths = []
    for q in (1, 2, 3):
        for kind, err_scale in (("stacked", 2.0), ("st_stacked", 1.0)):
            rep = EvalReport(model_kind=kind, horizon=q, target="loc1:temperature",
                             activation="tanh", testset="test",
                             window_ids=[0], dates=["2020-01-01"],
                             predictions=[1.0 + err_scale], truths=[1.0])
            path = tmp_path / f"{kind}-{q}.json"
            rep.save(path)
            paths.append(str(path))
    out_csv = tmp_path / "table.csv"
    code, stdout, _ = run_cli(["compare", "--reports", *paths, "--out", str(out_csv)], capsys)
    assert code == 0
    lines = out_csv.read_text().strip().splitlines()
    assert lines[0] == REPORT_CSV_HEADER
    assert len(lines) == 7  # 3 horizons x {MAE, MSE}
    assert all(line.endswith("st_stacked") for line in lines[1:])
    assert "winner" in stdout


def test_compare_duplicate_reports_fail(tmp_path, capsys):
    rep = EvalReport(model_kind="stacked", horizon=1, target="t", activation="tanh",
                     testset="x", window_ids=[0], dates=["2020-01-01"],
                     predictions=[1.0], truths=[2.0])
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    rep.save(a)
    rep.save(b)
    code, _, err = run_cli(["compare", "--reports", str(a), str(b)], capsys)
    assert code == 2
    assert "duplicate" in err


def test_compare_rejects_a_non_finite_report(tmp_path, capsys):
    rep = EvalReport(model_kind="stacked", horizon=1, target="t", activation="tanh",
                     testset="x", window_ids=[0, 1], dates=["2020-01-01", "2020-01-02"],
                     predictions=[1.0, 2.0], truths=[2.0, 2.5])
    path = tmp_path / "a.json"
    path.write_text(rep.to_json().replace('"prediction": 2.0', '"prediction": NaN'))
    code, _, err = run_cli(["compare", "--reports", str(path)], capsys)
    assert code == 2
    assert "non-finite" in err


def _edited_report(path, **fields):
    """Save a valid one-window report at ``path``, with ``fields`` overwritten in its JSON."""
    rep = EvalReport(model_kind="stacked", horizon=1, target="t", activation="tanh",
                     testset="x", window_ids=[0], dates=["2020-01-01"],
                     predictions=[1.0], truths=[2.0])
    path.write_text(json.dumps({**json.loads(rep.to_json()), **fields}))
    return str(path)


def test_compare_refuses_a_list_testset_with_exit_2(tmp_path, capsys):
    # was an unhashable-type TypeError, exit 1 with a traceback
    code, _, err = run_cli(["compare", "--reports",
                            _edited_report(tmp_path / "a.json", testset=["x"])], capsys)
    assert code == 2
    assert "field 'testset' has the wrong JSON type" in err


def test_compare_refuses_a_string_horizon_beside_an_int_one_with_exit_2(tmp_path, capsys):
    # was "'<' not supported between instances of 'str' and 'int'", exit 1
    reports = [_edited_report(tmp_path / "a.json", horizon="1"),
               _edited_report(tmp_path / "b.json", horizon=1)]
    code, _, err = run_cli(["compare", "--reports", *reports], capsys)
    assert code == 2
    assert "field 'horizon' has the wrong JSON type" in err


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_train_divergence_exits_3(tmp_path, capsys):
    manifest = gen_tiny(tmp_path, capsys)
    code, _, err = run_cli(["train", "--manifest", str(manifest),
                            "--out", str(tmp_path / "o"),
                            "--learning-rate", "1e200", "--epochs", "3",
                            "--repeats", "1", "--n1", "4",
                            "--n2", "3", "--seq-len", "6"], capsys)
    assert code == 3
    assert "diverged" in err


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_an_overflowing_epoch_mean_loss_exits_3(tmp_path, capsys, monkeypatch):
    from stlstm import train

    monkeypatch.setattr(train, "loss", lambda *_: 1e308)  # finite per batch, not in sum
    manifest = gen_tiny(tmp_path, capsys)
    out = tmp_path / "o"
    code, _, err = run_cli(["train", "--manifest", str(manifest), "--out", str(out),
                            "--batch-size", "4", *TRAIN_FAST], capsys)
    assert code == 3
    assert err.splitlines() == ["error: training diverged (non-finite epoch mean loss) "
                                "at epoch 1"]
    assert not any(out.iterdir())


def _overflowing_model(tmp_path, w_dense, b_dense=0.0, layer2_bias=0.0):
    """A stacked model on gen_synthetic(2, 2, 60, 0.6, seed=1) data with huge but finite values."""
    manifest = gen_synthetic(tmp_path / "data", 2, 2, 60, 0.6, seed=1)
    spec = ModelSpec(kind="stacked", locations=2, vars_per_location=2, n1=4, n2=4)
    params = init_model_params(spec, np.random.default_rng(0))
    params.w_dense[...] = w_dense
    params.b_dense[...] = b_dense
    for bias in (params.layer2.b_i, params.layer2.b_c, params.layer2.b_o):
        bias[...] = layer2_bias
    ckpt = tmp_path / "model.ckpt"
    save_checkpoint(spec, params, ckpt)
    return manifest, ckpt


@pytest.mark.filterwarnings("error::RuntimeWarning")  # the refusal is the only report
def test_predict_refuses_a_non_finite_prediction(tmp_path, capsys):
    manifest, ckpt = _overflowing_model(tmp_path, w_dense=1.7e308, b_dense=1.7e308,
                                        layer2_bias=50.0)
    out = tmp_path / "preds.csv"
    for cmd in (["predict", "--out", str(out)], ["evaluate"]):
        code, _, err = run_cli([*cmd, "--model", str(ckpt), "--manifest", str(manifest)], capsys)
        assert code == 2
        # the first test window starts at row 60 - 6 - 10 and targets the day after its last
        assert "non-finite prediction (inf)" in err
        assert "window 44, target date 2007-02-24" in err
    assert not out.exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_evaluate_refuses_an_overflowing_mse(tmp_path, capsys):
    manifest, ckpt = _overflowing_model(tmp_path, w_dense=1e308)
    report = tmp_path / "report.json"
    code, out, err = run_cli(["evaluate", "--model", str(ckpt), "--manifest", str(manifest),
                              "--report", str(report)], capsys)
    assert code == 2
    assert "MSE is non-finite" in err and "MSE=" not in out
    assert not report.exists()


def test_gradcheck_exit_codes(capsys):
    code, stdout, _ = run_cli(["gradcheck", "--model-kind", "st", "--activation", "sigmoid",
                               "--seed", "1", "--n1", "4", "--n2", "2",
                               "--seq-len", "3"], capsys)
    assert code == 0
    assert "max_rel_err" in stdout


@pytest.mark.parametrize("l2_lambda", ["nan", "inf"])
def test_gradcheck_refuses_a_non_finite_l2_lambda(capsys, l2_lambda):
    # a NaN loss made every relative error NaN, which passed the < 1e-6 gate
    code, stdout, err = run_cli(["gradcheck", "--model-kind", "stacked", "--locations", "1",
                                 "--vars", "1", "--n1", "2", "--n2", "1", "--seq-len", "2",
                                 "--l2-lambda", l2_lambda], capsys)
    assert code == 2
    assert f"l2_lambda must be finite, got {l2_lambda}" in err
    assert "verification passed" not in stdout


def test_gradcheck_refuses_a_negative_l2_lambda_as_train_does(capsys):
    code, stdout, err = run_cli(["gradcheck", "--model-kind", "stacked", "--locations", "1",
                                 "--vars", "1", "--n1", "2", "--n2", "1", "--seq-len", "2",
                                 "--l2-lambda=-1"], capsys)
    assert code == 2
    assert "l2_lambda must be >= 0, got -1.0" in err
    assert "verification passed" not in stdout


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_gradcheck_refuses_an_overflowing_gradient_with_exit_2(capsys):
    # 2 * l2_lambda overflows float64 while the longdouble oracle stays finite:
    # an input the gradients cannot hold, not a gradient bug (exit 4)
    code, stdout, err = run_cli(["gradcheck", "--model-kind", "st", "--l2-lambda", "1e308"],
                                capsys)
    assert code == 2
    assert err.splitlines() == ["error: gradcheck: non-finite analytic gradient inf at flat "
                                "index 0 of tensor layer1.loc0.W_xi with l2_lambda=1e+308"]
    assert "verification" not in stdout


def test_gradcheck_exits_4_naming_a_wrong_gradient_component(capsys, monkeypatch):
    from stlstm import train

    backward = train.model_backward

    def off_by_one(*args):
        grads = backward(*args)
        dict(grads.tensors())["layer1.W_hf"].flat[3] += 1.0
        return grads

    monkeypatch.setattr(train, "model_backward", off_by_one)
    code, stdout, err = run_cli(["gradcheck", "--model-kind", "stacked", "--locations", "1",
                                 "--vars", "1", "--n1", "2", "--n2", "1", "--seq-len", "2"],
                                capsys)
    assert code == 4
    assert err.splitlines() == ["verification FAILED: layer1.W_hf[3] exceeds 1e-6"]
    assert any(line.startswith("checked 59 parameters: ") for line in stdout.splitlines())
    assert "verification passed" not in stdout


def test_param_count_reference_values(capsys):
    code, stdout, _ = run_cli(["param-count", "--locations", "5", "--vars", "18",
                               "--n1", "160", "--n2", "64", "--kind", "stacked"], capsys)
    assert code == 0
    assert "layer1=161120" in stdout
    code, stdout, _ = run_cli(["param-count", "--locations", "5", "--vars", "18",
                               "--n1", "160", "--n2", "64", "--kind", "st"], capsys)
    assert code == 0
    assert "layer1=33120" in stdout


# three runs, each with another of the three spellings of kind and of vars_per_location
SPELLINGS = [("--kind", "--vars"), ("--model-kind", "--vars-per-location"),
             ("--model_kind", "--vars_per_location")]


@pytest.mark.parametrize("command", ["train", "gradcheck", "param-count"])
def test_every_spelling_of_a_setting_sets_its_one_key(tmp_path, capsys, command):
    manifest = gen_tiny(tmp_path, capsys)
    runs = []
    for i, (kind_flag, vars_flag) in enumerate(SPELLINGS):
        out = tmp_path / f"run{i}"
        sizes = {"train": ["--manifest", str(manifest), "--out", str(out), "--epochs", "1",
                           "--repeats", "1", "--n1", "4", "--n2", "3", "--seq-len", "6"],
                 "gradcheck": ["--locations", "2", "--n1", "2", "--n2", "1", "--seq-len", "2"],
                 "param-count": ["--locations", "2", "--n1", "4", "--n2", "3"]}[command]
        code, stdout, err = run_cli([command, *sizes, kind_flag, "st", vars_flag, "2"], capsys)
        assert code == 0, err
        items = banner_items(stdout)
        assert (items["kind"], items["vars_per_location"]) == ("st_stacked", "2")
        items.pop("out", None)
        written = (out / "repeat0.ckpt").read_bytes() if command == "train" else stdout
        runs.append((items, written))
    assert runs[1] == runs[0] and runs[2] == runs[0]


def test_gen_synthetic_takes_every_spelling_of_vars_and_noise(tmp_path, capsys):
    banners = []
    for vars_flag, noise_flag in [("--vars", "--noise"), ("--vars-per-location", "--noise-std"),
                                  ("--vars_per_location", "--noise_std")]:
        out = tmp_path / vars_flag
        code, stdout, _ = run_cli(["gen-synthetic", "--locations", "2", vars_flag, "2",
                                   noise_flag, "0.2", "--days", "60", "--out", str(out)], capsys)
        assert code == 0
        items = banner_items(stdout)
        assert (items.pop("vars_per_location"), items.pop("noise_std")) == ("2", "0.2")
        items.pop("out")
        banners.append(items)
        for name in ("loc1.csv", "loc2.csv", "manifest.txt"):
            assert (out / name).read_bytes() == (tmp_path / "--vars" / name).read_bytes()
    assert banners[1] == banners[0] and banners[2] == banners[0]


@pytest.mark.parametrize("argv, key", [
    (["gradcheck", "--model-kind", "stacked", "--n1", "2.5"], "n1"),
    (["gradcheck", "--kind", "stacked", "--l2_lambda", "small"], "l2_lambda"),
    (["param-count", "--kind", "st", "--locations", "2", "--vars", "x", "--n1", "4",
      "--n2", "3"], "vars_per_location"),
    (["gen-synthetic", "--noise", "loud", "--out", "d"], "noise_std"),
])
def test_a_settings_value_that_does_not_parse_exits_2_naming_its_key(tmp_path, capsys,
                                                                     monkeypatch, argv, key):
    monkeypatch.chdir(tmp_path)
    code, _, err = run_cli(argv, capsys)
    assert code == 2
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {key}: expected "), err
    assert not list(tmp_path.iterdir())


# each asks numpy for an array larger than any address space, which it refuses
# before allocating anything: with a MemoryError, or, past its index type, with
# a ValueError, which the library forestalls by refusing the settings by name
@pytest.mark.parametrize("argv, fragment", [
    (["gradcheck", "--model-kind", "stacked", "--n1", "100000000", "--n2", "1"],
     "Unable to allocate "),
    (["gen-synthetic", "--locations", "100000000"], "Unable to allocate "),
    (["train", "--epochs", "1", "--repeats", "1", "--n1", "100000000", "--n2", "1"],
     "Unable to allocate "),
    (["gradcheck", "--model-kind", "stacked", "--n1", "10000000000", "--n2", "1"],
     "n1=10000000000 and n2=1 give 400000000350000000013 parameters, more than numpy can "
     "index"),
    (["gen-synthetic", "--locations", "100000000000"],
     "locations=100000000000, vars_per_location=3 and days=800 need an array larger than "
     "numpy can index"),
    # gradcheck's (4, seq_len, 6) windows: too many bytes, then an axis past the index type
    (["gradcheck", "--model-kind", "stacked", "--seq-len", "100000000000000000"],
     "gradcheck: 4 windows of seq_len=100000000000000000 need an array larger than numpy can "
     "index"),
    (["gradcheck", "--model-kind", "stacked", "--seq-len", "10000000000000000000"],
     "gradcheck: 4 windows of seq_len=10000000000000000000 need an array larger than numpy "
     "can index"),
    # no window fits, and even the empty (0, seq_len, 4) record is past the index type
    (["train", "--epochs", "1", "--repeats", "1", "--seq-len", "10000000000000000000"],
     "seq_len=10000000000000000000 and 4 values a day give windows larger than numpy can "
     "index"),
])
def test_an_array_numpy_refuses_exits_2_with_one_error_line(tmp_path, capsys, argv, fragment):
    manifest = gen_tiny(tmp_path, capsys)
    out = tmp_path / "out"
    if argv[0] != "gradcheck":
        argv = [*argv, "--out", str(out)]
    if argv[0] == "train":
        argv = [*argv, "--manifest", str(manifest)]
    code, _, err = run_cli(argv, capsys)
    assert code == 2
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and fragment in lines[0], err
    assert not out.exists() or (argv[0] == "train" and not any(out.iterdir()))


def test_an_os_error_without_a_file_is_one_line_without_one(capsys, monkeypatch):
    from stlstm import cli

    def broken_pipe(args):
        raise OSError(errno.EPIPE, "Broken pipe")

    monkeypatch.setattr(cli, "cmd_param_count", broken_pipe)
    code, _, err = run_cli(["param-count", "--kind", "stacked", "--locations", "1",
                            "--vars", "1", "--n1", "2", "--n2", "1"], capsys)
    assert code == 2
    assert err.splitlines() == ["error: Broken pipe"]


def test_subcommand_help_exits_zero(capsys):
    for sub in ("gen-synthetic", "train", "predict", "evaluate", "compare",
                "gradcheck", "param-count"):
        code, stdout, _ = run_cli([sub, "--help"], capsys)
        assert code == 0
        assert "usage" in stdout.lower()


def test_unusable_out_fails_before_training(tmp_path, capsys, monkeypatch):
    from stlstm import cli

    def refuse(*_):
        raise AssertionError("trained before --out was created")

    monkeypatch.setattr(cli, "train_repeated", refuse)
    manifest = gen_tiny(tmp_path, capsys)
    taken = tmp_path / "taken"
    taken.write_text("")
    code, _, err = run_cli(["train", "--manifest", str(manifest), "--out", str(taken),
                            *TRAIN_FAST], capsys)
    assert code == 2
    assert "taken" in err


def test_validation_curve_is_logged_only_with_the_holdout(tmp_path, capsys):
    manifest = gen_tiny(tmp_path, capsys)
    for holdout in ("false", "true"):
        out = tmp_path / holdout
        code, _, _ = run_cli(["train", "--manifest", str(manifest), "--out", str(out),
                              "--validation-holdout", holdout, *TRAIN_FAST], capsys)
        assert code == 0
        lines = [line for line in (out / "run.log").read_text().splitlines()
                 if "val_curve=" in line]
        if holdout == "false":
            assert lines == []
        else:
            assert [line.split()[0] for line in lines] == ["repeat=0", "repeat=1"]
            assert all(len(line.split()) == 3 for line in lines)  # 2 epochs each


@pytest.mark.parametrize("flag, value", [("--epochs", "abc"), ("--n1", "2.5"),
                                         ("--learning_rate", "fast"),
                                         ("--validation-holdout", "maybe")])
def test_flag_value_that_does_not_parse_exits_2(tmp_path, capsys, flag, value):
    manifest = gen_tiny(tmp_path, capsys)
    code, _, err = run_cli(["train", "--manifest", str(manifest), "--out", str(tmp_path / "o"),
                            flag, value], capsys)
    assert code == 2
    assert flag.lstrip("-").replace("-", "_") in err and value in err


def run_child(argv, file_limit=None, **kwargs):
    """Run ``stlstm`` in a child process; ``file_limit`` caps the size of any file it writes.

    Python ignores SIGXFSZ, so a write past the cap fails with EFBIG.
    """
    def cap():
        resource.setrlimit(resource.RLIMIT_FSIZE,
                           (file_limit, resource.getrlimit(resource.RLIMIT_FSIZE)[1]))

    src = str(Path(__file__).parents[1] / "src")
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "stlstm.cli", *argv], env=env, text=True,
                          preexec_fn=None if file_limit is None else cap, **kwargs)


def _write_failure_case(case, tmp_path, capsys):
    """The argv of one writing subcommand, the file its failed write targets, and a cap."""
    manifest = gen_tiny(tmp_path, capsys)
    if case == "gen-synthetic":
        out = tmp_path / "again"
        out.mkdir()
        return (["gen-synthetic", "--locations", "2", "--vars", "2", "--days", "90",
                 "--out", str(out)], out / "loc1.csv", 1024)
    if case.startswith("train"):
        out = tmp_path / "run"
        out.mkdir()
        # a 2253-byte checkpoint; 200 epochs give a run.log of over 3 KiB
        epochs, target, cap = (("2", "repeat0.ckpt", 1024) if case == "train-checkpoint"
                               else ("200", "run.log", 3072))
        return (["train", "--manifest", str(manifest), "--out", str(out), *TRAIN_FAST[2:],
                 "--epochs", epochs, "--repeats", "1"], out / target, cap)
    if case == "compare":
        reports = []
        for q in (1, 2, 3):
            for kind in ("stacked", "st_stacked"):
                path = tmp_path / f"{kind}-{q}.json"
                EvalReport(model_kind=kind, horizon=q, target="loc1:temperature",
                           activation="tanh", testset="test", window_ids=[0],
                           dates=["2020-01-01"], predictions=[2.0], truths=[1.0]).save(path)
                reports.append(str(path))
        target = tmp_path / "table.csv"
        return ["compare", "--reports", *reports, "--out", str(target)], target, 100
    _, ckpt = trained_checkpoint(tmp_path, capsys)
    argv = [case, "--model", str(ckpt), "--manifest", str(manifest),
            "--range", "2007-01-01:2007-03-31"]
    target = tmp_path / ("preds.csv" if case == "predict" else "report.json")
    return [*argv, "--out" if case == "predict" else "--report", str(target)], target, 1024


@pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
@pytest.mark.parametrize("case", ["predict", "evaluate", "compare", "gen-synthetic",
                                  "train-checkpoint", "train-run.log"])
def test_a_failed_write_leaves_the_target_whole_or_absent(tmp_path, capsys, case, existing):
    argv, target, cap = _write_failure_case(case, tmp_path, capsys)
    if existing:
        target.write_bytes(b"earlier bytes\n")
    run = run_child(argv, cap, capture_output=True)
    assert run.returncode == 2, run.stderr
    assert not target.with_name(target.name + ".tmp").exists()
    if existing:
        assert target.read_bytes() == b"earlier bytes\n"
    else:
        assert not target.exists()
    assert run.stderr.splitlines() == [f"error: File too large: {target}"]


def test_predict_writes_through_dev_stdout(tmp_path, capsys):
    manifest, ckpt = trained_checkpoint(tmp_path, capsys)
    argv = ["predict", "--model", str(ckpt), "--manifest", str(manifest)]
    assert run_cli([*argv, "--out", str(tmp_path / "preds.csv")], capsys)[0] == 0
    run = run_child([*argv, "--out", "/dev/stdout"], stdout=subprocess.PIPE)
    assert run.returncode == 0
    assert (tmp_path / "preds.csv").read_text() in run.stdout


def test_predict_writes_through_dev_stdout_redirected_to_a_file(tmp_path, capsys, monkeypatch):
    manifest, ckpt = trained_checkpoint(tmp_path, capsys)
    argv = ["predict", "--model", str(ckpt), "--manifest", str(manifest)]
    assert run_cli([*argv, "--out", str(tmp_path / "preds.csv")], capsys)[0] == 0
    monkeypatch.delenv("PYTHONUNBUFFERED", raising=False)  # block-buffered, as in a shell
    with open(tmp_path / "f.txt", "w") as fh:
        run = run_child([*argv, "--out", "/dev/stdout"], stdout=fh)
    assert run.returncode == 0
    # the banner, the predictions and the closing line, in the order they were written
    lines = (tmp_path / "f.txt").read_text().splitlines(keepends=True)
    csv = (tmp_path / "preds.csv").read_text()
    assert lines[0].startswith("effective-config: command=predict ")
    assert "".join(lines[1:-1]) == csv
    assert lines[-1] == f"wrote {csv.count(chr(10)) - 1} prediction(s) to /dev/stdout\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["data", "f.txt", "preds.csv", "run"]


def test_predict_writes_through_a_symlinked_out(tmp_path, capsys):
    manifest, ckpt = trained_checkpoint(tmp_path, capsys)
    argv = ["predict", "--model", str(ckpt), "--manifest", str(manifest)]
    assert run_cli([*argv, "--out", str(tmp_path / "direct.csv")], capsys)[0] == 0
    preds, link = tmp_path / "preds.csv", tmp_path / "link.csv"
    preds.write_text("earlier\n")
    link.symlink_to(preds.name)
    assert run_cli([*argv, "--out", str(link)], capsys)[0] == 0
    assert link.is_symlink() and os.readlink(link) == preds.name
    assert preds.read_bytes() == (tmp_path / "direct.csv").read_bytes()
    assert list(tmp_path.glob("*.tmp")) == []
