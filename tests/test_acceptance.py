"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report lines. The shared synthetic dataset (5 locations, 3 variables,
800 days, coupling 0.6, seed 7) comes from conftest.
"""

import time

import numpy as np
import pytest

from stlstm import (
    ModelSpec,
    TrainConfig,
    block_diagonal_embed,
    load_dataset,
    load_manifest,
    make_windows,
    median_low,
    model_forward,
    param_count,
    random_model_params,
    test_windows,
    train_windows,
    zero_model_params,
)
from stlstm.cell import LayerParams
from stlstm.cli import main as cli_main
from stlstm.train import gradcheck, train_once, train_repeated

from test_cell import scalar_oracle_diff


def report(line):
    print(f"\n{line}")


# ---------------------------------------------------------------------------

def test_criterion_1_gradient_oracle():
    """Analytic BPTT vs central differences on all four model variants."""
    t0 = time.time()
    worst = 0.0
    for kind in ("stacked", "st_stacked"):
        for act in ("tanh", "sigmoid"):
            spec = ModelSpec(kind=kind, locations=2, vars_per_location=3,
                             n1=8, n2=4, activation=act, seq_len=5)
            rep = gradcheck(spec, seed=42, l2_lambda=0.01)
            assert rep.max_rel_err < 1e-6, (kind, act, rep.worst_param, rep.max_rel_err)
            worst = max(worst, rep.max_rel_err)
    elapsed = time.time() - t0
    assert elapsed < 60.0
    report(f"[PASS] criterion 1: gradient oracle, 4 variants, "
           f"max_rel_err={worst:.2e} < 1e-6 in {elapsed:.1f}s")


def test_criterion_2_block_diagonal_equivalence():
    """Embedded st model and the original agree on every input."""
    spec = ModelSpec(kind="st_stacked", locations=5, vars_per_location=3,
                     n1=20, n2=8, seq_len=10)
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        params = random_model_params(spec, rng)
        e_spec, e_params = block_diagonal_embed(spec, params)
        window = list(rng.normal(size=(spec.seq_len, 1, spec.input_dim)))  # a batch of one
        a, _ = model_forward(spec, params, window)
        b, _ = model_forward(e_spec, e_params, window)
        diff = float(np.max(np.abs(a - b)))
        worst = max(worst, diff)
        assert diff < 1e-12
    report(f"[PASS] criterion 2: block-diagonal equivalence, 100 models, "
           f"max |pred diff|={worst:.2e} < 1e-12")


def test_criterion_3_parameter_counting():
    """Closed form == enumeration on a sweep; reference values; st < stacked."""
    def enumerate_count(spec):
        counts = {"layer1": 0, "layer2": 0, "head": 0}
        for name, arr in zero_model_params(spec).tensors():
            part = "head" if name.startswith("head") else name.split(".")[0]
            counts[part] += arr.size
        counts["total"] = sum(counts.values())
        return counts

    checked = 0
    for c in (1, 2, 3, 5, 8):
        for m in (1, 4):
            for n1 in (c, 8 * c):
                for kind in ("stacked", "st_stacked"):
                    spec = ModelSpec(kind=kind, locations=c, vars_per_location=m,
                                     n1=n1, n2=6)
                    assert param_count(spec) == enumerate_count(spec)
                    checked += 1
    assert checked >= 20

    stacked = ModelSpec(kind="stacked", locations=5, vars_per_location=18, n1=160, n2=64)
    st = ModelSpec(kind="st_stacked", locations=5, vars_per_location=18, n1=160, n2=64)
    assert param_count(stacked)["layer1"] == 161_120
    assert param_count(st)["layer1"] == 33_120

    for c in (2, 3, 5, 10):
        for m in (1, 3):
            a = ModelSpec(kind="stacked", locations=c, vars_per_location=m, n1=4 * c, n2=8)
            b = ModelSpec(kind="st_stacked", locations=c, vars_per_location=m, n1=4 * c, n2=8)
            assert param_count(b)["total"] < param_count(a)["total"]
    report(f"[PASS] criterion 3: parameter counting, {checked} specs vs enumeration, "
           f"161120/33120 reference values, st < stacked for c >= 2")


def test_criterion_4_scalar_loop_cell_oracle():
    """Vectorized cell vs per-element evaluation of the five gate equations, step by step."""
    rng = np.random.default_rng(4)
    worst = 0.0
    for trial in range(1000):
        act = "tanh" if trial % 2 == 0 else "sigmoid"
        p = LayerParams.zeros(1, 3, 2).cell(0)
        for _, arr in p.tensors():
            arr[...] = rng.uniform(-0.8, 0.8, size=arr.shape)
        diff = scalar_oracle_diff(p, rng.normal(size=(3, 2)), act)
        worst = max(worst, diff)
        assert diff < 1e-14
    report(f"[PASS] criterion 4: scalar-loop cell oracle, 1000 runs of 3 steps, "
           f"max diff={worst:.2e} < 1e-14")


@pytest.mark.parametrize("kind", ["stacked", "st_stacked"])
def test_criterion_5_training_sanity(kind, synthetic_dataset):
    """Default config halves the first-epoch loss on the synthetic set."""
    ds = synthetic_dataset
    spec = ModelSpec(kind=kind, locations=5, vars_per_location=3, n1=20, n2=32,
                     activation="tanh", seq_len=10, horizon=1)
    config = TrainConfig()  # all defaults: adam, lr 1e-3, batch 32, 200 epochs
    tr = train_windows(ds, spec.seq_len, spec.horizon)
    t0 = time.time()
    result = train_once(spec, config, tr, seed=config.seed)
    elapsed = time.time() - t0
    assert elapsed < 600.0
    assert all(np.isfinite(v) for v in result.loss_curve)
    ratio = result.loss_curve[-1] / result.loss_curve[0]
    assert result.loss_curve[-1] <= 0.5 * result.loss_curve[0]
    report(f"[PASS] criterion 5: training sanity ({kind}), default config, "
           f"loss {result.loss_curve[0]:.2f} -> {result.loss_curve[-1]:.3f} "
           f"(ratio {ratio:.4f} <= 0.5) in {elapsed:.0f}s")


def test_criterion_6_directional_spatio_temporal_benefit(synthetic_dataset):
    """Soft check: st median MAE beats or ties stacked on >= 2 of 3 horizons.

    Reported as pass/warn; the underlying trend is dataset-dependent, so a
    warn is not a failure.
    """
    ds = synthetic_dataset
    wins = 0
    cells = []
    for q in (1, 2, 3):
        tr = train_windows(ds, 10, q)
        te = test_windows(ds, 10, q)
        medians = {}
        for kind in ("stacked", "st_stacked"):
            spec = ModelSpec(kind=kind, locations=5, vars_per_location=3, n1=20,
                             n2=32, activation="tanh", seq_len=10, horizon=q)
            config = TrainConfig(epochs=40, repeats=5, seed=100)
            result = train_repeated(spec, config, tr, te)
            medians[kind] = result.median_mae
        cells.append((q, medians["stacked"], medians["st_stacked"]))
        if medians["st_stacked"] <= medians["stacked"]:
            wins += 1
    detail = ", ".join(f"q={q}: {a:.3f} vs {b:.3f}" for q, a, b in cells)
    if wins >= 2:
        report(f"[PASS] criterion 6: st_stacked median MAE beat or tied stacked on "
               f"{wins}/3 horizons ({detail})")
    else:
        report(f"[WARN] criterion 6: st_stacked won only {wins}/3 horizons ({detail}); "
               f"trend is dataset-dependent, reported as warn")


def test_criterion_7_determinism(tmp_path):
    """Byte-identical checkpoints and CSVs from identical inputs and seeds."""
    gen_args = ["gen-synthetic", "--locations", "2", "--vars", "2", "--days", "80",
                "--coupling", "0.4", "--seed", "13"]
    assert cli_main([*gen_args, "--out", str(tmp_path / "d1")]) == 0
    assert cli_main([*gen_args, "--out", str(tmp_path / "d2")]) == 0
    for name in ("loc1.csv", "loc2.csv", "manifest.txt"):
        assert (tmp_path / "d1" / name).read_bytes() == (tmp_path / "d2" / name).read_bytes()

    train_args = ["train", "--manifest", str(tmp_path / "d1" / "manifest.txt"),
                  "--epochs", "3", "--repeats", "2", "--n1", "4", "--n2", "3",
                  "--seq-len", "6", "--seed", "21"]
    assert cli_main([*train_args, "--out", str(tmp_path / "t1")]) == 0
    assert cli_main([*train_args, "--out", str(tmp_path / "t2")]) == 0
    for name in ("repeat0.ckpt", "repeat1.ckpt", "best.txt", "run.log"):
        assert (tmp_path / "t1" / name).read_bytes() == (tmp_path / "t2" / name).read_bytes()
    report("[PASS] criterion 7: determinism, byte-identical train checkpoints "
           "and gen-synthetic CSVs")


def test_criterion_8_protocol_fidelity(tmp_path):
    """Counts of windows, median-of-5 aggregation, and leakage boundaries."""
    import datetime as dt

    days = 40
    lines = ["date,temperature"]
    day = dt.date(2020, 1, 1)
    for i in range(days):
        lines.append(f"{(day + dt.timedelta(days=i)).isoformat()},{float(i)}")
    (tmp_path / "a.csv").write_text("\n".join(lines) + "\n")
    (tmp_path / "m.txt").write_text(
        "alpha,a.csv\ntarget=alpha:temperature\n"
        "test_start=2020-01-31,test_end=2020-02-09\n"
    )
    ds = load_dataset(load_manifest(tmp_path / "m.txt"))

    for T, q, L in ((10, 1, 20), (10, 1, 11), (10, 6, 15), (5, 3, 40)):
        got = len(make_windows(ds, T, q, 0, L))
        assert got == max(0, L - T - q + 1)

    assert median_low([3.0, 1.0, 2.0, 5.0, 4.0]) == 3.0
    assert median_low([1.0, 2.0, 3.0, 4.0]) == 2.0
    assert median_low([7.0]) == 7.0

    T, q = 5, 2
    tr = train_windows(ds, T, q)
    te = test_windows(ds, T, q)
    assert all(tr.window_ids + T - 1 + q < ds.test_start_idx)
    assert (te.window_ids + T - 1 + q).tolist() == list(range(30, 40))
    assert max(tr.window_ids + T - 1 + q) == ds.test_start_idx - 1
    report("[PASS] criterion 8: protocol fidelity, window counts, lower-middle "
           "median, leakage boundaries")
