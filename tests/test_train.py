import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import stlstm
from stlstm import (
    ConfigError,
    DivergenceError,
    ModelSpec,
    NonFiniteResultError,
    TrainConfig,
    load_dataset,
    load_manifest,
    gen_synthetic,
    test_windows,
    train_windows,
)
from stlstm.model import random_model_params, zero_model_params
from stlstm.train import (
    _batch_loss_and_grads,
    gradcheck,
    l2_penalty,
    loss,
    predict_batch,
    train_once,
    train_repeated,
)


@pytest.fixture(scope="module")
def tiny_data(tmp_path_factory):
    out = tmp_path_factory.mktemp("tiny")
    manifest = gen_synthetic(out, locations=2, vars_per_location=2, days=90,
                             coupling=0.5, seed=1, test_days=15)
    ds = load_dataset(load_manifest(manifest))
    spec = ModelSpec(kind="stacked", locations=2, vars_per_location=2, n1=4, n2=3,
                     seq_len=6, horizon=1)
    return spec, train_windows(ds, 6, 1), test_windows(ds, 6, 1)


# ---------------------------------------------------------------------------
# loss

def test_loss_zero_when_perfect_and_unregularized():
    assert loss([1.0, 2.0], [1.0, 2.0]) == 0.0


def test_loss_simple_residual():
    assert loss([3.0], [1.0]) == 4.0


def test_loss_penalty_only_single_weight():
    spec = ModelSpec(kind="stacked", locations=1, vars_per_location=1, n1=1, n2=1)
    params = zero_model_params(spec)
    params.layer1[0].W_xi[0, 0] = 2.0
    assert loss([5.0], [5.0], params, l2_lambda=1.0) == 4.0


def test_penalty_never_touches_biases():
    spec = ModelSpec(kind="st_stacked", locations=2, vars_per_location=1, n1=2, n2=2)
    params = zero_model_params(spec)
    for name, arr in params.tensors():
        if name.rsplit(".", 1)[-1].startswith("b_"):
            arr[...] = 100.0
    assert l2_penalty(params) == 0.0


def test_loss_reduces_to_mse_at_zero_lambda():
    rng = np.random.default_rng(0)
    preds, targets = rng.normal(size=8), rng.normal(size=8)
    assert loss(preds, targets) == float(np.mean((preds - targets) ** 2))


# ---------------------------------------------------------------------------
# training mechanics

def test_zero_learning_rate_is_a_noop(tiny_data):
    spec, tr, _ = tiny_data
    for opt in ("sgd", "adam"):
        cfg = TrainConfig(learning_rate=0.0, epochs=2, optimizer=opt, repeats=1)
        result = train_once(spec, cfg, tr, seed=3)
        fresh = train_once(spec, TrainConfig(learning_rate=0.0, epochs=1,
                                             optimizer=opt, repeats=1), tr, seed=3)
        for (_, a), (_, b) in zip(result.params.tensors(), fresh.params.tensors()):
            assert np.array_equal(a, b)


def test_same_seed_is_bit_identical(tiny_data):
    spec, tr, te = tiny_data
    cfg = TrainConfig(epochs=3, repeats=1)
    a = train_once(spec, cfg, tr, seed=11, test_set=te)
    b = train_once(spec, cfg, tr, seed=11, test_set=te)
    assert a.loss_curve == b.loss_curve
    assert a.test_mae == b.test_mae
    for (_, x), (_, y) in zip(a.params.tensors(), b.params.tensors()):
        assert np.array_equal(x, y)


def test_different_seeds_differ(tiny_data):
    spec, tr, _ = tiny_data
    cfg = TrainConfig(epochs=1, repeats=1)
    a = train_once(spec, cfg, tr, seed=1)
    b = train_once(spec, cfg, tr, seed=2)
    assert any(not np.array_equal(x, y) for (_, x), (_, y)
               in zip(a.params.tensors(), b.params.tensors()))


def test_training_reduces_loss(tiny_data):
    # Adam movement per step is bounded by the learning rate, so the tiny
    # fixture (3 batches/epoch) needs a hotter rate than the default
    spec, tr, _ = tiny_data
    result = train_once(spec, TrainConfig(learning_rate=0.05, epochs=30), tr, seed=0)
    assert result.loss_curve[-1] <= 0.5 * result.loss_curve[0]
    assert all(np.isfinite(v) for v in result.loss_curve)


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
def test_divergence_reports_the_epoch(tiny_data):
    spec, tr, _ = tiny_data
    cfg = TrainConfig(learning_rate=1e12, epochs=5, optimizer="sgd", repeats=1)
    with pytest.raises(DivergenceError) as err:
        train_once(spec, cfg, tr, seed=0)
    assert err.value.epoch >= 1


def test_validation_holdout_records_a_curve(tiny_data):
    spec, tr, _ = tiny_data
    cfg = TrainConfig(epochs=2, validation_holdout=True, repeats=1)
    result = train_once(spec, cfg, tr, seed=0)
    assert result.val_curve is not None and len(result.val_curve) == 2
    assert all(np.isfinite(v) for v in result.val_curve)


@pytest.mark.filterwarnings("ignore:overflow")
def test_a_non_finite_validation_loss_is_refused(tiny_data):
    # finite predictions, but squared errors against these targets overflow
    spec, tr, _ = tiny_data
    split = int(round(len(tr) * 0.9))
    tr = tr[:split] + [dataclasses.replace(w, target=1e200) for w in tr[split:]]
    cfg = TrainConfig(epochs=1, validation_holdout=True, repeats=1)
    with pytest.raises(NonFiniteResultError, match="validation loss after epoch 1"):
        train_once(spec, cfg, tr, seed=0)


@pytest.mark.filterwarnings("ignore:overflow")
def test_a_non_finite_test_score_is_refused(tiny_data):
    spec, tr, te = tiny_data
    te = [dataclasses.replace(w, target=1e200) for w in te]
    with pytest.raises(NonFiniteResultError, match="MSE"):
        train_once(spec, TrainConfig(epochs=1, repeats=1), tr, seed=0, test_set=te)


def test_predict_batch_names_the_row_of_a_non_finite_prediction():
    spec = ModelSpec(kind="st_stacked", locations=2, vars_per_location=2, n1=4, n2=3, seq_len=3)
    params = random_model_params(spec, np.random.default_rng(0))
    X = np.zeros((200, spec.seq_len, spec.input_dim))
    X[130, 1, 2] = np.nan  # in the second block of rows
    with pytest.raises(NonFiniteResultError, match="row 130 ") as err:
        predict_batch(spec, params, X)
    assert err.value.row == 130


def test_repeats_use_consecutive_seeds(tiny_data):
    spec, tr, te = tiny_data
    cfg = TrainConfig(epochs=1, repeats=3, seed=40)
    result = train_repeated(spec, cfg, tr, te)
    assert [run.seed for run in result.runs] == [40, 41, 42]
    assert result.median_mae == sorted(r.test_mae for r in result.runs)[1]
    assert result.runs[result.best_index].test_mae == result.median_mae


# ---------------------------------------------------------------------------
# gradient checking

def test_gradcheck_passes_at_toy_size():
    spec = ModelSpec(kind="stacked", locations=2, vars_per_location=2, n1=4, n2=2, seq_len=3)
    report = gradcheck(spec, seed=0)
    assert report.ok
    assert report.n_params == sum(arr.size for _, arr in zero_model_params(spec).tensors())
    assert report.worst_param


def test_library_and_gradient_oracle_run_without_scipy():
    # numpy is the only runtime dependency: with scipy made unimportable the
    # package and its CLI import, and the sigmoid oracle still passes
    code = ("import sys; sys.modules['scipy'] = None\n"
            "import stlstm, stlstm.cli\n"
            "sys.exit(stlstm.cli.main(['gradcheck', '--model-kind', 'st_stacked',\n"
            "    '--activation', 'sigmoid', '--vars', '2', '--n1', '4', '--n2', '2',\n"
            "    '--seq-len', '3']))\n")
    env = dict(os.environ, PYTHONPATH=str(Path(stlstm.__file__).parents[1]))
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert "verification passed" in run.stdout


def test_penalty_gradient_is_exactly_2_lambda_w():
    # with targets set to the model's own predictions the data gradient
    # vanishes identically, leaving only the L2 term
    spec = ModelSpec(kind="st_stacked", locations=2, vars_per_location=2, n1=4, n2=3, seq_len=4)
    rng = np.random.default_rng(5)
    params = random_model_params(spec, rng)
    X = rng.normal(size=(3, spec.seq_len, spec.input_dim))
    y = predict_batch(spec, params, X)
    lam = 0.37
    _, grads = _batch_loss_and_grads(spec, params, X, y, lam)
    for (name, g), (_, w) in zip(grads.tensors(), params.tensors()):
        if name.rsplit(".", 1)[-1].startswith("b_"):
            assert np.array_equal(g, np.zeros_like(g))
        else:
            assert np.array_equal(g, 2.0 * lam * w)


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
def test_non_finite_gradient_is_a_divergence_naming_the_tensor(monkeypatch):
    # a huge head and layer-2 weights give a finite loss (~4e305) whose
    # layer-1 gradients overflow; unchecked, Adam writes NaN into the
    # parameters and a one-batch run reports nothing
    import datetime as dt

    from stlstm import train
    from stlstm.data import Window
    from stlstm.model import init_model_params

    spec = ModelSpec(kind="stacked", locations=2, vars_per_location=2, n1=8, n2=3, seq_len=6)
    rng = np.random.default_rng(8)
    params = init_model_params(spec, rng)
    params.w_dense[:] = 1e153
    for name, arr in params.layer2.tensors():
        if name.startswith("W_"):
            arr *= 1e3
    X = rng.normal(size=(8, 6, 4))
    y = rng.normal(size=8)
    windows = [Window(inputs=X[k], target=float(y[k]), window_id=k,
                      target_date=dt.date(2020, 1, 1)) for k in range(8)]
    monkeypatch.setattr(train, "init_model_params", lambda *_: params)
    cfg = TrainConfig(epochs=1, batch_size=8, l2_lambda=0.0, repeats=1)
    with pytest.raises(DivergenceError) as err:
        train_once(spec, cfg, windows, seed=0)
    assert (err.value.epoch, err.value.batch) == (1, 1)
    assert err.value.tensor.startswith("gradient layer1.")
    assert "epoch 1, batch 1" in str(err.value) and "layer1." in str(err.value)


@pytest.mark.parametrize("build", [
    lambda: ModelSpec(kind="other", locations=1, vars_per_location=1, n1=2, n2=2),
    lambda: ModelSpec(kind="stacked", locations=1, vars_per_location=1, n1=2, n2=2,
                      activation="relu"),
    lambda: ModelSpec(kind="stacked", locations=1, vars_per_location=1, n1=2, n2=2, horizon=0),
    lambda: TrainConfig(optimizer="rmsprop"),
    lambda: TrainConfig(learning_rate=float("nan")),
    lambda: TrainConfig(seed=-1),
], ids=["kind", "activation", "horizon", "optimizer", "learning_rate", "seed"])
def test_an_invalid_spec_or_config_cannot_be_built(build):
    with pytest.raises(ConfigError):
        build()
