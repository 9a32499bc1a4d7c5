import dataclasses
import datetime as dt
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

import stlstm
from stlstm import (
    ConfigError,
    DataError,
    DivergenceError,
    ModelSpec,
    NonFiniteResultError,
    ShapeError,
    TrainConfig,
    WindowArrays,
    load_dataset,
    load_manifest,
    gen_synthetic,
    test_windows,
    train_windows,
)
from stlstm import model, train
from stlstm.data import make_windows, windows_to_arrays
from stlstm.model import random_model_params, zero_model_params
from stlstm.train import (
    PREDICT_BLOCK_ROWS,
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


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_divergence_reports_the_epoch(tiny_data):
    spec, tr, _ = tiny_data
    cfg = TrainConfig(learning_rate=1e12, epochs=5, optimizer="sgd", repeats=1)
    with pytest.raises(DivergenceError) as err:
        train_once(spec, cfg, tr, seed=0)
    assert err.value.epoch >= 1


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_finite_batch_losses_whose_mean_overflows_are_a_divergence(tiny_data, monkeypatch):
    spec, tr, _ = tiny_data
    cfg = TrainConfig(epochs=2, repeats=1)
    assert len(tr) > cfg.batch_size  # two batches or more, so their sum overflows
    monkeypatch.setattr(train, "loss", lambda *_: 1e308)
    with pytest.raises(DivergenceError) as err:
        train_once(spec, cfg, tr, seed=0)
    assert str(err.value) == "training diverged (non-finite epoch mean loss) at epoch 1"
    assert (err.value.epoch, err.value.batch) == (1, None)


def test_validation_holdout_records_a_curve(tiny_data):
    spec, tr, _ = tiny_data
    cfg = TrainConfig(epochs=2, validation_holdout=True, repeats=1)
    result = train_once(spec, cfg, tr, seed=0)
    assert result.val_curve is not None and len(result.val_curve) == 2
    assert all(np.isfinite(v) for v in result.val_curve)


def contiguous_copy(record):
    """``record`` with its sliding view X copied into one contiguous array."""
    return dataclasses.replace(record, X=np.array(record.X))


def test_training_on_a_sliding_record_equals_training_on_its_contiguous_copy(tiny_data):
    spec, tr, te = tiny_data
    cfg = TrainConfig(epochs=2, validation_holdout=True, repeats=1)
    on_view = train_once(spec, cfg, tr, seed=0, test_set=te)
    on_copy = train_once(spec, cfg, contiguous_copy(tr), seed=0, test_set=contiguous_copy(te))
    assert on_view.loss_curve == on_copy.loss_curve
    assert on_view.val_curve == on_copy.val_curve
    assert on_view.test_mae == on_copy.test_mae
    assert on_view.params.flat.tobytes() == on_copy.params.flat.tobytes()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_non_finite_validation_loss_is_refused(tiny_data):
    # finite predictions, but squared errors against these targets overflow
    spec, tr, _ = tiny_data
    split = int(round(len(tr) * 0.9))
    y = tr.y.copy()
    y[split:] = 1e200
    tr = WindowArrays(X=tr.X, y=y, window_ids=tr.window_ids, target_dates=tr.target_dates)
    cfg = TrainConfig(epochs=1, validation_holdout=True, repeats=1)
    with pytest.raises(NonFiniteResultError, match="validation loss after epoch 1"):
        train_once(spec, cfg, tr, seed=0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_non_finite_test_score_is_refused(tiny_data):
    spec, tr, te = tiny_data
    te = WindowArrays(X=te.X, y=np.full(len(te), 1e200), window_ids=te.window_ids,
                      target_dates=te.target_dates)
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


def test_predict_batch_takes_array_likes_and_refuses_a_wrong_shape():
    # a 2-D array used to escape as a bare ValueError, a nested list as an AttributeError
    spec = ModelSpec(kind="stacked", locations=2, vars_per_location=2, n1=4, n2=3, seq_len=5)
    params = random_model_params(spec, np.random.default_rng(0))
    X = np.random.default_rng(1).normal(size=(2, spec.seq_len, spec.input_dim))
    assert np.array_equal(predict_batch(spec, params, X.tolist()), predict_batch(spec, params, X))
    for bad in (X[0], X.tolist()[0], [[1.0, 2.0], [3.0]]):
        with pytest.raises(ShapeError, match="predict_batch"):
            predict_batch(spec, params, bad)


def test_repeats_use_consecutive_seeds(tiny_data):
    spec, tr, te = tiny_data
    cfg = TrainConfig(epochs=1, repeats=3, seed=40)
    result = train_repeated(spec, cfg, tr, te)
    assert [run.seed for run in result.runs] == [40, 41, 42]
    assert result.median_mae == sorted(r.test_mae for r in result.runs)[1]
    assert result.runs[result.best_index].test_mae == result.median_mae


# ---------------------------------------------------------------------------
# allocation: batches after the first reuse one workspace, and a record is not copied

MiB = 1 << 20
PAPER = dict(locations=5, vars_per_location=18, n1=160, n2=64, seq_len=10)


def sliding_record(n, spec, rng):
    """n windows cut from one read-only sliding view of random rows, as make_windows cuts them."""
    rows = rng.normal(size=(n + spec.seq_len - 1, spec.input_dim))
    X = sliding_window_view(rows, spec.seq_len, axis=0).transpose(0, 2, 1)
    return WindowArrays(X=X, y=rng.normal(size=n), window_ids=np.arange(n),
                        target_dates=[dt.date(2020, 1, 1)] * n)


@pytest.fixture
def peaks_between_heads(monkeypatch):
    """Traced peak above the traced level at the previous head call, taken at each
    call of model.dense_head: one batch's or one block's allocations, whole."""
    peaks, level = [], []
    inner = model.dense_head

    def probe(*args):
        current, peak = tracemalloc.get_traced_memory()
        if level:
            peaks.append(peak - level[0])
        level[:] = [current]
        tracemalloc.reset_peak()
        return inner(*args)

    monkeypatch.setattr(model, "dense_head", probe)
    tracemalloc.start()
    yield peaks
    tracemalloc.stop()


@pytest.mark.parametrize("kind", ["stacked", "st_stacked"])
def test_training_batches_after_the_first_allocate_nothing_large(kind, peaks_between_heads):
    spec = ModelSpec(kind=kind, **PAPER)
    record = sliding_record(4 * 32, spec, np.random.default_rng(30))
    train_once(spec, TrainConfig(epochs=1, repeats=1, batch_size=32), record, seed=0)
    # each peak spans one batch's backward pass, optimizer step and the next forward
    # pass; the first backward pass still sizes its buffers
    assert len(peaks_between_heads) == 3
    assert max(peaks_between_heads[1:]) < MiB, peaks_between_heads


@pytest.mark.parametrize("kind", ["stacked", "st_stacked"])
def test_predict_blocks_after_the_first_allocate_nothing_large(kind, peaks_between_heads):
    spec = ModelSpec(kind=kind, **PAPER)
    rng = np.random.default_rng(31)
    record = sliding_record(3 * PREDICT_BLOCK_ROWS + 5, spec, rng)
    predict_batch(spec, random_model_params(spec, rng), record.X)
    assert len(peaks_between_heads) == 3
    assert max(peaks_between_heads) < MiB, peaks_between_heads


@pytest.mark.parametrize("kind", ["stacked", "st_stacked"])
def test_validation_passes_reuse_the_training_workspace(kind, monkeypatch):
    spec = ModelSpec(kind=kind, **PAPER)
    rng = np.random.default_rng(33)
    record, test_set = sliding_record(120, spec, rng), sliding_record(40, spec, rng)
    cfg = TrainConfig(epochs=3, repeats=1, batch_size=32, validation_holdout=True)
    inner = train.predict_batch
    peaks = []

    def traced(spec, params, X, ws=None):
        current = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        preds = inner(spec, params, X, ws)
        peaks.append(tracemalloc.get_traced_memory()[1] - current)
        return preds

    monkeypatch.setattr(train, "predict_batch", traced)
    tracemalloc.start()
    try:
        shared = train_once(spec, cfg, record, seed=0, test_set=test_set)
    finally:
        tracemalloc.stop()
    # one validation pass per epoch, then the test set; the first pass still
    # sizes the prediction buffers (a fresh workspace per call took 3 MB each)
    assert len(peaks) == 4
    assert max(peaks[1:3]) < MiB, peaks

    monkeypatch.setattr(train, "predict_batch",
                        lambda spec, params, X, ws=None: inner(spec, params, X))
    alone = train_once(spec, cfg, record, seed=0, test_set=test_set)
    assert shared.loss_curve == alone.loss_curve
    assert shared.val_curve == alone.val_curve
    assert shared.test_mae == alone.test_mae
    assert shared.params.flat.tobytes() == alone.params.flat.tobytes()


def test_train_once_trains_on_a_record_without_copying_it():
    spec = ModelSpec(kind="stacked", locations=2, vars_per_location=2, n1=4, n2=3, seq_len=10)
    record = sliding_record(4000, spec, np.random.default_rng(32))
    cfg = TrainConfig(epochs=1, repeats=1)
    tracemalloc.start()
    try:
        on_record = train_once(spec, cfg, record, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # copied, X would take 1.28 MB; the model, its optimizer and workspace take far less
    assert peak < record.X.nbytes, (peak, record.X.nbytes)
    on_copy = train_once(spec, cfg, contiguous_copy(record), seed=0)
    assert on_record.loss_curve == on_copy.loss_curve
    assert on_record.params.flat.tobytes() == on_copy.params.flat.tobytes()


# ---------------------------------------------------------------------------
# gradient checking

def test_gradcheck_passes_at_toy_size():
    spec = ModelSpec(kind="stacked", locations=2, vars_per_location=2, n1=4, n2=2, seq_len=3)
    report = gradcheck(spec, seed=0)
    assert report.ok
    assert report.n_params == sum(arr.size for _, arr in zero_model_params(spec).tensors())
    assert report.worst_param


@pytest.mark.parametrize("l2_lambda", [1e4, 1e8, 1e306])
def test_gradcheck_passes_at_a_large_l2_lambda(l2_lambda):
    # differencing the whole L2 term let its rounding swamp the data gradient:
    # at 1e4 a bias, which the penalty never touches, failed the gate
    spec = ModelSpec(kind="stacked", locations=2, vars_per_location=2, n1=4, n2=2, seq_len=3)
    report = gradcheck(spec, seed=0, l2_lambda=l2_lambda)
    assert report.ok, (report.max_rel_err, report.worst_param)


def test_gradcheck_counts_a_nan_error_as_the_worst(monkeypatch):
    # a non-finite analytic gradient is refused before any comparison, so the
    # NaN goes into the oracle's first loss, that of the first component
    spec = ModelSpec(kind="stacked", locations=1, vars_per_location=1, n1=2, n2=1, seq_len=2)
    inner = train._loss_extended
    calls = []

    def nan_first(*args):
        calls.append(None)
        return np.longdouble(np.nan) if len(calls) == 1 else inner(*args)

    monkeypatch.setattr(train, "_loss_extended", nan_first)
    report = gradcheck(spec, seed=0)
    # every later component has a finite error, which must not displace the NaN
    assert not report.ok and np.isnan(report.max_rel_err)
    assert report.worst_param == f"{next(zero_model_params(spec).tensors())[0]}[0]"


@pytest.mark.parametrize("bad, message", [({"l2_lambda": float("nan")}, "l2_lambda must be finite"),
                                          ({"seed": -1}, "seed must be >= 0, got -1")])
def test_gradcheck_refuses_a_non_finite_penalty_or_a_negative_seed(bad, message):
    spec = ModelSpec(kind="stacked", locations=1, vars_per_location=1, n1=2, n2=1, seq_len=2)
    with pytest.raises(ConfigError, match=message):
        gradcheck(spec, **bad)


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


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_non_finite_gradient_is_a_divergence_naming_the_tensor(monkeypatch):
    # a huge head and layer-2 weights give a finite loss (~4e305) whose
    # layer-1 gradients overflow; unchecked, Adam writes NaN into the
    # parameters and a one-batch run reports nothing
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
    windows = WindowArrays(X=X, y=y, window_ids=np.arange(8),
                           target_dates=[dt.date(2020, 1, 1)] * 8)
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
    # Adam outside 0 <= beta1, beta2 < 1 and eps > 0, which diverged or trained anyway
    lambda: TrainConfig(adam_beta1=1.0),
    lambda: TrainConfig(adam_beta1=2.0),
    lambda: TrainConfig(adam_beta1=-0.1),
    lambda: TrainConfig(adam_beta2=1.0),
    lambda: TrainConfig(adam_beta2=-0.5),
    lambda: TrainConfig(adam_eps=0.0),
    lambda: TrainConfig(adam_eps=-1.0),
], ids=["kind", "activation", "horizon", "optimizer", "learning_rate", "seed", "beta1=1",
        "beta1=2", "beta1<0", "beta2=1", "beta2<0", "eps=0", "eps<0"])
def test_an_invalid_spec_or_config_cannot_be_built(build):
    with pytest.raises(ConfigError):
        build()


@pytest.mark.parametrize("build", [
    lambda: ModelSpec(kind="stacked", locations=1, vars_per_location=1, n1=2, n2=2),
    lambda: TrainConfig(),
], ids=["spec", "config"])
def test_a_built_spec_or_config_is_frozen(build):
    # check_params does not validate a spec again: a built one cannot change
    built = build()
    for field in dataclasses.fields(built):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(built, field.name, getattr(built, field.name))


@pytest.fixture(scope="module")
def refusal_inputs(tmp_path_factory):
    """A 50-day dataset (2 x 2, test range on its last 3 days), its manifest,
    and the trace of a seq_len=3 model on a batch of one window."""
    manifest = load_manifest(gen_synthetic(tmp_path_factory.mktemp("refusals"), locations=2,
                                           vars_per_location=2, days=50, coupling=0.5,
                                           seed=1, test_days=3))
    spec = ModelSpec(kind="stacked", locations=2, vars_per_location=2, n1=4, n2=3, seq_len=3)
    params = zero_model_params(spec)
    _, trace = model.model_forward(spec, params, np.zeros((3, 1, 4)))
    return {
        "manifest": manifest, "ds": load_dataset(manifest), "spec": spec, "params": params,
        "trace": trace}


# Library calls outside their domain that no other test, demo or benchmark
# smoke makes: each names its error class and a fragment of its message.
REFUSED_CALLS = {
    "loss-shape": (ShapeError, "loss: 2 predictions vs 1 targets",
                   lambda d: loss([1.0, 2.0], [1.0])),
    "loss-l2-without-params": (ConfigError, "l2_lambda > 0 requires the model parameters",
                               lambda d: loss([1.0], [1.0], l2_lambda=0.5)),
    "adam-non-contiguous": (ValueError, "C-contiguous arrays only",
                            lambda d: train.Adam([np.zeros((3, 4))[:, ::2]], 0.1)),
    "train-once-seq-len": (ShapeError, "windows have T=3, spec.seq_len is 4",
                           lambda d: train_once(dataclasses.replace(d["spec"], seq_len=4),
                                                TrainConfig(epochs=1),
                                                train_windows(d["ds"], 3, 1), seed=0)),
    # train_once and predict_batch check their windows' shape once, before any batch or block
    "train-once-width": (ShapeError, "width 4, spec.input_dim is 6",
                         lambda d: train_once(dataclasses.replace(d["spec"], vars_per_location=3),
                                              TrainConfig(epochs=1),
                                              train_windows(d["ds"], 3, 1), seed=0)),
    "predict-batch-empty-width": (ShapeError, "X must have shape (N, 3, 4), got (0, 3, 5)",
                                  lambda d: predict_batch(d["spec"], d["params"],
                                                          np.zeros((0, 3, 5)))),
    "train-once-no-windows": (ShapeError, "no training windows",
                              lambda d: train_once(d["spec"], TrainConfig(epochs=1),
                                                   make_windows(d["ds"], 3, 1, 0, 3), seed=0)),
    "backward-trace-length": (ShapeError, "trace has 3 layer-2 steps, spec.seq_len is 4",
                              lambda d: model.model_backward(
                                  dataclasses.replace(d["spec"], seq_len=4), d["params"],
                                  d["trace"], 0.0)),
    "backward-dy-shape": (ShapeError, "loss gradient has shape (2,), predictions have shape (1,)",
                          lambda d: model.model_backward(d["spec"], d["params"], d["trace"],
                                                         np.zeros(2))),
    "missing-policy": (DataError, "unknown missing_policy 'bfill'",
                       lambda d: load_dataset(d["manifest"], missing_policy="bfill")),
    "make-windows-seq-len": (ShapeError, "seq_len and horizon must be >= 1, got 0, 1",
                             lambda d: make_windows(d["ds"], 0, 1)),
    "make-windows-range": (ShapeError, "window range [0, 51) outside dataset of 50 rows",
                           lambda d: make_windows(d["ds"], 3, 1, 0, 51)),
    "test-windows-no-range": (DataError, "dataset has no test range",
                              lambda d: test_windows(load_dataset(dataclasses.replace(
                                  d["manifest"], test_range=None)), 3, 1)),
    "windows-to-arrays-empty": (ShapeError, "no windows to stack",
                                lambda d: windows_to_arrays(make_windows(d["ds"], 3, 1, 0, 3))),
}


@pytest.mark.parametrize("case", sorted(REFUSED_CALLS))
def test_a_call_outside_its_domain_is_refused_with_its_cause(refusal_inputs, case):
    error, fragment, call = REFUSED_CALLS[case]
    with pytest.raises(error) as raised:
        call(refusal_inputs)
    assert fragment in str(raised.value)
