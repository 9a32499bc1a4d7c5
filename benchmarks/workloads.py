"""The benchmark workloads, their output checks and their traced paths.

Each workload drives the public API of ``stlstm`` from one process with
one closed-loop client. Model kinds alternate op by op, so drift in the
machine's speed hits ``stacked`` and ``st_stacked`` alike. Untraced ops
are plain library calls timed from outside; traced ops record spans
around the calls into each layer (see ``composed_step`` and
``instrument``). Before each op, ``Workload.calibrate`` times the
benchmark's own reference path, so that throughput can be taken relative
to the machine's speed at the time.
"""

from __future__ import annotations

import contextlib
import io
import tempfile
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

from stlstm import cell, checkpoint, cli, data, model, train

KINDS = ("stacked", "st_stacked")
LOCATIONS, DAYS, COUPLING = 5, 800, 0.6
SEQ_LEN, HORIZON, BATCH = 10, 1, 32
# (variables per location, n1, n2)
SIZES = {"default": (3, 20, 32), "paper": (18, 160, 64)}
# Two epochs per train_repeated call: the smallest run whose loss curve
# can be checked to fall.
EPOCHS, REPEATS = 2, 1
SAMPLE_WINDOWS = 16
# Each calibration runs the reference forward over this many test windows,
# this many times: a few percent of an op's time.
CALIBRATION_WINDOWS, CALIBRATION_PASSES = 64, 4
# The requests of one serve cycle. Two, not more, so that a run holds
# enough cycles for a steady median.
RANGES = ("test", "full")


def _span(tracer, name: str):
    return contextlib.nullcontext() if tracer is None else tracer.span(name)


def _close(a, b, rtol: float) -> bool:
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    scale = max(1.0, float(np.max(np.abs(b), initial=0.0)))
    return a.shape == b.shape and bool(np.all(np.abs(a - b) <= rtol * scale))


# ---------------------------------------------------------------------------
# Reference forward pass: the gate equations of PAPER.md, written here
# independently of stlstm.cell so that it can check predict_batch.

def _sigmoid(v):
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-v))


def _reference_cell(p, xs, g):
    """Hidden states of one peephole cell over the (B, d) inputs ``xs``."""
    c = np.zeros((xs[0].shape[0], p.W_xi.shape[0]))
    h = np.zeros_like(c)
    hidden = []
    for x in xs:
        i = _sigmoid(x @ p.W_xi.T + h @ p.W_hi.T + p.w_ci * c + p.b_i)
        f = _sigmoid(x @ p.W_xf.T + h @ p.W_hf.T + p.w_cf * c + p.b_f)
        c = f * c + i * g(x @ p.W_xc.T + h @ p.W_hc.T + p.b_c)
        o = _sigmoid(x @ p.W_xo.T + h @ p.W_ho.T + p.w_co * c + p.b_o)
        h = o * g(c)
        hidden.append(h)
    return hidden


def reference_predict(spec, params, X) -> np.ndarray:
    g = np.tanh if spec.activation == "tanh" else _sigmoid
    xs = [X[:, t, :] for t in range(X.shape[1])]
    if spec.kind == "st_stacked":
        m = spec.vars_per_location
        per_loc = [_reference_cell(p, [x[:, k * m:(k + 1) * m] for x in xs], g)
                   for k, p in enumerate(params.layer1)]
        h1 = [np.concatenate([hs[t] for hs in per_loc], axis=1) for t in range(len(xs))]
    else:
        h1 = _reference_cell(params.layer1[0], xs, g)
    h2 = _reference_cell(params.layer2, h1, g)[-1]
    return h2 @ params.w_dense + params.b_dense[0]


# ---------------------------------------------------------------------------
# Traced paths

def composed_step(tracer, spec, params, Xb, yb, l2_lambda):
    """One batch's loss and data gradients, composed from the public cell,
    model and train calls in the order model_forward and model_backward
    make them, with a span around each layer's call.

    Returns (predictions, loss, gradients without the L2 term).
    """
    kind, act = spec.kind, spec.activation
    xs = [Xb[:, t, :] for t in range(Xb.shape[1])]
    with _span(tracer, f"model.forward_ms.{kind}"):
        spec.validate()
        for p in params.layer1 + [params.layer2]:
            p.validate()
        if kind == "st_stacked":
            m = spec.vars_per_location
            l1_traces = []
            for k, p in enumerate(params.layer1):
                xk = [x[..., k * m:(k + 1) * m] for x in xs]
                with _span(tracer, f"cell.l1_forward_ms.{kind}"):
                    traces, _ = cell.sequence_forward(p, xk, act)
                l1_traces.append(traces)
            h1_seq = [np.concatenate([traces[t].h for traces in l1_traces], axis=-1)
                      for t in range(len(xs))]
        else:
            with _span(tracer, f"cell.l1_forward_ms.{kind}"):
                traces, _ = cell.sequence_forward(params.layer1[0], xs, act)
            l1_traces = [traces]
            h1_seq = [tr.h for tr in traces]
        with _span(tracer, f"cell.l2_forward_ms.{kind}"):
            l2_traces, l2_final = cell.sequence_forward(params.layer2, h1_seq, act)
        with _span(tracer, "model.head_ms"):
            preds = model.dense_head(l2_final.h, params.w_dense, params.b_dense)

    with _span(tracer, "train.loss_ms"):
        batch_loss = train.loss(preds, yb, params, l2_lambda)
    dy = 2.0 * (np.asarray(preds) - yb) / yb.shape[0]

    with _span(tracer, f"model.backward_ms.{kind}"):
        h2_final = l2_traces[-1].h
        g_w_dense = h2_final.T @ dy
        g_b_dense = np.atleast_1d(np.sum(dy))
        dh2_seq = [np.zeros_like(tr.h) for tr in l2_traces]
        dh2_seq[-1] = dh2_seq[-1] + np.multiply.outer(dy, params.w_dense)
        with _span(tracer, f"cell.l2_backward_ms.{kind}"):
            l2_grads, dh1_seq, _ = cell.cell_backward(params.layer2, l2_traces, dh2_seq, act)
        nc = spec.loc_neurons
        l1_grads = []
        for k, p in enumerate(params.layer1):
            dh_k = [dh[..., k * nc:(k + 1) * nc] for dh in dh1_seq] if kind == "st_stacked" else dh1_seq
            with _span(tracer, f"cell.l1_backward_ms.{kind}"):
                gk, _, _ = cell.cell_backward(p, l1_traces[k], dh_k, act)
            l1_grads.append(gk)
        grads = model.ModelParams(layer1=l1_grads, layer2=l2_grads,
                                  w_dense=g_w_dense, b_dense=g_b_dense)
    return preds, batch_loss, grads


def traced_train_step(tracer, spec, params, opt, Xb, yb, l2_lambda):
    """composed_step plus the L2 gradient and the optimizer step, as train_once makes them.

    Returns (predictions, loss, the gradients the optimizer applied).
    """
    kind = spec.kind
    with _span(tracer, "train.step"):
        preds, batch_loss, grads = composed_step(tracer, spec, params, Xb, yb, l2_lambda)
        if l2_lambda != 0.0:
            for (name, g), (_, w) in zip(grads.tensors(), params.tensors()):
                if model.is_penalized(name):
                    g += 2.0 * l2_lambda * w
        grads = [g for _, g in grads.tensors()]
        with _span(tracer, f"train.optimizer_ms.{kind}"):
            opt.step(grads)
    return preds, batch_loss, grads


@contextlib.contextmanager
def instrument(tracer):
    """Wrap the library names that the predict request path calls, so each
    call records a span. Restores the originals on exit."""
    models = []  # (spec, params) of the model_forward calls in progress
    originals = {}

    def patch(module, attr, name_of):
        fn = getattr(module, attr)
        originals[module, attr] = fn

        def wrapper(*args, **kwargs):
            with tracer.span(name_of(*args)):
                return fn(*args, **kwargs)
        setattr(module, attr, wrapper)

    def cell_layer(p, *_):
        spec, params = models[-1]
        return f"cell.l{2 if p is params.layer2 else 1}_forward_ms.{spec.kind}"

    def model_forward(spec, params, window):
        models.append((spec, params))
        try:
            with tracer.span(f"model.forward_ms.{spec.kind}"):
                return originals[train, "model_forward"](spec, params, window)
        finally:
            models.pop()

    try:
        patch(cli, "load_checkpoint", lambda *_: "checkpoint.load_ms")
        patch(cli, "load_dataset", lambda *_: "data.load_dataset_ms")
        patch(cli, "test_windows", lambda *_: "data.windows_ms")
        patch(cli, "make_windows", lambda *_: "data.windows_ms")
        patch(model, "sequence_forward", cell_layer)
        patch(model, "dense_head", lambda *_: "model.head_ms")
        originals[train, "model_forward"] = train.model_forward
        train.model_forward = model_forward
        yield
    finally:
        for (module, attr), fn in originals.items():
            setattr(module, attr, fn)


# ---------------------------------------------------------------------------
# Workloads

class Workload:
    """Set-up, the op loop body and the output checks shared by every workload."""

    size = "default"
    op_names: tuple = ()  # root spans that per-layer means are taken over
    calibration_text_values = 0  # values in each calibration's text round trip

    def __init__(self, seed: int, scratch: Path):
        self.seed = seed
        self.scratch = scratch
        self.ckpt_bytes: dict[str, int] = {}
        self.expected: dict[tuple[str, str], tuple[list[int], np.ndarray]] = {}

    def setup(self, tracer=None) -> None:
        """Generate the data, load it, window it and build both models."""
        m, n1, n2 = SIZES[self.size]
        out = Path(tempfile.mkdtemp(dir=self.scratch))
        with _span(tracer, "setup"):
            manifest = data.gen_synthetic(out, LOCATIONS, m, DAYS, COUPLING, self.seed)
            with _span(tracer, "data.load_dataset_ms"):
                ds = data.load_dataset(data.load_manifest(manifest))
            with _span(tracer, "data.windows_ms"):
                train_w = data.train_windows(ds, SEQ_LEN, HORIZON)
            with _span(tracer, "data.windows_ms"):
                test_w = data.test_windows(ds, SEQ_LEN, HORIZON)
            specs = {k: model.ModelSpec(k, LOCATIONS, m, n1, n2, seq_len=SEQ_LEN, horizon=HORIZON)
                     for k in KINDS}
            params = {k: model.init_model_params(specs[k], np.random.default_rng(self.seed))
                      for k in KINDS}
        self.dir, self.manifest, self.ds = out, manifest, ds
        self.train_w, self.test_w = train_w, test_w
        self.specs, self.params = specs, params

    def prepare(self, tally) -> None:
        """Warm caches and lazy imports before timing; record expected outputs."""
        self.test_X, self.test_y = data.windows_to_arrays(self.test_w)

    def op(self, kind: str, samples, tally, tracer=None) -> None:
        raise NotImplementedError

    def calibrate(self, kind: str) -> float:
        """Windows/s of the benchmark's own reference path for ``kind`` at this workload's size.

        The path is ``reference_predict`` on fixed test windows, plus, where
        ops read and write text checkpoints, a text round trip of fixed
        parameter values. It calls nothing in ``stlstm``, so only the
        machine's speed moves it. Timed before each op of the same kind, it
        tracks the shared host's slow and fast spells, which each last
        seconds to minutes, as that kind's op feels them.
        """
        spec, params = self.specs[kind], self.params[kind]
        X = self.test_X[:CALIBRATION_WINDOWS]
        values = params.layer2.W_xc.ravel()[:self.calibration_text_values]
        t0 = time.perf_counter()
        for _ in range(CALIBRATION_PASSES):
            for lo in range(0, len(X), BATCH):
                reference_predict(spec, params, X[lo:lo + BATCH])
            text = "\n".join(repr(float(v)) for v in values)
            [float(line) for line in text.splitlines()]
        return CALIBRATION_PASSES * len(X) / (time.perf_counter() - t0)

    def request(self, kind: str, range_name: str, path: Path, tally, tracer=None) -> float | None:
        """One ``stlstm predict`` request through cli.main; returns its seconds or None on failure."""
        out = self.dir / f"pred-{kind}.csv"
        range_arg = "test" if range_name == "test" else f"{self.ds.dates[0]}:{self.ds.dates[-1]}"
        argv = ["predict", "--model", str(path), "--manifest", str(self.manifest),
                "--range", range_arg, "--out", str(out)]
        sink = io.StringIO()
        patches = contextlib.nullcontext() if tracer is None else instrument(tracer)
        with tally.attempt(f"predict {kind} {range_name}"):
            with patches, contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                t0 = time.perf_counter()
                with _span(tracer, "cli.self_ms"):
                    code = cli.main(argv)
                seconds = time.perf_counter() - t0
            if not tally.check("cli", code == 0, f"predict {kind} {range_name} exited {code}: "
                               f"{sink.getvalue().strip()[-200:]}"):
                return None
            ids, values = self.expected[kind, range_name]
            if not tally.check("cli", self._csv_matches(out, ids, values),
                               f"predict {kind} {range_name} wrote wrong predictions"):
                return None
            return seconds
        return None

    def expect(self, kind: str, params, ranges=("test", "full")) -> None:
        """Window ids and predictions a request for each range must write, from predict_batch."""
        spec = self.specs[kind]
        for range_name in ranges:
            windows = (self.test_w if range_name == "test"
                       else data.make_windows(self.ds, SEQ_LEN, HORIZON))
            X, _ = data.windows_to_arrays(windows)
            self.expected[kind, range_name] = ([w.window_id for w in windows],
                                               train.predict_batch(spec, params, X))

    @staticmethod
    def _csv_matches(path: Path, ids, values) -> bool:
        lines = path.read_text().splitlines()
        if not lines or lines[0] != "window_id,date,prediction" or len(lines) - 1 != len(ids):
            return False
        rows = [line.split(",") for line in lines[1:]]
        got_ids = [int(r[0]) for r in rows]
        return got_ids == ids and _close([float(r[2]) for r in rows], values, 0.0)

    def checked_params(self, kind: str):
        """The model the once-per-run checks run on."""
        return self.params[kind]

    def checks(self, tally, tracer=None) -> None:
        """Once-per-run output checks, each failure attributed to a layer."""
        n = len(self.test_X)
        sample = np.linspace(0, n - 1, min(SAMPLE_WINDOWS, n)).astype(int)
        Xs = self.test_X[sample]
        for kind in KINDS:
            spec, params = self.specs[kind], self.checked_params(kind)
            with tally.attempt(f"reference forward {kind}"):
                tally.check("model", _close(train.predict_batch(spec, params, Xs),
                                            reference_predict(spec, params, Xs), 1e-9),
                            f"{kind}: predict_batch differs from the reference gate equations")
            if kind == "st_stacked":
                with tally.attempt("block-diagonal twin"):
                    twin_spec, twin_params = model.block_diagonal_embed(spec, params)
                    tally.check("model", _close(train.predict_batch(spec, params, Xs),
                                                train.predict_batch(twin_spec, twin_params, Xs),
                                                1e-12),
                                "st_stacked predictions differ from their block_diagonal_embed twin")
            with tally.attempt(f"checkpoint round trip {kind}"):
                self._check_round_trip(kind, params, tally, tracer)
            with tally.attempt(f"traced step gradients {kind}"):
                self._check_gradients(kind, params, tally, tracer)

    def _check_round_trip(self, kind, params, tally, tracer) -> None:
        first, second = self.dir / f"rt-{kind}-a.ckpt", self.dir / f"rt-{kind}-b.ckpt"
        with _span(tracer, "checkpoint.save_ms"):
            checkpoint.save_checkpoint(self.specs[kind], params, first)
        with _span(tracer, "checkpoint.load_ms"):
            spec2, params2 = checkpoint.load_checkpoint(first)
        with _span(tracer, "checkpoint.save_ms"):
            checkpoint.save_checkpoint(spec2, params2, second)
        blob = first.read_bytes()
        self.ckpt_bytes[kind] = len(blob)
        same_values = all(np.array_equal(a, b) for (_, a), (_, b)
                          in zip(params.tensors(), params2.tensors()))
        tally.check("checkpoint", spec2 == self.specs[kind] and same_values
                    and blob == second.read_bytes(),
                    f"{kind}: save -> load -> save does not reproduce the model byte for byte")

    def _check_gradients(self, kind, params, tally, tracer) -> None:
        """The traced step's gradients (no L2 term) must equal model_backward's."""
        spec = self.specs[kind]
        Xb, yb = self.test_X[:BATCH], self.test_y[:BATCH]
        copy = params.copy()
        opt = train.Adam([a for _, a in copy.tensors()], 1e-3)
        preds, _, grads = traced_train_step(tracer, spec, copy, opt, Xb, yb, 0.0)
        ref_preds, trace = model.model_forward(spec, params, [Xb[:, t, :] for t in range(SEQ_LEN)])
        dy = 2.0 * (ref_preds - yb) / yb.shape[0]
        ref = model.model_backward(spec, params, trace, dy)
        same = _close(preds, ref_preds, 1e-12) and all(
            _close(g, r, 1e-10) for g, (_, r) in zip(grads, ref.tensors()))
        tally.check("model", same, f"{kind}: traced step gradients differ from model_backward")

    def counts(self) -> dict[str, float]:
        """Per-step counts computed from shapes, plus measured tensor and byte counts."""
        out = {}
        for kind in KINDS:
            spec = self.specs[kind]
            n_cells = spec.locations if kind == "st_stacked" else 1
            d1 = spec.vars_per_location if kind == "st_stacked" else spec.input_dim
            cells = [(spec.loc_neurons, d1)] * n_cells + [(spec.n2, spec.n1)]
            out[f"cell.step_calls.{kind}"] = SEQ_LEN * len(cells)
            # forward: 4 gates x (x W_x^T + h W_h^T) at 2 flops per multiply-add;
            # backward repeats that for dx/dh and again for the weight gradients
            out[f"cell.gemm_flops.{kind}"] = 3 * SEQ_LEN * sum(8 * BATCH * n * (d + n)
                                                              for n, d in cells)
            out[f"train.tensors.{kind}"] = len(list(self.params[kind].tensors()))
            if kind in self.ckpt_bytes:
                out[f"checkpoint.bytes.{kind}"] = self.ckpt_bytes[kind]
        return out


class TrainWorkload(Workload):
    """Repeated same-seed train_repeated calls."""

    op_names = ("train.step",)

    def __init__(self, seed: int, scratch: Path, size: str):
        super().__init__(seed, scratch)
        self.size = size
        self.config = train.TrainConfig(epochs=EPOCHS, repeats=REPEATS, batch_size=BATCH,
                                        seed=seed)

    def prepare(self, tally) -> None:
        super().prepare(tally)
        self.train_X, self.train_y = data.windows_to_arrays(self.train_w)
        # The warm-up call's curve is the one every later same-seed call must repeat.
        self.curves, self.trained = {}, {}
        for kind in KINDS:
            result = train.train_repeated(self.specs[kind], self.config, self.train_w)
            self.curves[kind] = [run.loss_curve for run in result.runs]
            self.trained[kind] = result.runs[0].params
            curve = self.curves[kind][0]
            tally.check("train", bool(np.all(np.isfinite(curve))) and curve[-1] < curve[0],
                        f"{kind}: loss curve {curve} is not finite and falling")

    def checked_params(self, kind: str):
        return self.trained[kind]

    def op(self, kind: str, samples, tally, tracer=None) -> None:
        spec = self.specs[kind]
        with tally.attempt(f"train_repeated {kind}"):
            t0 = time.perf_counter()
            if tracer is None:
                curves = [run.loss_curve
                          for run in train.train_repeated(spec, self.config, self.train_w).runs]
            else:
                curves = [self._traced_run(kind, tracer)]
            seconds = time.perf_counter() - t0
            same = len(curves) == REPEATS and all(
                _close(curve, ref, 0.0 if tracer is None else 1e-9)
                for curve, ref in zip(curves, self.curves[kind]))
            if tally.check("train", same,
                           f"{kind}: a same-seed train_repeated call gave another loss curve"):
                samples[f"windows_per_s.{kind}"].append(
                    EPOCHS * REPEATS * len(self.train_w) / seconds)

    def _traced_run(self, kind: str, tracer):
        """train_once's loss curve for seed config.seed, stepped by traced_train_step."""
        spec, cfg = self.specs[kind], self.config
        X, y = self.train_X, self.train_y
        rng = np.random.default_rng(cfg.seed)
        params = model.init_model_params(spec, rng, cfg.forget_bias_init)
        opt = train.Adam([a for _, a in params.tensors()], cfg.learning_rate,
                         cfg.adam_beta1, cfg.adam_beta2, cfg.adam_eps)
        curve = []
        for _ in range(cfg.epochs):
            order = rng.permutation(X.shape[0])
            losses = []
            for lo in range(0, X.shape[0], cfg.batch_size):
                idx = order[lo:lo + cfg.batch_size]
                _, batch_loss, _ = traced_train_step(tracer, spec, params, opt, X[idx], y[idx],
                                                     cfg.l2_lambda)
                losses.append(batch_loss)
            curve.append(float(np.mean(losses)))
        return curve

    def checks(self, tally, tracer=None) -> None:
        super().checks(tally, tracer)
        # the CLI serves the trained model: `stlstm predict` after `stlstm train`
        for kind in KINDS:
            path = self.dir / f"cli-{kind}.ckpt"
            with tally.attempt(f"save and expect {kind}"):
                checkpoint.save_checkpoint(self.specs[kind], self.trained[kind], path)
                self.expect(kind, self.trained[kind], ("test",))
            self.request(kind, "test", path, tally, tracer)


class ServeWorkload(Workload):
    """Each cycle saves a model (the write path), then serves two predict requests."""

    size = "paper"
    op_names = ("cli.self_ms", "train.step")
    # Saves and loads are text-bound, so the calibration does text work too.
    calibration_text_values = 8192

    def prepare(self, tally) -> None:
        super().prepare(tally)
        for kind in KINDS:
            self.expect(kind, self.params[kind])
            path = self.dir / f"serve-{kind}.ckpt"
            checkpoint.save_checkpoint(self.specs[kind], self.params[kind], path)
            self.request(kind, "full", path, tally)

    def op(self, kind: str, samples, tally, tracer=None) -> None:
        path = self.dir / f"serve-{kind}.ckpt"
        with tally.attempt(f"save_checkpoint {kind}"):
            with _span(tracer, "checkpoint.save_ms"):
                t0 = time.perf_counter()
                checkpoint.save_checkpoint(self.specs[kind], self.params[kind], path)
                seconds = time.perf_counter() - t0
            samples[f"save_ms.{kind}"].append(1e3 * seconds)
            windows = 0
            for range_name in RANGES:
                t = self.request(kind, range_name, path, tally, tracer)
                if t is None:
                    return
                samples[f"request_ms.{kind}.{range_name}"].append(1e3 * t)
                seconds += t
                windows += len(self.expected[kind, range_name][0])
            # the write path counts in the cycle's throughput
            samples[f"windows_per_s.{kind}"].append(windows / seconds)


WORKLOADS = {
    "train_small": lambda seed, scratch: TrainWorkload(seed, scratch, "default"),
    "train_paper": lambda seed, scratch: TrainWorkload(seed, scratch, "paper"),
    "serve": ServeWorkload,
}


def measure(workload: Workload, seconds: float, tally, tracer=None) -> dict[str, list]:
    """Closed loop: a calibration before each op, kinds alternating, until ``seconds`` have passed."""
    samples: dict[str, list] = defaultdict(list)
    deadline = time.perf_counter() + seconds
    while True:
        for kind in KINDS:
            samples[f"reference_windows_per_s.{kind}"].append(workload.calibrate(kind))
            workload.op(kind, samples, tally, tracer)
        if time.perf_counter() >= deadline:
            return samples
