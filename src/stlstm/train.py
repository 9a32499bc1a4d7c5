"""Mini-batch training, the repeat/median protocol, and gradient checking.

One training run is fully deterministic given its seed: parameter
initialization, epoch shuffles, and gradient accumulation all happen in
a fixed order. Repeats differ only by seed (base seed + repeat index)
and run one after another.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import numpy.random  # noqa: F401 -- numpy 2 defers it to first use; pay that at import

from .cell import Workspace
from .data import WindowArrays
from .errors import ConfigError, DivergenceError, NonFiniteResultError, ShapeError, check_indexable
from .metrics import mae, median_low, mse
from .model import (
    ModelParams,
    ModelSpec,
    _forward,
    check_params,
    field_types,
    init_model_params,
    is_penalized,
    model_backward,
    model_forward,  # noqa: F401 -- benchmarks/workloads.py:instrument wraps it by name
    random_model_params,
)

@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-3
    epochs: int = 200
    batch_size: int = 32
    l2_lambda: float = 1e-4
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    seed: int = 0
    repeats: int = 5
    forget_bias_init: bool = False
    validation_holdout: bool = False  # hold out the last 10% of training windows

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        if self.learning_rate < 0:
            raise ConfigError(f"learning_rate must be >= 0, got {self.learning_rate}")
        if self.l2_lambda < 0:
            raise ConfigError(f"l2_lambda must be >= 0, got {self.l2_lambda}")
        if self.epochs < 1 or self.batch_size < 1 or self.repeats < 1:
            raise ConfigError("epochs, batch_size and repeats must all be >= 1")
        if self.seed < 0:  # numpy's generators take no negative seed
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        for name, type_name in CONFIG_FIELDS.items():
            if type_name == "float" and not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)!r}")
        if not (0 <= self.adam_beta1 < 1 and 0 <= self.adam_beta2 < 1 and self.adam_eps > 0):
            raise ConfigError("Adam needs 0 <= adam_beta1, adam_beta2 < 1 and adam_eps > 0, got "
                              f"{self.adam_beta1}, {self.adam_beta2}, {self.adam_eps}")

    def fitted_windows(self, n_windows: int) -> int:
        """How many leading training windows are fitted: all, or about 90% with a holdout."""
        if n_windows == 0:
            raise ShapeError("no training windows")
        if not self.validation_holdout:
            return n_windows
        split = min(max(1, int(round(n_windows * 0.9))), n_windows - 1)
        if split < 1:
            raise ShapeError("validation holdout needs at least two training windows")
        return split


CONFIG_FIELDS = field_types(TrainConfig)


def l2_penalty(params: ModelParams) -> float:
    """Sum of squares over weight matrices and peepholes (biases excluded)."""
    return float(params.penalized @ params.penalized)


def loss(preds, targets, params: ModelParams | None = None,
         l2_lambda: float = 0.0) -> float:
    """Quadratic data loss plus L2 penalty.

    mean((pred - target)^2) over the batch, plus l2_lambda times the
    squared norm of all weights; the penalty is not divided by the
    batch size.
    """
    preds = np.atleast_1d(np.asarray(preds, dtype=np.float64))
    targets = np.atleast_1d(np.asarray(targets, dtype=np.float64))
    if preds.shape != targets.shape:
        raise ShapeError(f"loss: {preds.shape[0]} predictions vs {targets.shape[0]} targets")
    value = float(np.mean((preds - targets) ** 2))
    if l2_lambda != 0.0:
        if params is None:
            raise ConfigError("loss: l2_lambda > 0 requires the model parameters")
        value += l2_lambda * l2_penalty(params)
    return value


class Adam:
    """Standard Adam with bias correction, updating tensors in place.

    Each step works through every tensor in chunks of ``CHUNK`` values
    with two preallocated scratch buffers, so a model's flat parameter
    buffer is stepped without temporaries and each chunk's six arrays
    stay in cache. Tensors must be C-contiguous, as a model's are.
    """

    # 16k float64 values: six 128 KiB arrays per chunk. On a 4 MiB L2 a
    # paper-scale stacked step took 1.75 ms chunked against 2.13 ms whole.
    CHUNK = 1 << 14

    def __init__(self, arrays: list[np.ndarray], learning_rate: float,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        if not all(a.flags.c_contiguous for a in arrays):
            raise ValueError("Adam updates C-contiguous arrays only")
        self.arrays = [a.reshape(-1) for a in arrays]  # flat views: writes reach the tensors
        self.lr = learning_rate
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.m = [np.zeros(a.size) for a in arrays]
        self.v = [np.zeros(a.size) for a in arrays]
        size = min(self.CHUNK, max(a.size for a in arrays))
        self.scratch = (np.empty(size), np.empty(size))
        self.t = 0

    def step(self, grads: list[np.ndarray]) -> None:
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        corr1 = 1.0 - b1 ** self.t
        corr2 = 1.0 - b2 ** self.t
        size = self.scratch[0].size  # CHUNK, or the largest tensor if that is smaller
        for flat, m_all, v_all, g in zip(self.arrays, self.m, self.v, grads):
            g = g.reshape(-1)
            for lo in range(0, flat.size, size):
                hi = lo + size
                arr, m, v, gc = flat[lo:hi], m_all[lo:hi], v_all[lo:hi], g[lo:hi]
                s, u = self.scratch[0][:arr.size], self.scratch[1][:arr.size]
                # m = b1 m + (1 - b1) g;  v = b2 v + (1 - b2) g^2
                m *= b1
                np.multiply(gc, 1.0 - b1, out=s)
                m += s
                v *= b2
                np.multiply(gc, gc, out=s)
                s *= 1.0 - b2
                v += s
                # arr -= lr (m / corr1) / (sqrt(v / corr2) + eps)
                np.divide(v, corr2, out=s)
                np.sqrt(s, out=s)
                s += self.eps
                np.divide(m, corr1, out=u)
                u *= self.lr
                u /= s
                arr -= u


@dataclass
class RunResult:
    """Outcome of one seeded training run."""

    seed: int
    loss_curve: list[float]
    params: ModelParams
    test_mae: float | None = None
    test_mse: float | None = None
    val_curve: list[float] | None = None


@dataclass
class RepeatedResult:
    runs: list[RunResult]
    median_mae: float | None
    median_mse: float | None
    best_index: int  # repeat whose test MAE is the reported median


def _batch_loss_and_grads(spec: ModelSpec, params: ModelParams,
                          Xb: np.ndarray, yb: np.ndarray, l2_lambda: float,
                          ws: Workspace | None = None) -> tuple[float, ModelParams]:
    ws = Workspace() if ws is None else ws
    # the batch, whose shape the caller has checked, as a time-major (T, B, c*m) view
    preds, trace = _forward(spec, params, Xb.transpose(1, 0, 2), keep_trace=True, ws=ws)
    batch_loss = loss(preds, yb, params, l2_lambda)
    dy = 2.0 * (preds - yb) / yb.shape[0]
    grads = model_backward(spec, params, trace, dy)
    if l2_lambda != 0.0:  # the engine's projection buffer is free again after the backward pass
        grads.penalized += np.multiply(params.penalized, 2.0 * l2_lambda,
                                       out=ws.take("A", params.penalized.shape))
    return batch_loss, grads


# Rows per forward pass in predict_batch. Windows cut from one sliding
# view share layer 1's input projection (T+rows-1 rows), so a block's largest
# array is layer 2's hoisted projection, (4, 1, T*rows, n2): 2.6 MB for 128
# rows at paper scale. On 790 paper-scale sliding windows, 128 rows timed
# fastest for both kinds: 64 rows ran 4.5-6.6% slower, 256 rows 2.6-3.6%
# and 512 rows 11-16%.
PREDICT_BLOCK_ROWS = 128


def predict_batch(spec: ModelSpec, params: ModelParams, X: np.ndarray,
                  ws: Workspace | None = None) -> np.ndarray:
    """Raw-scale predictions for windows X of shape (N, seq_len, c*m), checked once.

    Windows are independent, so they run in blocks of PREDICT_BLOCK_ROWS
    rows; each block's predictions land in one preallocated (N,) array.
    X may be a sliding-window view (``make_windows(...).X``) or a copy;
    a block's windows then share layer 1's projection of their rows.
    The blocks run in ``ws`` (a fresh Workspace by default), so a caller
    that predicts again, like ``train_once``, can reuse its buffers.
    A NaN or infinite prediction raises NonFiniteResultError naming its row.
    """
    check_params(spec, params)
    try:
        X = np.asarray(X, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ShapeError(f"predict_batch: X is not a float array (N, T, c*m): {exc}") from exc
    if X.shape[1:] != (spec.seq_len, spec.input_dim):
        raise ShapeError(f"predict_batch: X must have shape (N, {spec.seq_len}, "
                         f"{spec.input_dim}), got {X.shape}")
    out = np.empty(X.shape[0])
    # every block after the first runs in the first one's buffers
    ws = Workspace() if ws is None else ws
    # an overflow needs no numpy warning, as a non-finite prediction is refused below
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, X.shape[0], PREDICT_BLOCK_ROWS):
            block = X[start:start + PREDICT_BLOCK_ROWS].transpose(1, 0, 2)  # (T, rows, c*m)
            pred, _ = _forward(spec, params, block, keep_trace=False, ws=ws)
            out[start:start + block.shape[1]] = pred
    bad = np.flatnonzero(~np.isfinite(out))
    if bad.size:
        row = int(bad[0])
        raise NonFiniteResultError(
            f"non-finite prediction ({float(out[row])!r}) in row {row} of the input", row)
    return out


def train_once(spec: ModelSpec, config: TrainConfig, train_set: WindowArrays,
               seed: int, test_set: WindowArrays | None = None) -> RunResult:
    """One deterministic run on a ``WindowArrays`` record's own X and y (no copy):
    init, shuffle, fit, optionally score the test set."""
    split = config.fitted_windows(len(train_set))
    X, y = train_set.X, train_set.y
    if X.shape[1:] != (spec.seq_len, spec.input_dim):  # checked once, not on every batch
        raise ShapeError(f"windows have T={X.shape[1]}, spec.seq_len is {spec.seq_len}; "
                         f"width {X.shape[2]}, spec.input_dim is {spec.input_dim}")
    X, val_X, y, val_y = X[:split], X[split:], y[:split], y[split:]

    rng = np.random.default_rng(seed)
    params = init_model_params(spec, rng, config.forget_bias_init)
    opt = Adam([params.flat], config.learning_rate, config.adam_beta1, config.adam_beta2,
               config.adam_eps)

    n = X.shape[0]
    ws = Workspace()  # every batch and prediction after the first runs in the first one's buffers
    curve: list[float] = []
    val_curve: list[float] | None = [] if config.validation_holdout else None
    # an overflow needs no numpy warning: the checks below refuse every non-finite value
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(1, config.epochs + 1):
            order = rng.permutation(n)
            epoch_losses = []
            for batch, lo in enumerate(range(0, n, config.batch_size), start=1):
                idx = order[lo:lo + config.batch_size]
                # gathered into the workspace (np.take would first copy a sliding view whole)
                Xb = np.stack([X[i] for i in idx], out=ws.take("batch", (len(idx),) + X.shape[1:]))
                batch_loss, grads = _batch_loss_and_grads(spec, params, Xb, y[idx],
                                                          config.l2_lambda, ws)
                if not math.isfinite(batch_loss):
                    raise DivergenceError(epoch, batch)
                # a finite loss can still carry overflowed gradients, which the optimizer
                # would write into the parameters
                bad = grads.first_non_finite()
                if bad:
                    raise DivergenceError(epoch, batch, f"gradient {bad[0]}")
                opt.step([grads.flat])
                epoch_losses.append(batch_loss)
            epoch_loss = float(np.mean(epoch_losses))
            if not math.isfinite(epoch_loss):
                raise DivergenceError(epoch, tensor="epoch mean loss")
            curve.append(epoch_loss)
            if val_curve is not None:
                val_loss = loss(predict_batch(spec, params, val_X, ws), val_y, params,
                                config.l2_lambda)
                if not math.isfinite(val_loss):
                    raise NonFiniteResultError(f"validation loss after epoch {epoch} is "
                                               f"non-finite ({val_loss!r})")
                val_curve.append(val_loss)

    result = RunResult(seed=seed, loss_curve=curve, params=params, val_curve=val_curve)
    if test_set:
        preds = predict_batch(spec, params, test_set.X, ws)
        result.test_mae = mae(preds, test_set.y)
        result.test_mse = mse(preds, test_set.y)
    return result


def train_repeated(spec: ModelSpec, config: TrainConfig, train_set: WindowArrays,
                   test_set: WindowArrays | None = None) -> RepeatedResult:
    """Run ``config.repeats`` independent fits and report median test errors.

    Repeat r uses seed config.seed + r. Medians use the lower-middle
    element for even counts, so the reported value always belongs to an
    actual run. ``best_index`` points at the run achieving the median
    MAE (ties broken by repeat order).
    """
    runs = [train_once(spec, config, train_set, config.seed + r, test_set)
            for r in range(config.repeats)]

    median_mae = median_mse = None
    best_index = 0
    if test_set:
        maes = [r.test_mae for r in runs]
        median_mae = median_low(maes)
        median_mse = median_low([r.test_mse for r in runs])
        best_index = maes.index(median_mae)
    else:
        finals = [r.loss_curve[-1] for r in runs]
        best_index = finals.index(median_low(finals))
    return RepeatedResult(runs=runs, median_mae=median_mae, median_mse=median_mse,
                          best_index=best_index)


# ---------------------------------------------------------------------------
# Finite-difference gradient oracle

def _loss_extended(spec: ModelSpec, params: ModelParams, X: np.ndarray,
                   y: np.ndarray) -> np.longdouble:
    """Data loss (no L2 term) via an independent forward pass in extended precision.

    The oracle differences two nearly equal loss values; float64
    evaluation noise (~1e-16 relative) divided by the 2e-5 step would
    swamp the 1e-6 relative gate on small gradient components, so the
    numeric side runs in longdouble. This is a deliberate second
    implementation of the gate equations, kept independent of the
    vectorized engine it is used to check.
    """
    ld = np.longdouble

    def logistic(v):  # not cell.sigmoid: the oracle keeps its own formula
        with np.errstate(over="ignore"):  # exp(-v) -> inf gives the limit 0
            return 1 / (1 + np.exp(-v))

    def g(v):
        return np.tanh(v) if spec.activation == "tanh" else logistic(v)

    def run_cell(p, seq):
        c = np.zeros((seq[0].shape[0], p.n), dtype=ld)
        h = np.zeros_like(c)
        hidden = []
        for x in seq:
            i = logistic(x @ p.W_xi.T + h @ p.W_hi.T + c * p.w_ci + p.b_i)
            f = logistic(x @ p.W_xf.T + h @ p.W_hf.T + c * p.w_cf + p.b_f)
            z = g(x @ p.W_xc.T + h @ p.W_hc.T + p.b_c)
            c = f * c + i * z
            o = logistic(x @ p.W_xo.T + h @ p.W_ho.T + c * p.w_co + p.b_o)
            h = o * g(c)
            hidden.append(h)
        return hidden

    xs = [X[:, t, :].astype(ld) for t in range(X.shape[1])]
    if spec.kind == "st_stacked":
        m = spec.vars_per_location
        per_loc = [run_cell(cell, [x[:, k * m:(k + 1) * m] for x in xs])
                   for k, cell in enumerate(params.layer1)]
        h1 = [np.concatenate([per_loc[k][t] for k in range(spec.locations)], axis=1)
              for t in range(len(xs))]
    else:
        h1 = run_cell(params.layer1[0], xs)
    h2_final = run_cell(params.layer2, h1)[-1]
    preds = h2_final @ params.w_dense.astype(ld) + ld(params.b_dense[0])
    return np.mean((preds - y.astype(ld)) ** 2)


@dataclass
class GradCheckReport:
    max_rel_err: float
    worst_param: str
    n_params: int

    @property
    def ok(self) -> bool:
        return self.max_rel_err < 1e-6


def gradcheck(spec: ModelSpec, seed: int = 0, l2_lambda: float = 0.01) -> GradCheckReport:
    """Compare analytic gradients against central finite differences.

    Builds random parameters (every tensor uniform, so peephole and
    bias paths are exercised away from zero), four random windows and
    targets, then perturbs every parameter component by +-1e-5 and
    differences the loss: the oracle's data loss plus, for a penalized
    tensor, l2_lambda * (w+^2 - w-^2), so the L2 term's rounding cannot
    swamp the data gradient. Relative error is
    |analytic - numeric| / max(|analytic|, |numeric|, 1e-8). Intended
    for toy sizes; the cost is two forward passes per parameter. A
    non-finite analytic gradient (2 * l2_lambda overflows above about
    9e307) raises ConfigError naming the tensor.
    """
    TrainConfig(seed=seed, l2_lambda=l2_lambda)  # training's rules for both
    n_windows, step = 4, 1e-5
    check_indexable(n_windows * spec.seq_len * spec.input_dim, ConfigError,
                    f"gradcheck: {n_windows} windows of seq_len={spec.seq_len} need an array "
                    "larger than numpy can index")
    rng = np.random.default_rng(seed)
    params = random_model_params(spec, rng)
    X = rng.normal(0.0, 1.0, size=(n_windows, spec.seq_len, spec.input_dim))
    y = rng.normal(0.0, 1.0, size=n_windows)

    _, analytic = _batch_loss_and_grads(spec, params, X, y, l2_lambda)
    bad = analytic.first_non_finite()
    if bad:
        name, index, value = bad
        raise ConfigError(f"gradcheck: non-finite analytic gradient {value!r} at flat index "
                          f"{index} of tensor {name} with l2_lambda={l2_lambda!r}")

    ld = np.longdouble
    worst = ("", 0.0)
    for (name, arr), (_, grad) in zip(params.tensors(), analytic.tensors()):
        a_flat = grad.ravel().tolist()  # Python floats divide inf/inf silently
        lam = ld(l2_lambda if is_penalized(name) else 0.0)
        flat = arr.ravel()
        for j in range(flat.shape[0]):
            keep = flat[j]
            flat[j] = keep + step
            up = _loss_extended(spec, params, X, y)
            up_w = ld(flat[j])
            flat[j] = keep - step
            down = _loss_extended(spec, params, X, y)
            down_w = ld(flat[j])
            flat[j] = keep
            # the float64 perturbation rounds, so difference by the step
            # actually applied rather than the nominal 2*step
            numeric = float((up - down + lam * (up_w ** 2 - down_w ** 2)) / (up_w - down_w))
            rel = abs(a_flat[j] - numeric) / max(abs(a_flat[j]), abs(numeric), 1e-8)
            if math.isfinite(worst[1]) and not rel <= worst[1]:  # a NaN error is the worst
                worst = (f"{name}[{j}]", rel)
    return GradCheckReport(max_rel_err=worst[1], worst_param=worst[0],
                           n_params=params.flat.size)
