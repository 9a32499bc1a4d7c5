"""Mini-batch training, the repeat/median protocol, and gradient checking.

One training run is fully deterministic given its seed: parameter
initialization, epoch shuffles, and gradient accumulation all happen in
a fixed order. Repeats differ only by seed (base seed + repeat index)
and run one after another.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import expit

from .data import Window, windows_to_arrays
from .errors import ConfigError, DivergenceError, ShapeError
from .metrics import mae, median_low, mse
from .model import (
    ModelParams,
    ModelSpec,
    check_params,
    field_types,
    init_model_params,
    is_penalized,
    model_backward,
    model_forward,
    random_model_params,
)

OPTIMIZERS = ("sgd", "adam")


@dataclass
class TrainConfig:
    learning_rate: float = 1e-3
    epochs: int = 200
    batch_size: int = 32
    l2_lambda: float = 1e-4
    optimizer: str = "adam"
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
        if self.optimizer not in OPTIMIZERS:
            raise ConfigError(f"unknown optimizer {self.optimizer!r}; expected {OPTIMIZERS}")


CONFIG_FIELDS = field_types(TrainConfig)


def l2_penalty(params: ModelParams) -> float:
    """Sum of squares over weight matrices and peepholes (biases excluded)."""
    return float(sum(np.sum(arr * arr) for name, arr in params.tensors()
                     if is_penalized(name)))


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


class Sgd:
    def __init__(self, arrays: list[np.ndarray], learning_rate: float):
        self.arrays = arrays
        self.lr = learning_rate

    def step(self, grads: list[np.ndarray]) -> None:
        for arr, g in zip(self.arrays, grads):
            arr -= self.lr * g


class Adam:
    """Standard Adam with bias correction, updating tensors in place."""

    def __init__(self, arrays: list[np.ndarray], learning_rate: float,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.arrays = arrays
        self.lr = learning_rate
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.m = [np.zeros_like(a) for a in arrays]
        self.v = [np.zeros_like(a) for a in arrays]
        self.t = 0

    def step(self, grads: list[np.ndarray]) -> None:
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        corr1 = 1.0 - b1 ** self.t
        corr2 = 1.0 - b2 ** self.t
        for arr, g, m, v in zip(self.arrays, grads, self.m, self.v):
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * (g * g)
            arr -= self.lr * (m / corr1) / (np.sqrt(v / corr2) + self.eps)


def _make_optimizer(config: TrainConfig, arrays: list[np.ndarray]):
    if config.optimizer == "sgd":
        return Sgd(arrays, config.learning_rate)
    return Adam(arrays, config.learning_rate, config.adam_beta1,
                config.adam_beta2, config.adam_eps)


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
                          Xb: np.ndarray, yb: np.ndarray,
                          l2_lambda: float) -> tuple[float, ModelParams]:
    # time-major view of the batch: one (B, c*m) slice per step
    window = [Xb[:, t, :] for t in range(Xb.shape[1])]
    preds, trace = model_forward(spec, params, window)
    batch_loss = loss(preds, yb, params, l2_lambda)
    dy = 2.0 * (np.asarray(preds) - yb) / yb.shape[0]
    grads = model_backward(spec, params, trace, dy)
    if l2_lambda != 0.0:
        for (name, g), (_, w) in zip(grads.tensors(), params.tensors()):
            if is_penalized(name):
                g += 2.0 * l2_lambda * w
    return batch_loss, grads


def predict_batch(spec: ModelSpec, params: ModelParams, X: np.ndarray) -> np.ndarray:
    """Raw-scale predictions for stacked windows X of shape (N, T, c*m)."""
    check_params(spec, params)
    window = [X[:, t, :] for t in range(X.shape[1])]
    preds, _ = model_forward(spec, params, window)
    return np.atleast_1d(np.asarray(preds))


def train_once(spec: ModelSpec, config: TrainConfig, train_set: list[Window],
               seed: int, test_set: list[Window] | None = None) -> RunResult:
    """One deterministic run: init, shuffle, fit, optionally score the test set."""
    if not train_set:
        raise ShapeError("train_once: no training windows")
    X, y = windows_to_arrays(train_set)
    if X.shape[1] != spec.seq_len:
        raise ShapeError(f"windows have T={X.shape[1]}, spec.seq_len is {spec.seq_len}")

    val_X = val_y = None
    if config.validation_holdout:
        split = max(1, int(round(len(train_set) * 0.9)))
        if split == len(train_set):
            split = len(train_set) - 1
        if split < 1:
            raise ShapeError("validation holdout needs at least two training windows")
        X, val_X = X[:split], X[split:]
        y, val_y = y[:split], y[split:]

    rng = np.random.default_rng(seed)
    params = init_model_params(spec, rng, config.forget_bias_init)
    arrays = [arr for _, arr in params.tensors()]
    opt = _make_optimizer(config, arrays)

    n = X.shape[0]
    curve: list[float] = []
    val_curve: list[float] | None = [] if config.validation_holdout else None
    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(n)
        epoch_losses = []
        for batch, lo in enumerate(range(0, n, config.batch_size), start=1):
            idx = order[lo:lo + config.batch_size]
            batch_loss, grads = _batch_loss_and_grads(spec, params, X[idx], y[idx],
                                                      config.l2_lambda)
            if not math.isfinite(batch_loss):
                raise DivergenceError(epoch, batch)
            # a finite loss can still carry overflowed gradients, which the
            # optimizer would write into the parameters
            for name, g in grads.tensors():
                if not np.isfinite(g).all():
                    raise DivergenceError(epoch, batch, f"gradient {name}")
            opt.step([arr for _, arr in grads.tensors()])
            epoch_losses.append(batch_loss)
        epoch_loss = float(np.mean(epoch_losses))
        if not math.isfinite(epoch_loss):
            raise DivergenceError(epoch, tensor="epoch mean loss")
        curve.append(epoch_loss)
        if val_curve is not None:
            val_preds = predict_batch(spec, params, val_X)
            val_curve.append(loss(val_preds, val_y, params, config.l2_lambda))

    result = RunResult(seed=seed, loss_curve=curve, params=params, val_curve=val_curve)
    if test_set:
        tX, ty = windows_to_arrays(test_set)
        preds = predict_batch(spec, params, tX)
        result.test_mae = mae(preds, ty)
        result.test_mse = mse(preds, ty)
    return result


def train_repeated(spec: ModelSpec, config: TrainConfig, train_set: list[Window],
                   test_set: list[Window] | None = None) -> RepeatedResult:
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
                   y: np.ndarray, l2_lambda: float) -> np.longdouble:
    """Full loss via an independent forward pass in extended precision.

    The oracle differences two nearly equal loss values; float64
    evaluation noise (~1e-16 relative) divided by the 2e-5 step would
    swamp the 1e-6 relative gate on small gradient components, so the
    numeric side runs in longdouble. This is a deliberate second
    implementation of the gate equations, kept independent of the
    vectorized engine it is used to check.
    """
    ld = np.longdouble

    def g(v):
        return np.tanh(v) if spec.activation == "tanh" else expit(v)

    def run_cell(p, seq):
        c = np.zeros((seq[0].shape[0], p.n), dtype=ld)
        h = np.zeros_like(c)
        hidden = []
        for x in seq:
            i = expit(x @ p.W_xi.T + h @ p.W_hi.T + c * p.w_ci + p.b_i)
            f = expit(x @ p.W_xf.T + h @ p.W_hf.T + c * p.w_cf + p.b_f)
            z = g(x @ p.W_xc.T + h @ p.W_hc.T + p.b_c)
            c = f * c + i * z
            o = expit(x @ p.W_xo.T + h @ p.W_ho.T + c * p.w_co + p.b_o)
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
    data = np.mean((preds - y.astype(ld)) ** 2)
    penalty = sum(np.sum(arr.astype(ld) ** 2) for name, arr in params.tensors()
                  if is_penalized(name))
    return data + ld(l2_lambda) * penalty


@dataclass
class GradCheckReport:
    max_rel_err: float
    worst_param: str
    n_params: int
    per_tensor: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.max_rel_err < 1e-6


def gradcheck(spec: ModelSpec, seed: int = 0, n_windows: int = 4,
              l2_lambda: float = 0.01, step: float = 1e-5) -> GradCheckReport:
    """Compare analytic gradients against central finite differences.

    Builds random parameters (every tensor uniform, so peephole and
    bias paths are exercised away from zero), random windows and
    targets, then perturbs every parameter component by +-step and
    differences the full loss (L2 term included). Relative error is
    |analytic - numeric| / max(|analytic|, |numeric|, 1e-8). Intended
    for toy sizes; the cost is two forward passes per parameter.
    """
    rng = np.random.default_rng(seed)
    params = random_model_params(spec, rng)
    X = rng.normal(0.0, 1.0, size=(n_windows, spec.seq_len, spec.input_dim))
    y = rng.normal(0.0, 1.0, size=n_windows)

    _, analytic = _batch_loss_and_grads(spec, params, X, y, l2_lambda)

    worst = ("", 0.0)
    per_tensor: dict = {}
    n_params = 0
    analytic_by_name = dict(analytic.tensors())
    for name, arr in params.tensors():
        a_flat = analytic_by_name[name].ravel()
        flat = arr.ravel()
        tensor_worst = 0.0
        for j in range(flat.shape[0]):
            keep = flat[j]
            flat[j] = keep + step
            up = _loss_extended(spec, params, X, y, l2_lambda)
            up_w = flat[j]
            flat[j] = keep - step
            down = _loss_extended(spec, params, X, y, l2_lambda)
            down_w = flat[j]
            flat[j] = keep
            # the float64 perturbation rounds, so difference by the step
            # actually applied rather than the nominal 2*step
            numeric = float((up - down) / (np.longdouble(up_w) - np.longdouble(down_w)))
            rel = abs(a_flat[j] - numeric) / max(abs(a_flat[j]), abs(numeric), 1e-8)
            if rel > tensor_worst:
                tensor_worst = rel
            if rel > worst[1]:
                worst = (f"{name}[{j}]", rel)
            n_params += 1
        per_tensor[name] = tensor_worst
    return GradCheckReport(max_rel_err=worst[1], worst_param=worst[0],
                           n_params=n_params, per_tensor=per_tensor)
