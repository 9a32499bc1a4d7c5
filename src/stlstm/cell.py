"""Peephole LSTM cell: forward step, unrolled sequence, and exact BPTT.

Gate equations, with ``g`` the configurable inner activation and sigma
the logistic function:

    i = sigma(W_xi x + W_hi h_prev + w_ci * c_prev + b_i)
    f = sigma(W_xf x + W_hf h_prev + w_cf * c_prev + b_f)
    c = f * c_prev + i * g(W_xc x + W_hc h_prev + b_c)
    o = sigma(W_xo x + W_ho h_prev + w_co * c + b_o)    # peeks at the CURRENT c
    h = o * g(c)

Peephole weights connect each gate to the cell state one neuron at a
time (diagonal connections), so they are stored as vectors. ``g``
replaces both the cell-candidate nonlinearity and the cell-output
nonlinearity; the three gates always use sigma.

All arrays are float64. State and input arrays may carry a leading
batch axis -- shape (B, n) instead of (n,) -- and every function here
treats the two layouts identically, which is what lets training batch
windows while tests drive single vectors through the same code path.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np
from scipy.special import expit

from .errors import ConfigError, ShapeError

ACTIVATIONS = ("tanh", "sigmoid")


def check_activation(act: str) -> str:
    if act not in ACTIVATIONS:
        raise ConfigError(f"unknown inner activation {act!r}; expected one of {ACTIVATIONS}")
    return act


def inner_activation(act: str, x: np.ndarray) -> np.ndarray:
    """Apply the inner activation g (``act`` checked by the caller)."""
    if act == "tanh":
        return np.tanh(x)
    return expit(x)


def inner_activation_deriv(act: str, out: np.ndarray) -> np.ndarray:
    """g'(x) expressed through the already-computed output g(x)."""
    if act == "tanh":
        return 1.0 - out * out
    return out * (1.0 - out)


@dataclass
class CellParams:
    """All weights and biases of one peephole LSTM cell.

    Input matrices ``W_x*`` have shape (n, d), recurrent matrices
    ``W_h*`` shape (n, n); peepholes ``w_c*`` and biases ``b_*`` are
    length-n vectors. The candidate path (``*_c`` tensors) has no
    peephole.
    """

    W_xi: np.ndarray
    W_hi: np.ndarray
    w_ci: np.ndarray
    b_i: np.ndarray
    W_xf: np.ndarray
    W_hf: np.ndarray
    w_cf: np.ndarray
    b_f: np.ndarray
    W_xc: np.ndarray
    W_hc: np.ndarray
    b_c: np.ndarray
    W_xo: np.ndarray
    W_ho: np.ndarray
    w_co: np.ndarray
    b_o: np.ndarray

    @property
    def n(self) -> int:
        return self.W_xi.shape[0]

    @property
    def d(self) -> int:
        return self.W_xi.shape[1]

    def tensors(self):
        """Yield (name, array) pairs in the canonical (checkpoint) order."""
        for f in fields(self):
            yield f.name, getattr(self, f.name)

    def validate(self) -> None:
        n, d = self.n, self.d
        for name, arr in self.tensors():
            want = _tensor_shape(name, n, d)
            if arr.shape != want:
                raise ShapeError(f"cell tensor {name} has shape {arr.shape}, expected {want}")
            if arr.dtype != np.float64:
                raise ShapeError(f"cell tensor {name} must be float64, got {arr.dtype}")

    def copy(self) -> "CellParams":
        return CellParams(**{name: arr.copy() for name, arr in self.tensors()})

    @classmethod
    def zeros(cls, n: int, d: int) -> "CellParams":
        return cls(**{name: np.zeros(_tensor_shape(name, n, d)) for name in CELL_TENSOR_NAMES})


CELL_TENSOR_NAMES = tuple(f.name for f in fields(CellParams))


def _tensor_shape(name: str, n: int, d: int) -> tuple:
    if name.startswith("W_x"):
        return (n, d)
    if name.startswith("W_h"):
        return (n, n)
    return (n,)  # peepholes and biases


def init_cell_params(n: int, d: int, rng: np.random.Generator,
                     forget_bias: float = 0.0) -> CellParams:
    """Fresh trainable parameters.

    Matrices are uniform on [-r, r] with r = 1/sqrt(fan_in); peepholes
    and biases start at zero, except the forget bias which may be
    raised to encourage early memory retention.
    """
    out = {}
    for name in CELL_TENSOR_NAMES:
        shape = _tensor_shape(name, n, d)
        if name.startswith("W_"):
            r = 1.0 / np.sqrt(shape[1])
            out[name] = rng.uniform(-r, r, size=shape)
        else:
            out[name] = np.zeros(shape)
    out["b_f"] = np.full(n, float(forget_bias))
    return CellParams(**out)


@dataclass
class CellState:
    """The (c, h) pair carried across time steps."""

    c: np.ndarray
    h: np.ndarray

    @classmethod
    def zeros(cls, n: int, batch: int | None = None) -> "CellState":
        shape = (n,) if batch is None else (batch, n)
        return cls(c=np.zeros(shape), h=np.zeros(shape))


@dataclass
class StepTrace:
    """Every intermediate of one forward step, kept for the backward pass."""

    x: np.ndarray
    c_prev: np.ndarray
    h_prev: np.ndarray
    i: np.ndarray
    f: np.ndarray
    o: np.ndarray
    z_pre: np.ndarray  # pre-activation cell candidate
    z: np.ndarray      # g(z_pre)
    c: np.ndarray
    g_c: np.ndarray    # g(c)
    h: np.ndarray


def _check_step_shapes(p: CellParams, prev: CellState, x: np.ndarray) -> None:
    if x.shape[-1] != p.d:
        raise ShapeError(f"cell input has length {x.shape[-1]}, cell expects d={p.d}")
    if prev.c.shape[-1] != p.n or prev.h.shape[-1] != p.n:
        raise ShapeError(
            f"cell state has widths c={prev.c.shape[-1]}, h={prev.h.shape[-1]}, "
            f"cell expects n={p.n}"
        )
    if prev.c.shape != prev.h.shape or prev.c.shape[:-1] != x.shape[:-1]:
        raise ShapeError(
            f"state/input batch shapes disagree: c={prev.c.shape}, h={prev.h.shape}, x={x.shape}"
        )


def cell_forward(p: CellParams, prev: CellState, x: np.ndarray,
                 act: str) -> tuple[CellState, StepTrace]:
    """One time step of the cell equations listed in the module docstring."""
    check_activation(act)
    x = np.asarray(x, dtype=np.float64)
    _check_step_shapes(p, prev, x)
    c_prev, h_prev = prev.c, prev.h

    i = expit(x @ p.W_xi.T + h_prev @ p.W_hi.T + c_prev * p.w_ci + p.b_i)
    f = expit(x @ p.W_xf.T + h_prev @ p.W_hf.T + c_prev * p.w_cf + p.b_f)
    z_pre = x @ p.W_xc.T + h_prev @ p.W_hc.T + p.b_c
    z = inner_activation(act, z_pre)
    c = f * c_prev + i * z
    o = expit(x @ p.W_xo.T + h_prev @ p.W_ho.T + c * p.w_co + p.b_o)
    g_c = inner_activation(act, c)
    h = o * g_c

    trace = StepTrace(x=x, c_prev=c_prev, h_prev=h_prev, i=i, f=f, o=o,
                      z_pre=z_pre, z=z, c=c, g_c=g_c, h=h)
    return CellState(c=c, h=h), trace


def sequence_forward(p: CellParams, x_seq, act: str,
                     init: CellState | None = None) -> tuple[list[StepTrace], CellState]:
    """Chain cell_forward over a whole input sequence.

    ``x_seq`` is a sequence of per-step inputs (each (d,) or (B, d)).
    ``init`` defaults to the zero state; windows are treated as
    independent samples, so there is no cross-window state.
    """
    x_seq = list(x_seq)
    if not x_seq:
        raise ShapeError("sequence_forward: empty input sequence")
    x0 = np.asarray(x_seq[0], dtype=np.float64)
    if init is None:
        batch = None if x0.ndim == 1 else x0.shape[0]
        init = CellState.zeros(p.n, batch)
    traces = []
    state = init
    for x in x_seq:
        state, trace = cell_forward(p, state, x, act)
        traces.append(trace)
    return traces, state


def _sum_batch(a: np.ndarray) -> np.ndarray:
    """Reduce a per-sample quantity to a per-parameter one."""
    return a if a.ndim == 1 else a.sum(axis=0)


def _outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """outer(a, b), summed over the batch axis when present."""
    if a.ndim == 1:
        return np.outer(a, b)
    return a.T @ b


def cell_backward(p: CellParams, traces: list[StepTrace], dh_seq, act: str,
                  dc_final: np.ndarray | None = None
                  ) -> tuple[CellParams, list[np.ndarray], CellState]:
    """Reverse-mode gradients through the unrolled cell.

    ``dh_seq[t]`` is the loss gradient arriving directly at h_t (same
    shape as h_t; zero arrays for steps the loss ignores), and
    ``dc_final`` an optional gradient on the last cell state. Returns
    (parameter gradients, per-step input gradients, initial-state
    gradients).

    The output gate's peephole reads the current-step c, so its
    pre-activation gradient must be formed before c's gradient is
    complete; the i/f peepholes read the previous c and therefore feed
    the gradient flowing one step back.
    """
    check_activation(act)
    dh_seq = list(dh_seq)
    if len(dh_seq) != len(traces):
        raise ShapeError(
            f"cell_backward: got {len(dh_seq)} h-gradients for {len(traces)} steps"
        )
    grads = CellParams.zeros(p.n, p.d)
    dx_seq: list[np.ndarray] = [None] * len(traces)  # type: ignore[list-item]

    dh_next = np.zeros_like(traces[-1].h)
    dc_next = np.zeros_like(traces[-1].c) if dc_final is None else np.asarray(dc_final, dtype=np.float64)

    for t in range(len(traces) - 1, -1, -1):
        tr = traces[t]
        dh_in = np.asarray(dh_seq[t], dtype=np.float64)
        if dh_in.shape != tr.h.shape:
            raise ShapeError(
                f"cell_backward: h-gradient at step {t} has shape {dh_in.shape}, "
                f"expected {tr.h.shape}"
            )
        dh = dh_in + dh_next

        # h = o * g(c): the o branch first, since o's peephole feeds dc.
        do = dh * tr.g_c
        da_o = do * tr.o * (1.0 - tr.o)
        dc = dh * tr.o * inner_activation_deriv(act, tr.g_c) + dc_next + da_o * p.w_co

        # c = f * c_prev + i * z
        da_i = dc * tr.z * tr.i * (1.0 - tr.i)
        da_f = dc * tr.c_prev * tr.f * (1.0 - tr.f)
        dz_pre = dc * tr.i * inner_activation_deriv(act, tr.z)

        dc_next = dc * tr.f + da_i * p.w_ci + da_f * p.w_cf
        dh_next = da_i @ p.W_hi + da_f @ p.W_hf + dz_pre @ p.W_hc + da_o @ p.W_ho
        dx_seq[t] = da_i @ p.W_xi + da_f @ p.W_xf + dz_pre @ p.W_xc + da_o @ p.W_xo

        grads.W_xi += _outer(da_i, tr.x)
        grads.W_hi += _outer(da_i, tr.h_prev)
        grads.w_ci += _sum_batch(da_i * tr.c_prev)
        grads.b_i += _sum_batch(da_i)
        grads.W_xf += _outer(da_f, tr.x)
        grads.W_hf += _outer(da_f, tr.h_prev)
        grads.w_cf += _sum_batch(da_f * tr.c_prev)
        grads.b_f += _sum_batch(da_f)
        grads.W_xc += _outer(dz_pre, tr.x)
        grads.W_hc += _outer(dz_pre, tr.h_prev)
        grads.b_c += _sum_batch(dz_pre)
        grads.W_xo += _outer(da_o, tr.x)
        grads.W_ho += _outer(da_o, tr.h_prev)
        grads.w_co += _sum_batch(da_o * tr.c)  # current-step peephole
        grads.b_o += _sum_batch(da_o)

    return grads, dx_seq, CellState(c=dc_next, h=dh_next)
