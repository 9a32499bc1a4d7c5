"""Peephole LSTM layer engine.

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

``layer_forward`` and ``layer_backward`` are the one implementation of
these equations. They run K independent cells of equal shape at once
on packed gates (``LayerParams``): the input projection of every
distinct input row is one batched matmul before the recurrence (B
overlapping windows of a sliding-window view share their rows, so T+B-1
rows are projected instead of T*B), each step adds one batched matmul
of h, and the weight gradients are one matmul each after the backward
time loop. Given a ``Workspace``, both keep their large arrays in its
reused buffers, so a batch of a shape seen before allocates nothing large.
One cell at one step is ``layer_forward`` with K = T = B = 1.

``sequence_forward`` and ``cell_backward`` are K=1 adapters over the
engine that only ``benchmarks/workloads.py`` calls: lists of (B, d)
steps, from the zero state. All arrays are float64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np
from .errors import ConfigError, ShapeError

ACTIVATIONS = ("tanh", "sigmoid")
GATES = "ifco"      # packing order of the four gates along the 4n axis
PEEPHOLES = "ifo"   # packing order of the three peepholes (the candidate has none)


def check_activation(act: str) -> str:
    if act not in ACTIVATIONS:
        raise ConfigError(f"unknown inner activation {act!r}; expected one of {ACTIVATIONS}")
    return act


def sigmoid(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The logistic function as (1 + tanh(x/2)) / 2; ``out`` may be ``x``.

    This tanh form was measured several times faster than a dedicated
    ``expit`` logistic routine, and its absolute error stays within
    1.1e-16 of the exact value (``expit``'s: 1.7e-16); only the relative
    error of values below ~1e-8 is larger.
    """
    out = np.multiply(x, 0.5, out=out)
    np.tanh(out, out=out)
    out *= 0.5
    out += 0.5
    return out


def inner_activation(act: str, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Apply the inner activation g (``act`` checked by the caller)."""
    if act == "tanh":
        return np.tanh(x, out=out)
    return sigmoid(x, out=out)


def inner_activation_deriv(act: str, out: np.ndarray) -> np.ndarray:
    """g'(x) expressed through the already-computed output g(x)."""
    if act == "tanh":
        return 1.0 - out * out
    return out * (1.0 - out)


class Workspace:
    """Named float64 buffers kept from batch to batch; a fresh one allocates as numpy would.

    Takes of one name share memory, so a name serves arrays whose lifetimes do
    not overlap, like a layer's input projection and its gate gradients. A
    layer's view of a model's buffers prefixes its trace's names with ``tag``.
    """

    def __init__(self, buffers: dict | None = None, tag: str = ""):
        self.buffers = {} if buffers is None else buffers
        self.tag = tag

    def take(self, name: str, shape: tuple) -> np.ndarray:
        """An uninitialized array in buffer ``name``, which grows on first need."""
        size = math.prod(shape)
        buf = self.buffers.get(name)
        if buf is None or buf.size < size:
            buf = self.buffers[name] = np.empty(size)
        return buf[:size].reshape(shape)

    def contiguous(self, name: str, a: np.ndarray) -> np.ndarray:
        """``a`` if it is C-contiguous, else its copy in the buffer ``name``."""
        if a.flags.c_contiguous:
            return a
        out = self.take(name, a.shape)
        np.copyto(out, a)
        return out


@dataclass
class CellParams:
    """All weights and biases of one peephole LSTM cell.

    Input matrices ``W_x*`` have shape (n, d), recurrent matrices
    ``W_h*`` shape (n, n); peepholes ``w_c*`` and biases ``b_*`` are
    length-n vectors. The candidate path (``*_c`` tensors) has no
    peephole. A model's cells are views into its packed layers
    (``LayerParams.cell``); a cell built from loose arrays is packed
    when it enters a model.
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


@dataclass
class LayerParams:
    """The packed tensors of K cells with n neurons and input width d each.

    ``Wx`` is (K, 4n, d), ``Wh`` (K, 4n, n) and ``b`` (K, 4n), with the
    gates in the order i, f, c, o along the 4n axis; ``wc`` is (K, 3, n),
    the peepholes in the order i, f, o. Cell k's gate g is the row block
    ``[g*n:(g+1)*n]`` of ``Wx[k]``, ``Wh[k]`` and ``b[k]``, so every
    per-gate view that ``cell`` returns is C-contiguous.
    """

    Wx: np.ndarray
    Wh: np.ndarray
    wc: np.ndarray
    b: np.ndarray

    @property
    def K(self) -> int:
        return self.Wx.shape[0]

    @property
    def n(self) -> int:
        return self.Wh.shape[2]

    @property
    def d(self) -> int:
        return self.Wx.shape[2]

    def arrays(self) -> tuple:
        return self.Wx, self.Wh, self.wc, self.b

    def cell(self, k: int) -> CellParams:
        """Cell k as per-gate views into the packed tensors."""
        n = self.n
        views = {}
        for g, gate in enumerate(GATES):
            rows = slice(g * n, (g + 1) * n)
            views[f"W_x{gate}"] = self.Wx[k, rows]
            views[f"W_h{gate}"] = self.Wh[k, rows]
            views[f"b_{gate}"] = self.b[k, rows]
        for j, gate in enumerate(PEEPHOLES):
            views[f"w_c{gate}"] = self.wc[k, j]
        return CellParams(**views)

    @classmethod
    def zeros(cls, K: int, n: int, d: int) -> "LayerParams":
        return cls(Wx=np.zeros((K, 4 * n, d)), Wh=np.zeros((K, 4 * n, n)),
                   wc=np.zeros((K, 3, n)), b=np.zeros((K, 4 * n)))

    @classmethod
    def pack(cls, cells: list[CellParams]) -> "LayerParams":
        """Copy loose cells of one shape into a fresh packed layer."""
        for cell in cells:
            cell.validate()
        n, d = cells[0].n, cells[0].d
        if any((cell.n, cell.d) != (n, d) for cell in cells):
            raise ShapeError(f"cells of one layer differ in shape: "
                             f"{[(cell.n, cell.d) for cell in cells]}")
        layer = cls.zeros(len(cells), n, d)
        for k, cell in enumerate(cells):
            for (_, dst), (_, src) in zip(layer.cell(k).tensors(), cell.tensors()):
                dst[...] = src
        return layer


def init_cell_into(p: CellParams, rng: np.random.Generator, forget_bias: float = 0.0) -> None:
    """Draw a cell's initial values in place, in canonical tensor order.

    Matrices are uniform on [-r, r] with r = 1/sqrt(fan_in); peepholes
    and biases start at zero, except the forget bias which may be
    raised to encourage early memory retention.
    """
    for name, arr in p.tensors():
        if name.startswith("W_"):
            r = 1.0 / np.sqrt(arr.shape[1])
            arr[...] = rng.uniform(-r, r, size=arr.shape)
        else:
            arr[...] = 0.0
    p.b_f[...] = float(forget_bias)


@dataclass
class CellState:
    """The (c, h) pair carried across time steps."""

    c: np.ndarray
    h: np.ndarray


@dataclass
class LayerTrace:
    """Every intermediate of a layer's forward pass, stacked over T steps and K cells.

    ``x`` is the (K, T, B, d) input. The rest is time-major, so that each
    step reads and writes contiguous blocks: ``gates`` (T, 4, K, B, n)
    holds i, f, z = g(candidate) and o after their nonlinearities; ``c``
    and ``h`` (T+1, K, B, n) start with the initial state; ``g_c``
    (T, K, B, n) is g(c_t).
    """

    x: np.ndarray
    gates: np.ndarray
    c: np.ndarray
    h: np.ndarray
    g_c: np.ndarray


def _by_gate(W: np.ndarray, ws: Workspace, name: str, transpose: bool) -> np.ndarray:
    """(K, 4n, m) packed matrices as a contiguous (4, K, n, m) stack, or (4, K, m, n) transposed."""
    K, four_n, m = W.shape
    W4 = W.reshape(K, 4, four_n // 4, m).transpose(1, 0, 2, 3)
    return ws.contiguous(name, W4.transpose(0, 1, 3, 2) if transpose else W4)


def as_layer_input(x_seq, d: int) -> tuple[np.ndarray, tuple]:
    """One input sequence as the (1, T, B, d) input of a one-cell layer, and its step shape.

    ``x_seq`` is a (T, d) or (T, B, d) array or a list of its T steps;
    ragged steps, T = 0 or a width other than d raise ShapeError.
    """
    try:
        X = np.asarray(x_seq, dtype=np.float64)
    except ValueError as exc:  # steps of unequal shape
        raise ShapeError(f"sequence steps differ in shape: {exc}") from None
    if X.ndim not in (2, 3) or X.shape[0] == 0 or X.shape[-1] != d:
        raise ShapeError(f"input has shape {X.shape}, expected (T >= 1, [B,] d={d})")
    return (X if X.ndim == 3 else X[:, None, :])[None], X.shape[1:]


def input_rows(X: np.ndarray, ws: Workspace | None = None) -> tuple[np.ndarray, int]:
    """The distinct input rows of a (K, T, B, d) layer input, and the row step between steps.

    Step t of window b reads row ``t*step + b`` of the returned (K, R, d)
    array. Where X[:, t, b] has the bits of X[:, t+1, b-1] for every t and
    b, as in a sliding-window view or a copy of one, step 0 of every window
    and steps 1..T-1 of the last are all T+B-1 distinct rows (step 1), so a
    view and its copy run one GEMM: some BLAS kernels give a row other bits
    in a GEMM of another row count. Any other X gives its T*B rows (step B).
    """
    K, T, B, d = X.shape
    bits = X.view(np.uint64)  # a shuffled batch fails at its first row pair
    if min(T, B) > 1 and (X.strides[1] == X.strides[2] or (np.array_equal(bits[:, 1, 0], bits[:, 0, 1])
                          and np.array_equal(bits[:, 1:, :-1], bits[:, :-1, 1:]))):
        out = None if ws is None else ws.take("rows", (K, T + B - 1, d))
        return np.concatenate([X[:, 0], X[:, 1:, B - 1]], axis=1, out=out), 1
    return X.reshape(K, T * B, d), B


def layer_forward(p: LayerParams, X: np.ndarray, act: str, init: CellState | None = None,
                  keep_trace: bool = True, ws: Workspace | None = None
                  ) -> tuple[np.ndarray, CellState, LayerTrace | None]:
    """Run K cells over inputs X of shape (K, T, B, d) at once.

    X may be a view; one whose step and batch axes share a stride
    (``input_rows``) has each of its distinct rows projected once.
    Returns the hidden states (T, K, B, n), the final state ((K, B, n)
    arrays) and, with ``keep_trace``, the trace ``layer_backward``
    needs. Without it, gates, cell states and g(c) live in per-step
    scratch. ``init`` (arrays of shape (K, B, n), else ShapeError)
    defaults to the zero state. All of these live in ``ws`` (a fresh
    Workspace by default).
    """
    K, T, B, d = X.shape
    n = p.n
    if init is not None and not init.c.shape == init.h.shape == (K, B, n):
        raise ShapeError(f"initial state has c={init.c.shape}, h={init.h.shape}, "
                         f"expected {(K, B, n)}")
    ws = Workspace() if ws is None else ws
    rows, step = input_rows(X, ws)
    # the input projection of every distinct row, one batched matmul: (4, K, R, n)
    P = np.matmul(rows[None], _by_gate(p.Wx, ws, "Wx", transpose=True),
                  out=ws.take("A", (4, K, rows.shape[1], n)))
    P += p.b.reshape(K, 4, 1, n).transpose(1, 0, 2, 3)
    WhT = _by_gate(p.Wh, ws, "Wh", transpose=True)
    w_if = np.ascontiguousarray(p.wc[:, :2].transpose(1, 0, 2))[:, :, None, :]  # (2, K, 1, n)
    w_o = p.wc[:, 2, None, :]

    gs, cs = (T, T + 1) if keep_trace else (1, 2)
    G = ws.take(ws.tag + "G", (gs, 4, K, B, n))
    C = ws.take(ws.tag + "C", (cs, K, B, n))
    GC = ws.take(ws.tag + "GC", (gs, K, B, n))
    H = ws.take(ws.tag + "H", (T + 1, K, B, n))
    s = ws.take("step", (2, K, B, n))  # scratch for each step's products
    C[0] = 0.0 if init is None else init.c
    H[0] = 0.0 if init is None else init.h

    for t in range(T):
        a = G[t % gs]
        np.matmul(H[t], WhT, out=a)
        a += P[:, :, t * step:t * step + B]
        c_prev, c = C[t % cs], C[(t + 1) % cs]
        a_if = a[:2]
        a_if += np.multiply(c_prev, w_if, out=s)
        sigmoid(a_if, out=a_if)
        i, f, z, o = a
        inner_activation(act, z, out=z)
        np.multiply(f, c_prev, out=c)
        c += np.multiply(i, z, out=s[0])
        o += np.multiply(c, w_o, out=s[0])
        sigmoid(o, out=o)
        g_c = inner_activation(act, c, out=GC[t % gs])
        np.multiply(o, g_c, out=H[t + 1])

    final = CellState(c=C[T % cs], h=H[T])
    trace = LayerTrace(x=X, gates=G, c=C, h=H, g_c=GC) if keep_trace else None
    return H[1:], final, trace


def layer_backward(p: LayerParams, trace: LayerTrace, dH: np.ndarray, act: str,
                   dc_final: np.ndarray | None = None, grads: LayerParams | None = None,
                   need_dx: bool = True, ws: Workspace | None = None
                   ) -> tuple[LayerParams, np.ndarray | None, CellState]:
    """Reverse-mode gradients through K unrolled cells.

    ``dH`` (T, K, B, n) is the loss gradient arriving directly at each
    h_t and ``dc_final`` (K, B, n) an optional one on the last cell
    state. Parameter gradients are written into ``grads`` (a fresh
    LayerParams by default). Returns (parameter gradients, input
    gradients (K, T, B, d) or None without ``need_dx``, initial-state
    gradients); the input gradients live in ``ws`` (a fresh Workspace by default).

    The output gate's peephole reads the current-step c, so its
    pre-activation gradient is formed before c's gradient is complete;
    the i/f peepholes read the previous c and therefore feed the
    gradient flowing one step back. The pre-activation gradients dA of
    every step are kept, so each weight gradient is one matmul after
    the time loop.
    """
    X, G, C, H = trace.x, trace.gates, trace.c, trace.h
    K, T, B, d = X.shape
    n = p.n
    ws = Workspace() if ws is None else ws
    if grads is None:
        grads = LayerParams.zeros(K, n, d)
    Wh = _by_gate(p.Wh, ws, "Wh", transpose=False)
    w_ci, w_cf, w_co = (p.wc[:, j, None, :] for j in range(3))
    dA = ws.take("A", (T, 4, K, B, n))  # the forward's input projection is dead by now
    dh_next = np.zeros((K, B, n))
    dc_next = np.zeros((K, B, n)) if dc_final is None else np.array(dc_final, dtype=np.float64)
    dh_gates = ws.take("packed", (4, K, B, n))  # dA's packed copy is made after the loop

    for t in range(T - 1, -1, -1):
        i, f, z, o = G[t]
        da_i, da_f, dz_pre, da_o = dA[t]
        g_c, c_prev = trace.g_c[t], C[t]
        dh = dH[t] + dh_next

        # h = o * g(c): the o branch first, since o's peephole feeds dc.
        np.multiply(dh, g_c, out=da_o)
        da_o *= o
        da_o *= 1.0 - o
        dc = dh * o * inner_activation_deriv(act, g_c) + dc_next + da_o * w_co

        # c = f * c_prev + i * z
        np.multiply(dc, z, out=da_i)
        da_i *= i
        da_i *= 1.0 - i
        np.multiply(dc, c_prev, out=da_f)
        da_f *= f
        da_f *= 1.0 - f
        np.multiply(dc, i, out=dz_pre)
        dz_pre *= inner_activation_deriv(act, z)

        dc_next = dc * f + da_i * w_ci + da_f * w_cf
        dh_next = np.matmul(dA[t], Wh, out=dh_gates).sum(axis=0)

    # (T, 4, K, B, n) -> (K, T*B, 4n): each cell's gradients in packed gate order
    dAk = ws.contiguous("packed", dA.transpose(2, 0, 3, 1, 4)).reshape(K, T * B, 4 * n)
    dAkT = dAk.transpose(0, 2, 1)
    np.matmul(dAkT, X.reshape(K, T * B, d), out=grads.Wx)
    np.matmul(dAkT, ws.contiguous("tmp", H[:T].transpose(1, 0, 2, 3)).reshape(K, T * B, n),
              out=grads.Wh)
    dAk.sum(axis=1, out=grads.b)
    dX = (np.matmul(dAk, p.Wx, out=ws.take("dX", (K, T * B, d))).reshape(K, T, B, d)
          if need_dx else None)
    # i and f peek at c_prev, o at the current c; the products reuse dAk's buffer
    np.sum(np.multiply(dA[:, :2], C[:T, None], out=ws.take("packed", (T, 2, K, B, n))),
           axis=(0, 3), out=grads.wc[:, :2].transpose(1, 0, 2))
    np.sum(np.multiply(dA[:, 3], C[1:], out=ws.take("packed", (T, K, B, n))),
           axis=(0, 2), out=grads.wc[:, 2])
    return grads, dX, CellState(c=dc_next, h=dh_next)


# ---------------------------------------------------------------------------
# K=1 adapters over the layer engine, for benchmarks/workloads.py only

@dataclass
class StepTrace:
    """One step of a ``sequence_forward`` run: its hidden state and the run's trace."""

    h: np.ndarray
    run: LayerTrace


def sequence_forward(p: CellParams, x_seq, act: str) -> tuple[list[StepTrace], CellState]:
    """Run one cell from the zero state over a list of T (B, d) input steps.

    A (T, d) window raises ShapeError.
    """
    X, x_shape = as_layer_input(x_seq, p.d)
    if len(x_shape) != 2:
        raise ShapeError(f"input steps have shape {x_shape}, expected (B, d={p.d})")
    _, final, run = layer_forward(LayerParams.pack([p]), X, act)
    traces = [StepTrace(h=h, run=run) for h in run.h[1:, 0]]
    return traces, CellState(c=final.c[0], h=final.h[0])


def cell_backward(p: CellParams, traces: list[StepTrace], dh_seq, act: str
                  ) -> tuple[CellParams, list[np.ndarray], CellState]:
    """Reverse-mode gradients through the run that ``traces`` come from.

    ``dh_seq[t]`` is the loss gradient arriving directly at h_t (same
    shape as h_t; zero arrays for steps the loss ignores). Returns
    (parameter gradients, per-step input gradients, initial-state
    gradients).
    """
    run = traces[0].run
    if [np.shape(dh) for dh in dh_seq] != [h.shape for h in run.h[1:, 0]]:
        raise ShapeError(f"cell_backward: expected {len(run.h) - 1} h-gradients of shape "
                         f"{run.h.shape[2:]}")
    grads, dX, dinit = layer_backward(LayerParams.pack([p]), run, np.stack(dh_seq)[:, None], act)
    return grads.cell(0), list(dX[0]), CellState(c=dinit.c[0], h=dinit.h[0])
