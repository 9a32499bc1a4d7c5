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
Each call broadcasts the peepholes once, and the step loops write every
intermediate into workspace scratch: a step makes no temporaries.
Every run starts from the zero state, as each window of the models
does, and the only loss gradients it takes arrive at the hidden states.

The engine trusts the shape of its (K, T, B, d) input: ``as_layer_input``
converts and checks a batch of sequences once, where it enters.
``sequence_forward`` and ``cell_backward`` are K=1 adapters over the
engine that only ``benchmarks/workloads.py`` calls: lists of (B, d)
steps. All arrays are float64.
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


def sigmoid(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The logistic function as (1 + tanh(x/2)) / 2; ``out`` may be ``x``.

    This tanh form was measured several times faster than a dedicated
    ``expit`` logistic routine, and its absolute error stays within
    1.1e-16 of the exact value (``expit``'s: 1.7e-16); only the relative
    error of values below ~1e-8 is larger.
    """
    out = np.multiply(x, 0.5, out)
    np.tanh(out, out)
    out *= 0.5
    out += 0.5
    return out


def _tanh_deriv(y: np.ndarray, out: np.ndarray) -> np.ndarray:
    """tanh'(x) through its output y = tanh(x): 1 - y*y."""
    return np.subtract(1.0, np.multiply(y, y, out), out)


def _sigmoid_deriv(y: np.ndarray, out: np.ndarray) -> np.ndarray:
    """sigma'(x) through its output y = sigma(x): y * (1 - y)."""
    return np.multiply(y, np.subtract(1.0, y, out), out)


# the inner activation g and its derivative through its output, by name
_INNER = {"tanh": (np.tanh, _tanh_deriv), "sigmoid": (sigmoid, _sigmoid_deriv)}


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
    """A (c, h) pair: the final state of a ``sequence_forward`` run."""

    c: np.ndarray
    h: np.ndarray


@dataclass
class LayerTrace:
    """Every intermediate of a layer's forward pass, stacked over T steps and K cells.

    ``x`` is the (K, T, B, d) input. The rest is time-major, so that each
    step reads and writes contiguous blocks: ``gates`` (T, 4, K, B, n)
    holds i, f, z = g(candidate) and o after their nonlinearities; ``c``
    and ``h`` (T+1, K, B, n) start with the zero state; ``g_c``
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


def as_layer_input(x_seq, d: int) -> np.ndarray:
    """One batch of sequences as the (1, T, B, d) float64 input of a one-cell layer.

    ``x_seq`` is a (T, B, d) array or a list of its T (B, d) steps; ragged
    steps, any other rank, T = 0 or a width other than d raise ShapeError.
    """
    try:
        X = np.asarray(x_seq, dtype=np.float64)
    except ValueError as exc:  # steps of unequal shape
        raise ShapeError(f"sequence steps differ in shape: {exc}") from None
    if X.ndim != 3 or X.shape[0] == 0 or X.shape[-1] != d:
        raise ShapeError(f"input has shape {X.shape}, expected (T >= 1, B, d={d})")
    return X[None]


def input_rows(X: np.ndarray, ws: Workspace) -> tuple[np.ndarray, int]:
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
        return np.concatenate([X[:, 0], X[:, 1:, B - 1]], axis=1,
                              out=ws.take("rows", (K, T + B - 1, d))), 1
    return X.reshape(K, T * B, d), B


def layer_forward(p: LayerParams, X: np.ndarray, act: str, keep_trace: bool = True,
                  ws: Workspace | None = None) -> tuple[np.ndarray, LayerTrace | None]:
    """Run K cells from the zero state over inputs X of shape (K, T, B, d) at once.

    X may be a view; one whose step and batch axes share a stride
    (``input_rows``) has each of its distinct rows projected once.
    Returns the hidden states (T, K, B, n) and, with ``keep_trace``, the
    trace ``layer_backward`` needs, whose ``c[-1]`` is the final cell
    state. Without it, gates, cell states and g(c) live in per-step
    scratch. All of these live in ``ws`` (a fresh Workspace by default).
    """
    K, T, B, d = X.shape
    n = p.n
    ws = Workspace() if ws is None else ws
    g = _INNER[act][0]
    rows, step = input_rows(X, ws)
    # the input projection of every distinct row, one batched matmul: (4, K, R, n)
    P = np.matmul(rows[None], _by_gate(p.Wx, ws, "Wx", transpose=True),
                  out=ws.take("A", (4, K, rows.shape[1], n)))
    P += p.b.reshape(K, 4, 1, n).transpose(1, 0, 2, 3)
    WhT = _by_gate(p.Wh, ws, "Wh", transpose=True)
    W = ws.take("wc", (3, K, B, n))  # the peepholes i, f, o, broadcast over the batch once
    W[...] = p.wc.transpose(1, 0, 2)[:, :, None]
    w_if, w_o = W[:2], W[2]

    gs, cs = (T, T + 1) if keep_trace else (1, 2)
    G = ws.take(ws.tag + "G", (gs, 4, K, B, n))
    C = ws.take(ws.tag + "C", (cs, K, B, n))
    GC = ws.take(ws.tag + "GC", (gs, K, B, n))
    H = ws.take(ws.tag + "H", (T + 1, K, B, n))
    s = ws.take("step", (2, K, B, n))  # scratch for each step's products
    s0 = s[0]
    C[0] = H[0] = 0.0

    for t in range(T):
        a = G[t % gs]
        np.matmul(H[t], WhT, a)
        a += P[:, :, t * step:t * step + B]
        c_prev, c = C[t % cs], C[(t + 1) % cs]
        a_if, z, o = a[:2], a[2], a[3]
        a_if += np.multiply(c_prev, w_if, s)
        sigmoid(a_if, a_if)
        g(z, z)
        np.multiply(a[1], c_prev, c)
        c += np.multiply(a[0], z, s0)
        o += np.multiply(c, w_o, s0)
        sigmoid(o, o)
        g_c = g(c, GC[t % gs])
        np.multiply(o, g_c, H[t + 1])

    trace = LayerTrace(x=X, gates=G, c=C, h=H, g_c=GC) if keep_trace else None
    return H[1:], trace


def layer_backward(p: LayerParams, trace: LayerTrace, dH: np.ndarray, act: str,
                   grads: LayerParams | None = None, need_dx: bool = True,
                   ws: Workspace | None = None) -> tuple[LayerParams, np.ndarray | None]:
    """Reverse-mode gradients through K unrolled cells.

    ``dH`` (T, K, B, n) is the loss gradient arriving directly at each
    h_t, and the only one: no loss reads the cell states. Any other
    shape is a ShapeError. Parameter gradients are written into
    ``grads`` (a fresh LayerParams by default). Returns (parameter
    gradients, input gradients (K, T, B, d) or None without
    ``need_dx``), the latter in ``ws`` (a fresh Workspace by default).

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
    if np.shape(dH) != (T, K, B, n):
        raise ShapeError(f"gradients have dH={np.shape(dH)}, expected {(T, K, B, n)}")
    ws = Workspace() if ws is None else ws
    if grads is None:
        grads = LayerParams.zeros(K, n, d)
    g_deriv = _INNER[act][1]
    Wh = _by_gate(p.Wh, ws, "Wh", transpose=False)
    W = ws.take("wc", (3, K, B, n))  # the peepholes i, f, o, broadcast over the batch once
    W[...] = p.wc.transpose(1, 0, 2)[:, :, None]
    w_ci, w_cf, w_co = W
    dA = ws.take("A", (T, 4, K, B, n))  # the forward's input projection is dead by now
    # dh and dc carry the state gradients from step to step; s is each step's scratch
    dh, dc, s = ws.take("step", (3, K, B, n))
    dh[...] = dc[...] = 0.0
    dh_gates = ws.take("packed", (4, K, B, n))  # dA's packed copy is made after the loop

    for t in range(T - 1, -1, -1):
        a, da = G[t], dA[t]
        i, f, z, o = a[0], a[1], a[2], a[3]
        da_i, da_f, dz_pre, da_o = da[0], da[1], da[2], da[3]
        g_c, c_prev = trace.g_c[t], C[t]
        dh += dH[t]

        # h = o * g(c): the o branch first, since o's peephole feeds dc.
        np.multiply(dh, g_c, da_o)
        da_o *= o
        da_o *= np.subtract(1.0, o, s)
        np.multiply(dh, o, s)
        s *= g_deriv(g_c, dh)  # dh is spent until the recurrence below refills it
        dc += s
        dc += np.multiply(da_o, w_co, s)

        # c = f * c_prev + i * z
        np.multiply(dc, z, da_i)
        da_i *= i
        da_i *= np.subtract(1.0, i, s)
        np.multiply(dc, c_prev, da_f)
        da_f *= f
        da_f *= np.subtract(1.0, f, s)
        np.multiply(dc, i, dz_pre)
        dz_pre *= g_deriv(z, s)

        if t == 0:
            break  # the zero initial state takes no gradient
        dc *= f
        dc += np.multiply(da_i, w_ci, s)
        dc += np.multiply(da_f, w_cf, s)
        np.matmul(da, Wh, dh_gates).sum(axis=0, out=dh)

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
    return grads, dX


# ---------------------------------------------------------------------------
# K=1 adapters over the layer engine, for benchmarks/workloads.py only

@dataclass
class StepTrace:
    """One step of a ``sequence_forward`` run: its hidden state and the run's trace."""

    h: np.ndarray
    run: LayerTrace


def sequence_forward(p: CellParams, x_seq, act: str) -> tuple[list[StepTrace], CellState]:
    """Run one cell over a list of T (B, d) input steps (``as_layer_input``)."""
    _, run = layer_forward(LayerParams.pack([p]), as_layer_input(x_seq, p.d), act)
    traces = [StepTrace(h=h, run=run) for h in run.h[1:, 0]]
    return traces, CellState(c=run.c[-1, 0], h=run.h[-1, 0])


def cell_backward(p: CellParams, traces: list[StepTrace], dh_seq, act: str
                  ) -> tuple[CellParams, list[np.ndarray], None]:
    """Reverse-mode gradients through the run that ``traces`` come from.

    ``dh_seq[t]`` is the loss gradient arriving directly at h_t (same
    shape as h_t; zero arrays for steps the loss ignores). Returns
    (parameter gradients, per-step input gradients, None).
    """
    run = traces[0].run
    if [np.shape(dh) for dh in dh_seq] != [h.shape for h in run.h[1:, 0]]:
        raise ShapeError(f"cell_backward: expected {len(run.h) - 1} h-gradients of shape "
                         f"{run.h.shape[2:]}")
    grads, dX = layer_backward(LayerParams.pack([p]), run, np.stack(dh_seq)[:, None], act)
    return grads.cell(0), list(dX[0]), None
