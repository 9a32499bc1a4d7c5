"""The layer engine's step loops as they were before they took their scratch from the workspace.

Each step of ``layer_forward`` broadcast the (K, 3, n) peepholes again,
and ``layer_backward`` made its per-step intermediates as fresh arrays.
Kept verbatim, with the helpers they call, as the oracle that
``stlstm.cell.layer_forward`` and ``layer_backward`` must match bit for
bit: the same ufunc and GEMM calls on the same values in the same order.
The parameter, state, trace and workspace containers are the package's.
"""

from __future__ import annotations

import numpy as np

from stlstm.cell import CellState, LayerParams, LayerTrace, Workspace
from stlstm.errors import ShapeError


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


def _by_gate(W: np.ndarray, ws: Workspace, name: str, transpose: bool) -> np.ndarray:
    """(K, 4n, m) packed matrices as a contiguous (4, K, n, m) stack, or (4, K, m, n) transposed."""
    K, four_n, m = W.shape
    W4 = W.reshape(K, 4, four_n // 4, m).transpose(1, 0, 2, 3)
    return ws.contiguous(name, W4.transpose(0, 1, 3, 2) if transpose else W4)


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
