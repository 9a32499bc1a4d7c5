"""Cell-level oracles: scalar-loop forward reference and finite differences."""

import math

import numpy as np
import pytest

from stlstm import CellParams, CellState, ShapeError
from stlstm.cell import LayerParams, as_layer_input, init_cell_into, layer_backward, layer_forward


def random_cell(n, d, rng, scale=0.5):
    p = CellParams.zeros(n, d)
    for _, arr in p.tensors():
        arr[...] = rng.uniform(-scale, scale, size=arr.shape)
    return p


def scalar_sigmoid(x):
    return 1.0 / (1.0 + math.exp(-x)) if x >= 0 else math.exp(x) / (1.0 + math.exp(x))


def scalar_act(act, x):
    return math.tanh(x) if act == "tanh" else scalar_sigmoid(x)


def scalar_cell_step(p, c_prev, h_prev, x, act):
    """Independent per-element evaluation of the five gate equations.

    Written with explicit python loops before the vectorized path, and
    deliberately kept free of numpy reductions so the two never share
    code.
    """
    n, d = p.n, p.d
    i = [0.0] * n
    f = [0.0] * n
    c = [0.0] * n
    o = [0.0] * n
    h = [0.0] * n
    for r in range(n):
        a_i = p.b_i[r] + p.w_ci[r] * c_prev[r]
        a_f = p.b_f[r] + p.w_cf[r] * c_prev[r]
        a_z = p.b_c[r]
        for j in range(d):
            a_i += p.W_xi[r, j] * x[j]
            a_f += p.W_xf[r, j] * x[j]
            a_z += p.W_xc[r, j] * x[j]
        for j in range(n):
            a_i += p.W_hi[r, j] * h_prev[j]
            a_f += p.W_hf[r, j] * h_prev[j]
            a_z += p.W_hc[r, j] * h_prev[j]
        i[r] = scalar_sigmoid(a_i)
        f[r] = scalar_sigmoid(a_f)
        c[r] = f[r] * c_prev[r] + i[r] * scalar_act(act, a_z)
    for r in range(n):
        a_o = p.b_o[r] + p.w_co[r] * c[r]  # output gate peeks at the current c
        for j in range(d):
            a_o += p.W_xo[r, j] * x[j]
        for j in range(n):
            a_o += p.W_ho[r, j] * h_prev[j]
        o[r] = scalar_sigmoid(a_o)
        h[r] = o[r] * scalar_act(act, c[r])
    return np.array(c), np.array(h), np.array(i), np.array(f), np.array(o)


# ---------------------------------------------------------------------------
# forward

@pytest.mark.parametrize("act", ["tanh", "sigmoid"])
def test_forward_matches_scalar_loop_oracle(act):
    rng = np.random.default_rng(7)
    for _ in range(100):
        p = random_cell(3, 2, rng)
        prev = CellState(c=rng.normal(size=(1, 1, 3)), h=rng.normal(size=(1, 1, 3)))
        x = rng.normal(size=2)
        _, state, trace = layer_forward(LayerParams.pack([p]), x.reshape(1, 1, 1, 2), act, prev)
        i, f, _, o = trace.gates[0, :, 0, 0]
        c_ref, h_ref, i_ref, f_ref, o_ref = scalar_cell_step(p, prev.c[0, 0], prev.h[0, 0], x, act)
        assert np.max(np.abs(state.c[0, 0] - c_ref)) < 1e-14
        assert np.max(np.abs(state.h[0, 0] - h_ref)) < 1e-14
        assert np.max(np.abs(i - i_ref)) < 1e-14
        assert np.max(np.abs(f - f_ref)) < 1e-14
        assert np.max(np.abs(o - o_ref)) < 1e-14


def test_zero_params_give_half_gates_zero_state():
    _, state, trace = layer_forward(LayerParams.zeros(1, 4, 3), np.ones((1, 1, 1, 3)), "tanh")
    i, f, _, o = trace.gates[0, :, 0, 0]
    assert np.array_equal(i, np.full(4, 0.5))
    assert np.array_equal(f, np.full(4, 0.5))
    assert np.array_equal(o, np.full(4, 0.5))
    assert np.array_equal(state.c, np.zeros((1, 1, 4)))
    assert np.array_equal(state.h, np.zeros((1, 1, 4)))


def test_saturated_forget_gate_retains_memory():
    rng = np.random.default_rng(11)
    p = CellParams.zeros(5, 2)
    p.b_f[...] = 20.0
    v = rng.uniform(-1.0, 1.0, size=5)
    prev = CellState(c=v.reshape(1, 1, 5).copy(), h=np.zeros((1, 1, 5)))
    _, state, _ = layer_forward(LayerParams.pack([p]), rng.normal(size=(1, 1, 1, 2)), "tanh",
                                init=prev)
    assert np.max(np.abs(state.c[0, 0] - v)) < 1e-8


def test_sequence_length_one_equals_single_step():
    # a one-step run is bit for bit the first step of a longer run
    rng = np.random.default_rng(3)
    layer = LayerParams.pack([random_cell(3, 2, rng)])
    X = rng.normal(size=(1, 6, 1, 2))
    H, _, _ = layer_forward(layer, X, "tanh")
    H_one, state, _ = layer_forward(layer, X[:, :1], "tanh")
    assert H_one.shape == (1, 1, 1, 3)
    assert np.array_equal(H_one[0], H[0]) and np.array_equal(state.h, H[0])


def test_zero_params_sequence_stays_zero():
    # holds for tanh, whose g(0) = 0; sigmoid's g(0) = 0.5 feeds the cell
    X = np.arange(6.0).repeat(2).reshape(1, 6, 1, 2)  # step t is (t, t)
    _, final, _ = layer_forward(LayerParams.zeros(1, 3, 2), X, "tanh")
    assert np.array_equal(final.c, np.zeros((1, 1, 3)))
    assert np.array_equal(final.h, np.zeros((1, 1, 3)))


def test_split_sequence_composes_bit_exactly():
    rng = np.random.default_rng(5)
    layer = LayerParams.pack([random_cell(4, 3, rng)])
    X = rng.normal(size=(1, 10, 1, 3))
    _, full, _ = layer_forward(layer, X, "tanh")
    _, mid, _ = layer_forward(layer, X[:, :4], "tanh")
    _, carried, _ = layer_forward(layer, X[:, 4:], "tanh", init=mid)
    assert np.array_equal(full.c, carried.c)
    assert np.array_equal(full.h, carried.h)


def test_empty_sequence_is_an_error():
    with pytest.raises(ShapeError):
        as_layer_input([], 2)


def test_dimension_mismatch_errors():
    layer = LayerParams.zeros(1, 3, 2)
    with pytest.raises(ShapeError):
        as_layer_input([np.zeros(5)], 2)  # steps wider than the cell's input
    with pytest.raises(ShapeError):
        as_layer_input([np.zeros(2), np.zeros(3)], 2)  # ragged steps
    with pytest.raises(ShapeError):
        as_layer_input([np.zeros((4, 2)), np.zeros(2)], 2)  # batched and not
    X = np.zeros((1, 1, 1, 2))
    for shape in ((1, 1, 4), (3,), (1, 3), (1, 2, 3)):  # wrong width, or unbatched
        with pytest.raises(ShapeError):
            layer_forward(layer, X, "tanh", init=CellState(c=np.zeros(shape), h=np.zeros(shape)))
    with pytest.raises(ShapeError):  # c and h of different shapes
        layer_forward(layer, X, "tanh",
                      init=CellState(c=np.zeros((1, 1, 3)), h=np.zeros((1, 1, 4))))


@pytest.mark.parametrize("act,lo,hi", [("tanh", -1.0, 1.0), ("sigmoid", 0.0, 1.0)])
def test_hidden_state_bounds(act, lo, hi):
    rng = np.random.default_rng(13)
    for _ in range(20):
        layer = LayerParams.pack([random_cell(4, 3, rng, scale=2.0)])
        H, _, _ = layer_forward(layer, rng.normal(size=(1, 8, 1, 3)) * 3.0, act)
        assert np.all(H > lo) and np.all(H < hi)


def test_batched_forward_matches_per_sample():
    rng = np.random.default_rng(17)
    layer = LayerParams.pack([random_cell(3, 4, rng)])
    X = rng.normal(size=(1, 1, 5, 4))
    _, batch_state, _ = layer_forward(layer, X, "tanh")
    for b in range(5):
        _, one, _ = layer_forward(layer, X[:, :, b:b + 1], "tanh")
        assert np.allclose(batch_state.c[0, b], one.c[0, 0], atol=1e-15)
        assert np.allclose(batch_state.h[0, b], one.h[0, 0], atol=1e-15)


# ---------------------------------------------------------------------------
# backward

def scalar_loss_extended(p, xs, act, u_seq, v_final):
    """sum_t u_t . h_t + v . c_final over the (d,) steps ``xs``, evaluated in longdouble.

    Longdouble keeps the finite-difference cancellation noise far below
    the 1e-6 relative gate.
    """
    ld = np.longdouble
    c = np.zeros(p.n, dtype=ld)
    h = np.zeros(p.n, dtype=ld)
    total = ld(0.0)

    def sig(v):
        return 1.0 / (1.0 + np.exp(-v))

    def g(v):
        return np.tanh(v) if act == "tanh" else sig(v)

    for x, u in zip(xs, u_seq):
        x = x.astype(ld)
        i = sig(p.W_xi @ x + p.W_hi @ h + p.w_ci * c + p.b_i)
        f = sig(p.W_xf @ x + p.W_hf @ h + p.w_cf * c + p.b_f)
        z = g(p.W_xc @ x + p.W_hc @ h + p.b_c)
        c = f * c + i * z
        o = sig(p.W_xo @ x + p.W_ho @ h + c * p.w_co + p.b_o)
        h = o * g(c)
        total = total + u.astype(ld) @ h
    return total + v_final.astype(ld) @ c


@pytest.mark.parametrize("act", ["tanh", "sigmoid"])
def test_backward_matches_central_finite_differences(act):
    n, d, T = 2, 2, 3
    rng = np.random.default_rng(42)
    p = random_cell(n, d, rng)
    X = rng.normal(size=(1, T, 1, d))  # one cell, one window
    u_seq = [rng.uniform(0.5, 1.5, size=n) * rng.choice([-1.0, 1.0], size=n)
             for _ in range(T)]
    v_final = rng.uniform(0.5, 1.5, size=n) * rng.choice([-1.0, 1.0], size=n)

    layer = LayerParams.pack([p])
    _, _, trace = layer_forward(layer, X, act)
    grads, dX, _ = layer_backward(layer, trace, np.reshape(u_seq, (T, 1, 1, n)), act,
                                  dc_final=v_final.reshape(1, 1, n))

    step = 1e-5

    def check(analytic, perturb):
        flat_a = analytic.ravel()
        arr = perturb.ravel()
        for j in range(arr.shape[0]):
            keep = arr[j]
            arr[j] = keep + step
            up = scalar_loss_extended(p, X[0, :, 0], act, u_seq, v_final)
            arr[j] = keep - step
            down = scalar_loss_extended(p, X[0, :, 0], act, u_seq, v_final)
            arr[j] = keep
            numeric = float((up - down) / np.longdouble(2 * step))
            rel = abs(flat_a[j] - numeric) / max(abs(flat_a[j]), abs(numeric), 1e-8)
            assert rel < 1e-6

    for (name, g_arr), (_, p_arr) in zip(grads.cell(0).tensors(), p.tensors()):
        check(g_arr, p_arr)
    check(dX, X)


def test_backward_initial_state_gradients_match_fd():
    n, d, T = 2, 2, 3
    rng = np.random.default_rng(9)
    p = random_cell(n, d, rng)
    xs = [rng.normal(size=d) for _ in range(T)]
    u_seq = [rng.normal(size=n) for _ in range(T)]
    v_final = rng.normal(size=n)
    init = CellState(c=rng.normal(size=(1, 1, n)), h=rng.normal(size=(1, 1, n)))

    layer = LayerParams.pack([p])
    _, _, trace = layer_forward(layer, np.reshape(xs, (1, T, 1, d)), "tanh", init)
    _, _, dinit = layer_backward(layer, trace, np.reshape(u_seq, (T, 1, 1, n)), "tanh",
                                 dc_final=v_final.reshape(1, 1, n))

    def loss_from_init(c0, h0):
        ld = np.longdouble
        c, h = c0.astype(ld), h0.astype(ld)
        total = ld(0.0)
        for x, u in zip(xs, u_seq):
            x = x.astype(ld)
            i = 1.0 / (1.0 + np.exp(-(p.W_xi @ x + p.W_hi @ h + p.w_ci * c + p.b_i)))
            f = 1.0 / (1.0 + np.exp(-(p.W_xf @ x + p.W_hf @ h + p.w_cf * c + p.b_f)))
            z = np.tanh(p.W_xc @ x + p.W_hc @ h + p.b_c)
            c = f * c + i * z
            o = 1.0 / (1.0 + np.exp(-(p.W_xo @ x + p.W_ho @ h + c * p.w_co + p.b_o)))
            h = o * np.tanh(c)
            total = total + u.astype(ld) @ h
        return total + v_final.astype(ld) @ c

    step = 1e-5
    for analytic, arr in ((dinit.c[0, 0], init.c[0, 0]), (dinit.h[0, 0], init.h[0, 0])):
        for j in range(n):
            keep = arr[j]
            arr[j] = keep + step
            up = loss_from_init(init.c[0, 0], init.h[0, 0])
            arr[j] = keep - step
            down = loss_from_init(init.c[0, 0], init.h[0, 0])
            arr[j] = keep
            numeric = float((up - down) / np.longdouble(2 * step))
            rel = abs(analytic[j] - numeric) / max(abs(analytic[j]), abs(numeric), 1e-8)
            assert rel < 1e-6


def test_zero_upstream_gradients_give_zero_parameter_gradients():
    rng = np.random.default_rng(21)
    layer = LayerParams.pack([random_cell(3, 2, rng)])
    _, _, trace = layer_forward(layer, rng.normal(size=(1, 4, 1, 2)), "tanh")
    grads, dX, dinit = layer_backward(layer, trace, np.zeros((4, 1, 1, 3)), "tanh")
    for arr in grads.arrays():
        assert np.array_equal(arr, np.zeros_like(arr))
    assert np.array_equal(dX, np.zeros((1, 4, 1, 2)))
    assert np.array_equal(dinit.c, np.zeros((1, 1, 3)))
    assert np.array_equal(dinit.h, np.zeros((1, 1, 3)))


def test_causality_loss_on_early_step_ignores_later_inputs():
    rng = np.random.default_rng(23)
    layer = LayerParams.pack([random_cell(3, 2, rng)])
    _, _, trace = layer_forward(layer, rng.normal(size=(1, 5, 1, 2)), "tanh")
    dH = np.zeros((5, 1, 1, 3))
    dH[1] = rng.normal(size=3)  # loss depends on h_1 only
    _, dX, _ = layer_backward(layer, trace, dH, "tanh")
    assert np.array_equal(dX[0, 2:], np.zeros((3, 1, 2)))
    assert np.any(dX[0, 0] != 0.0)
    assert np.any(dX[0, 1] != 0.0)


def test_init_cell_into_ranges_and_forget_bias():
    rng = np.random.default_rng(31)
    p = CellParams.zeros(6, 4)
    init_cell_into(p, rng)
    assert np.all(np.abs(p.W_xi) <= 1.0 / np.sqrt(4))
    assert np.all(np.abs(p.W_hi) <= 1.0 / np.sqrt(6))
    assert np.array_equal(p.b_i, np.zeros(6))
    assert np.array_equal(p.w_ci, np.zeros(6))
    assert np.array_equal(p.b_f, np.zeros(6))
    p2 = CellParams.zeros(6, 4)
    init_cell_into(p2, rng, forget_bias=1.0)
    assert np.array_equal(p2.b_f, np.ones(6))
