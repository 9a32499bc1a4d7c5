"""Cell-level oracles: scalar-loop forward reference and finite differences."""

import math

import numpy as np
import pytest

from stlstm import ShapeError
from stlstm.cell import LayerParams, as_layer_input, init_cell_into, layer_backward, layer_forward


def random_cell(n, d, rng, scale=0.5):
    p = LayerParams.zeros(1, n, d).cell(0)
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


def scalar_oracle_diff(p, xs, act):
    """The largest difference between a one-cell engine run over the (d,) steps ``xs`` and
    ``scalar_cell_step``, each step of which starts from the run's own previous state: the
    zero state at step 0, then the states the run reached."""
    _, trace = layer_forward(LayerParams.pack([p]), np.reshape(xs, (1, len(xs), 1, p.d)), act)
    worst = 0.0
    for t, x in enumerate(xs):
        want = scalar_cell_step(p, trace.c[t, 0, 0], trace.h[t, 0, 0], x, act)
        i, f, _, o = trace.gates[t, :, 0, 0]
        got = (trace.c[t + 1, 0, 0], trace.h[t + 1, 0, 0], i, f, o)
        worst = max(worst, *(np.max(np.abs(a - b)) for a, b in zip(got, want)))
    return worst


# ---------------------------------------------------------------------------
# forward

@pytest.mark.parametrize("act", ["tanh", "sigmoid"])
def test_forward_matches_scalar_loop_oracle(act):
    rng = np.random.default_rng(7)
    for _ in range(100):
        p = random_cell(3, 2, rng)
        assert scalar_oracle_diff(p, rng.normal(size=(3, 2)), act) < 1e-14


def test_zero_params_give_half_gates_zero_state():
    H, trace = layer_forward(LayerParams.zeros(1, 4, 3), np.ones((1, 1, 1, 3)), "tanh")
    i, f, _, o = trace.gates[0, :, 0, 0]
    assert np.array_equal(i, np.full(4, 0.5))
    assert np.array_equal(f, np.full(4, 0.5))
    assert np.array_equal(o, np.full(4, 0.5))
    assert np.array_equal(trace.c[-1], np.zeros((1, 1, 4)))
    assert np.array_equal(H[-1], np.zeros((1, 1, 4)))


def test_saturated_forget_gate_retains_memory():
    # step 0's input writes a value; the zero inputs after it write nothing (tanh(0) = 0)
    rng = np.random.default_rng(11)
    layer = LayerParams.zeros(1, 5, 2)
    p = layer.cell(0)
    p.b_f[...] = 20.0
    p.W_xc[...] = rng.uniform(-1.0, 1.0, size=(5, 2))
    X = np.zeros((1, 6, 1, 2))
    X[0, 0, 0] = rng.normal(size=2)
    _, trace = layer_forward(layer, X, "tanh")
    written = trace.c[1, 0, 0]
    assert np.min(np.abs(written)) > 1e-3
    assert np.max(np.abs(trace.c[-1, 0, 0] - written)) < 1e-8


def test_sequence_length_one_equals_single_step():
    # a one-step run is bit for bit the first step of a longer run
    rng = np.random.default_rng(3)
    layer = LayerParams.pack([random_cell(3, 2, rng)])
    X = rng.normal(size=(1, 6, 1, 2))
    H, _ = layer_forward(layer, X, "tanh")
    H_one, one = layer_forward(layer, X[:, :1], "tanh")
    assert H_one.shape == (1, 1, 1, 3)
    assert np.array_equal(H_one[0], H[0]) and np.array_equal(one.h[-1], H[0])


@pytest.mark.parametrize("act", ["tanh", "sigmoid"])
def test_a_short_run_is_the_bit_identical_prefix_of_a_longer_one(act):
    # every window starts from the zero state, so its first steps do not depend on its length
    rng = np.random.default_rng(5)
    layer = LayerParams.pack([random_cell(4, 3, rng) for _ in range(2)])
    X = rng.normal(size=(2, 10, 5, 3))
    H, trace = layer_forward(layer, X, act)
    for T in range(1, 10):
        H_short, short = layer_forward(layer, X[:, :T], act)
        assert np.array_equal(H_short, H[:T])
        assert np.array_equal(short.c, trace.c[:T + 1]) and np.array_equal(short.h, trace.h[:T + 1])


def test_zero_params_sequence_stays_zero():
    # holds for tanh, whose g(0) = 0; sigmoid's g(0) = 0.5 feeds the cell
    X = np.arange(6.0).repeat(2).reshape(1, 6, 1, 2)  # step t is (t, t)
    H, trace = layer_forward(LayerParams.zeros(1, 3, 2), X, "tanh")
    assert np.array_equal(trace.c[-1], np.zeros((1, 1, 3)))
    assert np.array_equal(H[-1], np.zeros((1, 1, 3)))


def test_empty_sequence_is_an_error():
    with pytest.raises(ShapeError):
        as_layer_input([], 2)


def test_dimension_mismatch_errors():
    layer = LayerParams.zeros(1, 3, 2)
    with pytest.raises(ShapeError):
        as_layer_input([np.zeros((1, 5))], 2)  # steps wider than the cell's input
    with pytest.raises(ShapeError):
        as_layer_input([np.zeros(2)], 2)  # one unbatched (T, d) sequence
    with pytest.raises(ShapeError):
        as_layer_input([np.zeros(2), np.zeros(3)], 2)  # ragged steps
    with pytest.raises(ShapeError):
        as_layer_input([np.zeros((4, 2)), np.zeros(2)], 2)  # batched and not
    # the gradients layer_backward takes are (T, K, B, n), not broadcast
    T, K, B, n = 2, 1, 3, 3
    _, trace = layer_forward(layer, np.zeros((K, T, B, 2)), "tanh")
    expected = r"expected \(2, 1, 3, 3\)"
    for shape in ((T, K, 1, n), (T + 2, K, B, n), (T - 1, K, B, n), (K, B, n)):
        with pytest.raises(ShapeError, match=expected):
            layer_backward(layer, trace, np.zeros(shape), "tanh")
    # a loose cell is checked where it is packed into a layer
    wide = LayerParams.zeros(1, 3, 2).cell(0)
    wide.W_hi = np.zeros((3, 4))
    with pytest.raises(ShapeError, match=r"W_hi has shape \(3, 4\), expected \(3, 3\)"):
        LayerParams.pack([wide])
    single = LayerParams.zeros(1, 3, 2).cell(0)
    single.b_o = np.zeros(3, dtype=np.float32)
    with pytest.raises(ShapeError, match="cell tensor b_o must be float64, got float32"):
        LayerParams.pack([single])
    with pytest.raises(ShapeError, match="cells of one layer differ in shape"):
        LayerParams.pack([LayerParams.zeros(1, 3, 2).cell(0),
                          LayerParams.zeros(1, 3, 4).cell(0)])


@pytest.mark.parametrize("act,lo,hi", [("tanh", -1.0, 1.0), ("sigmoid", 0.0, 1.0)])
def test_hidden_state_bounds(act, lo, hi):
    rng = np.random.default_rng(13)
    for _ in range(20):
        layer = LayerParams.pack([random_cell(4, 3, rng, scale=2.0)])
        H, _ = layer_forward(layer, rng.normal(size=(1, 8, 1, 3)) * 3.0, act)
        assert np.all(H > lo) and np.all(H < hi)


def test_batched_forward_matches_per_sample():
    rng = np.random.default_rng(17)
    layer = LayerParams.pack([random_cell(3, 4, rng)])
    X = rng.normal(size=(1, 1, 5, 4))
    _, batch = layer_forward(layer, X, "tanh")
    for b in range(5):
        _, one = layer_forward(layer, X[:, :, b:b + 1], "tanh")
        assert np.allclose(batch.c[-1, 0, b], one.c[-1, 0, 0], atol=1e-15)
        assert np.allclose(batch.h[-1, 0, b], one.h[-1, 0, 0], atol=1e-15)


# ---------------------------------------------------------------------------
# backward

def scalar_loss_extended(p, xs, act, u_seq):
    """sum_t u_t . h_t over the (d,) steps ``xs``, evaluated in longdouble.

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
    return total


@pytest.mark.parametrize("act", ["tanh", "sigmoid"])
def test_backward_matches_central_finite_differences(act):
    n, d, T = 2, 2, 3
    rng = np.random.default_rng(42)
    p = random_cell(n, d, rng)
    X = rng.normal(size=(1, T, 1, d))  # one cell, one window
    u_seq = [rng.uniform(0.5, 1.5, size=n) * rng.choice([-1.0, 1.0], size=n)
             for _ in range(T)]

    layer = LayerParams.pack([p])
    _, trace = layer_forward(layer, X, act)
    grads, dX = layer_backward(layer, trace, np.reshape(u_seq, (T, 1, 1, n)), act)

    step = 1e-5

    def check(analytic, perturb):
        flat_a = analytic.ravel()
        arr = perturb.ravel()
        for j in range(arr.shape[0]):
            keep = arr[j]
            arr[j] = keep + step
            up = scalar_loss_extended(p, X[0, :, 0], act, u_seq)
            arr[j] = keep - step
            down = scalar_loss_extended(p, X[0, :, 0], act, u_seq)
            arr[j] = keep
            numeric = float((up - down) / np.longdouble(2 * step))
            rel = abs(flat_a[j] - numeric) / max(abs(flat_a[j]), abs(numeric), 1e-8)
            assert rel < 1e-6

    for (name, g_arr), (_, p_arr) in zip(grads.cell(0).tensors(), p.tensors()):
        check(g_arr, p_arr)
    check(dX, X)


def test_zero_upstream_gradients_give_zero_parameter_gradients():
    rng = np.random.default_rng(21)
    layer = LayerParams.pack([random_cell(3, 2, rng)])
    _, trace = layer_forward(layer, rng.normal(size=(1, 4, 1, 2)), "tanh")
    grads, dX = layer_backward(layer, trace, np.zeros((4, 1, 1, 3)), "tanh")
    for arr in grads.arrays():
        assert np.array_equal(arr, np.zeros_like(arr))
    assert np.array_equal(dX, np.zeros((1, 4, 1, 2)))


def test_causality_loss_on_early_step_ignores_later_inputs():
    rng = np.random.default_rng(23)
    layer = LayerParams.pack([random_cell(3, 2, rng)])
    _, trace = layer_forward(layer, rng.normal(size=(1, 5, 1, 2)), "tanh")
    dH = np.zeros((5, 1, 1, 3))
    dH[1] = rng.normal(size=3)  # loss depends on h_1 only
    _, dX = layer_backward(layer, trace, dH, "tanh")
    assert np.array_equal(dX[0, 2:], np.zeros((3, 1, 2)))
    assert np.any(dX[0, 0] != 0.0)
    assert np.any(dX[0, 1] != 0.0)


def test_init_cell_into_ranges_and_forget_bias():
    rng = np.random.default_rng(31)
    p = LayerParams.zeros(1, 6, 4).cell(0)
    init_cell_into(p, rng)
    assert np.all(np.abs(p.W_xi) <= 1.0 / np.sqrt(4))
    assert np.all(np.abs(p.W_hi) <= 1.0 / np.sqrt(6))
    assert np.array_equal(p.b_i, np.zeros(6))
    assert np.array_equal(p.w_ci, np.zeros(6))
    assert np.array_equal(p.b_f, np.zeros(6))
    p2 = LayerParams.zeros(1, 6, 4).cell(0)
    init_cell_into(p2, rng, forget_bias=1.0)
    assert np.array_equal(p2.b_f, np.ones(6))
