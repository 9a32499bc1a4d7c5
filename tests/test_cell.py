"""Cell-level oracles: scalar-loop forward reference and finite differences."""

import math

import numpy as np
import pytest

from stlstm import CellParams, CellState, ShapeError, cell_backward, cell_forward, sequence_forward
from stlstm.cell import init_cell_params


def random_cell(n, d, rng, scale=0.5):
    p = CellParams.zeros(n, d)
    for _, arr in p.tensors():
        arr[...] = rng.uniform(-scale, scale, size=arr.shape)
    return p


def scalar_sigmoid(x):
    return 1.0 / (1.0 + math.exp(-x)) if x >= 0 else math.exp(x) / (1.0 + math.exp(x))


def scalar_act(act, x):
    return math.tanh(x) if act == "tanh" else scalar_sigmoid(x)


def scalar_cell_forward(p, c_prev, h_prev, x, act):
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
        prev = CellState(c=rng.normal(size=3), h=rng.normal(size=3))
        x = rng.normal(size=2)
        state, trace = cell_forward(p, prev, x, act)
        c_ref, h_ref, i_ref, f_ref, o_ref = scalar_cell_forward(p, prev.c, prev.h, x, act)
        assert np.max(np.abs(state.c - c_ref)) < 1e-14
        assert np.max(np.abs(state.h - h_ref)) < 1e-14
        assert np.max(np.abs(trace.i - i_ref)) < 1e-14
        assert np.max(np.abs(trace.f - f_ref)) < 1e-14
        assert np.max(np.abs(trace.o - o_ref)) < 1e-14


def test_zero_params_give_half_gates_zero_state():
    p = CellParams.zeros(4, 3)
    state, trace = cell_forward(p, CellState.zeros(4), np.ones(3), "tanh")
    assert np.array_equal(trace.i, np.full(4, 0.5))
    assert np.array_equal(trace.f, np.full(4, 0.5))
    assert np.array_equal(trace.o, np.full(4, 0.5))
    assert np.array_equal(state.c, np.zeros(4))
    assert np.array_equal(state.h, np.zeros(4))


def test_saturated_forget_gate_retains_memory():
    rng = np.random.default_rng(11)
    p = CellParams.zeros(5, 2)
    p.b_f[...] = 20.0
    v = rng.uniform(-1.0, 1.0, size=5)
    state, _ = cell_forward(p, CellState(c=v.copy(), h=np.zeros(5)), rng.normal(size=2), "tanh")
    assert np.max(np.abs(state.c - v)) < 1e-8


def test_sequence_length_one_equals_single_step():
    rng = np.random.default_rng(3)
    p = random_cell(3, 2, rng)
    x = rng.normal(size=2)
    traces, final = sequence_forward(p, [x], "tanh")
    state, trace = cell_forward(p, CellState.zeros(3), x, "tanh")
    assert len(traces) == 1
    assert np.array_equal(final.c, state.c)
    assert np.array_equal(final.h, state.h)


def test_zero_params_sequence_stays_zero():
    # holds for tanh, whose g(0) = 0; sigmoid's g(0) = 0.5 feeds the cell
    p = CellParams.zeros(3, 2)
    xs = [np.ones(2) * t for t in range(6)]
    _, final = sequence_forward(p, xs, "tanh")
    assert np.array_equal(final.c, np.zeros(3))
    assert np.array_equal(final.h, np.zeros(3))


def test_split_sequence_composes_bit_exactly():
    rng = np.random.default_rng(5)
    p = random_cell(4, 3, rng)
    xs = [rng.normal(size=3) for _ in range(10)]
    _, full = sequence_forward(p, xs, "tanh")
    _, mid = sequence_forward(p, xs[:4], "tanh")
    _, carried = sequence_forward(p, xs[4:], "tanh", init=mid)
    assert np.array_equal(full.c, carried.c)
    assert np.array_equal(full.h, carried.h)


def test_empty_sequence_is_an_error():
    p = CellParams.zeros(2, 2)
    with pytest.raises(ShapeError):
        sequence_forward(p, [], "tanh")


def test_dimension_mismatch_errors():
    p = CellParams.zeros(3, 2)
    with pytest.raises(ShapeError):
        cell_forward(p, CellState.zeros(3), np.zeros(5), "tanh")
    with pytest.raises(ShapeError):
        cell_forward(p, CellState.zeros(4), np.zeros(2), "tanh")
    with pytest.raises(ShapeError):
        sequence_forward(p, [np.zeros(2), np.zeros(3)], "tanh")  # ragged steps
    with pytest.raises(ShapeError):
        sequence_forward(p, [np.zeros((4, 2)), np.zeros(2)], "tanh")  # batched and not


@pytest.mark.parametrize("act,lo,hi", [("tanh", -1.0, 1.0), ("sigmoid", 0.0, 1.0)])
def test_hidden_state_bounds(act, lo, hi):
    rng = np.random.default_rng(13)
    for _ in range(20):
        p = random_cell(4, 3, rng, scale=2.0)
        xs = [rng.normal(size=3) * 3.0 for _ in range(8)]
        traces, _ = sequence_forward(p, xs, act)
        for tr in traces:
            assert np.all(tr.h > lo) and np.all(tr.h < hi)


def test_batched_forward_matches_per_sample():
    rng = np.random.default_rng(17)
    p = random_cell(3, 4, rng)
    X = rng.normal(size=(5, 4))
    batch_state, _ = cell_forward(p, CellState.zeros(3, batch=5), X, "tanh")
    for b in range(5):
        one, _ = cell_forward(p, CellState.zeros(3), X[b], "tanh")
        assert np.allclose(batch_state.c[b], one.c, atol=1e-15)
        assert np.allclose(batch_state.h[b], one.h, atol=1e-15)


# ---------------------------------------------------------------------------
# backward

def scalar_loss_extended(p, xs, act, u_seq, v_final):
    """sum_t u_t . h_t + v . c_final evaluated in longdouble.

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
    xs = [rng.normal(size=d) for _ in range(T)]
    u_seq = [rng.uniform(0.5, 1.5, size=n) * rng.choice([-1.0, 1.0], size=n)
             for _ in range(T)]
    v_final = rng.uniform(0.5, 1.5, size=n) * rng.choice([-1.0, 1.0], size=n)

    traces, _ = sequence_forward(p, xs, act)
    grads, dx_seq, dinit = cell_backward(p, traces, u_seq, act, dc_final=v_final)

    step = 1e-5

    def check(analytic, perturb):
        flat_a = analytic.ravel()
        arr = perturb.ravel()
        for j in range(arr.shape[0]):
            keep = arr[j]
            arr[j] = keep + step
            up = scalar_loss_extended(p, xs, act, u_seq, v_final)
            arr[j] = keep - step
            down = scalar_loss_extended(p, xs, act, u_seq, v_final)
            arr[j] = keep
            numeric = float((up - down) / np.longdouble(2 * step))
            rel = abs(flat_a[j] - numeric) / max(abs(flat_a[j]), abs(numeric), 1e-8)
            assert rel < 1e-6

    for (name, g_arr), (_, p_arr) in zip(grads.tensors(), p.tensors()):
        check(g_arr, p_arr)
    for t in range(T):
        check(dx_seq[t], xs[t])


def test_backward_initial_state_gradients_match_fd():
    n, d, T = 2, 2, 3
    rng = np.random.default_rng(9)
    p = random_cell(n, d, rng)
    xs = [rng.normal(size=d) for _ in range(T)]
    u_seq = [rng.normal(size=n) for _ in range(T)]
    v_final = rng.normal(size=n)
    init = CellState(c=rng.normal(size=n), h=rng.normal(size=n))

    traces, _ = sequence_forward(p, xs, "tanh", init=init)
    _, _, dinit = cell_backward(p, traces, u_seq, "tanh", dc_final=v_final)

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
    for analytic, arr in ((dinit.c, init.c), (dinit.h, init.h)):
        for j in range(n):
            keep = arr[j]
            arr[j] = keep + step
            up = loss_from_init(init.c, init.h)
            arr[j] = keep - step
            down = loss_from_init(init.c, init.h)
            arr[j] = keep
            numeric = float((up - down) / np.longdouble(2 * step))
            rel = abs(analytic[j] - numeric) / max(abs(analytic[j]), abs(numeric), 1e-8)
            assert rel < 1e-6


def test_zero_upstream_gradients_give_zero_parameter_gradients():
    rng = np.random.default_rng(21)
    p = random_cell(3, 2, rng)
    xs = [rng.normal(size=2) for _ in range(4)]
    traces, _ = sequence_forward(p, xs, "tanh")
    grads, dx_seq, dinit = cell_backward(p, traces, [np.zeros(3)] * 4, "tanh")
    for _, arr in grads.tensors():
        assert np.array_equal(arr, np.zeros_like(arr))
    for dx in dx_seq:
        assert np.array_equal(dx, np.zeros_like(dx))
    assert np.array_equal(dinit.c, np.zeros(3))
    assert np.array_equal(dinit.h, np.zeros(3))


def test_causality_loss_on_early_step_ignores_later_inputs():
    rng = np.random.default_rng(23)
    p = random_cell(3, 2, rng)
    xs = [rng.normal(size=2) for _ in range(5)]
    traces, _ = sequence_forward(p, xs, "tanh")
    dh_seq = [np.zeros(3) for _ in range(5)]
    dh_seq[1] = rng.normal(size=3)  # loss depends on h_1 only
    _, dx_seq, _ = cell_backward(p, traces, dh_seq, "tanh")
    for t in (2, 3, 4):
        assert np.array_equal(dx_seq[t], np.zeros(2))
    assert np.any(dx_seq[0] != 0.0)
    assert np.any(dx_seq[1] != 0.0)


def test_backward_rejects_wrong_gradient_count():
    p = CellParams.zeros(2, 2)
    traces, _ = sequence_forward(p, [np.zeros(2)] * 3, "tanh")
    with pytest.raises(ShapeError):
        cell_backward(p, traces, [np.zeros(2)] * 2, "tanh")
    with pytest.raises(ShapeError):
        cell_backward(p, traces, [np.zeros(3)] * 3, "tanh")


def test_init_cell_params_ranges_and_forget_bias():
    rng = np.random.default_rng(31)
    p = init_cell_params(6, 4, rng)
    assert np.all(np.abs(p.W_xi) <= 1.0 / np.sqrt(4))
    assert np.all(np.abs(p.W_hi) <= 1.0 / np.sqrt(6))
    assert np.array_equal(p.b_i, np.zeros(6))
    assert np.array_equal(p.w_ci, np.zeros(6))
    assert np.array_equal(p.b_f, np.zeros(6))
    p2 = init_cell_params(6, 4, rng, forget_bias=1.0)
    assert np.array_equal(p2.b_f, np.ones(6))
