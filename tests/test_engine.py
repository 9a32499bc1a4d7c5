"""The fused layer engine and the packed parameter buffer.

The engine runs K cells at once on packed gates; a model's per-gate
tensors are views into one flat buffer. These tests pin both contracts:
a K-cell layer is K single-cell runs, and every way of reaching a
parameter (flat buffer, packed layer, per-gate view, ``tensors()``)
reaches the same memory.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from stlstm import (
    ModelParams,
    ModelSpec,
    ShapeError,
    dense_head,
    init_model_params,
    model_forward,
    random_model_params,
)
from stlstm.cell import (LayerParams, LayerTrace, Workspace, input_rows, layer_backward,
                         layer_forward)
from stlstm.model import is_penalized
from stlstm.train import PREDICT_BLOCK_ROWS, Adam, predict_batch

import engine_reference
from test_cell import random_cell


def random_layer(K, n, d, rng):
    return LayerParams.pack([random_cell(n, d, rng) for _ in range(K)])


def sliding_windows(rows, T):
    """Every T-row window of ``rows`` as a read-only (N, T, width) view: no row is copied."""
    return sliding_window_view(rows, T, axis=0).transpose(0, 2, 1)


def sliding_layer_input(K, T, B, d, rng):
    """A (K, T, B, d) layer input whose B windows overlap: step t of window b is row t+b."""
    windows = sliding_windows(rng.normal(size=(T + B - 1, K * d)), T)
    return windows.reshape(B, T, K, d).transpose(2, 1, 0, 3)


# ---------------------------------------------------------------------------
# engine: K cells at once == K single-cell runs

@pytest.mark.parametrize("act", ["tanh", "sigmoid"])
@pytest.mark.parametrize("need_dx", [False, True])
def test_k_cell_layer_equals_k_single_cell_runs(act, need_dx):
    K, n, d, T, B = 3, 4, 2, 5, 6
    rng = np.random.default_rng(10)
    layer = random_layer(K, n, d, rng)
    X = rng.normal(size=(K, T, B, d))
    dH = rng.normal(size=(T, K, B, n))

    H, trace = layer_forward(layer, X, act)
    grads, dX = layer_backward(layer, trace, dH, act, need_dx=need_dx)
    assert (dX is None) == (not need_dx)

    for k in range(K):
        one = LayerParams.pack([layer.cell(k)])
        H_k, trace_k = layer_forward(one, X[k:k + 1], act)
        assert np.max(np.abs(H[:, k] - H_k[:, 0])) <= 1e-14
        assert np.max(np.abs(trace.c[:, k] - trace_k.c[:, 0])) <= 1e-14
        g_k, dX_k = layer_backward(one, trace_k, dH[:, k:k + 1], act, need_dx=need_dx)
        for (name, a), (_, b) in zip(grads.cell(k).tensors(), g_k.cell(0).tensors()):
            assert np.max(np.abs(a - b)) <= 1e-14, name
        if need_dx:
            assert np.max(np.abs(dX[k] - dX_k[0])) <= 1e-14


@pytest.mark.parametrize("act", ["tanh", "sigmoid"])
def test_the_benchmark_adapters_equal_a_one_cell_layer_bit_for_bit(act):
    # benchmarks/workloads.py steps a model through these per-cell adapters
    from stlstm.cell import cell_backward, sequence_forward

    n, d, T, B = 4, 3, 5, 6
    rng = np.random.default_rng(26)
    p = random_cell(n, d, rng)
    xs = [rng.normal(size=(B, d)) for _ in range(T)]
    dhs = [rng.normal(size=(B, n)) for _ in range(T)]
    traces, final = sequence_forward(p, xs, act)
    grads, dxs, none = cell_backward(p, traces, dhs, act)

    layer = LayerParams.pack([p])
    H, trace = layer_forward(layer, np.stack(xs)[None], act)
    want_grads, dX = layer_backward(layer, trace, np.stack(dhs)[:, None], act)
    assert np.array_equal(np.stack([tr.h for tr in traces]), H[:, 0])
    assert np.array_equal(final.h, H[-1, 0])  # the head of benchmarks/workloads.py reads it
    for (name, a), (_, b) in zip(grads.tensors(), want_grads.cell(0).tensors()):
        assert np.array_equal(a, b), name
    assert np.array_equal(np.stack(dxs), dX[0])
    assert none is None  # the slot benchmarks/workloads.py unpacks into _

    # they take only (B, d) steps, and one (B, n) h-gradient per step
    with pytest.raises(ShapeError):
        sequence_forward(p, np.stack(xs)[:, 0], act)  # one (T, d) window
    with pytest.raises(ShapeError):
        cell_backward(p, traces, dhs[:-1], act)
    with pytest.raises(ShapeError):
        cell_backward(p, traces, [dh[:, :-1] for dh in dhs], act)


def test_trace_free_forward_matches_the_traced_one():
    rng = np.random.default_rng(11)
    layer = random_layer(2, 3, 4, rng)
    X = rng.normal(size=(2, 7, 5, 4))
    H, trace = layer_forward(layer, X, "tanh")
    H_free, no_trace = layer_forward(layer, X, "tanh", keep_trace=False)
    assert no_trace is None and isinstance(trace, LayerTrace)
    assert np.array_equal(H, H_free)


@pytest.mark.parametrize("K,T,B", [(1, 5, 7), (3, 4, 9), (2, 1, 6), (2, 6, 1), (1, 10, 128)])
def test_overlapping_windows_project_each_row_once(K, T, B):
    X = sliding_layer_input(K, T, B, 2, np.random.default_rng(20))
    rows, step = input_rows(X, Workspace())
    want = T + B - 1 if min(T, B) > 1 else T * B
    assert rows.shape == (K, want, 2)
    for t in range(T):
        assert np.array_equal(rows[:, t * step:t * step + B], X[:, t])
    # a contiguous copy overlaps by value, so it projects the same T+B-1 rows
    # in one GEMM of the same row count: some BLAS kernels give a row other
    # bits in a GEMM of another row count
    copy_rows, copy_step = input_rows(np.ascontiguousarray(X), Workspace())
    assert copy_step == step and np.array_equal(copy_rows, rows)
    # input whose windows do not overlap projects every window's T*B rows,
    # also when only the last row pair breaks the overlap
    rows, step = input_rows(np.random.default_rng(24).normal(size=X.shape), Workspace())
    assert rows.shape == (K, T * B, 2) and step == B
    broken = np.ascontiguousarray(X)
    broken[:, -1, 0] += 1.0
    rows, step = input_rows(broken, Workspace())
    assert rows.shape == (K, T * B, 2) and step == B


@pytest.mark.parametrize("keep_trace", [False, True])
def test_a_reused_workspace_starts_every_run_from_the_zero_state(keep_trace):
    # a Workspace's buffers keep the last run's states; the next run must not start from them
    K, n, d, T, B = 2, 4, 3, 6, 5
    rng = np.random.default_rng(27)
    layer = random_layer(K, n, d, rng)
    first, second = rng.normal(size=(2, K, T, B, d))
    ws = Workspace()
    layer_forward(layer, first, "tanh", keep_trace=keep_trace, ws=ws)
    H, _ = layer_forward(layer, second, "tanh", keep_trace=keep_trace, ws=ws)
    H_fresh, _ = layer_forward(layer, second, "tanh", keep_trace=keep_trace)
    assert np.array_equal(H, H_fresh)


def test_a_copy_shares_rows_only_where_every_bit_agrees():
    K, T, B, d = 1, 3, 4, 2
    X = np.ascontiguousarray(sliding_layer_input(K, T, B, d, np.random.default_rng(25)))
    for t in range(T):  # every copy of row T-1 becomes 0.0
        X[:, t, T - 1 - t] = 0.0
    assert input_rows(X, Workspace())[0].shape == (K, T + B - 1, d)
    X[:, T - 1, 0] = -0.0  # equal to 0.0 by value, not by bits
    assert input_rows(X, Workspace())[0].shape == (K, T * B, d)


@pytest.mark.parametrize("act", ["tanh", "sigmoid"])
@pytest.mark.parametrize("keep_trace", [False, True])
@pytest.mark.parametrize("K,T,B", [(1, 5, 7), (3, 4, 9), (2, 1, 6), (1, 10, 130)])
def test_layer_forward_on_a_sliding_view_equals_its_contiguous_copy(act, keep_trace, K, T, B):
    n, d = 4, 3
    rng = np.random.default_rng(21)
    layer = random_layer(K, n, d, rng)
    X = sliding_layer_input(K, T, B, d, rng)
    assert X.strides[1] == X.strides[2]
    H, _ = layer_forward(layer, X, act, keep_trace=keep_trace)
    H_copy, _ = layer_forward(layer, np.ascontiguousarray(X), act, keep_trace=keep_trace)
    assert np.array_equal(H, H_copy)


def same_bits(a, b):
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


engine_case = st.fixed_dictionaries({
    "K": st.integers(1, 4), "n": st.integers(1, 4), "d": st.integers(1, 3),
    "T": st.integers(1, 5), "B": st.integers(1, 5), "act": st.sampled_from(["tanh", "sigmoid"]),
    "keep_trace": st.booleans(), "need_dx": st.booleans(),
    "x": st.sampled_from(["view", "copy", "shuffled"]),
    "seed": st.integers(0, 2**32 - 1),
})


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(cases=st.lists(engine_case, min_size=2, max_size=2))
def test_the_engine_equals_its_frozen_reference_bit_for_bit(cases):
    # two calls in one workspace, as training and predict reuse theirs from batch to batch
    ws = Workspace()
    for case in cases:
        K, n, d, T, B = (case[key] for key in "KndTB")
        act = case["act"]
        rng = np.random.default_rng(case["seed"])
        layer = random_layer(K, n, d, rng)
        X = sliding_layer_input(K, T, B, d, rng)
        if case["x"] != "view":
            X = np.ascontiguousarray(X)
        if case["x"] == "shuffled":
            X = np.ascontiguousarray(X[:, :, rng.permutation(B)])
        dH = rng.normal(size=(T, K, B, n))

        keep_trace = case["keep_trace"]
        want_H, _, want_trace = engine_reference.layer_forward(layer, X, act,
                                                               keep_trace=keep_trace)
        H, trace = layer_forward(layer, X, act, keep_trace=keep_trace,
                                 ws=Workspace(ws.buffers, "l1"))
        assert same_bits(H, want_H)
        if not keep_trace:
            continue
        for name in ("gates", "c", "h", "g_c"):
            assert same_bits(getattr(trace, name), getattr(want_trace, name)), name
        want_grads, want_dX, _ = engine_reference.layer_backward(
            layer, want_trace, dH, act, need_dx=case["need_dx"])
        grads, dX = layer_backward(layer, trace, dH, act, need_dx=case["need_dx"], ws=ws)
        for a, b in zip(grads.arrays(), want_grads.arrays()):
            assert same_bits(a, b)
        assert (dX is None) == (want_dX is None) == (not case["need_dx"])
        assert dX is None or same_bits(dX, want_dX)


# (vars per location, n1, n2, T, windows): a small model at every block edge;
# the paper's size, whose GEMMs are large enough for a threaded BLAS to split;
# and paper width (stacked: 90 inputs, 4*n1 = 640) with T and windows both even
# and both odd, where the shared GEMM's row count T+windows-1 and the copy's
# T*windows differ in parity and agree in it
BLOCK_EDGES = (1, 2, PREDICT_BLOCK_ROWS, PREDICT_BLOCK_ROWS + 1, 2 * PREDICT_BLOCK_ROWS + 3)
SLIDING_PREDICT_CASES = ([(2, 10, 4, 5, n) for n in BLOCK_EDGES]
                         + [(18, 160, 64, 10, BLOCK_EDGES[-1]), (18, 160, 64, 4, 2),
                            (18, 160, 64, 5, 3)])


@pytest.mark.parametrize("kind", ["stacked", "st_stacked"])
@pytest.mark.parametrize("act", ["tanh", "sigmoid"])
@pytest.mark.parametrize("m,n1,n2,T,n", SLIDING_PREDICT_CASES)
def test_predict_batch_on_sliding_windows_equals_their_contiguous_copy(kind, act, m, n1, n2, T, n):
    spec = ModelSpec(kind=kind, locations=5, vars_per_location=m, n1=n1, n2=n2,
                     activation=act, seq_len=T)
    rng = np.random.default_rng(22)
    params = random_model_params(spec, rng)
    X = sliding_windows(rng.normal(size=(n + spec.seq_len - 1, spec.input_dim)), spec.seq_len)
    assert X.shape == (n, spec.seq_len, spec.input_dim)
    assert np.array_equal(predict_batch(spec, params, X),
                          predict_batch(spec, params, np.ascontiguousarray(X)))


@pytest.mark.parametrize("kind", ["stacked", "st_stacked"])
def test_a_traced_forward_keeps_layer_1_input_contiguous(kind):
    spec = ModelSpec(kind=kind, locations=3, vars_per_location=2, n1=6, n2=4, seq_len=5)
    rng = np.random.default_rng(23)
    params = random_model_params(spec, rng)
    X = sliding_windows(rng.normal(size=(12, spec.input_dim)), spec.seq_len)
    # training's batches are time-major views of stacked windows; a sliding view too
    for batch in (np.ascontiguousarray(X).transpose(1, 0, 2), X.transpose(1, 0, 2)):
        _, trace = model_forward(spec, params, batch)
        assert trace.layer1.x.flags.c_contiguous


@pytest.mark.parametrize("kind", ["stacked", "st_stacked"])
@pytest.mark.parametrize("act", ["tanh", "sigmoid"])
def test_trace_free_predict_equals_model_forward_bit_for_bit(kind, act):
    spec = ModelSpec(kind=kind, locations=3, vars_per_location=2, n1=6, n2=4,
                     activation=act, seq_len=5)
    rng = np.random.default_rng(12)
    params = random_model_params(spec, rng)
    X = rng.normal(size=(9, spec.seq_len, spec.input_dim))
    window = [X[:, t, :] for t in range(spec.seq_len)]
    traced, _ = model_forward(spec, params, window)
    assert np.array_equal(predict_batch(spec, params, X), traced)


@pytest.mark.parametrize("kind", ["stacked", "st_stacked"])
@pytest.mark.parametrize("n", [0, 1, PREDICT_BLOCK_ROWS, PREDICT_BLOCK_ROWS + 1,
                               2 * PREDICT_BLOCK_ROWS + 3])
def test_row_blocked_predict_equals_one_whole_batch_forward(kind, n):
    spec = ModelSpec(kind=kind, locations=3, vars_per_location=2, n1=6, n2=4, seq_len=4)
    rng = np.random.default_rng(13)
    params = random_model_params(spec, rng)
    X = rng.normal(size=(n, spec.seq_len, spec.input_dim))
    whole = np.atleast_1d(model_forward(spec, params, [X[:, t, :] for t in range(spec.seq_len)])[0])
    got = predict_batch(spec, params, X)
    assert got.shape == (n,)
    assert np.max(np.abs(got - whole), initial=0.0) <= 1e-14


# ---------------------------------------------------------------------------
# packing contract: one flat buffer, every tensor a view into it

@pytest.fixture
def st_model():
    spec = ModelSpec(kind="st_stacked", locations=3, vars_per_location=2, n1=6, n2=4, seq_len=4)
    return spec, init_model_params(spec, np.random.default_rng(13))


def views_forward(spec, params, X):
    """The model's forward pass read through its per-gate views, one cell at a time."""
    steps = X.transpose(1, 0, 2)[None]  # (1, T, B, c*m): one cell's input
    d = spec.loc_inputs
    h1 = []
    for k, cell in enumerate(params.layer1):
        H, _ = layer_forward(LayerParams.pack([cell]), steps[..., k * d:(k + 1) * d],
                             spec.activation)
        h1.append(H[:, 0])
    H2, _ = layer_forward(LayerParams.pack([params.layer2]),
                          np.concatenate(h1, axis=-1)[None], spec.activation)
    return dense_head(H2[-1, 0], params.w_dense, params.b_dense)


def test_every_tensor_is_a_view_of_the_flat_buffer(st_model):
    spec, params = st_model
    total = 0
    for name, arr in params.tensors():
        assert np.shares_memory(arr, params.flat), name
        assert arr.flags.c_contiguous, name
        total += arr.size
    assert total == params.flat.size


def test_penalized_tensors_are_exactly_the_leading_slice(st_model):
    _, params = st_model
    base = params.flat.__array_interface__["data"][0]
    for name, arr in params.tensors():
        offset = (arr.__array_interface__["data"][0] - base) // arr.itemsize
        inside = offset + arr.size <= params.n_penalized
        assert inside == is_penalized(name), name
        assert inside or offset >= params.n_penalized, name


def test_an_optimizer_step_on_the_flat_buffer_shows_through_the_views(st_model):
    _, params = st_model
    before = [arr.copy() for arr in (params.layer1[1].W_xi, params.layer2.b_o, params.w_dense)]
    opt = Adam([params.flat], 0.1)
    opt.step([np.ones_like(params.flat)])
    after = (params.layer1[1].W_xi, params.layer2.b_o, params.w_dense)
    for old, new in zip(before, after):
        assert np.allclose(new, old - 0.1)


def test_a_write_through_tensors_reaches_the_engine(st_model):
    spec, params = st_model
    rng = np.random.default_rng(14)
    for _, arr in params.tensors():
        arr[...] = rng.uniform(-0.5, 0.5, size=arr.shape)
    X = rng.normal(size=(5, spec.seq_len, spec.input_dim))
    got = predict_batch(spec, params, X)
    assert np.max(np.abs(got - views_forward(spec, params, X))) < 1e-14


def test_copy_shares_no_memory_with_its_source(st_model):
    _, params = st_model
    copy = params.copy()
    assert not np.shares_memory(copy.flat, params.flat)
    for (name, a), (_, b) in zip(params.tensors(), copy.tensors()):
        assert np.array_equal(a, b) and not np.shares_memory(a, b), name
    copy.layer1[0].W_hf += 1.0
    copy.b_dense += 1.0
    assert not np.array_equal(copy.layer1[0].W_hf, params.layer1[0].W_hf)
    assert copy.b_dense[0] != params.b_dense[0]


def test_a_model_built_from_loose_cells_is_the_same_model(st_model):
    spec, params = st_model
    # the model copies the cells, head and bias it is given
    loose = ModelParams(layer1=params.layer1, layer2=params.layer2, w_dense=params.w_dense,
                        b_dense=params.b_dense)
    assert not np.shares_memory(loose.flat, params.flat)
    assert np.array_equal(loose.flat, params.flat)
    for (name_a, a), (name_b, b) in zip(params.tensors(), loose.tensors()):
        assert name_a == name_b and np.array_equal(a, b)
    X = np.random.default_rng(15).normal(size=(4, spec.seq_len, spec.input_dim))
    assert np.array_equal(predict_batch(spec, loose, X), predict_batch(spec, params, X))


def test_flat_adam_equals_the_per_tensor_formula_bit_for_bit(st_model, monkeypatch):
    spec, params = st_model
    rng = np.random.default_rng(16)
    reference = [arr.copy() for _, arr in params.tensors()]
    m = [np.zeros_like(a) for a in reference]
    v = [np.zeros_like(a) for a in reference]
    monkeypatch.setattr(Adam, "CHUNK", 7)  # many chunks, some ending inside a tensor
    opt = Adam([params.flat], 1e-2)
    lr, b1, b2, eps = 1e-2, 0.9, 0.999, 1e-8
    for t in range(1, 301):
        g_flat = rng.normal(size=params.flat.size)
        grads = params.copy()
        grads.flat[...] = g_flat
        opt.step([grads.flat])
        for arr, g, mt, vt in zip(reference, [g for _, g in grads.tensors()], m, v):
            mt *= b1
            mt += (1.0 - b1) * g
            vt *= b2
            vt += (1.0 - b2) * (g * g)
            arr -= lr * (mt / (1.0 - b1 ** t)) / (np.sqrt(vt / (1.0 - b2 ** t)) + eps)
    for (name, arr), ref in zip(params.tensors(), reference):
        assert np.array_equal(arr, ref), name
