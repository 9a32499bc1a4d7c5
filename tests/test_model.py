"""Architecture-level oracles: equivalence embedding, enumeration counts, FD."""

import numpy as np
import pytest

from stlstm import (
    ConfigError,
    ModelParams,
    ModelSpec,
    ShapeError,
    block_diagonal_embed,
    dense_head,
    model_backward,
    model_forward,
    param_count,
    random_model_params,
    zero_model_params,
)
from stlstm.model import init_model_params, is_penalized
from stlstm.train import gradcheck, predict_batch


def enumeration_count(spec):
    """Independent oracle: instantiate the model and count every component."""
    params = zero_model_params(spec)
    by_part = {"layer1": 0, "layer2": 0, "head": 0}
    for name, arr in params.tensors():
        part = "head" if name.startswith("head") else name.split(".")[0]
        by_part[part] += arr.size
    by_part["total"] = sum(by_part.values())
    return by_part


def random_window(spec, rng, batch=1):
    """A batch of windows as the list of its T (batch, c*m) steps."""
    return list(rng.normal(size=(spec.seq_len, batch, spec.input_dim)))


# ---------------------------------------------------------------------------
# forward / head

def test_dense_head_dot_product():
    assert dense_head(np.array([3.0, 4.0]), np.array([1.0, 2.0]), np.array([1.0])) == 12.0


def test_zero_params_predict_the_bias():
    spec = ModelSpec(kind="stacked", locations=2, vars_per_location=2, n1=4, n2=3, seq_len=5)
    params = zero_model_params(spec)
    rng = np.random.default_rng(0)
    pred, _ = model_forward(spec, params, random_window(spec, rng, 3))
    assert np.array_equal(pred, np.zeros(3))
    params.b_dense[0] = 2.5
    pred, _ = model_forward(spec, params, random_window(spec, rng, 3))
    assert np.array_equal(pred, np.full(3, 2.5))


def test_forward_rejects_bad_windows():
    spec = ModelSpec(kind="stacked", locations=2, vars_per_location=2, n1=4, n2=3, seq_len=5)
    params = zero_model_params(spec)
    with pytest.raises(ShapeError, match="window has 4 steps, spec.seq_len is 5"):
        model_forward(spec, params, [np.zeros((1, 4))] * 4)  # wrong T
    with pytest.raises(ShapeError):
        model_forward(spec, params, [np.zeros((1, 3))] * 5)  # wrong width
    with pytest.raises(ShapeError):
        model_forward(spec, params, [np.zeros((1, 4))] * 4 + [np.zeros((1, 3))])  # ragged steps
    with pytest.raises(ShapeError):
        model_forward(spec, params, [np.zeros((2, 4))] * 4 + [np.zeros(4)])  # batched and not
    with pytest.raises(ShapeError):
        model_forward(spec, params, np.zeros((5, 2, 2, 4)))  # one axis too many
    with pytest.raises(ShapeError, match=r"input has shape \(5, 4\), expected \(T >= 1, B, d=4\)"):
        model_forward(spec, params, np.zeros((5, 4)))  # one (T, c*m) window, not a batch


def test_batched_forward_matches_per_window():
    spec = ModelSpec(kind="st_stacked", locations=3, vars_per_location=2, n1=6, n2=4, seq_len=4)
    rng = np.random.default_rng(1)
    params = random_model_params(spec, rng)
    X = rng.normal(size=(7, spec.seq_len, spec.input_dim))
    batch_pred, _ = model_forward(spec, params, [X[:, t, :] for t in range(spec.seq_len)])
    # the (T, B, c*m) array those steps convert to, here as a strided view
    assert np.array_equal(model_forward(spec, params, X.transpose(1, 0, 2))[0], batch_pred)
    for b in range(7):
        one, _ = model_forward(spec, params, [X[b:b + 1, t] for t in range(spec.seq_len)])
        assert one.shape == (1,) and abs(batch_pred[b] - one[0]) < 1e-12


def test_stacked_predictions_invariant_under_location_permutation():
    spec = ModelSpec(kind="stacked", locations=4, vars_per_location=3, n1=8, n2=4, seq_len=5)
    rng = np.random.default_rng(2)
    params = random_model_params(spec, rng)
    window = random_window(spec, rng, 3)
    pred, _ = model_forward(spec, params, window)

    perm = np.array([2, 0, 3, 1])
    m = spec.vars_per_location
    col_perm = np.concatenate([np.arange(k * m, (k + 1) * m) for k in perm])
    permuted = params.copy()
    for name in ("W_xi", "W_xf", "W_xc", "W_xo"):
        arr = getattr(permuted.layer1[0], name)
        arr[...] = arr[:, col_perm]
    window_perm = [x[:, col_perm] for x in window]
    pred_perm, _ = model_forward(spec, permuted, window_perm)
    assert np.max(np.abs(pred - pred_perm)) < 1e-12


def test_layer1_layout_lives_in_the_spec():
    st = ModelSpec(kind="st_stacked", locations=5, vars_per_location=3, n1=20, n2=8)
    stacked = ModelSpec(kind="stacked", locations=5, vars_per_location=3, n1=20, n2=8)
    assert (st.loc_cells, st.loc_inputs, st.loc_neurons) == (5, 3, 4)
    assert (stacked.loc_cells, stacked.loc_inputs, stacked.loc_neurons) == (1, 15, 20)
    for spec in (st, stacked):
        cells = init_model_params(spec, np.random.default_rng(0)).layer1
        assert len(cells) == spec.loc_cells
        assert all((c.n, c.d) == (spec.loc_neurons, spec.loc_inputs) for c in cells)


def test_params_are_validated_where_a_model_comes_in():
    spec = ModelSpec(kind="st_stacked", locations=2, vars_per_location=2, n1=4, n2=3, seq_len=3)
    X = np.zeros((2, spec.seq_len, spec.input_dim))
    for wrong in (ModelSpec(kind="st_stacked", locations=2, vars_per_location=2, n1=6, n2=3),
                  ModelSpec(kind="stacked", locations=2, vars_per_location=2, n1=4, n2=3),
                  ModelSpec(kind="st_stacked", locations=2, vars_per_location=2, n1=4, n2=5)):
        params = zero_model_params(wrong)
        with pytest.raises(ShapeError):
            predict_batch(spec, params, X)
        with pytest.raises(ShapeError):
            block_diagonal_embed(spec, params)
    # a model built from loose cells checks its head too
    params = zero_model_params(spec)
    with pytest.raises(ShapeError, match=r"w_dense has shape \(4,\), expected \(3,\)"):
        ModelParams(params.layer1, params.layer2, np.zeros(4), params.b_dense)
    with pytest.raises(ShapeError, match=r"b_dense has shape \(\), expected \(1,\)"):
        ModelParams(params.layer1, params.layer2, params.w_dense, np.float64(0.0))


# ---------------------------------------------------------------------------
# block-diagonal equivalence

def test_embed_single_location_is_identity():
    spec = ModelSpec(kind="st_stacked", locations=1, vars_per_location=3, n1=5, n2=4, seq_len=3)
    rng = np.random.default_rng(3)
    params = random_model_params(spec, rng)
    out_spec, out_params = block_diagonal_embed(spec, params)
    assert out_spec.kind == "stacked"
    for (name_a, a), (name_b, b) in zip(params.layer1[0].tensors(),
                                        out_params.layer1[0].tensors()):
        assert name_a == name_b
        assert np.array_equal(a, b)


def test_embed_two_locations_zero_off_diagonal_blocks():
    spec = ModelSpec(kind="st_stacked", locations=2, vars_per_location=1, n1=2, n2=2, seq_len=2)
    params = zero_model_params(spec)
    for k in (0, 1):
        for _, arr in params.layer1[k].tensors():
            arr[...] = float(k + 1)
    _, out = block_diagonal_embed(spec, params)
    big = out.layer1[0]
    assert np.array_equal(big.W_xi, [[1.0, 0.0], [0.0, 2.0]])
    assert np.array_equal(big.W_hf, [[1.0, 0.0], [0.0, 2.0]])
    assert np.array_equal(big.w_co, [1.0, 2.0])
    assert np.array_equal(big.b_c, [1.0, 2.0])


def test_embed_requires_st_kind():
    spec = ModelSpec(kind="stacked", locations=2, vars_per_location=1, n1=2, n2=2)
    with pytest.raises(ConfigError):
        block_diagonal_embed(spec, zero_model_params(spec))


@pytest.mark.parametrize("act", ["tanh", "sigmoid"])
def test_embedded_model_matches_st_model(act):
    spec = ModelSpec(kind="st_stacked", locations=5, vars_per_location=3, n1=20, n2=8,
                     activation=act, seq_len=10)
    rng = np.random.default_rng(4)
    for _ in range(20):
        params = random_model_params(spec, rng)
        e_spec, e_params = block_diagonal_embed(spec, params)
        for _ in range(3):
            window = random_window(spec, rng)
            a, _ = model_forward(spec, params, window)
            b, _ = model_forward(e_spec, e_params, window)
            assert np.max(np.abs(a - b)) < 1e-12


# ---------------------------------------------------------------------------
# parameter counting

def test_param_count_matches_enumeration_on_sweep():
    rng = np.random.default_rng(5)
    checked = 0
    for c in (1, 2, 4, 5):
        for m in (1, 3, 18):
            for n1 in (c, 4 * c, 32 * c):
                n2 = int(rng.integers(1, 9))
                for kind in ("stacked", "st_stacked"):
                    spec = ModelSpec(kind=kind, locations=c, vars_per_location=m,
                                     n1=n1, n2=n2)
                    assert param_count(spec) == enumeration_count(spec)
                    checked += 1
    assert checked >= 20


def test_param_count_reference_values():
    stacked = ModelSpec(kind="stacked", locations=5, vars_per_location=18, n1=160, n2=64)
    st = ModelSpec(kind="st_stacked", locations=5, vars_per_location=18, n1=160, n2=64)
    # frozen after verifying both against enumeration_count
    assert param_count(stacked)["layer1"] == 161_120
    assert param_count(st)["layer1"] == 33_120


def test_param_count_single_location_degenerate():
    a = ModelSpec(kind="stacked", locations=1, vars_per_location=4, n1=6, n2=3)
    b = ModelSpec(kind="st_stacked", locations=1, vars_per_location=4, n1=6, n2=3)
    assert param_count(a) == param_count(b)


def test_st_total_smaller_whenever_multiple_locations():
    for c in (2, 3, 5, 8):
        for m in (1, 2, 6):
            for n1_mult in (1, 2, 10):
                n1 = c * n1_mult
                a = ModelSpec(kind="stacked", locations=c, vars_per_location=m, n1=n1, n2=4)
                b = ModelSpec(kind="st_stacked", locations=c, vars_per_location=m, n1=n1, n2=4)
                assert param_count(b)["total"] < param_count(a)["total"]


# ---------------------------------------------------------------------------
# backward

def test_zero_loss_gradient_gives_zero_parameter_gradients():
    spec = ModelSpec(kind="st_stacked", locations=2, vars_per_location=2, n1=4, n2=3, seq_len=4)
    rng = np.random.default_rng(6)
    params = random_model_params(spec, rng)
    _, trace = model_forward(spec, params, random_window(spec, rng, 3))
    grads = model_backward(spec, params, trace, np.zeros(3))
    for _, arr in grads.tensors():
        assert np.array_equal(arr, np.zeros_like(arr))


def test_head_bias_gradient_equals_loss_gradient():
    spec = ModelSpec(kind="stacked", locations=2, vars_per_location=2, n1=4, n2=3, seq_len=4)
    rng = np.random.default_rng(7)
    params = random_model_params(spec, rng)
    _, trace = model_forward(spec, params, random_window(spec, rng, 2))
    grads = model_backward(spec, params, trace, np.array([1.25, 2.0]))
    assert grads.b_dense[0] == 3.25  # the sum over the batch


@pytest.mark.parametrize("kind", ["stacked", "st_stacked"])
@pytest.mark.parametrize("act", ["tanh", "sigmoid"])
def test_model_gradients_match_finite_differences(kind, act):
    spec = ModelSpec(kind=kind, locations=2, vars_per_location=2, n1=4, n2=3,
                     activation=act, seq_len=3)
    report = gradcheck(spec, seed=42, l2_lambda=0.01)
    assert report.max_rel_err < 1e-6, report.worst_param


def test_head_reads_only_the_final_hidden_state():
    spec = ModelSpec(kind="stacked", locations=2, vars_per_location=2, n1=4, n2=3, seq_len=5)
    rng = np.random.default_rng(8)
    params = random_model_params(spec, rng)
    window = random_window(spec, rng, 4)
    pred, trace = model_forward(spec, params, window)
    delta = rng.normal(size=spec.n2)
    shifted = params.copy()
    shifted.w_dense += delta
    pred_shifted, _ = model_forward(spec, shifted, window)
    # each prediction moves exactly by delta . h_final: no other path exists
    assert np.max(np.abs((pred_shifted - pred) - trace.final_hidden @ delta)) < 1e-12


def test_is_penalized_excludes_biases():
    assert is_penalized("layer1.W_xi")
    assert is_penalized("layer1.loc3.w_co")
    assert is_penalized("head.w_dense")
    assert not is_penalized("layer1.b_f")
    assert not is_penalized("layer2.b_c")
    assert not is_penalized("head.b_dense")


def test_init_draws_are_deterministic_per_seed():
    spec = ModelSpec(kind="st_stacked", locations=2, vars_per_location=3, n1=4, n2=3)
    a = init_model_params(spec, np.random.default_rng(9))
    b = init_model_params(spec, np.random.default_rng(9))
    for (_, x), (_, y) in zip(a.tensors(), b.tensors()):
        assert np.array_equal(x, y)


@pytest.mark.parametrize("kind", ["stacked", "st_stacked"])
def test_forget_bias_init_sets_every_forget_bias_and_nothing_else(kind):
    spec = ModelSpec(kind=kind, locations=2, vars_per_location=3, n1=4, n2=3)
    plain = init_model_params(spec, np.random.default_rng(9))
    raised = init_model_params(spec, np.random.default_rng(9), forget_bias_init=True)
    forget_biases = 0
    for (name, x), (_, y) in zip(plain.tensors(), raised.tensors()):
        if name.endswith(".b_f"):
            forget_biases += 1
            assert np.all(y == 1.0), name
        else:
            assert np.array_equal(x, y), name
    assert forget_biases == spec.loc_cells + 1  # every layer-1 cell and layer 2


def test_spec_validation():
    with pytest.raises(ConfigError):
        ModelSpec(kind="st_stacked", locations=3, vars_per_location=1, n1=7, n2=2).validate()
    with pytest.raises(ConfigError):
        ModelSpec(kind="other", locations=1, vars_per_location=1, n1=2, n2=2).validate()
    with pytest.raises(ConfigError):
        ModelSpec(kind="stacked", locations=0, vars_per_location=1, n1=2, n2=2).validate()
