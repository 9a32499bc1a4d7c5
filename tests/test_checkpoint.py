import numpy as np
import pytest

from stlstm import ModelSpec, load_checkpoint, model_forward, random_model_params, save_checkpoint
from stlstm.errors import (
    CheckpointFormatError,
    CheckpointShapeError,
    CheckpointVersionError,
    NonFiniteModelError,
    StlstmError,
)


@pytest.fixture
def st_model():
    spec = ModelSpec(kind="st_stacked", locations=3, vars_per_location=2, n1=6, n2=4,
                     activation="sigmoid", seq_len=4, horizon=2)
    params = random_model_params(spec, np.random.default_rng(0))
    return spec, params


def test_round_trip_is_bit_exact(tmp_path, st_model):
    spec, params = st_model
    path = tmp_path / "model.ckpt"
    save_checkpoint(spec, params, path)
    spec2, params2 = load_checkpoint(path)
    assert spec2 == spec
    for (name_a, a), (name_b, b) in zip(params.tensors(), params2.tensors()):
        assert name_a == name_b
        assert np.array_equal(a, b)


def test_save_load_save_is_byte_identical(tmp_path, st_model):
    spec, params = st_model
    first = tmp_path / "a.ckpt"
    second = tmp_path / "b.ckpt"
    save_checkpoint(spec, params, first)
    save_checkpoint(*load_checkpoint(first), second)
    assert first.read_bytes() == second.read_bytes()


def test_round_tripped_model_predicts_identically(tmp_path, st_model):
    spec, params = st_model
    path = tmp_path / "model.ckpt"
    save_checkpoint(spec, params, path)
    spec2, params2 = load_checkpoint(path)
    rng = np.random.default_rng(1)
    window = [rng.normal(size=spec.input_dim) for _ in range(spec.seq_len)]
    a, _ = model_forward(spec, params, window)
    b, _ = model_forward(spec2, params2, window)
    assert a == b


def test_location_cells_are_named_in_manifest_order(tmp_path, st_model):
    spec, params = st_model
    path = tmp_path / "model.ckpt"
    save_checkpoint(spec, params, path)
    text = path.read_text()
    pos = [text.index(f"layer1.loc{k}.W_xi ") for k in range(3)]
    assert pos == sorted(pos)
    assert "layer2.W_xi 4 6" in text
    assert "head.b_dense 1 1" in text


def test_truncated_file_is_a_parse_error(tmp_path, st_model):
    spec, params = st_model
    path = tmp_path / "model.ckpt"
    save_checkpoint(spec, params, path)
    lines = path.read_text().splitlines()
    for cut in (1, 2, 10, len(lines) - 5):
        trimmed = tmp_path / "trimmed.ckpt"
        trimmed.write_text("\n".join(lines[:cut]) + "\n")
        with pytest.raises(CheckpointFormatError):
            load_checkpoint(trimmed)


def test_unknown_version_is_a_version_error(tmp_path, st_model):
    spec, params = st_model
    path = tmp_path / "model.ckpt"
    save_checkpoint(spec, params, path)
    lines = path.read_text().splitlines()
    lines[0] = "stlstm-checkpoint v9"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(CheckpointVersionError):
        load_checkpoint(path)


def test_not_a_checkpoint_at_all(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_text("hello\nworld\n")
    with pytest.raises(CheckpointFormatError):
        load_checkpoint(path)


def test_shape_corruption_is_a_shape_error(tmp_path, st_model):
    spec, params = st_model
    path = tmp_path / "model.ckpt"
    save_checkpoint(spec, params, path)
    lines = path.read_text().splitlines()
    idx = next(i for i, line in enumerate(lines) if line.startswith("layer1.loc0.W_xi "))
    lines[idx] = "layer1.loc0.W_xi 6 3"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(CheckpointShapeError):
        load_checkpoint(path)


def test_out_of_order_tensor_is_a_shape_error(tmp_path, st_model):
    spec, params = st_model
    path = tmp_path / "model.ckpt"
    save_checkpoint(spec, params, path)
    lines = path.read_text().splitlines()
    idx = next(i for i, line in enumerate(lines) if line.startswith("layer1.loc0.W_xi "))
    lines[idx] = "layer1.loc0.W_hi 6 2"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(CheckpointShapeError):
        load_checkpoint(path)


def test_bad_value_is_a_parse_error(tmp_path, st_model):
    spec, params = st_model
    path = tmp_path / "model.ckpt"
    save_checkpoint(spec, params, path)
    lines = path.read_text().splitlines()
    lines[3] = "not-a-number"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(CheckpointFormatError):
        load_checkpoint(path)


@pytest.mark.parametrize("token", ["nan", "inf", "-inf", "1e999"])
def test_non_finite_value_is_a_parse_error(tmp_path, st_model, token):
    spec, params = st_model
    path = tmp_path / "model.ckpt"
    save_checkpoint(spec, params, path)
    lines = path.read_text().splitlines()
    idx = next(i for i, line in enumerate(lines) if line.startswith("layer2.b_f "))
    lines[idx + 2] = token
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(CheckpointFormatError, match=f"{path}:{idx + 3}: .*layer2.b_f"):
        load_checkpoint(path)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_a_non_finite_model_is_refused_before_any_file_is_written(tmp_path, st_model, value):
    spec, params = st_model
    params.w_dense[1] = value
    path = tmp_path / "model.ckpt"
    with pytest.raises(NonFiniteModelError,
                       match=rf"non-finite value {value!r} at flat index 1 of tensor head\.w_dense"):
        save_checkpoint(spec, params, path)
    assert issubclass(NonFiniteModelError, StlstmError)
    assert list(tmp_path.iterdir()) == []


def test_spec_larger_than_the_file_fails_before_allocating(tmp_path, st_model):
    spec, params = st_model
    path = tmp_path / "model.ckpt"
    save_checkpoint(spec, params, path)
    lines = path.read_text().splitlines()
    lines[1] = lines[1].replace("n1=6", "n1=3000000000").replace("locations=3", "locations=1")
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(CheckpointFormatError, match="truncated"):
        load_checkpoint(path)


# Files saved by the per-tensor implementation that preceded the packed
# parameter buffer, with that implementation's predictions on
# default_rng(1).normal(size=(3, 4, 4)).
V1_FILES = {
    "stacked": [-0.17556556474877327, -0.15869294854132276, -0.17250091688355493],
    "st_stacked": [0.13451630796982395, 0.1321119188359257, 0.13243591634863988],
}


@pytest.mark.parametrize("kind", sorted(V1_FILES))
def test_a_v1_file_from_before_packing_loads_predicts_and_resaves_identically(tmp_path, kind):
    from pathlib import Path

    from stlstm.train import predict_batch

    path = Path(__file__).parent / "data" / f"v1_{kind}.ckpt"
    spec, params = load_checkpoint(path)
    X = np.random.default_rng(1).normal(size=(3, 4, 4))
    assert np.max(np.abs(predict_batch(spec, params, X) - V1_FILES[kind])) < 1e-12
    save_checkpoint(spec, params, tmp_path / "again.ckpt")
    assert (tmp_path / "again.ckpt").read_bytes() == path.read_bytes()
