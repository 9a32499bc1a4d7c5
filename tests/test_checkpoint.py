import zlib
from pathlib import Path

import numpy as np
import pytest
from ckpt_files import join_v2, split_v2

from stlstm import ModelSpec, load_checkpoint, model_forward, random_model_params, save_checkpoint
from stlstm.errors import (
    CheckpointFormatError,
    CheckpointShapeError,
    CheckpointVersionError,
    NonFiniteModelError,
    StlstmError,
)

DATA = Path(__file__).parent / "data"


@pytest.fixture
def st_model():
    spec = ModelSpec(kind="st_stacked", locations=3, vars_per_location=2, n1=6, n2=4,
                     activation="sigmoid", seq_len=4, horizon=2)
    params = random_model_params(spec, np.random.default_rng(0))
    return spec, params


@pytest.fixture
def v2_path(tmp_path, st_model):
    path = tmp_path / "model.ckpt"
    save_checkpoint(*st_model, path)
    return path


def assert_same_model(a, b):
    for (name_a, x), (name_b, y) in zip(a.tensors(), b.tensors()):
        assert name_a == name_b
        assert np.array_equal(x, y)


def test_round_trip_is_bit_exact(v2_path, st_model):
    spec, params = st_model
    spec2, params2 = load_checkpoint(v2_path)
    assert spec2 == spec
    assert_same_model(params, params2)


def test_save_load_save_is_byte_identical(tmp_path, v2_path):
    second = tmp_path / "b.ckpt"
    save_checkpoint(*load_checkpoint(v2_path), second)
    assert v2_path.read_bytes() == second.read_bytes()


def test_round_tripped_model_predicts_identically(v2_path, st_model):
    spec, params = st_model
    spec2, params2 = load_checkpoint(v2_path)
    rng = np.random.default_rng(1)
    window = [rng.normal(size=(1, spec.input_dim)) for _ in range(spec.seq_len)]
    a, _ = model_forward(spec, params, window)
    b, _ = model_forward(spec2, params2, window)
    assert np.array_equal(a, b)


def test_v2_layout_is_header_lines_then_little_endian_values(v2_path, st_model):
    spec, params = st_model
    head, values = split_v2(v2_path.read_bytes())
    lines = head.decode("ascii").splitlines()
    assert lines[0] == "stlstm-checkpoint v2"
    assert [line.split()[0] for line in lines[2:]] == [name for name, _ in params.tensors()]
    want = np.concatenate([arr.ravel() for _, arr in params.tensors()]).astype("<f8").tobytes()
    assert values == want
    values_line = v2_path.read_bytes()[len(head):-len(values)]
    assert values_line == f"values {len(want)} {zlib.crc32(want):08x}\n".encode()


def test_location_cells_are_named_in_manifest_order(v2_path):
    head, _ = split_v2(v2_path.read_bytes())
    pos = [head.index(f"layer1.loc{k}.W_xi ".encode()) for k in range(3)]
    assert pos == sorted(pos)
    assert b"\nlayer2.W_xi 4 6\n" in head
    assert head.endswith(b"\nhead.b_dense 1 1\n")


def test_a_failed_save_leaves_no_temp_file(tmp_path, st_model):
    target = tmp_path / "m.ckpt"
    target.mkdir()
    with pytest.raises(OSError):
        save_checkpoint(*st_model, target)
    assert [p.name for p in tmp_path.iterdir()] == ["m.ckpt"]
    assert target.is_dir() and list(target.iterdir()) == []


def test_not_a_checkpoint_at_all(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_text("hello\nworld\n")
    with pytest.raises(CheckpointFormatError):
        load_checkpoint(path)


# a file in the v1 text format, and first lines that are not UTF-8 or empty
V1_REST = (b"\nkind=stacked locations=1 vars_per_location=1 n1=1 n2=1 activation=tanh "
           b"seq_len=1 horizon=1\nlayer1.W_xi 4 1\n0.5\n")


@pytest.mark.parametrize("first, error, message", [
    (b"stlstm-checkpoint v1", CheckpointVersionError,
     "unsupported checkpoint version 'stlstm-checkpoint v1', only 'stlstm-checkpoint v2' is read"),
    (b"stlstm-checkpoint v\xff", CheckpointVersionError, "only 'stlstm-checkpoint v2' is read"),
    (b"\xff\xfe", CheckpointFormatError, "not a checkpoint"),
    (b"", CheckpointFormatError, "not a checkpoint"),
], ids=["v1", "v-not-utf8", "not-utf8", "empty"])
def test_a_first_line_other_than_v2s_is_refused(tmp_path, first, error, message):
    path = tmp_path / "old.ckpt"
    path.write_bytes(first + V1_REST)
    with pytest.raises(error, match=message):
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


# ---------------------------------------------------------------------------
# Damaged files: each names its error class, and its line where it has one

def edit_header(path, old: bytes, new: bytes) -> None:
    head, _ = split_v2(path.read_bytes())
    assert head.count(old) == 1
    path.write_bytes(head.replace(old, new) + path.read_bytes()[len(head):])


def test_v2_truncated_file_is_a_parse_error(tmp_path, v2_path):
    raw = v2_path.read_bytes()
    _, values = split_v2(raw)
    line_ends = [i + 1 for i, byte in enumerate(raw[:-len(values)]) if byte == ord("\n")]
    cuts = line_ends + [len(raw) - len(values) + k for k in (1, 8, len(values) // 2)]
    cuts.append(len(raw) - 1)
    for cut in cuts:
        trimmed = tmp_path / "trimmed.ckpt"
        trimmed.write_bytes(raw[:cut])
        with pytest.raises(CheckpointFormatError, match="truncated"):
            load_checkpoint(trimmed)


def test_v2_unknown_version_is_a_version_error(v2_path):
    raw = v2_path.read_bytes()
    v2_path.write_bytes(raw.replace(b"stlstm-checkpoint v2", b"stlstm-checkpoint v9", 1))
    with pytest.raises(CheckpointVersionError, match="unsupported checkpoint version"):
        load_checkpoint(v2_path)


def test_v2_shape_corruption_is_a_shape_error(v2_path):
    edit_header(v2_path, b"layer1.loc0.W_xi 2 2\n", b"layer1.loc0.W_xi 2 3\n")
    with pytest.raises(CheckpointShapeError, match=f"{v2_path}:3: tensor layer1.loc0.W_xi is 2x3"):
        load_checkpoint(v2_path)


def test_v2_out_of_order_tensor_is_a_shape_error(v2_path):
    edit_header(v2_path, b"layer1.loc0.W_xi ", b"layer1.loc0.W_hi ")
    with pytest.raises(CheckpointShapeError, match=f"{v2_path}:3: .* out of order"):
        load_checkpoint(v2_path)


@pytest.mark.parametrize("new, message", [
    (b"layer1.loc0.W_xi 2\n", ":3: expected 'name rows cols'"),
    (b"layer1.loc0.W_xi x 2\n", ":3: bad tensor header"),
    (b"layer1.loc0.W_x\xc3\xad 2 2\n", ":3: header line is not ASCII"),
], ids=["two-fields", "rows-not-a-number", "not-ascii"])
def test_v2_malformed_tensor_header_is_a_parse_error(v2_path, new, message):
    edit_header(v2_path, b"layer1.loc0.W_xi 2 2\n", new)
    with pytest.raises(CheckpointFormatError, match=f"{v2_path}{message}"):
        load_checkpoint(v2_path)


@pytest.mark.parametrize("new, message", [
    (b" n1 6 ", "bad spec token 'n1'"),
    (b" ", r"spec line is missing \['n1'\]"),
    (b" n1=6 depth=2 ", r"spec line has unknown keys \['depth'\]"),
    (b" n1=7 ", "checkpoint spec is invalid"),
], ids=["token-without-equals", "missing-key", "unknown-key", "invalid-spec"])
def test_v2_malformed_spec_line_is_a_parse_error(v2_path, new, message):
    edit_header(v2_path, b" n1=6 ", new)
    with pytest.raises(CheckpointFormatError, match=message):
        load_checkpoint(v2_path)


@pytest.mark.parametrize("line", [b"values 1 00000000", b"values x 00000000",
                                  b"values 1 0000000g", b"values 1 000000000", b"value 1 0",
                                  b"values -8 00000000", b"values 9" + b"9" * 5000 + b" 0"],
                         ids=["wrong-count", "count-not-a-number", "crc-not-hex", "crc-9-digits",
                              "not-values", "negative-count", "5001-digit-count"])
def test_v2_bad_values_line_is_a_parse_error(v2_path, line):
    raw = v2_path.read_bytes()
    head, values = split_v2(raw)
    v2_path.write_bytes(head + line + b"\n" + values)
    with pytest.raises(CheckpointFormatError, match=f"{v2_path}:"):
        load_checkpoint(v2_path)


def test_v2_one_flipped_value_bit_fails_the_crc(v2_path):
    raw = bytearray(v2_path.read_bytes())
    _, values = split_v2(bytes(raw))
    for bit in (0, 8 * len(values) // 2 + 3, 8 * len(values) - 1):
        flipped = bytearray(raw)
        flipped[len(raw) - len(values) + bit // 8] ^= 1 << (bit % 8)
        v2_path.write_bytes(bytes(flipped))
        with pytest.raises(CheckpointFormatError, match="CRC-32"):
            load_checkpoint(v2_path)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_v2_non_finite_value_names_its_tensor_and_index(v2_path, st_model, value):
    _, params = st_model
    head, values = split_v2(v2_path.read_bytes())
    tensors = list(params.tensors())
    before = [name for name, _ in tensors].index("layer2.b_f")
    start = sum(arr.size for _, arr in tensors[:before])
    patched = bytearray(values)
    patched[8 * (start + 1):8 * (start + 2)] = np.array(value, dtype="<f8").tobytes()
    v2_path.write_bytes(join_v2(head, bytes(patched)))
    with pytest.raises(CheckpointFormatError,
                       match=rf"{v2_path}: non-finite value {value!r} at flat index 1 of tensor "
                             r"layer2\.b_f"):
        load_checkpoint(v2_path)


@pytest.mark.parametrize("extra", [b"\n", b"\0", b"x" * 9])
def test_v2_trailing_bytes_are_a_parse_error(v2_path, extra):
    v2_path.write_bytes(v2_path.read_bytes() + extra)
    with pytest.raises(CheckpointFormatError, match=f"trailing data: {len(extra)} bytes"):
        load_checkpoint(v2_path)


def test_v2_spec_larger_than_the_file_fails_before_allocating(v2_path):
    edit_header(v2_path, b" n1=6 ", b" n1=3000000000 ")
    with pytest.raises(CheckpointFormatError, match=r":\d+: the spec implies \d+ value bytes"):
        load_checkpoint(v2_path)


def test_v2_spec_with_fewer_tensors_than_the_header_is_a_parse_error(v2_path):
    edit_header(v2_path, b" locations=3 ", b" locations=1 ")
    with pytest.raises(CheckpointFormatError, match="expected 'values"):
        load_checkpoint(v2_path)


# Models saved by the per-tensor implementation that preceded the packed
# parameter buffer, with that implementation's predictions on
# default_rng(1).normal(size=(3, 4, 4)). That implementation wrote them in
# the v1 text format; v2_<kind>.ckpt is each one loaded and saved again.
BEFORE_PACKING = {
    "stacked": [-0.17556556474877327, -0.15869294854132276, -0.17250091688355493],
    "st_stacked": [0.13451630796982395, 0.1321119188359257, 0.13243591634863988],
}


@pytest.mark.parametrize("kind", sorted(BEFORE_PACKING))
def test_a_file_from_before_packing_loads_predicts_and_resaves_identically(tmp_path, kind):
    from stlstm.train import predict_batch

    path = DATA / f"v2_{kind}.ckpt"
    spec, params = load_checkpoint(path)
    X = np.random.default_rng(1).normal(size=(3, 4, 4))
    assert np.max(np.abs(predict_batch(spec, params, X) - BEFORE_PACKING[kind])) < 1e-12
    save_checkpoint(spec, params, tmp_path / "again.ckpt")
    assert (tmp_path / "again.ckpt").read_bytes() == path.read_bytes()
