import errno
import os
import sys
import zlib
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from ckpt_files import join_v3, split_v3

from stlstm import ModelSpec, load_checkpoint, model_forward, random_model_params, save_checkpoint
from stlstm.errors import (
    CheckpointFormatError,
    CheckpointVersionError,
    NonFiniteModelError,
    ShapeError,
    StlstmError,
    write_file,
)

DATA = Path(__file__).parent / "data"


@pytest.fixture
def st_model():
    spec = ModelSpec(kind="st_stacked", locations=3, vars_per_location=2, n1=6, n2=4,
                     activation="sigmoid", seq_len=4, horizon=2)
    params = random_model_params(spec, np.random.default_rng(0))
    return spec, params


@pytest.fixture
def v3_path(tmp_path, st_model):
    path = tmp_path / "model.ckpt"
    save_checkpoint(*st_model, path)
    return path


def assert_same_model(a, b):
    for (name_a, x), (name_b, y) in zip(a.tensors(), b.tensors()):
        assert name_a == name_b
        assert np.array_equal(x, y)


def test_round_trip_is_bit_exact(v3_path, st_model):
    spec, params = st_model
    spec2, params2 = load_checkpoint(v3_path)
    assert spec2 == spec
    assert_same_model(params, params2)


def test_save_load_save_is_byte_identical(tmp_path, v3_path):
    second = tmp_path / "b.ckpt"
    save_checkpoint(*load_checkpoint(v3_path), second)
    assert v3_path.read_bytes() == second.read_bytes()


def test_round_tripped_model_predicts_identically(v3_path, st_model):
    spec, params = st_model
    spec2, params2 = load_checkpoint(v3_path)
    rng = np.random.default_rng(1)
    window = [rng.normal(size=(1, spec.input_dim)) for _ in range(spec.seq_len)]
    a, _ = model_forward(spec, params, window)
    b, _ = model_forward(spec2, params2, window)
    assert np.array_equal(a, b)


def test_v3_layout_is_three_lines_then_the_flat_buffer(v3_path, st_model):
    spec, params = st_model
    raw = v3_path.read_bytes()
    head, values = split_v3(raw)
    assert head.decode("ascii").splitlines() == [
        "stlstm-checkpoint v3",
        "kind=st_stacked locations=3 vars_per_location=2 n1=6 n2=4 activation=sigmoid "
        "seq_len=4 horizon=2"]
    assert values == params.flat.astype("<f8").tobytes()
    # one CRC-32 over every byte before the values line, then the values
    crc = zlib.crc32(values, zlib.crc32(head))
    assert raw[len(head):-len(values)] == f"values {len(values)} {crc:08x}\n".encode()


def test_location_cells_are_named_in_manifest_order(st_model):
    # the names a non-finite value is reported under, on save and on load
    _, params = st_model
    tensors = dict(params.tensors())
    assert [name for name in tensors if name.endswith(".W_xi")] == [
        "layer1.loc0.W_xi", "layer1.loc1.W_xi", "layer1.loc2.W_xi", "layer2.W_xi"]
    assert list(tensors)[-1] == "head.b_dense"
    for k in range(3):
        assert np.shares_memory(tensors[f"layer1.loc{k}.W_xi"], params.l1.Wx[k])


def test_a_failed_save_leaves_no_temp_file(tmp_path, st_model):
    target = tmp_path / "m.ckpt"
    target.mkdir()
    with pytest.raises(OSError):
        save_checkpoint(*st_model, target)
    assert [p.name for p in tmp_path.iterdir()] == ["m.ckpt"]
    assert target.is_dir() and list(target.iterdir()) == []


def no_rename(src, dst):
    raise OSError(errno.EXDEV, "Invalid cross-device link")


def test_a_save_that_fails_after_its_write_leaves_the_earlier_file(tmp_path, st_model,
                                                                   monkeypatch):
    target = tmp_path / "m.ckpt"
    target.write_bytes(b"earlier")
    monkeypatch.setattr(os, "replace", no_rename)
    with pytest.raises(OSError, match="cross-device") as info:
        save_checkpoint(*st_model, target)
    assert info.value.filename == str(target)
    assert [p.name for p in tmp_path.iterdir()] == ["m.ckpt"]
    assert target.read_bytes() == b"earlier"


def test_a_temp_file_that_cannot_be_removed_keeps_the_first_error(tmp_path, monkeypatch):
    def no_remove(path):
        raise PermissionError(errno.EACCES, "Permission denied", path)

    monkeypatch.setattr(os, "replace", no_rename)
    monkeypatch.setattr(os, "remove", no_remove)
    with pytest.raises(OSError, match="cross-device") as info:
        write_file(tmp_path / "out.csv", "a,b\n")
    assert info.value.filename == str(tmp_path / "out.csv")
    assert (tmp_path / "out.csv.tmp").read_text() == "a,b\n"


def test_a_write_interrupted_between_chunks_leaves_no_file(tmp_path):
    target = tmp_path / "out.csv"
    with pytest.raises(TypeError):
        write_file(target, "header\n", 7)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("fd", [1, 2], ids=["stdout", "stderr"])
def test_a_path_naming_the_file_behind_stdout_or_stderr_is_written_after_its_lines(
        tmp_path, monkeypatch, fd):
    target = tmp_path / "out.txt"
    saved = os.dup(fd)
    try:
        with open(target, "wb") as fh:
            os.dup2(fh.fileno(), fd)
        # a block-buffered stream on that descriptor, as a redirected stdout is
        stream = open(fd, "w", closefd=False)
        monkeypatch.setattr(sys, ("stdout", "stderr")[fd - 1], stream)
        print("banner", file=stream)
        write_file(target, "a,b\n", b"1,2\n")
        print("wrote", file=stream)
        stream.close()  # flushes; the descriptor stays open
    finally:
        os.dup2(saved, fd)
        os.close(saved)
    assert target.read_bytes() == b"banner\na,b\n1,2\nwrote\n"
    assert list(tmp_path.iterdir()) == [target]


def test_not_a_checkpoint_at_all(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_text("hello\nworld\n")
    with pytest.raises(CheckpointFormatError):
        load_checkpoint(path)


# the rest of a file in the v1 text format, behind its own and other first lines
V1_REST = (b"\nkind=stacked locations=1 vars_per_location=1 n1=1 n2=1 activation=tanh "
           b"seq_len=1 horizon=1\nlayer1.W_xi 4 1\n0.5\n")


@pytest.mark.parametrize("first, error, message", [
    (b"stlstm-checkpoint v2", CheckpointVersionError,
     "unsupported checkpoint version 'stlstm-checkpoint v2', only 'stlstm-checkpoint v3' is read"),
    (b"stlstm-checkpoint v1", CheckpointVersionError,
     "unsupported checkpoint version 'stlstm-checkpoint v1', only 'stlstm-checkpoint v3' is read"),
    (b"stlstm-checkpoint v\xff", CheckpointVersionError, "only 'stlstm-checkpoint v3' is read"),
    (b"\xff\xfe", CheckpointFormatError, "not a checkpoint"),
    (b"", CheckpointFormatError, "not a checkpoint"),
], ids=["v2", "v1", "v-not-utf8", "not-utf8", "empty"])
def test_a_first_line_other_than_v3s_is_refused(tmp_path, first, error, message):
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


@pytest.mark.parametrize("field, value, message", [
    ("n1", 3, r"layer-1 cells are \(2 x 2\), spec expects \(1 x 2\)"),
    ("locations", 1, r"spec expects 1 layer-1 cell\(s\), params carry 3"),
    ("n2", 5, r"layer-2 cell is \(4 x 6\), spec expects \(5 x 6\)"),
], ids=["n1", "locations", "n2"])
def test_a_model_that_does_not_match_its_spec_is_refused_before_any_file_is_written(
        tmp_path, st_model, field, value, message):
    spec, params = st_model
    with pytest.raises(ShapeError, match=message):
        save_checkpoint(replace(spec, **{field: value}), params, tmp_path / "model.ckpt")
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# Damaged files: each names its error class, and its line where it has one

def edit_header(path, old: bytes, new: bytes) -> None:
    """Replace ``old`` in the header with ``new`` under a CRC that covers the edit."""
    head, values = split_v3(path.read_bytes())
    assert head.count(old) == 1
    path.write_bytes(join_v3(head.replace(old, new), values))


def test_v3_truncated_file_is_a_parse_error(tmp_path, v3_path):
    raw = v3_path.read_bytes()
    _, values = split_v3(raw)
    line_ends = [i + 1 for i, byte in enumerate(raw[:-len(values)]) if byte == ord("\n")]
    cuts = [0, 5] + line_ends + [len(raw) - len(values) + k for k in (1, 8, len(values) // 2)]
    cuts.append(len(raw) - 1)
    for cut in cuts:
        trimmed = tmp_path / "trimmed.ckpt"
        trimmed.write_bytes(raw[:cut])
        with pytest.raises(CheckpointFormatError, match="truncated|not a checkpoint"):
            load_checkpoint(trimmed)


def test_v3_unknown_version_is_a_version_error(v3_path):
    raw = v3_path.read_bytes()
    v3_path.write_bytes(raw.replace(b"stlstm-checkpoint v3", b"stlstm-checkpoint v9", 1))
    with pytest.raises(CheckpointVersionError, match="unsupported checkpoint version"):
        load_checkpoint(v3_path)


# the edits that a CRC over the values alone let through (each loaded as another model)
HEADER_EDITS = {
    "activation": (b"activation=tanh", b"activation=sigmoid"),
    "horizon": (b"horizon=1", b"horizon=7"),
    "seq-len": (b"seq_len=4", b"seq_len=5"),
    "repeated-key": (b"horizon=1", b"horizon=1 horizon=2"),
}


@pytest.mark.parametrize("edit", sorted(HEADER_EDITS))
def test_an_edited_spec_line_fails_the_crc(tmp_path, edit):
    old, new = HEADER_EDITS[edit]
    raw = (DATA / "v3_stacked.ckpt").read_bytes()
    assert raw.count(old) == 1
    path = tmp_path / "edited.ckpt"
    path.write_bytes(raw.replace(old, new))
    with pytest.raises(CheckpointFormatError, match="fail their CRC-32 check"):
        load_checkpoint(path)


@pytest.mark.parametrize("new, message", [
    (b" n1 6 ", "bad spec token 'n1'"),
    (b" ", r"spec line is missing \['n1'\]"),
    (b" n1=6 depth=2 ", r"spec line has unknown keys \['depth'\]"),
    (b" n1=7 ", "checkpoint spec is invalid"),
    (b" n1=6 n1=6 ", "spec line repeats key 'n1'"),
    # an Arabic-Indic 6 in UTF-8, which int() would accept as text
    (b" n1=\xd9\xa6 ", "n1: expected an integer, got '\ufffd\ufffd'"),
], ids=["token-without-equals", "missing-key", "unknown-key", "invalid-spec", "repeated-key",
        "not-ascii"])
def test_v3_malformed_spec_line_under_a_valid_crc_is_a_parse_error(v3_path, new, message):
    edit_header(v3_path, b" n1=6 ", new)
    with pytest.raises(CheckpointFormatError, match=message):
        load_checkpoint(v3_path)


@pytest.mark.parametrize("line", [b"values 1 00000000", b"values x 00000000",
                                  b"values 1 0000000g", b"values 1 000000000", b"value 1 0",
                                  b"values -8 00000000", b"values 9" + b"9" * 5000 + b" 0",
                                  b"values 1 0000000A", b"values 1 00000000 "],
                         ids=["wrong-count", "count-not-a-number", "crc-not-hex", "crc-9-digits",
                              "not-values", "negative-count", "5001-digit-count",
                              "crc-upper-case", "trailing-space"])
def test_v3_bad_values_line_is_a_parse_error(v3_path, line):
    raw = v3_path.read_bytes()
    head, values = split_v3(raw)
    v3_path.write_bytes(head + line + b"\n" + values)
    with pytest.raises(CheckpointFormatError, match=f"{v3_path}:"):
        load_checkpoint(v3_path)


def test_v3_one_flipped_bit_in_the_spec_or_values_fails_the_crc(v3_path):
    raw = v3_path.read_bytes()
    head, values = split_v3(raw)
    spec_start = head.index(b"\n") + 1
    at_values = len(raw) - len(values)
    for bit in (8 * spec_start, 8 * (len(head) - 2) + 5, 8 * at_values,
                8 * at_values + 4 * len(values) + 3, 8 * len(raw) - 1):
        flipped = bytearray(raw)
        flipped[bit // 8] ^= 1 << (bit % 8)
        v3_path.write_bytes(bytes(flipped))
        with pytest.raises(CheckpointFormatError, match="CRC-32"):
            load_checkpoint(v3_path)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_v3_non_finite_value_names_its_tensor_and_index(v3_path, st_model, value):
    _, params = st_model
    patched = params.copy()
    patched.layer2.b_f[1] = value
    head, _ = split_v3(v3_path.read_bytes())
    v3_path.write_bytes(join_v3(head, patched.flat.astype("<f8").tobytes()))
    with pytest.raises(CheckpointFormatError,
                       match=rf"{v3_path}: non-finite value {value!r} at flat index 1 of tensor "
                             r"layer2\.b_f"):
        load_checkpoint(v3_path)


@pytest.mark.parametrize("extra", [b"\n", b"\0", b"x" * 9])
def test_v3_trailing_bytes_are_a_parse_error(v3_path, extra):
    v3_path.write_bytes(v3_path.read_bytes() + extra)
    with pytest.raises(CheckpointFormatError, match=f"trailing data: {len(extra)} bytes"):
        load_checkpoint(v3_path)


@pytest.mark.parametrize("old, new", [(b" n1=6 ", b" n1=3000000000 "),
                                      (b" locations=3 ", b" locations=1 ")],
                         ids=["larger", "smaller"])
def test_v3_spec_of_another_size_fails_before_allocating(v3_path, old, new):
    edit_header(v3_path, old, new)
    with pytest.raises(CheckpointFormatError, match=r":3: the spec implies \d+ value bytes"):
        load_checkpoint(v3_path)


# Models saved by the per-tensor implementation that preceded the packed
# parameter buffer, with that implementation's predictions on
# default_rng(1).normal(size=(3, 4, 4)). That implementation wrote them in
# the v1 text format; v3_<kind>.ckpt holds each one's values, bit for bit,
# in format v3.
BEFORE_PACKING = {
    "stacked": [-0.17556556474877327, -0.15869294854132276, -0.17250091688355493],
    "st_stacked": [0.13451630796982395, 0.1321119188359257, 0.13243591634863988],
}


@pytest.mark.parametrize("kind", sorted(BEFORE_PACKING))
def test_a_file_from_before_packing_loads_predicts_and_resaves_identically(tmp_path, kind):
    from stlstm.train import predict_batch

    path = DATA / f"v3_{kind}.ckpt"
    spec, params = load_checkpoint(path)
    X = np.random.default_rng(1).normal(size=(3, 4, 4))
    assert np.max(np.abs(predict_batch(spec, params, X) - BEFORE_PACKING[kind])) < 1e-12
    save_checkpoint(spec, params, tmp_path / "again.ckpt")
    assert (tmp_path / "again.ckpt").read_bytes() == path.read_bytes()
