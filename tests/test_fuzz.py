"""Property-based fuzzing of the text parsers.

Every generated config file or checkpoint must either load or raise a
``StlstmError`` (which the CLI maps to exit code 2); any other
exception is a hole in the exit-code contract. Runs are derandomized
so the suite stays deterministic.
"""

from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stlstm import ModelSpec, StlstmError, load_checkpoint, random_model_params, save_checkpoint
from stlstm.cli import _SPEC_KEYS, _coerce, read_config_file
from stlstm.train import TrainConfig

FUZZ = settings(max_examples=200, deadline=None, derandomize=True, database=None)

CONFIG_KEYS = sorted({f.name for f in fields(TrainConfig)} | set(_SPEC_KEYS))
TRICKY = ["", "true", "off", "nan", "-inf", "1e999", "0x10", "1_000", "3.5", "-1",
          "9" * 5000, "stacked", "tanh", "adam", "# c", "a = b"]

value_text = st.one_of(st.sampled_from(TRICKY), st.integers().map(str),
                       st.floats().map(repr), st.text(max_size=12))
config_line = st.one_of(
    st.builds(lambda key, pad, value: f"{key}{pad}={pad}{value}",
              st.sampled_from(CONFIG_KEYS), st.sampled_from(["", " ", "\t"]), value_text),
    st.text(max_size=30),
)
config_bytes = st.one_of(st.lists(config_line, max_size=8).map(lambda ls: "\n".join(ls).encode()),
                         st.binary(max_size=200))


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@FUZZ
@given(raw=config_bytes)
def test_config_file_loads_or_raises_stlstm_error(scratch, raw):
    path = scratch / "fuzz.cfg"
    path.write_bytes(raw)
    try:
        for key, value in read_config_file(path).items():
            _coerce(key, value)
    except StlstmError:
        pass


def _valid_checkpoint_lines(tmp_dir) -> list[str]:
    spec = ModelSpec(kind="st_stacked", locations=2, vars_per_location=1, n1=2, n2=1,
                     seq_len=1, horizon=1)
    path = tmp_dir / "valid.ckpt"
    save_checkpoint(spec, random_model_params(spec, np.random.default_rng(0)), path)
    return path.read_text().splitlines()


spec_int = st.one_of(st.integers(-1, 6), st.integers(-1, 10**12)).map(str)
spec_line = st.builds(
    lambda kind, ints, act: (f"kind={kind} locations={ints[0]} vars_per_location={ints[1]} "
                             f"n1={ints[2]} n2={ints[3]} activation={act} "
                             f"seq_len={ints[4]} horizon={ints[5]}"),
    st.sampled_from(["stacked", "st_stacked", "other"]),
    st.lists(spec_int, min_size=6, max_size=6),
    st.sampled_from(["tanh", "sigmoid", "relu"]),
)
replacement = st.one_of(spec_line, st.sampled_from(["nan", "inf", "-1e999", "1e-320", "",
                                                    "layer1.loc0.W_xi 1 1", "head.b_dense 1 1"]),
                        st.floats().map(repr), st.text(max_size=20))
edit = st.tuples(st.sampled_from(["replace", "insert", "delete", "truncate"]),
                 st.integers(0, 200), replacement)


@FUZZ
@given(edits=st.lists(edit, max_size=4), raw=st.one_of(st.none(), st.binary(max_size=200)))
def test_checkpoint_loads_or_raises_stlstm_error(scratch, edits, raw):
    path = scratch / "fuzz.ckpt"
    if raw is not None:
        path.write_bytes(raw)
    else:
        lines = _valid_checkpoint_lines(scratch)
        for op, pos, text in edits:
            pos %= len(lines) + 1
            if op == "replace" and pos < len(lines):
                lines[pos] = text
            elif op == "insert":
                lines.insert(pos, text)
            elif op == "delete" and pos < len(lines):
                del lines[pos]
            elif op == "truncate":
                lines = lines[:pos]
        path.write_text("\n".join(lines) + "\n")
    try:
        _, params = load_checkpoint(path)
    except StlstmError:
        return
    assert all(np.all(np.isfinite(arr)) for _, arr in params.tensors())
