"""Property-based fuzzing of the text parsers.

Every generated config file, checkpoint, manifest or location CSV must
either load or raise a ``StlstmError`` (which the CLI maps to exit
code 2); any other exception is a hole in the exit-code contract. Runs
are derandomized so the suite stays deterministic.
"""

from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stlstm import (
    ModelSpec,
    StlstmError,
    load_checkpoint,
    load_dataset,
    load_manifest,
    random_model_params,
    save_checkpoint,
)
from stlstm.cli import _coerce, read_config_file
from stlstm.train import TrainConfig

FUZZ = settings(max_examples=200, deadline=None, derandomize=True, database=None)

CONFIG_KEYS = sorted({f.name for f in fields(TrainConfig)} | {f.name for f in fields(ModelSpec)})
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


def _write_valid_dataset(tmp_dir) -> list[str]:
    """Two aligned location files; returns the manifest's lines."""
    for name, offset in (("a", 0.0), ("b", 5.0)):
        rows = [f"2020-01-{day:02d},{day + offset!r},{-day * 0.5!r}" for day in range(1, 9)]
        (tmp_dir / f"{name}.csv").write_text("\n".join(["date,temperature,humidity", *rows, ""]))
    return ["alpha,a.csv", "beta,b.csv", "target=alpha:temperature",
            "test_start=2020-01-07,test_end=2020-01-08"]


def _apply(lines: list[str], edits) -> list[str]:
    lines = list(lines)
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
    return lines


def _check_dataset_loads_or_raises(manifest_path, missing_policy="error") -> None:
    try:
        ds = load_dataset(load_manifest(manifest_path), missing_policy=missing_policy)
    except StlstmError:
        return
    for arr in (ds.values, ds.norm_mean, ds.norm_std):
        assert np.all(np.isfinite(arr))


manifest_line = st.one_of(
    st.sampled_from(["alpha,a.csv", "beta,b.csv", "gamma,a.csv", "alpha,b.csv", "alpha,",
                     ",a.csv", "alpha,missing.csv", "alpha,.", "alpha,a\0.csv", "# note",
                     "target=alpha:temperature", "target=beta:humidity", "target=alpha",
                     "target=gamma:temperature", "target=alpha:pressure",
                     "test_start=2020-01-07,test_end=2020-01-08",
                     "test_start=2020-01-08,test_end=2020-01-07",
                     "test_start=2020-01-01,test_end=2020-01-08",
                     "test_start=2019-12-31,test_end=2020-01-02",
                     "test_start=2020-01-07", "test_start=x,test_end=y", "=", ","]),
    st.text(max_size=30),
)
manifest_edit = st.tuples(st.sampled_from(["replace", "insert", "delete", "truncate"]),
                          st.integers(0, 10), manifest_line)


@FUZZ
@given(edits=st.lists(manifest_edit, max_size=4),
       raw=st.one_of(st.none(), st.binary(max_size=120)))
def test_manifest_loads_or_raises_stlstm_error(scratch, edits, raw):
    lines = _write_valid_dataset(scratch)
    path = scratch / "manifest.txt"
    if raw is not None:
        path.write_bytes(raw)
    else:
        path.write_text("\n".join(_apply(lines, edits)) + "\n")
    _check_dataset_loads_or_raises(path)


date_cell = st.one_of(
    st.sampled_from(["2020-01-01", "2020-01-09", "9999-12-31", "0001-01-01", "2020-02-30",
                     "2020-1-1", "date", ""]),
    st.dates().map(str),
)
csv_cell = st.one_of(
    st.sampled_from(["", "na", "nan", "inf", "-1e999", "1e308", "-1e308", "1e-320", "0x10",
                     "1_000", "\0", '"', '"a,b"', "a,b", " 3 ", "9" * 200_000]),
    st.floats().map(repr), st.text(max_size=12),
)
csv_line = st.one_of(
    st.builds(lambda date, a, b: f"{date},{a},{b}", date_cell, csv_cell, csv_cell),
    st.lists(csv_cell, min_size=1, max_size=4).map(",".join),
    st.text(max_size=30),
)
# mostly row edits below the header, so most inputs get past the header check
csv_edit = st.tuples(st.sampled_from(["replace", "replace", "insert", "insert", "delete",
                                      "truncate"]),
                     st.one_of(st.integers(1, 9), st.integers(0, 12)), csv_line)


@FUZZ
@given(edits=st.lists(csv_edit, max_size=4),
       raw=st.one_of(st.none(), st.none(), st.none(), st.binary(max_size=200)),
       ffill=st.booleans())
def test_location_csv_loads_or_raises_stlstm_error(scratch, edits, raw, ffill):
    lines = _write_valid_dataset(scratch)
    path = scratch / "manifest.txt"
    path.write_text("\n".join(lines) + "\n")
    csv_path = scratch / "b.csv"
    if raw is not None:
        csv_path.write_bytes(raw)
    else:
        csv_path.write_text("\n".join(_apply(csv_path.read_text().splitlines(), edits)) + "\n")
    _check_dataset_loads_or_raises(path, "ffill" if ffill else "error")
