"""Property-based fuzzing of the file parsers and of the CLI end to end.

Every generated config file, checkpoint, manifest or location CSV must
either load or raise a ``StlstmError`` (which the CLI maps to exit code
2); any other exception is a hole in the exit-code contract. The
location-CSV reader must also give the same result or error as the
csv.reader-only reader kept in ``csv_reference.py``. The end-to-end
property runs the CLI on a tree with one mutated file: every
exit code must be 0, 2, 3 or 4, and a command that exits 0 must have
written only finite numbers. The two argument properties run every
subcommand on drawn flags: ``train``, ``gradcheck``, ``param-count`` and
``gen-synthetic`` on drawn values, every spelling of a setting among
them; ``predict``, ``evaluate`` and ``compare`` on real, damaged and
missing checkpoints, manifests and reports, date ranges and output paths.
Both hold them to the same exit codes, with exactly one ``error:`` line
on exit 2 or 3 (a usage error too), no numpy warning and no file left by
a failed run. Runs are derandomized so the suite stays deterministic.
"""

import contextlib
import io
import math
import re
import shutil
from dataclasses import fields
from pathlib import Path

import csv_reference
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stlstm import (
    ModelSpec,
    StlstmError,
    gen_synthetic,
    init_model_params,
    load_checkpoint,
    load_dataset,
    load_manifest,
    random_model_params,
    save_checkpoint,
)
from stlstm.cli import main, read_config_file
from stlstm.data import _read_location_csv
from stlstm.errors import CheckpointError
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
        read_config_file(path)
    except StlstmError:
        pass


FUZZ_SPEC = ModelSpec(kind="st_stacked", locations=2, vars_per_location=1, n1=2, n2=1,
                      seq_len=1, horizon=1)

spec_int = st.one_of(st.integers(-1, 6), st.integers(-1, 10**12)).map(str)
spec_line = st.builds(
    lambda kind, ints, act: (f"kind={kind} locations={ints[0]} vars_per_location={ints[1]} "
                             f"n1={ints[2]} n2={ints[3]} activation={act} "
                             f"seq_len={ints[4]} horizon={ints[5]}"),
    st.sampled_from(["stacked", "st_stacked", "other"]),
    st.lists(spec_int, min_size=6, max_size=6),
    st.sampled_from(["tanh", "sigmoid", "relu"]),
)
# arbitrary bytes, some behind a first line that names the format or a version of it
checkpoint_bytes = st.builds(
    bytes.__add__,
    st.sampled_from([b"", b"stlstm-checkpoint v3\n", b"stlstm-checkpoint v2\n",
                     b"stlstm-checkpoint v1\n", b"stlstm-checkpoint v\xff\n"]),
    st.binary(max_size=200))


@FUZZ
@given(raw=checkpoint_bytes)
def test_checkpoint_loads_or_raises_stlstm_error(scratch, raw):
    path = scratch / "fuzz.ckpt"
    path.write_bytes(raw)
    try:
        _, params = load_checkpoint(path)
    except StlstmError:
        return
    assert all(np.all(np.isfinite(arr)) for _, arr in params.tensors())


def _valid_v3_checkpoint(tmp_dir) -> bytes:
    path = tmp_dir / "valid-v3.ckpt"
    save_checkpoint(FUZZ_SPEC, random_model_params(FUZZ_SPEC, np.random.default_rng(0)), path)
    return path.read_bytes()


# positions anywhere in the file, or counted from its end, where the values are
byte_pos = st.one_of(st.integers(0, 400), st.integers(-120, -1))
byte_edit = st.one_of(
    st.tuples(st.just("truncate"), byte_pos),
    st.tuples(st.just("flip"), byte_pos, st.integers(0, 7)),
    st.tuples(st.just("insert"), byte_pos,
              st.one_of(st.binary(min_size=1, max_size=9),
                        st.sampled_from([b"\n", b" ", b"0", b"values 8 00000000\n"]))),
    st.tuples(st.just("delete"), byte_pos, st.integers(1, 9)),
)


def _edit_bytes(raw: bytes, edits) -> bytes:
    data = bytearray(raw)
    for op, pos, *arg in edits:
        pos %= len(data) + 1
        if op == "truncate":
            del data[pos:]
        elif op == "flip" and pos < len(data):
            data[pos] ^= 1 << arg[0]
        elif op == "insert":
            data[pos:pos] = arg[0]
        elif op == "delete":
            del data[pos:pos + arg[0]]
    return bytes(data)


@FUZZ
@given(edits=st.lists(byte_edit, min_size=1, max_size=4))
def test_v3_checkpoint_loads_or_raises_stlstm_error(scratch, edits):
    path = scratch / "fuzz-v3.ckpt"
    path.write_bytes(_edit_bytes(_valid_v3_checkpoint(scratch), edits))
    try:
        _, params = load_checkpoint(path)
    except StlstmError:
        return
    assert np.all(np.isfinite(params.flat))


def test_v3_checkpoint_with_any_flipped_bit_never_loads(scratch):
    # every bit of the file, header lines included: the CRC covers all but the values
    # line, and an edit to that line breaks its form, its byte count or its CRC
    raw = _valid_v3_checkpoint(scratch)
    path = scratch / "fuzz-v3.ckpt"
    for bit in range(8 * len(raw)):
        path.write_bytes(_edit_bytes(raw, [("flip", bit // 8, bit % 8)]))
        with pytest.raises(CheckpointError):
            load_checkpoint(path)


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


# Clean files take the one-call parse and files with a missing token the
# per-cell loop; both must reproduce the written grid bit for bit.
finite = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                   st.sampled_from([0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e308, -1e308]))
grid = st.integers(1, 4).flatmap(
    lambda cols: st.lists(st.lists(finite, min_size=cols, max_size=cols), min_size=2, max_size=12))
cell_styles = st.lists(st.sampled_from(["{}", " {}", "{}  ", '"{}"', '" {} "']), min_size=1)


def _write_grid_csv(path, rows, styles, missing=None) -> None:
    """``rows`` under a date column; cell text picked from ``styles`` in turn."""
    lines = ["date," + ",".join(f"v{j}" for j in range(len(rows[0])))]
    for r, row in enumerate(rows):
        cells = [styles[(r + j) % len(styles)].format(repr(v)) for j, v in enumerate(row)]
        if missing is not None and missing[0] == r:
            cells[missing[1]] = missing[2]
        lines.append(f"2020-01-{r + 1:02d}," + ",".join(cells))
    path.write_text("\n".join(lines) + "\n")


def _same_bits(a, b) -> bool:
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


@FUZZ
@given(rows=grid, styles=cell_styles)
def test_finite_csv_grid_loads_bit_exactly(scratch, rows, styles):
    path = scratch / "grid.csv"
    _write_grid_csv(path, rows, styles)
    _, _, data = _read_location_csv(path, "error")
    assert _same_bits(data, np.array(rows, dtype=np.float64))


@FUZZ
@given(rows=grid, styles=cell_styles, where=st.tuples(st.integers(1, 11), st.integers(0, 3)),
       token=st.sampled_from(["", "NA", "nan", "null", " NaN "]))
def test_forward_filled_csv_grid_equals_the_filled_grid(scratch, rows, styles, where, token):
    r, j = where[0] % (len(rows) - 1) + 1, where[1] % len(rows[0])
    path = scratch / "grid.csv"
    _write_grid_csv(path, rows, styles, missing=(r, j, token))
    _, _, data = _read_location_csv(path, "ffill")
    want = np.array(rows, dtype=np.float64)
    want[r, j] = want[r - 1, j]
    assert _same_bits(data, want)


# The reader splits clean files itself and hands any other to csv.reader;
# on any bytes it must match the csv.reader-only reader it replaced.
LIMIT_FIELD = "0." + "0" * 131_071  # a finite number one character over the csv field limit
odd_cell = st.one_of(st.sampled_from(["", "na", "NaN", "null", "inf", "-1e999", "1_000", "\t4\t",
                                      '"4.5"', '" 5 "', '"1,5"', '"6\n"', 'a"b', '"', "\x0c1",
                                      "1\x85", "2\u2028", "3\r4", "\0", "0x10", "x",
                                      "20200102", LIMIT_FIELD]),
                     st.text(max_size=6))
odd_date = st.sampled_from(["20200101", '"2020-01-02"', "2020-13-01", "", "date", "2020-01-01\x0c"])
odd_header = st.sampled_from([" date ", '"date"', "Date", "t", "", "t u", LIMIT_FIELD])
odd_name = st.sampled_from(['"v"', '" v "', "", "v\x0c", '"v,w"', LIMIT_FIELD])
odd_end = st.sampled_from(["", "\r", "\n\n", "\r\r\n", "\x0c\n", "\x85", "\u2028"])
padding = st.sampled_from(["{}", "{}", " {}", "{} "])


@st.composite
def location_csv_bytes(draw) -> bytes:
    """A location file: LF or CRLF rows of ISO dates and finite floats, some cells padded
    with spaces; in a messy file, also odd cells, dates and headers, ragged rows, stray
    line breaks and an undecodable byte, each now and then."""
    def odd(strategy, usual, one_in):
        return draw(strategy) if messy and draw(st.integers(1, one_in)) == 1 else usual

    messy = draw(st.booleans())
    width = draw(st.integers(1, 3))
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    text = ",".join([odd(odd_header, "date", 4)]
                    + [odd(odd_name, f"v{j}", 6) for j in range(width)])
    for _ in range(draw(st.integers(1, 6))):
        cells = [draw(padding).format(odd(odd_date, str(draw(st.dates())), 12))]
        cells += [draw(padding).format(odd(odd_cell, repr(draw(finite)), 12))
                  for _ in range(odd(st.sampled_from([0, width - 1, width + 1]), width, 12))]
        text += odd(odd_end, eol, 12) + ",".join(cells)
    if draw(st.booleans()):
        text += eol
    raw = text.encode()
    if messy and draw(st.integers(1, 6)) == 1:
        at = draw(st.integers(0, len(raw)))
        raw = raw[:at] + draw(st.sampled_from([b"\xff", b"\xc3", b"\xe2\x80"])) + raw[at:]
    return raw


def _read_outcome(read, path, policy):
    """What a reader made of ``path``: its dates, variables and value bits, or its error."""
    try:
        dates, variables, data = read(path, policy)
    except Exception as exc:  # any class: the class and message are what is compared
        return type(exc), str(exc)
    return dates, variables, data.shape, data.view(np.int64).tobytes()


@FUZZ
@given(raw=location_csv_bytes())
@example(raw=b'date,"v"\n2020-01-01,1.0\n')  # csv.reader unquotes the name
@example(raw="date,v\n2020-01-01,1\x852020-01-02,2\n".encode())  # one row to csv.reader
@example(raw=b"date,v\r\n2020-01-01,1.0\r\r\n")  # a blank row to csv.reader
@example(raw=b"date,v\n2020-01-01,1,20200102\n5\n")  # commas right in total only
@example(raw=f"date,v\n2020-01-01,{LIMIT_FIELD}\n".encode())  # csv.reader refuses the field
@example(raw=f"date,v\n2020-01-01,{LIMIT_FIELD}\n".encode()  # read up to the csv error only
         + b"2020-01-02,1.0\n" * 800 + b"\xff")
def test_location_csv_reader_matches_the_csv_reader_reference(scratch, raw):
    path = scratch / "equiv.csv"
    path.write_bytes(raw)
    for policy in ("error", "ffill"):
        assert (_read_outcome(_read_location_csv, path, policy)
                == _read_outcome(csv_reference.read_location_csv, path, policy))


# ---------------------------------------------------------------------------
# End to end: the CLI's exit-code contract on one mutated input file

E2E_CONFIG = ["kind = st_stacked", "n1 = 4", "n2 = 2", "seq_len = 3", "repeats = 1",
              "batch_size = 8", "learning_rate = 0.01"]
E2E_FILES = ("manifest.txt", "loc1.csv", "loc2.csv", "model.ckpt", "train.cfg")

# values that stay small where a config sets a size, so that no example can
# allocate much; huge, tiny and non-finite numbers where a file holds data
number_text = st.one_of(
    st.sampled_from(["1e308", "-1e308", "1.7e308", "-1.7e308", "1e154"]),
    st.sampled_from(["", "nan", "inf", "-inf", "1e999", "1e-320", "50", "-50", "0", "-0.0",
                     "true", "0x10", "stacked", "sigmoid"]),
    st.integers(-2, 8).map(str), st.floats().map(repr))
e2e_line = st.one_of(
    st.sampled_from(["loc1,loc1.csv", "loc2,loc2.csv", "loc2,loc1.csv", "loc1,model.ckpt",
                     "target=loc1:temperature", "target=loc2:var2", "target=loc1:nope",
                     "test_start=2007-02-15,test_end=2007-02-19",
                     "test_start=2007-01-02,test_end=2007-02-19",
                     "test_start=2007-02-19,test_end=2007-02-19", "date,temperature,var2",
                     "2007-02-20,1.0,2.0", "2007-01-01,1.0,2.0", "head.b_dense 1 1",
                     "validation_holdout = true", "activation = sigmoid",
                     "forget_bias_init = yes", "horizon = 3", "l2_lambda = 1e308"]),
    st.builds(lambda key, value: f"{key} = {value}", st.sampled_from(CONFIG_KEYS), number_text),
    spec_line, st.text(max_size=20))
# "cell" replaces one comma-separated field of a line (a CSV value, a manifest
# path or date, or a whole line that has no comma); the other edits work on
# lines. A negative position counts from the end, where the test rows and the
# head's values are.
e2e_edit = st.tuples(st.sampled_from(["cell", "cell", "cell", "replace", "insert", "delete",
                                      "truncate"]),
                     st.one_of(st.integers(-4, -2), st.integers(0, 60)), st.integers(0, 2),
                     st.one_of(number_text, e2e_line))


def _mutate(lines: list[str], edits) -> list[str]:
    """Apply ``edits`` to lines of latin-1 text; inserted text goes in as its UTF-8 bytes."""
    lines = list(lines)
    for op, pos, field, text in edits:
        text = text.encode().decode("latin-1")
        pos %= len(lines) + 1
        if op == "cell" and pos < len(lines):
            cells = lines[pos].split(",")
            cells[field % len(cells)] = text
            lines[pos] = ",".join(cells)
        elif op != "cell":
            lines = _apply(lines, [(op, pos, text)])
    return lines


def _assert_numbers_finite(path) -> None:
    """Every token of the file that parses as a number is finite (JSON's Infinity too).

    A checkpoint's values are binary, so a checkpoint is read back with
    load_checkpoint, which must succeed and give a finite model.
    """
    if path.suffix == ".ckpt":
        _, params = load_checkpoint(path)
        assert np.all(np.isfinite(params.flat)), path.name
        return
    for token in re.split(r"[\s,=\"\[\]{}]+", path.read_text()):
        try:
            value = float(token)
        except ValueError:
            continue
        assert math.isfinite(value), f"{path.name}: {token}"


@pytest.fixture(scope="module")
def e2e_tree(tmp_path_factory):
    root = tmp_path_factory.mktemp("e2e")
    gen_synthetic(root, locations=2, vars_per_location=2, days=50, coupling=0.6, seed=1,
                  test_days=5)
    (root / "train.cfg").write_text("\n".join(E2E_CONFIG) + "\n")
    spec = ModelSpec(kind="st_stacked", locations=2, vars_per_location=2, n1=4, n2=2, seq_len=3)
    save_checkpoint(spec, init_model_params(spec, np.random.default_rng(0)), root / "model.ckpt")
    return root


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(name=st.sampled_from(E2E_FILES), edits=st.lists(e2e_edit, min_size=1, max_size=3))
def test_cli_exit_codes_hold_for_one_mutated_input(e2e_tree, name, edits):
    case = e2e_tree.parent / f"{e2e_tree.name}-case"
    shutil.rmtree(case, ignore_errors=True)
    shutil.copytree(e2e_tree, case)
    path = case / name
    # bytes as latin-1, split on "\n" only, so that the bytes of every line
    # the edits leave alone (a checkpoint's binary values too) are kept
    text = path.read_bytes().decode("latin-1")
    ending = "\n" if text.endswith("\n") else ""
    lines = _mutate(text[:len(text) - len(ending)].split("\n"), edits)
    path.write_bytes(("\n".join(lines) + ending).encode("latin-1"))

    manifest, ckpt, out = str(case / "manifest.txt"), str(case / "model.ckpt"), case / "out"
    out.mkdir()
    steps = [
        (["train", "--manifest", manifest, "--config", str(case / "train.cfg"), "--epochs", "1",
          "--out", str(out / "run")], out / "run"),
        (["predict", "--model", ckpt, "--manifest", manifest, "--out", str(out / "pred.csv")],
         out / "pred.csv"),
        (["evaluate", "--model", ckpt, "--manifest", manifest, "--report",
          str(out / "report.json")], out / "report.json"),
        (["compare", "--reports", str(out / "report.json"), "--out", str(out / "compare.csv")],
         out / "compare.csv"),
    ]
    for argv, written in steps:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        assert code in (0, 2, 3, 4), (argv[0], code)
        if code == 0:
            for path in [written] if written.is_file() else sorted(written.iterdir()):
                _assert_numbers_finite(path)


# ---------------------------------------------------------------------------
# The CLI's exit-code contract at its argument boundary: the subcommands that
# take settings (train, gradcheck, param-count, gen-synthetic)

# every flag draws from its own few valid values or from one shared pool of
# zero, negatives, non-finite and huge numbers, the empty string and text. The
# text has no digits, and the sizes start small and are only ever set to
# another small value, so no accepted run is big.
# each command's sizes, and the flags it requires
SIZES = {
    "train": ["--epochs=1", "--repeats=1", "--n1=2", "--n2=2", "--seq-len=3", "--batch-size=16"],
    "gradcheck": ["--model-kind=stacked", "--locations=2", "--vars=1", "--n1=2", "--n2=1",
                  "--seq-len=2"],
    "param-count": ["--kind=stacked", "--locations=2", "--vars=1", "--n1=2", "--n2=1"],
    "gen-synthetic": ["--locations=2", "--vars=1", "--days=50"],
}
ARGV_POOL = ["0", "-1", "-0.5", "nan", "inf", "-inf", "1e308", "1e200", "", "x", "1.5.0"]
ARGV_TEXT = st.text(alphabet="xyzé -=:,\t", max_size=4)
KIND_FLAGS = {"--kind": ["stacked", "st"], "--model-kind": ["stacked", "st"]}
TRAIN_FLAGS = {
    **KIND_FLAGS, "--n1": ["2", "4"], "--n2": ["1", "3"], "--activation": ["tanh", "sigmoid"],
    "--seq-len": ["1", "3"], "--horizon": ["1", "2"], "--learning-rate": ["0.01", "0.5"],
    "--epochs": ["1", "2"], "--batch-size": ["4", "16"], "--l2-lambda": ["0.001"],
    "--seed": ["1"], "--repeats": ["1", "2"],
    "--forget-bias-init": ["true", "off"], "--validation-holdout": ["yes", "0"],
    "--missing-policy": ["ffill"],
}
GRADCHECK_FLAGS = {
    **KIND_FLAGS, "--activation": ["tanh", "sigmoid"], "--seed": ["1"],
    "--locations": ["1", "2"], "--vars": ["1", "2"], "--vars-per-location": ["1", "2"],
    "--n1": ["2"], "--n2": ["1", "2"], "--seq-len": ["1", "2"], "--l2-lambda": ["0", "0.5"],
}
PARAM_COUNT_FLAGS = {
    **KIND_FLAGS, "--locations": ["1", "2"], "--vars": ["1", "2"],
    "--vars-per-location": ["1", "2"], "--n1": ["2", "4"], "--n2": ["1", "3"],
}
GEN_FLAGS = {
    "--locations": ["1", "2"], "--vars": ["1", "2"], "--vars-per-location": ["1", "2"],
    "--days": ["50", "60"], "--coupling": ["0", "0.5"], "--seed": ["1"], "--ar-coef": ["0.5"],
    "--noise": ["0.1"], "--noise-std": ["0", "0.1"], "--test-days": ["5"],
}
FLAGS = {"train": TRAIN_FLAGS, "gradcheck": GRADCHECK_FLAGS, "param-count": PARAM_COUNT_FLAGS,
         "gen-synthetic": GEN_FLAGS}


def pooled(valid: list[str]):
    return st.one_of(st.sampled_from(valid), st.sampled_from(ARGV_POOL), ARGV_TEXT)


@st.composite
def cli_flags(draw) -> tuple[str, list[str]]:
    """A settings command and some of its flags, each set to a pooled value."""
    command = draw(st.sampled_from(sorted(FLAGS)))
    flags = FLAGS[command]
    chosen = draw(st.lists(st.sampled_from(sorted(flags)), max_size=4, unique=True))
    return command, [f"{flag}={draw(pooled(flags[flag]))}" for flag in chosen]


@pytest.fixture(scope="module")
def argv_data(tmp_path_factory):
    root = tmp_path_factory.mktemp("argv")
    manifest = gen_synthetic(root / "data", locations=2, vars_per_location=2, days=50,
                             coupling=0.6, seed=1, test_days=5)
    return root, manifest


@pytest.mark.filterwarnings("error::RuntimeWarning")  # a refusal is the only report
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(case=cli_flags())
@example(case=("train", ["--learning-rate=1e200"]))  # numpy warned before its error line
@example(case=("gradcheck", ["--model-kind=st", "--l2-lambda=1e308"]))  # and before exit 4
@example(case=("train", ["--l2-lambda=--"]))  # argparse read an empty list
def test_cli_exit_codes_hold_for_any_train_or_gradcheck_argv(argv_data, case):
    root, manifest = argv_data
    out = root / "run"
    shutil.rmtree(out, ignore_errors=True)
    command, flags = case
    # a flag given twice takes its last value, so the drawn flags override the sizes
    paths = {"train": ["--manifest", str(manifest), "--out", str(out)],
             "gen-synthetic": ["--out", str(out)]}
    argv = [command, *paths.get(command, []), *SIZES[command], *flags]
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        code = main(argv)
    assert code in (0, 2, 3, 4), (argv, code)
    if code in (2, 3):
        assert stderr.getvalue().count("\n") == 1 and stderr.getvalue().startswith("error: "), \
            (argv, stderr.getvalue())
    if code != 0:
        assert not out.exists() or not any(out.iterdir()), (argv, sorted(out.iterdir()))


# ---------------------------------------------------------------------------
# The same contract for the subcommands that read a model or reports (predict,
# evaluate, compare), on real and damaged checkpoints, manifests and reports

# gen_synthetic's 50 days run 2007-01-01..2007-02-19, its last 5 the test range
RANGES = ["test", "0001-01-01:9999-12-31", "2007-01-01:2007-02-19", "2007-01-20:2007-02-19",
          "2007-02-10:2007-01-20", "2007-02-10\n:2007-01-20", "2007-13-01:2007-02-01",
          "2007-02-01", "2007-02-01:2007-03-01", "2006-12-01:2007-01-20", "2007-01-01:2007-01-03"]
READ_FLAGS = {
    "--range": st.one_of(st.sampled_from(RANGES), ARGV_TEXT),
    "--missing-policy": st.sampled_from(["error", "ffill", "zz", ""]),
    "--missing_policy": st.sampled_from(["ffill"]),
}


@pytest.fixture(scope="module")
def read_tree(tmp_path_factory):
    """Files by role: the real one first, then damaged, mismatched and missing ones."""
    root = tmp_path_factory.mktemp("read")
    manifest = gen_synthetic(root / "data", locations=2, vars_per_location=2, days=50,
                             coupling=0.6, seed=1, test_days=5)
    text = manifest.read_text()
    test_line = next(line for line in text.splitlines() if line.startswith("test_start="))
    manifests = [manifest, root / "data" / "no-test.txt", root / "data" / "bad-date.txt",
                 root / "data" / "missing.txt"]
    manifests[1].write_text(text.replace(test_line + "\n", ""))
    manifests[2].write_text(text.replace(test_line, "test_start=2007-13-01,test_end=2007-02-19"))
    models = []
    for kind, locations in (("stacked", 2), ("st_stacked", 2), ("stacked", 3)):
        spec = ModelSpec(kind=kind, locations=locations, vars_per_location=2, n1=4, n2=2,
                         seq_len=3)
        models.append(root / f"{kind}-{locations}.ckpt")
        save_checkpoint(spec, init_model_params(spec, np.random.default_rng(0)), models[-1])
    raw = bytearray(models[0].read_bytes())
    raw[-1] ^= 1
    models.insert(2, root / "flipped.ckpt")
    models[2].write_bytes(bytes(raw))
    models.append(root / "missing.ckpt")
    reports = []
    for model in models[:2]:
        reports.append(root / f"{model.stem}.json")
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["evaluate", "--model", str(model), "--manifest", str(manifest),
                         "--report", str(reports[-1])]) == 0
    reports += [root / "truncated.json", root / "missing.json"]
    reports[2].write_text(reports[0].read_text()[:-20])
    (root / "out").mkdir()
    return root, [str(m) for m in manifests], [str(m) for m in models], [str(r) for r in reports]


@st.composite
def read_argv(draw, tree) -> tuple[list[str], list[Path]]:
    """A predict, evaluate or compare argv, and the files it is asked to write."""
    root, manifests, models, reports = tree

    def real_or_any(files):  # the real file at least half the time, so most runs get further
        return st.one_of(st.just(files[0]), st.sampled_from(files))

    command = draw(st.sampled_from(["predict", "evaluate", "compare"]))
    # an output in an existing directory or a missing one
    target = st.sampled_from([root / "out" / "written", root / "absent" / "written"])
    argv, written = [command], []
    if command == "predict" or draw(st.booleans()):  # predict's --out is required
        written.append(draw(target))
        argv += ["--report" if command == "evaluate" else "--out", str(written[0])]
    if command == "compare":
        # the two real reports, or up to three of any (none is a usage error)
        argv += ["--reports", *draw(st.one_of(st.just(reports[:2]),
                                              st.lists(st.sampled_from(reports), max_size=3)))]
        return argv, written
    argv += ["--model", draw(real_or_any(models)), "--manifest", draw(real_or_any(manifests))]
    flags = dict(READ_FLAGS)
    if command == "evaluate":
        flags["--label"] = st.one_of(st.sampled_from(["test", "holdout"]), ARGV_TEXT)
    for flag in draw(st.lists(st.sampled_from(sorted(flags)), max_size=3, unique=True)):
        argv.append(f"{flag}={draw(flags[flag])}")
    return argv, written


@pytest.mark.filterwarnings("error::RuntimeWarning")  # a refusal is the only report
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_cli_exit_codes_hold_for_any_predict_evaluate_or_compare_argv(read_tree, data):
    argv, written = data.draw(read_argv(read_tree))
    for path in written:
        path.unlink(missing_ok=True)
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        code = main(argv)
    assert code in (0, 2, 3, 4), (argv, code)
    if code in (2, 3):
        assert stderr.getvalue().count("\n") == 1 and stderr.getvalue().startswith("error: "), \
            (argv, stderr.getvalue())
    for path in written:
        assert path.exists() == (code == 0), (argv, code, path)
        assert not Path(f"{path}.tmp").exists(), (argv, path)
