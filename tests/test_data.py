import csv
import datetime as dt
import tempfile
from pathlib import Path

import numpy as np
import pytest
import synthetic_reference
from hypothesis import given, settings
from hypothesis import strategies as st

from stlstm import gen_synthetic, load_dataset, load_manifest, make_windows, test_windows, train_windows
from stlstm.data import _read_location_csv, normalize, synthetic_series
from stlstm.errors import (
    CsvFormatError,
    DataError,
    DateAlignmentError,
    ManifestError,
    MissingValueError,
)


def write_csv(path, start, rows, variables=("temperature", "humidity")):
    lines = ["date," + ",".join(variables)]
    day = dt.date.fromisoformat(start)
    for row in rows:
        lines.append(day.isoformat() + "," + ",".join(str(v) for v in row))
        day += dt.timedelta(days=1)
    path.write_text("\n".join(lines) + "\n")


def two_location_manifest(tmp_path, rows_a, rows_b, start_a="2020-01-01",
                          start_b="2020-01-01", test_range=None):
    write_csv(tmp_path / "a.csv", start_a, rows_a)
    write_csv(tmp_path / "b.csv", start_b, rows_b)
    lines = ["alpha,a.csv", "beta,b.csv", "target=alpha:temperature"]
    if test_range:
        lines.append(f"test_start={test_range[0]},test_end={test_range[1]}")
    manifest = tmp_path / "manifest.txt"
    manifest.write_text("\n".join(lines) + "\n")
    return manifest


def test_load_two_identical_locations(tmp_path):
    rows = [(1.0, 2.0)] * 5
    manifest = load_manifest(two_location_manifest(tmp_path, rows, rows))
    ds = load_dataset(manifest)
    assert ds.n_days == 5
    assert ds.values.shape == (5, 2, 2)
    assert ds.locations == ["alpha", "beta"]
    assert ds.variables == ["temperature", "humidity"]
    assert ds.target_loc == 0 and ds.target_var == 0


def test_disjoint_date_ranges_name_offending_dates(tmp_path):
    rows = [(1.0, 2.0)] * 5
    manifest = load_manifest(two_location_manifest(tmp_path, rows, rows,
                                                   start_b="2021-06-01"))
    with pytest.raises(DateAlignmentError, match="2020-01-01.*2021-06-01"):
        load_dataset(manifest)


def test_gap_in_date_axis_is_an_error(tmp_path):
    path = tmp_path / "a.csv"
    path.write_text("date,temperature\n2020-01-01,1.0\n2020-01-03,2.0\n")
    (tmp_path / "m.txt").write_text("alpha,a.csv\ntarget=alpha:temperature\n")
    with pytest.raises(DateAlignmentError, match="2020-01-01.*2020-01-03"):
        load_dataset(load_manifest(tmp_path / "m.txt"))


def test_missing_cell_policies(tmp_path):
    path = tmp_path / "a.csv"
    path.write_text("date,temperature\n2020-01-01,1.5\n2020-01-02,\n2020-01-03,3.0\n")
    (tmp_path / "m.txt").write_text("alpha,a.csv\ntarget=alpha:temperature\n")
    manifest = load_manifest(tmp_path / "m.txt")
    with pytest.raises(MissingValueError):
        load_dataset(manifest)  # default policy: error
    ds = load_dataset(manifest, missing_policy="ffill")
    assert ds.values[1, 0, 0] == 1.5  # copied from the previous day


def test_leading_missing_cell_is_always_an_error(tmp_path):
    path = tmp_path / "a.csv"
    path.write_text("date,temperature\n2020-01-01,NA\n2020-01-02,2.0\n")
    (tmp_path / "m.txt").write_text("alpha,a.csv\ntarget=alpha:temperature\n")
    with pytest.raises(MissingValueError):
        load_dataset(load_manifest(tmp_path / "m.txt"), missing_policy="ffill")


def test_unparseable_cell_is_a_format_error(tmp_path):
    path = tmp_path / "a.csv"
    path.write_text("date,temperature\n2020-01-01,abc\n")
    (tmp_path / "m.txt").write_text("alpha,a.csv\ntarget=alpha:temperature\n")
    with pytest.raises(CsvFormatError, match="abc"):
        load_dataset(load_manifest(tmp_path / "m.txt"))


@pytest.mark.parametrize("token", ["inf", "-inf", "1e999", "Infinity", "-nan"])
def test_non_finite_cell_is_a_format_error(tmp_path, token):
    path = tmp_path / "a.csv"
    path.write_text(f"date,temperature\n2020-01-01,1.0\n2020-01-02,{token}\n")
    (tmp_path / "m.txt").write_text("alpha,a.csv\ntarget=alpha:temperature\n")
    with pytest.raises(CsvFormatError, match=r"a\.csv:3: .*'temperature'"):
        load_dataset(load_manifest(tmp_path / "m.txt"))


@pytest.mark.parametrize("token", ["na", "NaN", "null", " nan "])
def test_missing_tokens_follow_the_missing_policy(tmp_path, token):
    path = tmp_path / "a.csv"
    path.write_text(f"date,temperature\n2020-01-01,1.5\n2020-01-02,{token}\n")
    (tmp_path / "m.txt").write_text("alpha,a.csv\ntarget=alpha:temperature\n")
    manifest = load_manifest(tmp_path / "m.txt")
    with pytest.raises(MissingValueError):
        load_dataset(manifest)
    assert load_dataset(manifest, missing_policy="ffill").values[1, 0, 0] == 1.5


def test_undecodable_bytes_are_data_errors(tmp_path):
    (tmp_path / "a.csv").write_bytes(b"date,temperature\n2020-01-01,\xff\n")
    (tmp_path / "m.txt").write_text("alpha,a.csv\ntarget=alpha:temperature\n")
    with pytest.raises(DataError, match="a.csv"):
        load_dataset(load_manifest(tmp_path / "m.txt"))
    # past the first 8 KB the message still names the byte's offset in the file
    raw = b"date,temperature\n" + b"2020-01-01,1.0\n" * 2000
    (tmp_path / "far.csv").write_bytes(raw[:22_500] + b"\xff" + raw[22_500:])
    with pytest.raises(DataError, match="can't decode byte 0xff in position 22500:"):
        _read_location_csv(tmp_path / "far.csv", "error")
    (tmp_path / "bad.txt").write_bytes(b"\xff\xfealpha,a.csv\n")
    with pytest.raises(ManifestError, match="bad.txt"):
        load_manifest(tmp_path / "bad.txt")


def test_unknown_target_variable(tmp_path):
    rows = [(1.0, 2.0)] * 5
    write_csv(tmp_path / "a.csv", "2020-01-01", rows)
    (tmp_path / "m.txt").write_text("alpha,a.csv\ntarget=alpha:pressure\n")
    with pytest.raises(DataError, match="pressure"):
        load_dataset(load_manifest(tmp_path / "m.txt"))


def test_target_location_must_be_listed(tmp_path):
    rows = [(1.0, 2.0)] * 5
    write_csv(tmp_path / "a.csv", "2020-01-01", rows)
    (tmp_path / "m.txt").write_text("alpha,a.csv\ntarget=gamma:temperature\n")
    with pytest.raises(ManifestError, match="gamma"):
        load_manifest(tmp_path / "m.txt")


def test_the_test_range_takes_its_two_keys_in_either_order(tmp_path):
    manifest = two_location_manifest(tmp_path, [(1.0, 2.0)] * 5, [(1.0, 2.0)] * 5,
                                      test_range=("2020-01-04", "2020-01-05"))
    want = load_manifest(manifest)
    assert want.test_range == (dt.date(2020, 1, 4), dt.date(2020, 1, 5))
    text = manifest.read_text()
    manifest.write_text(text.replace("test_start=2020-01-04,test_end=2020-01-05",
                                     "test_end=2020-01-05,test_start=2020-01-04"))
    assert load_manifest(manifest) == want


@pytest.mark.parametrize("line", ["test_start=2020-01-04", "test_start=2020-01-04,test_end",
                                  "test_start=2020-01-04,test_end=2020-01-05,test_start=2020-01-01",
                                  "test_start=2020-01-04,test_end=2020-01-05,extra=1",
                                  "test_end=2020-01-05,test_end=2020-01-04"])
def test_a_test_range_line_holds_its_two_keys_once_each(tmp_path, line):
    manifest = two_location_manifest(tmp_path, [(1.0, 2.0)] * 5, [(1.0, 2.0)] * 5)
    manifest.write_text(manifest.read_text() + line + "\n")
    with pytest.raises(ManifestError, match=r"manifest.txt:4: expected test_start=<date>"):
        load_manifest(manifest)


@pytest.mark.parametrize("start, end", [("2020-13-01", "2020-01-05"), ("2020-01-04", "x")])
def test_a_bad_test_range_date_is_a_manifest_error(tmp_path, start, end):
    manifest = two_location_manifest(tmp_path, [(1.0, 2.0)] * 5, [(1.0, 2.0)] * 5,
                                      test_range=(start, end))
    bad = start if end == "2020-01-05" else end
    with pytest.raises(ManifestError, match=f"manifest.txt:4: bad ISO date '{bad}'"):
        load_manifest(manifest)


def test_mismatched_variable_columns(tmp_path):
    write_csv(tmp_path / "a.csv", "2020-01-01", [(1.0, 2.0)] * 3)
    write_csv(tmp_path / "b.csv", "2020-01-01", [(1.0,)] * 3, variables=("temperature",))
    (tmp_path / "m.txt").write_text("alpha,a.csv\nbeta,b.csv\ntarget=alpha:temperature\n")
    with pytest.raises(CsvFormatError):
        load_dataset(load_manifest(tmp_path / "m.txt"))


# ---------------------------------------------------------------------------
# windows

def make_counting_dataset(tmp_path, n_days, test_range=None):
    rows = [(float(i), float(100 + i)) for i in range(n_days)]
    manifest = load_manifest(two_location_manifest(tmp_path, rows, rows,
                                                   test_range=test_range))
    return load_dataset(manifest)


def test_window_count_20_days(tmp_path):
    ds = make_counting_dataset(tmp_path, 20)
    assert len(make_windows(ds, 10, 1)) == 10


def test_window_count_exactly_one(tmp_path):
    ds = make_counting_dataset(tmp_path, 11)
    windows = make_windows(ds, 10, 1)
    assert len(windows) == 1
    assert windows.y[0] == 10.0          # raw value of day 11 (index 10)
    assert windows.target_dates[0] == ds.dates[10]


def test_window_count_zero_is_empty_not_an_error(tmp_path):
    ds = make_counting_dataset(tmp_path, 15)
    assert len(make_windows(ds, 10, 6)) == 0


def test_window_layout_and_raw_targets(tmp_path):
    ds = make_counting_dataset(tmp_path, 30)
    windows = make_windows(ds, 5, 3)
    assert len(windows) == 30 - 5 - 3 + 1
    norm = normalize(ds)
    for i, d in enumerate(windows.window_ids):
        assert np.array_equal(windows.X[i], norm[d:d + 5])
        assert windows.y[i] == float(d + 5 - 1 + 3)  # raw scale, not z-scored


def test_train_test_split_has_no_leakage(tmp_path):
    ds = make_counting_dataset(tmp_path, 40, test_range=("2020-01-31", "2020-02-09"))
    assert ds.test_start_idx == 30 and ds.test_end_idx == 40
    T, q = 5, 2
    tr = train_windows(ds, T, q)
    te = test_windows(ds, T, q)
    assert all(tr.window_ids + T - 1 + q < ds.test_start_idx)
    # test targets exactly cover the declared range
    assert (te.window_ids + T - 1 + q).tolist() == list(range(30, 40))
    # the last training window reaches the boundary but never crosses it
    assert max(tr.window_ids + T - 1 + q) == 29


def test_normalization_stats_come_from_train_rows_only(tmp_path):
    ds = make_counting_dataset(tmp_path, 40, test_range=("2020-01-31", "2020-02-09"))
    flat = ds.flat()
    assert np.allclose(ds.norm_mean, flat[:30].mean(axis=0))
    assert np.allclose(ds.norm_std, flat[:30].std(axis=0))
    # appending test rows must not move the stats: rebuild with a longer series
    ds2 = make_counting_dataset(tmp_path, 60, test_range=("2020-01-31", "2020-02-29"))
    assert np.array_equal(ds.norm_mean, ds2.norm_mean)
    assert np.array_equal(ds.norm_std, ds2.norm_std)


def test_constant_column_normalizes_to_zero(tmp_path):
    rows = [(5.0, float(i)) for i in range(10)]
    ds = load_dataset(load_manifest(two_location_manifest(tmp_path, rows, rows)))
    z = normalize(ds)
    assert np.array_equal(z[:, 0], np.zeros(10))
    assert np.all(np.isfinite(z))


def test_manifest_order_defines_slice_order(tmp_path):
    rows_a = [(float(i), 0.0) for i in range(8)]
    rows_b = [(float(100 + i), 1.0) for i in range(8)]
    write_csv(tmp_path / "a.csv", "2020-01-01", rows_a)
    write_csv(tmp_path / "b.csv", "2020-01-01", rows_b)
    (tmp_path / "m1.txt").write_text("alpha,a.csv\nbeta,b.csv\ntarget=alpha:temperature\n")
    (tmp_path / "m2.txt").write_text("beta,b.csv\nalpha,a.csv\ntarget=alpha:temperature\n")
    ds1 = load_dataset(load_manifest(tmp_path / "m1.txt"))
    ds2 = load_dataset(load_manifest(tmp_path / "m2.txt"))
    m = len(ds1.variables)
    # location k of one ordering appears as the other's opposite slice
    assert np.array_equal(ds1.flat()[:, :m], ds2.flat()[:, m:])
    assert np.array_equal(ds1.flat()[:, m:], ds2.flat()[:, :m])
    assert ds1.target_column() == 0
    assert ds2.target_column() == m


def test_window_inputs_are_read_only_rows_of_one_view(tmp_path):
    ds = make_counting_dataset(tmp_path, 30)
    windows = make_windows(ds, 5, 3)
    X = windows.X
    assert X.shape == (len(windows), 5, 4)
    for i, w in enumerate(windows):
        assert np.shares_memory(w.inputs, X) and np.array_equal(w.inputs, X[i])
        with pytest.raises(ValueError, match="read-only"):
            w.inputs[0, 0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        X[0, 0, 0] = 1.0
    assert windows.window_ids.tolist() == [w.window_id for w in windows]
    assert windows.y.tolist() == [w.target for w in windows]
    assert windows.target_dates == [w.target_date for w in windows]


def test_windows_to_arrays_shapes(tmp_path):
    from stlstm.data import windows_to_arrays  # benchmarks/workloads.py copies records with it

    ds = make_counting_dataset(tmp_path, 20)
    windows = make_windows(ds, 10, 1)
    X, y = windows_to_arrays(windows)
    assert X.shape == (10, 10, 4)
    assert y.shape == (10,)
    # a record's arrays are copied, not handed out as its read-only view
    assert X.flags.c_contiguous and X.flags.writeable and not np.shares_memory(X, windows.X)


# ---------------------------------------------------------------------------
# synthetic generator

def test_synthetic_determinism_byte_identical(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    gen_synthetic(a, locations=3, vars_per_location=2, days=60, coupling=0.5, seed=9)
    gen_synthetic(b, locations=3, vars_per_location=2, days=60, coupling=0.5, seed=9)
    for name in ("loc1.csv", "loc2.csv", "loc3.csv", "manifest.txt"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_synthetic_minimum_days():
    with pytest.raises(DataError):
        gen_synthetic("/tmp/unused", locations=2, vars_per_location=1, days=10,
                      coupling=0.0, seed=0)


@pytest.mark.parametrize("days", [0, -3])
def test_synthetic_series_refuses_fewer_than_one_day(days):
    with pytest.raises(DataError, match=f"need at least one day, got {days}"):
        synthetic_series(2, 1, days, coupling=0.5, seed=0)


# 2007-01-01 plus 2,919,382 days is 9999-12-31: a series of 2,919,383 days ends there
@pytest.mark.parametrize("days, kwargs, message", [
    (60, {"test_days": 0}, "test_days must be in \\(0, days\\), got 0"),
    (60, {"test_days": 60}, "test_days must be in \\(0, days\\), got 60"),
    (2_919_384, {}, "2919384 days from 2007-01-01 run past 9999-12-31"),
], ids=["test_days=0", "test_days=days", "past-9999-12-31"])
def test_gen_synthetic_checks_its_arguments_before_drawing(tmp_path, monkeypatch, days, kwargs,
                                                           message):
    def draw(*args):
        raise AssertionError("a series was drawn")

    monkeypatch.setattr("stlstm.data.synthetic_series", draw)
    with pytest.raises(DataError, match=message):
        gen_synthetic(tmp_path / "out", 1, 1, days, 0.5, 1, **kwargs)
    assert not (tmp_path / "out").exists()


def test_gen_synthetic_lets_a_series_end_on_9999_12_31(tmp_path, monkeypatch):
    def draw(*args):
        raise AssertionError("a series was drawn")

    monkeypatch.setattr("stlstm.data.synthetic_series", draw)
    with pytest.raises(AssertionError, match="a series was drawn"):  # every check passed
        gen_synthetic(tmp_path / "out", 1, 1, 2_919_383, 0.5, 1)


def _series_outcome(series, args):
    """Latent and value bits, or the error class and message."""
    try:
        latents, values, variables = series(*args)
    except Exception as exc:
        return type(exc), str(exc)
    return latents.shape, latents.tobytes(), values.shape, values.tobytes(), variables


def _files_outcome(gen, args, test_days):
    """Every written file's bytes by name, or the error class and message."""
    with tempfile.TemporaryDirectory() as out:
        try:
            manifest = gen(out, *args, test_days=test_days)
        except Exception as exc:
            return type(exc), str(exc)
        return manifest.name, {p.name: p.read_bytes() for p in sorted(Path(out).iterdir())}


synthetic_args = st.tuples(
    st.integers(1, 6),                                       # locations
    st.integers(1, 4),                                       # vars_per_location
    st.integers(1, 300),                                     # days; gen_synthetic needs 50
    st.one_of(st.sampled_from([0.0, -0.0, 1.0, 0, 1]), st.floats(0.0, 1.0)),  # coupling
    st.integers(0, 2**32),                                   # seed
    st.one_of(st.sampled_from([1e308, -1.0, 1.0, 0.0]), st.floats(-1.5, 1.5)),  # ar_coef
    st.one_of(st.just(0.0), st.floats(0.0, 5.0)),            # noise_std
)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(args=synthetic_args,
       test_days=st.one_of(st.none(), st.integers(-1, 40), st.integers(260, 301)))
def test_synthetic_generator_matches_the_frozen_reference(args, test_days):
    assert (_series_outcome(synthetic_series, args)
            == _series_outcome(synthetic_reference.synthetic_series, args))
    assert (_files_outcome(gen_synthetic, args, test_days)
            == _files_outcome(synthetic_reference.gen_synthetic, args, test_days))


def test_synthetic_output_loads_cleanly(tmp_path):
    manifest = gen_synthetic(tmp_path, locations=4, vars_per_location=3, days=120,
                             coupling=0.6, seed=3)
    ds = load_dataset(load_manifest(manifest))
    assert ds.n_days == 120
    assert ds.values.shape == (120, 4, 3)
    assert ds.variables[0] == "temperature"
    assert ds.test_start_idx == 120 - 12  # default test slice: last tenth


def test_uncoupled_latents_are_uncorrelated():
    # AR(1) sample correlations over 1000 days scatter with std ~0.06, so
    # this is a statistical bound; the seed is fixed where it holds with margin
    latents, _, _ = synthetic_series(4, 1, 1000, coupling=0.0, seed=24)
    for a in range(4):
        for b in range(a + 1, 4):
            rho = np.corrcoef(latents[:, a], latents[:, b])[0, 1]
            assert abs(rho) < 0.15


def test_coupling_raises_lagged_cross_correlation():
    def best_lagged_corr(latents, a, b):
        return max(abs(np.corrcoef(latents[:-lag, a], latents[lag:, b])[0, 1])
                   for lag in (1, 2, 3, 4))

    base, _, _ = synthetic_series(3, 1, 1000, coupling=0.0, seed=6)
    coupled, _, _ = synthetic_series(3, 1, 1000, coupling=0.8, seed=6)
    for a in range(3):
        for b in range(3):
            if a == b:
                continue
            assert best_lagged_corr(coupled, a, b) > best_lagged_corr(base, a, b)


def test_synthetic_series_is_stationary_at_high_coupling():
    latents, values, _ = synthetic_series(5, 3, 2000, coupling=1.0, seed=8)
    assert np.all(np.isfinite(latents)) and np.all(np.isfinite(values))
    assert np.max(np.abs(latents)) < 50.0


def test_manifest_relative_paths(tmp_path):
    sub = tmp_path / "deep"
    sub.mkdir()
    write_csv(sub / "a.csv", "2020-01-01", [(1.0, 2.0)] * 3)
    (sub / "m.txt").write_text("alpha,a.csv\ntarget=alpha:temperature\n")
    manifest = load_manifest(sub / "m.txt")
    assert manifest.locations[0][1] == (sub / "a.csv").resolve()


@pytest.mark.parametrize("test_range", [None, ("2020-01-01", "2020-01-02")])
def test_header_only_csv_is_a_format_error(tmp_path, test_range):
    # without a test range this reached a reshape of an empty array; with
    # one, the date-alignment message indexed the empty date list
    manifest = two_location_manifest(tmp_path, [], [], test_range=test_range)
    with pytest.raises(CsvFormatError, match="a.csv: header but no data rows"):
        load_dataset(load_manifest(manifest))


def test_nul_byte_in_manifest_path_is_a_manifest_error(tmp_path):
    path = tmp_path / "m.txt"
    path.write_text("alpha,a\0.csv\ntarget=alpha:temperature\n")
    with pytest.raises(ManifestError, match=f"{path}:1"):
        load_manifest(path)


def test_oversized_csv_field_is_a_format_error(tmp_path):
    (tmp_path / "a.csv").write_text("date,temperature\n2020-01-01," + "1" * 200_000 + "\n")
    (tmp_path / "m.txt").write_text("alpha,a.csv\ntarget=alpha:temperature\n")
    with pytest.raises(CsvFormatError, match="a.csv:2: field larger than field limit"):
        load_dataset(load_manifest(tmp_path / "m.txt"))


def test_oversized_field_of_a_clean_looking_file_is_a_format_error(tmp_path):
    # every cell is a finite float, but the csv module refuses the long one
    (tmp_path / "a.csv").write_text(
        "date,t\n2020-01-01,0." + "0" * 200_000 + "1\n2020-01-02,1.0\n")
    (tmp_path / "m.txt").write_text("alpha,a.csv\ntarget=alpha:t\n")
    with pytest.raises(CsvFormatError, match="a.csv:2: field larger than field limit"):
        load_dataset(load_manifest(tmp_path / "m.txt"))


def test_a_read_error_while_csv_reader_streams_names_the_file(tmp_path, monkeypatch):
    path = tmp_path / "quoted.csv"
    path.write_text('date,t\n2020-01-01,"1.0"\n2020-01-02,"2.0"\n')

    def failing_reader(*args, **kwargs):
        raise OSError(5, "Input/output error")

    monkeypatch.setattr("stlstm.data.csv.reader", failing_reader)
    with pytest.raises(DataError, match=f"cannot read {path}: .*Input/output error"):
        _read_location_csv(path, "error")


def test_clean_lf_and_crlf_files_load_without_csv_reader(tmp_path, monkeypatch):
    manifest = gen_synthetic(tmp_path / "lf", locations=1, vars_per_location=3, days=60,
                             coupling=0.0, seed=2)
    lf = manifest.parent / "loc1.csv"
    crlf = tmp_path / "crlf.csv"
    crlf.write_bytes(lf.read_bytes().replace(b"\n", b"\r\n"))

    def no_csv_reader(*args, **kwargs):
        raise AssertionError("a clean file went through csv.reader")

    monkeypatch.setattr(csv, "reader", no_csv_reader)
    dates, variables, values = _read_location_csv(lf, "error")
    crlf_dates, crlf_variables, crlf_values = _read_location_csv(crlf, "error")
    assert (crlf_dates, crlf_variables) == (dates, variables)
    assert np.array_equal(crlf_values.view(np.int64), values.view(np.int64))
    assert values.shape == (60, 3) and len(dates) == 60

    # a clean file that needs the per-cell loop is not handed to csv.reader either
    lines = lf.read_text().splitlines()
    na_lines, bad_date_lines = lines.copy(), lines.copy()
    na_lines[5] = ",".join(lines[5].split(",")[:2] + ["NA"] + lines[5].split(",")[3:])
    bad_date_lines[7] = "2007-01-32" + lines[7][len("2007-01-07"):]
    filled = values.copy()
    filled[4, 1] = filled[3, 1]
    for eol in ("\n", "\r\n"):
        na, bad_date = tmp_path / f"na{len(eol)}.csv", tmp_path / f"bad-date{len(eol)}.csv"
        na.write_bytes((eol.join(na_lines) + eol).encode())
        bad_date.write_bytes((eol.join(bad_date_lines) + eol).encode())
        na_dates, _, na_values = _read_location_csv(na, "ffill")
        assert na_dates == dates
        assert np.array_equal(na_values.view(np.int64), filled.view(np.int64))
        with pytest.raises(CsvFormatError) as info:
            _read_location_csv(bad_date, "error")
        assert str(info.value) == f"{bad_date}:8: bad ISO date '2007-01-32'"


def test_date_axis_ending_at_date_max_is_an_alignment_error(tmp_path):
    (tmp_path / "a.csv").write_text("date,temperature\n9999-12-31,1.0\n2020-01-01,2.0\n")
    (tmp_path / "m.txt").write_text("alpha,a.csv\ntarget=alpha:temperature\n")
    with pytest.raises(DateAlignmentError, match="9999-12-31 followed by 2020-01-01"):
        load_dataset(load_manifest(tmp_path / "m.txt"))


def test_overflowing_normalization_stats_are_a_data_error(tmp_path):
    # every cell is finite, but their sum is not
    manifest = two_location_manifest(tmp_path, [(1.0, 2.0)] * 3, [(1e308, 2.0)] * 3)
    with pytest.raises(DataError, match="beta:temperature"):
        load_dataset(load_manifest(manifest))
