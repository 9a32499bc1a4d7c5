import csv
import io
import json

import numpy as np
import pytest

from stlstm import EvalReport, ShapeError, comparison_csv, comparison_report, comparison_text, mae, median_low, mse
from stlstm.errors import NonFiniteResultError, ReportError
from stlstm.metrics import REPORT_CSV_HEADER


def test_mae_mse_hand_values():
    assert mae([1.0, 2.0], [1.0, 3.0]) == 0.5
    assert mse([1.0, 2.0], [1.0, 3.0]) == 0.5
    assert mae([0.0], [3.0]) == 3.0
    assert mse([0.0], [3.0]) == 9.0


def test_perfect_predictions_score_zero():
    v = [0.5, -1.0, 2.0]
    assert mae(v, v) == 0.0
    assert mse(v, v) == 0.0


def test_errors_on_empty_or_mismatched():
    with pytest.raises(ShapeError):
        mae([], [])
    with pytest.raises(ShapeError):
        mse([1.0], [1.0, 2.0])


@pytest.mark.parametrize("preds,truths,refused", [
    ([1e200, 0.0], [0.0, 0.0], mse),                  # the square overflows
    ([1.7e308, 1.7e308], [-1.7e308, 0.0], mae),       # the difference overflows
    ([1.0, np.nan], [1.0, 2.0], mae),
    ([1.0, -np.inf], [1.0, 2.0], mse),
])
def test_a_non_finite_metric_is_refused(preds, truths, refused):
    with pytest.raises(NonFiniteResultError, match=refused.__name__.upper()):
        refused(preds, truths)


def test_a_report_whose_mse_overflows_is_refused(tmp_path):
    with pytest.raises(NonFiniteResultError, match="MSE"):
        make_report("stacked", preds=(1e200, 1.0))
    path = tmp_path / "rep.json"
    rep = make_report("stacked")
    path.write_text(rep.to_json().replace(f'"prediction": {rep.predictions[0]!r}',
                                          '"prediction": 1e200', 1))
    with pytest.raises(ReportError, match="MSE"):
        EvalReport.load(path)


def test_mae_translation_invariant_and_jensen():
    rng = np.random.default_rng(0)
    for _ in range(20):
        p = rng.normal(size=30)
        t = rng.normal(size=30)
        assert abs(mae(p + 5.0, t + 5.0) - mae(p, t)) < 1e-12
        assert mae(p, t) ** 2 <= mse(p, t) + 1e-12


def test_median_low_rules():
    assert median_low([4.0]) == 4.0
    assert median_low([3.0, 1.0, 2.0, 5.0, 4.0]) == 3.0
    assert median_low([1.0, 2.0, 3.0, 4.0]) == 2.0  # lower-middle on even counts
    with pytest.raises(ShapeError):
        median_low([])


def make_report(kind, q=1, act="tanh", testset="nov", preds=(1.0, 2.0), truths=(1.0, 1.0)):
    n = len(preds)
    return EvalReport(model_kind=kind, horizon=q, target="alpha:temperature",
                      activation=act, testset=testset,
                      window_ids=list(range(n)),
                      dates=[f"2020-01-{d + 1:02d}" for d in range(n)],
                      predictions=list(preds), truths=list(truths))


def test_eval_report_summaries_and_json_round_trip(tmp_path):
    rep = make_report("stacked")
    assert rep.mae == 0.5
    assert rep.mse == 0.5
    assert rep.n_windows == 2
    path = tmp_path / "rep.json"
    rep.save(path)
    back = EvalReport.load(path)
    assert back.mae == rep.mae and back.model_kind == "stacked"
    assert back.predictions == rep.predictions


def test_single_report_yields_one_cell():
    rows = comparison_report([make_report("stacked")])
    assert len(rows) == 2  # MAE and MSE rows of the one cell
    assert rows[0].st_stacked is None
    assert rows[0].winner == ""


def test_duplicate_cell_is_an_error():
    with pytest.raises(ReportError):
        comparison_report([make_report("stacked"), make_report("stacked")])


def test_winner_marking_and_ties():
    a = make_report("stacked", preds=(1.0, 1.0), truths=(1.0, 1.0))        # 0 error
    b = make_report("st_stacked", preds=(2.0, 2.0), truths=(1.0, 1.0))     # worse
    rows = comparison_report([a, b])
    assert all(r.winner == "stacked" for r in rows)

    tie_a = make_report("stacked", preds=(2.0,), truths=(1.0,))
    tie_b = make_report("st_stacked", preds=(0.0,), truths=(-1.0,))
    rows = comparison_report([tie_a, tie_b])
    assert all(r.winner == "tie" for r in rows)
    text = comparison_text(rows)
    assert text.count("*") == 4  # both sides starred on both metric rows


def test_comparison_grid_layout_and_csv():
    reports = []
    for q in (1, 2, 3):
        reports.append(make_report("stacked", q=q, preds=(2.0,), truths=(1.0,)))
        reports.append(make_report("st_stacked", q=q, preds=(1.5,), truths=(1.0,)))
    rows = comparison_report(reports)
    assert len(rows) == 6  # 3 horizons x 2 metrics
    assert [r.steps_ahead for r in rows] == [1, 1, 2, 2, 3, 3]
    assert all(r.winner == "st_stacked" for r in rows)
    csv_text = comparison_csv(rows)
    lines = csv_text.strip().splitlines()
    assert lines[0] == REPORT_CSV_HEADER
    assert len(lines) == 7
    assert lines[1] == "nov,1,alpha:temperature,tanh,MAE,1.0,0.5,st_stacked"


@pytest.mark.parametrize("testset", ['a\nb,"c', "x\ry", "x\r\ny", 'say "hi"', "p,q"])
def test_comparison_csv_quotes_a_text_field_so_each_row_reads_back_whole(testset):
    rows = comparison_report([make_report("stacked", testset=testset),
                              make_report("st_stacked", testset=testset, preds=(1.0, 1.5))])
    text = comparison_csv(rows)
    # every row ends in "\n": a "\r\n" is only ever inside the quoted label
    assert text.endswith("\n") and "\r\n" not in text.replace(testset.replace('"', '""'), "")
    read = list(csv.reader(io.StringIO(text, newline="")))
    assert read[0] == REPORT_CSV_HEADER.split(",")
    assert read[1:] == [[testset, "1", "alpha:temperature", "tanh", "MAE", "0.5", "0.25",
                         "st_stacked"],
                        [testset, "1", "alpha:temperature", "tanh", "MSE", "0.5", "0.125",
                         "st_stacked"]]


def test_report_invariant_rejects_impossible_pairs():
    # mae <= sqrt(mse) holds for any real prediction list, so construction
    # from consistent data never trips the check
    rng = np.random.default_rng(1)
    rep = make_report("stacked", preds=tuple(rng.normal(size=50)),
                      truths=tuple(rng.normal(size=50)))
    assert rep.mae <= np.sqrt(rep.mse) + 1e-12


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_report_rejects_non_finite_values(bad):
    with pytest.raises(ReportError, match="non-finite"):
        make_report("stacked", preds=(1.0, bad))
    with pytest.raises(ReportError, match="non-finite"):
        make_report("stacked", truths=(bad, 1.0))


def test_report_invariant_tolerates_rounding_of_large_equal_errors():
    # mean |e| rounds to 1000000.8000000002 here, sqrt(mean e^2) to 1000000.8
    rep = make_report("stacked", preds=(1000000.8,) * 3, truths=(0.0,) * 3)
    assert rep.mae > np.sqrt(rep.mse)


def test_report_invariant_is_checked_without_assert(monkeypatch):
    # a broken mae must be caught by an error that survives python -O
    monkeypatch.setattr("stlstm.metrics.mae", lambda p, t: 10.0)
    with pytest.raises(ReportError, match="sqrt"):
        make_report("stacked")


def test_malformed_report_json_is_a_report_error(tmp_path):
    path = tmp_path / "rep.json"
    empty = ('{"model_kind": "stacked", "horizon": 1, "target": "a:b", "activation": "tanh", '
             '"testset": "t", "windows": []}')
    for text in ("{", '{"model_kind": "stacked"}', "[]", empty):
        path.write_text(text)
        with pytest.raises(ReportError):
            EvalReport.load(path)


@pytest.mark.parametrize("field,value", [
    ("model_kind", 1), ("target", None), ("activation", ["tanh"]), ("testset", ["x"]),
    ("horizon", "1"), ("horizon", True), ("horizon", 1.0),
    ("window_id", "0"), ("window_id", False), ("date", 20200101),
    ("prediction", "1.0"), ("prediction", True), ("truth", None), ("truth", [1.0]),
])
def test_a_report_field_of_the_wrong_json_type_is_a_report_error(tmp_path, field, value):
    raw = json.loads(make_report("stacked").to_json())
    (raw["windows"][0] if field in raw["windows"][0] else raw)[field] = value
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(raw))
    with pytest.raises(ReportError, match=f"field '{field}' has the wrong JSON type"):
        EvalReport.load(path)


def test_a_report_takes_integer_numbers(tmp_path):
    raw = json.loads(make_report("stacked").to_json())
    raw["windows"][0]["prediction"] = 1
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(raw))
    assert EvalReport.load(path).predictions[0] == 1


@pytest.mark.parametrize("field,value,fragment", [
    ("model_kind", "stacekd", "unknown model_kind 'stacekd'"),
    ("model_kind", "", "unknown model_kind ''"),
    ("activation", "relu", "unknown activation 'relu'"),
    ("horizon", 0, "horizon must be >= 1, got 0"),
    ("horizon", -3, "horizon must be >= 1, got -3"),
])
def test_a_report_outside_the_models_domain_is_a_report_error(tmp_path, field, value, fragment):
    raw = json.loads(make_report("stacked").to_json())
    raw[field] = value
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(raw))
    with pytest.raises(ReportError, match=fragment):
        EvalReport.load(path)
