import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from depfuse.errors import UsageError
from depfuse.metrics import (
    ConfusionMatrix,
    compute_confusion,
    evaluate_predictions,
    metrics_from_confusion,
    report_to_json,
)


class TestConfusion:
    def test_perfect_predictions(self):
        cm = compute_confusion([1, 1, 0, 0], [1, 1, 0, 0])
        assert (cm.tp, cm.tn, cm.fp, cm.fn) == (2, 2, 0, 0)

    def test_all_positive_predictor(self):
        cm = compute_confusion([1, 1, 1, 1], [1, 0, 1, 0])
        assert (cm.tp, cm.fp, cm.tn, cm.fn) == (2, 2, 0, 0)

    def test_all_wrong_negative(self):
        cm = compute_confusion([0] * 5, [1] * 5)
        assert cm.fn == 5 and cm.tp == cm.fp == cm.tn == 0

    def test_input_validation(self):
        with pytest.raises(UsageError):
            compute_confusion([1], [1, 0])
        with pytest.raises(UsageError):
            compute_confusion([], [])
        with pytest.raises(UsageError):
            compute_confusion([2], [0])


class TestMetricFormulas:
    def test_direct_arithmetic(self):
        report = metrics_from_confusion(ConfusionMatrix(tp=50, tn=40, fp=10, fn=0))
        assert report.accuracy == pytest.approx(0.9)
        assert report.precision == pytest.approx(50 / 60)
        assert report.recall == 1.0
        assert report.f1 == pytest.approx(10 / 11)

    def test_symmetric_quarters(self):
        report = metrics_from_confusion(ConfusionMatrix(tp=25, tn=25, fp=25, fn=25))
        assert (report.accuracy, report.precision, report.recall, report.f1) == (
            0.5,
            0.5,
            0.5,
            0.5,
        )

    def test_zero_division_conventions(self):
        never_positive = metrics_from_confusion(ConfusionMatrix(tp=0, tn=5, fp=0, fn=3))
        assert never_positive.precision == 0.0
        assert never_positive.f1 == 0.0
        no_positives_present = metrics_from_confusion(ConfusionMatrix(tp=0, tn=5, fp=2, fn=0))
        assert no_positives_present.recall == 0.0
        assert no_positives_present.f1 == 0.0

    def test_empty_matrix_rejected(self):
        with pytest.raises(UsageError):
            metrics_from_confusion(ConfusionMatrix(0, 0, 0, 0))

    def test_accuracy_label_symmetry(self):
        a = metrics_from_confusion(ConfusionMatrix(tp=7, tn=3, fp=2, fn=5))
        b = metrics_from_confusion(ConfusionMatrix(tp=3, tn=7, fp=5, fn=2))
        assert a.accuracy == b.accuracy


pred_label_lists = st.lists(
    st.tuples(st.integers(0, 1), st.integers(0, 1)), min_size=1, max_size=200
)


class TestProperties:
    @given(pred_label_lists)
    @settings(max_examples=200, deadline=None)
    def test_matches_recount_oracle(self, pairs):
        preds = [p for p, _ in pairs]
        labels = [y for _, y in pairs]
        report = evaluate_predictions(preds, labels)
        (tp, tn, fp, fn), (acc, prec, rec, f1) = oracles.metrics_recount(preds, labels)
        assert (report.confusion.tp, report.confusion.tn) == (tp, tn)
        assert (report.confusion.fp, report.confusion.fn) == (fp, fn)
        assert abs(report.accuracy - acc) <= 1e-12
        assert abs(report.precision - prec) <= 1e-12
        assert abs(report.recall - rec) <= 1e-12
        assert abs(report.f1 - f1) <= 1e-12

    @given(pred_label_lists)
    @settings(max_examples=100, deadline=None)
    def test_bounds_and_harmonic_mean(self, pairs):
        preds = [p for p, _ in pairs]
        labels = [y for _, y in pairs]
        report = evaluate_predictions(preds, labels)
        for value in (report.accuracy, report.precision, report.recall, report.f1):
            assert 0.0 <= value <= 1.0
        if report.precision > 0 and report.recall > 0:
            harmonic = 2.0 / (1.0 / report.precision + 1.0 / report.recall)
            assert abs(report.f1 - harmonic) <= 1e-12
        assert report.confusion.total == len(pairs)


class TestReportJson:
    def test_six_decimal_rendering(self):
        report = metrics_from_confusion(ConfusionMatrix(tp=9495, tn=0, fp=505, fn=0))
        text = report_to_json(report)
        assert '"accuracy":0.949500' in text
        assert '"precision":0.949500' in text

    def test_schema_round_trip(self):
        report = metrics_from_confusion(ConfusionMatrix(tp=50, tn=40, fp=10, fn=0))
        obj = json.loads(report_to_json(report))
        assert set(obj) == {"accuracy", "precision", "recall", "f1", "confusion"}
        assert set(obj["confusion"]) == {"tp", "tn", "fp", "fn"}
        assert obj["confusion"] == {"tp": 50, "tn": 40, "fp": 10, "fn": 0}
        assert obj["accuracy"] == pytest.approx(report.accuracy, abs=1e-6)
