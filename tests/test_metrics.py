"""Metric arithmetic, confusion normalization, and fold aggregation."""

import numpy as np
import pytest

from capsroute.metrics import (
    TABLE_COLUMNS,
    ConfusionMatrix,
    MetricsError,
    aggregate,
    metrics,
    normalize_confusion,
)


def metrics_oracle(tp, fn, fp, tn):
    """Direct arithmetic on the closed forms."""
    n = tp + fn + fp + tn
    acc = (tp + tn) / n
    sens = tp / (tp + fn) if tp + fn else None
    spec = tn / (tn + fp) if tn + fp else None
    prec = tp / (tp + fp) if tp + fp else None
    f1 = 2 * prec * sens / (prec + sens) if prec is not None and sens is not None and prec + sens else None
    return acc, f1, sens, spec, prec


class TestMetrics:
    def test_worked_example(self):
        rep = metrics(ConfusionMatrix(tp=40, fn=10, fp=5, tn=45))
        np.testing.assert_allclose(rep.accuracy, 0.85, atol=1e-15)
        np.testing.assert_allclose(rep.sensitivity, 0.80, atol=1e-15)
        np.testing.assert_allclose(rep.specificity, 0.90, atol=1e-15)
        np.testing.assert_allclose(rep.precision, 8.0 / 9.0, atol=1e-15)
        np.testing.assert_allclose(rep.f1, 16.0 / 19.0, atol=1e-15)  # 0.8421...

    def test_perfect_classifier(self):
        rep = metrics(ConfusionMatrix(tp=50, fn=0, fp=0, tn=50))
        assert rep.as_row() == (1.0, 1.0, 1.0, 1.0, 1.0)

    def test_undefined_precision_is_none_not_zero(self):
        rep = metrics(ConfusionMatrix(tp=0, fn=10, fp=0, tn=10))
        assert rep.precision is None
        assert rep.f1 is None
        assert rep.sensitivity == 0.0

    def test_accuracy_identity_on_random_matrices(self):
        # accuracy == (sens * P + spec * N) / (P + N), checked exactly
        rng = np.random.default_rng(0)
        for _ in range(1000):
            tp, fn, fp, tn = (int(v) for v in rng.integers(1, 200, size=4))
            rep = metrics(ConfusionMatrix(tp=tp, fn=fn, fp=fp, tn=tn))
            p, n = tp + fn, fp + tn
            identity = (rep.sensitivity * p + rep.specificity * n) / (p + n)
            assert rep.accuracy == pytest.approx(identity, abs=1e-15)

    def test_matches_oracle_on_random_matrices(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            tp, fn, fp, tn = (int(v) for v in rng.integers(0, 50, size=4))
            if tp + fn + fp + tn == 0:
                continue
            rep = metrics(ConfusionMatrix(tp=tp, fn=fn, fp=fp, tn=tn))
            want = metrics_oracle(tp, fn, fp, tn)
            for got_v, want_v in zip(rep.as_row(), want):
                if want_v is None:
                    assert got_v is None
                else:
                    assert got_v == pytest.approx(want_v, abs=1e-15)

    def test_negative_counts_rejected(self):
        with pytest.raises(MetricsError):
            ConfusionMatrix(tp=-1, fn=0, fp=0, tn=0)


class TestNormalize:
    def test_worked_example(self):
        grid = normalize_confusion(ConfusionMatrix(tp=40, fn=10, fp=5, tn=45))
        np.testing.assert_allclose(grid, [[0.9, 0.1], [0.2, 0.8]], atol=1e-15)

    def test_perfect_is_identity(self):
        grid = normalize_confusion(ConfusionMatrix(tp=7, fn=0, fp=0, tn=3))
        np.testing.assert_array_equal(grid, np.eye(2))

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            tp, fn, fp, tn = (int(v) for v in rng.integers(1, 100, size=4))
            grid = normalize_confusion(ConfusionMatrix(tp=tp, fn=fn, fp=fp, tn=tn))
            np.testing.assert_allclose(grid.sum(axis=1), 1.0, atol=1e-12)

    def test_empty_row_is_undefined(self):
        grid = normalize_confusion(ConfusionMatrix(tp=0, fn=0, fp=3, tn=7))
        assert grid.tolist() == [[0.7, 0.3], [None, None]]


class TestAggregate:
    def _report(self, value):
        from capsroute.metrics import MetricsReport

        return MetricsReport(accuracy=value, f1=value, sensitivity=value, specificity=value, precision=value)

    def test_identical_folds_zero_std(self):
        agg = aggregate([self._report(0.9)] * 5)
        for col in TABLE_COLUMNS:
            assert agg[col] == (0.9, 0.0)

    def test_two_fold_example(self):
        agg = aggregate([self._report(0.8), self._report(0.9)])
        mean, std = agg["Accuracy"]
        np.testing.assert_allclose(mean, 0.85, atol=1e-15)
        np.testing.assert_allclose(std, np.sqrt(0.005), atol=1e-15)  # ~0.0707

    def test_matches_two_pass_reference(self):
        rng = np.random.default_rng(3)
        values = rng.uniform(size=5)
        agg = aggregate([self._report(float(v)) for v in values])
        mean, std = agg["F1"]
        np.testing.assert_allclose(mean, values.mean(), atol=1e-12)
        np.testing.assert_allclose(std, values.std(ddof=1), atol=1e-12)

    def test_column_order(self):
        agg = aggregate([self._report(0.5)] * 2)
        assert tuple(agg.keys()) == ("Accuracy", "F1", "Sensitivity", "Specificity", "Precision")

    def test_undefined_excluded(self):
        from capsroute.metrics import MetricsReport

        folds = [
            MetricsReport(accuracy=0.8, f1=None, sensitivity=0.7, specificity=0.9, precision=None),
            MetricsReport(accuracy=0.9, f1=0.6, sensitivity=0.8, specificity=0.8, precision=0.5),
        ]
        agg = aggregate(folds)
        assert agg["Accuracy"][0] == pytest.approx(0.85)
        assert agg["F1"] == (0.6, None)  # single defined value: std undefined
        assert agg["Precision"] == (0.5, None)

    def test_all_undefined_is_none(self):
        from capsroute.metrics import MetricsReport

        folds = [MetricsReport(accuracy=0.5, f1=None, sensitivity=0.5, specificity=0.5, precision=None)] * 2
        agg = aggregate(folds)
        assert agg["F1"] == (None, None) and agg["Precision"] == (None, None)
        assert agg["Accuracy"] == (0.5, 0.0)

    def test_single_fold_rejected(self):
        with pytest.raises(MetricsError):
            aggregate([self._report(0.9)])
