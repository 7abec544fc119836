import time

import numpy as np
import pytest

from aad.errors import PipelineError
from aad.metrics import ConfusionMatrix, confusion, precision_recall_f1, roc_auc, timed


def pairwise_auc(labels, scores):
    """Exhaustive (positive, negative) pair enumeration oracle."""
    labels = np.asarray(labels)
    scores = np.asarray(scores, dtype=float)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    credit = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                credit += 1.0
            elif p == n:
                credit += 0.5
    return credit / (pos.size * neg.size)


class TestConfusion:
    def test_all_positive(self):
        cm = confusion([1, 1, 1], [1, 1, 1])
        assert (cm.tp, cm.fp, cm.tn, cm.fn) == (3, 0, 0, 0)

    def test_direct_count(self):
        cm = confusion([1, 1, 0], [1, 0, 0])
        assert (cm.tp, cm.fn, cm.tn, cm.fp) == (1, 1, 1, 0)

    def test_matches_counting_oracle(self, rng):
        for _ in range(20):
            y = rng.integers(0, 2, 50)
            p = rng.integers(0, 2, 50)
            cm = confusion(y, p)
            assert cm.tp == sum(1 for a, b in zip(y, p) if a == 1 and b == 1)
            assert cm.fp == sum(1 for a, b in zip(y, p) if a == 0 and b == 1)
            assert cm.tn == sum(1 for a, b in zip(y, p) if a == 0 and b == 0)
            assert cm.fn == sum(1 for a, b in zip(y, p) if a == 1 and b == 0)
            assert cm.tp + cm.fp + cm.tn + cm.fn == 50

    def test_length_mismatch(self):
        with pytest.raises(PipelineError, match=r"labels \(2\) and predictions \(1\) differ in length"):
            confusion([1, 0], [1])

    @pytest.mark.parametrize("labels", [[1, 2, 0], [1, 0.7, 0]], ids=["two", "fraction"])
    def test_non_binary_label_raises(self, labels):
        with pytest.raises(PipelineError, match="labels must be 0 or 1"):
            confusion(labels, [1, 1, 0])


class TestPrecisionRecallF1:
    def test_table_row_kmeans_synthetic(self):
        # printed benchmark row: precision 0.9825, recall 0.9989 -> F1 0.9906
        p, r = 0.9825, 0.9989
        f1 = 2 * p * r / (p + r)
        assert f1 == pytest.approx(0.9906, abs=5e-4)

    def test_transient_event_counts(self):
        # 43 true positives with 150 false positives -> precision ~ 0.2228
        p, _, _ = precision_recall_f1(ConfusionMatrix(tp=43, fp=150, tn=0, fn=0))
        assert p == pytest.approx(43 / 193, abs=1e-12)
        assert p == pytest.approx(0.2228, abs=5e-4)

    def test_degenerate_zero_conventions(self):
        p, r, f1 = precision_recall_f1(ConfusionMatrix(tp=0, fp=0, tn=5, fn=0))
        assert (p, r, f1) == (0.0, 0.0, 0.0)

    def test_harmonic_mean_consistency(self, rng):
        for _ in range(50):
            cm = ConfusionMatrix(*(int(v) for v in rng.integers(0, 40, 4)))
            p, r, f1 = precision_recall_f1(cm)
            if p + r > 0:
                assert f1 == pytest.approx(2 * p * r / (p + r), abs=1e-12)
            else:
                assert f1 == 0.0

    @pytest.mark.parametrize(
        "p,r,f1",
        [
            (0.9825, 0.9989, 0.9906),
            (0.9615, 0.9994, 0.9801),
            (0.9814, 0.9972, 0.9893),
            (0.192, 0.861, 0.314),
            (0.150, 1.000, 0.261),
            # the sixth published row (0.219, 1.000, 0.360) is internally
            # inconsistent by ~7e-4 and is excluded as documented
        ],
    )
    def test_published_benchmark_rows_consistent(self, p, r, f1):
        assert 2 * p * r / (p + r) == pytest.approx(f1, abs=5e-4)


class TestRocAuc:
    def test_spec_example(self):
        labels = [1, 1, 0, 0]
        scores = [0.35, 0.8, 0.1, 0.4]
        assert roc_auc(labels, scores) == 0.75

    def test_perfect_separation(self, rng):
        labels = np.array([0] * 30 + [1] * 20)
        scores = np.concatenate([rng.uniform(0, 1, 30), rng.uniform(2, 3, 20)])
        assert roc_auc(labels, scores) == 1.0

    def test_all_ties(self):
        assert roc_auc([0, 1, 0, 1], [5.0, 5.0, 5.0, 5.0]) == 0.5

    def test_matches_pairwise_enumeration(self, rng):
        for trial in range(100):
            n = int(rng.integers(5, 300))
            labels = rng.integers(0, 2, n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            scores = np.round(rng.standard_normal(n), 2)  # rounding forces ties
            assert roc_auc(labels, scores) == pytest.approx(
                pairwise_auc(labels, scores), abs=1e-9
            )

    def test_complement_symmetry_tie_free(self, rng):
        labels = rng.integers(0, 2, 200)
        labels[0], labels[1] = 0, 1
        scores = rng.permutation(np.arange(200, dtype=float))
        assert roc_auc(labels, scores) + roc_auc(labels, -scores) == pytest.approx(1.0, abs=1e-12)

    def test_invariant_under_monotone_transform(self, rng):
        labels = rng.integers(0, 2, 150)
        labels[0], labels[1] = 0, 1
        scores = rng.standard_normal(150)
        base = roc_auc(labels, scores)
        assert roc_auc(labels, np.exp(scores)) == pytest.approx(base, abs=1e-12)
        assert roc_auc(labels, 3.0 * scores + 7.0) == pytest.approx(base, abs=1e-12)

    def test_single_class_raises(self):
        with pytest.raises(PipelineError, match="ROC AUC needs at least one positive and one negative"):
            roc_auc([1, 1, 1], [0.1, 0.2, 0.3])

    @pytest.mark.parametrize("labels", [[1, 2, 0], [1, 0.7, 0]], ids=["two", "fraction"])
    def test_non_binary_label_raises(self, labels):
        # a label of 2 counted as a positive gave an AUC above 1
        with pytest.raises(PipelineError, match="labels must be 0 or 1"):
            roc_auc(labels, [0.9, 0.8, 0.1])


class TestTimed:
    def test_noop_fast_and_nonnegative(self):
        _, seconds = timed(lambda: None)
        assert 0.0 <= seconds < 0.01

    def test_returns_result_and_finite_time(self):
        result, seconds = timed(lambda: sum(range(1000)))
        assert result == sum(range(1000))
        assert np.isfinite(seconds)
        _, again = timed(lambda: sum(range(1000)))
        assert np.isfinite(again)

    def test_measures_wall_time(self):
        _, seconds = timed(lambda: time.sleep(0.05))
        assert seconds >= 0.045
