import numpy as np
import pytest

from aad.calibration import (
    ThresholdCandidate,
    default_candidate,
    percentile,
    select_by_f1,
    sweep_thresholds,
)
from aad.errors import PipelineError
from aad.metrics import confusion, precision_recall_f1


class TestPercentile:
    def test_exact_median(self):
        assert percentile([1.0, 2.0, 3.0], 50.0) == 2.0

    def test_interpolated_95th_of_1_to_100(self):
        values = np.arange(1, 101, dtype=float)
        assert percentile(values, 95.0) == pytest.approx(95.05, abs=1e-12)

    def test_spec_noise_row(self):
        assert percentile([-80.0, -60.0, -40.0], 50.0) == -60.0

    def test_endpoints_are_min_and_max(self, rng):
        values = rng.standard_normal(57)
        assert percentile(values, 0.0) == values.min()
        assert percentile(values, 100.0) == values.max()

    def test_matches_sort_interpolate_oracle(self, rng):
        for _ in range(50):
            values = rng.standard_normal(int(rng.integers(1, 200)))
            p = float(rng.uniform(0, 100))
            s = np.sort(values)
            idx = p / 100.0 * (s.size - 1)
            lo, hi = int(np.floor(idx)), int(np.ceil(idx))
            expected = s[lo] if lo == hi else s[lo] + (idx - lo) * (s[hi] - s[lo])
            assert percentile(values, p) == pytest.approx(expected, abs=1e-12)

    def test_empty_raises(self):
        with pytest.raises(PipelineError, match="percentile of empty vector"):
            percentile([], 50.0)


class TestSweepThresholds:
    def test_constant_scores(self):
        cands = sweep_thresholds(np.full(40, 3.5))
        assert len(cands) == 19
        assert all(c.threshold == 3.5 for c in cands)

    def test_grid_endpoints_on_1_to_100(self):
        cands = sweep_thresholds(np.arange(1, 101, dtype=float))
        assert (cands[0].percentile, cands[-1].percentile) == (5.0, 95.0)
        assert cands[0].threshold == pytest.approx(5.95, abs=1e-12)
        assert cands[-1].threshold == pytest.approx(95.05, abs=1e-12)

    def test_monotone_in_percentile(self, rng):
        for _ in range(20):
            scores = rng.standard_normal(300)
            cands = sweep_thresholds(scores)
            thresholds = [c.threshold for c in cands]
            assert thresholds == sorted(thresholds)

    def test_empty_raises(self):
        with pytest.raises(PipelineError, match="cannot sweep thresholds over empty scores"):
            sweep_thresholds([])


class TestSelectByF1:
    def test_perfectly_separated(self, rng):
        scores = np.concatenate([rng.uniform(0, 1, 60), rng.uniform(5, 6, 30)])
        labels = np.array([0] * 60 + [1] * 30)
        cands = [ThresholdCandidate(50.0, 3.0)]
        result = select_by_f1(scores, labels, cands)
        assert result.f1 == 1.0
        assert result.threshold == 3.0

    def test_threshold_above_everything_gives_zero_f1(self):
        scores = np.array([0.1, 0.5, 0.9, 0.2])
        labels = np.array([0, 1, 1, 0])
        result = select_by_f1(scores, labels, [ThresholdCandidate(95.0, 100.0)])
        assert result.f1 == 0.0

    def test_matches_exhaustive_oracle(self, rng):
        for trial in range(30):
            scores = rng.standard_normal(200)
            labels = rng.integers(0, 2, 200)
            labels[0], labels[1] = 0, 1
            cands = sweep_thresholds(rng.standard_normal(150))
            result = select_by_f1(scores, labels, cands)

            best_f1, best_pct = -1.0, None
            for c in sorted(cands, key=lambda c: c.percentile):
                preds = (scores > c.threshold).astype(int)
                _, _, f1 = precision_recall_f1(confusion(labels, preds))
                if f1 > best_f1:
                    best_f1, best_pct = f1, c.percentile
            assert result.f1 == pytest.approx(best_f1, abs=1e-12)
            assert result.percentile == best_pct

    def test_chosen_f1_maximal_over_sweep(self, rng):
        scores = rng.standard_normal(300)
        labels = rng.integers(0, 2, 300)
        labels[0], labels[1] = 0, 1
        result = select_by_f1(scores, labels, sweep_thresholds(rng.standard_normal(100)))
        assert all(result.f1 >= row.f1 for row in result.sweep)

    def test_ties_prefer_lowest_percentile(self):
        # both candidates sit below every score: identical predictions, tied F1
        scores = np.array([1.0, 2.0, 3.0, 4.0])
        labels = np.array([0, 0, 1, 1])
        cands = [ThresholdCandidate(10.0, 0.5), ThresholdCandidate(20.0, 0.7)]
        result = select_by_f1(scores, labels, cands)
        assert result.percentile == 10.0

    def test_degenerate_labels_raise(self):
        with pytest.raises(PipelineError, match="F1 selection needs both classes present"):
            select_by_f1([1.0, 2.0], [1, 1], [ThresholdCandidate(50.0, 1.5)])

    def test_raising_threshold_never_increases_recall(self, rng):
        scores = rng.standard_normal(400)
        labels = rng.integers(0, 2, 400)
        labels[0], labels[1] = 0, 1
        result = select_by_f1(scores, labels, sweep_thresholds(scores))
        recalls = [row.recall for row in result.sweep]
        assert all(a >= b - 1e-12 for a, b in zip(recalls, recalls[1:]))


class TestDefaultCandidate:
    def test_picks_highest_percentile(self):
        cands = sweep_thresholds(np.arange(100.0))
        assert default_candidate(cands).percentile == 95.0

    def test_empty_raises(self):
        with pytest.raises(PipelineError, match="no threshold candidates"):
            default_candidate([])
