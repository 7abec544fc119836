"""Evaluation primitives: confusion counts, precision/recall/F1, ROC AUC, wall timing.

Convention everywhere: label 1 = anomaly = positive class. Degenerate 0/0
ratios evaluate to 0 instead of raising, so threshold sweeps never abort.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from .errors import LengthMismatchError, SingleClassInputError


@dataclass(frozen=True)
class ConfusionMatrix:
    tp: int
    fp: int
    tn: int
    fn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn


@dataclass(frozen=True)
class EvalReport:
    """One benchmark table row: timings, ranking metric, thresholded metrics."""

    method: str
    train_time_s: float
    inference_time_s: float
    roc_auc: float
    precision: float
    recall: float
    f1: float
    confusion: ConfusionMatrix
    threshold: float


def confusion(labels, predictions) -> ConfusionMatrix:
    """Count tp/fp/tn/fn for 0/1 label and prediction vectors."""
    y = np.asarray(labels, dtype=int).ravel()
    p = np.asarray(predictions, dtype=int).ravel()
    if y.size != p.size:
        raise LengthMismatchError(
            f"labels ({y.size}) and predictions ({p.size}) differ in length"
        )
    if y.size == 0:
        raise LengthMismatchError("empty label vector")
    tp = int(np.sum((y == 1) & (p == 1)))
    fp = int(np.sum((y == 0) & (p == 1)))
    tn = int(np.sum((y == 0) & (p == 0)))
    fn = int(np.sum((y == 1) & (p == 0)))
    return ConfusionMatrix(tp=tp, fp=fp, tn=tn, fn=fn)


def precision_recall_f1(cm: ConfusionMatrix) -> tuple[float, float, float]:
    """Precision, recall and their harmonic mean; 0/0 cases yield 0."""
    precision = cm.tp / (cm.tp + cm.fp) if (cm.tp + cm.fp) > 0 else 0.0
    recall = cm.tp / (cm.tp + cm.fn) if (cm.tp + cm.fn) > 0 else 0.0
    denom = precision + recall
    f1 = 2.0 * precision * recall / denom if denom > 0 else 0.0
    return precision, recall, f1


def roc_auc(labels, scores) -> float:
    """Rank-statistic ROC AUC: P(score_pos > score_neg) with ties half-credited.

    Computed from average ranks in O(n log n); equals the trapezoidal area
    under the ROC curve.
    """
    y = np.asarray(labels, dtype=int).ravel()
    s = np.asarray(scores, dtype=float).ravel()
    if y.size != s.size:
        raise LengthMismatchError(
            f"labels ({y.size}) and scores ({s.size}) differ in length"
        )
    n_pos = int(np.sum(y == 1))
    n_neg = int(np.sum(y == 0))
    if n_pos == 0 or n_neg == 0:
        raise SingleClassInputError("ROC AUC needs at least one positive and one negative")
    ranks = _average_ranks(s)
    rank_sum_pos = float(ranks[y == 1].sum())
    return (rank_sum_pos - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks with ties assigned the mean rank of their group."""
    _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    cum = np.cumsum(counts)
    group_avg = (cum - counts + 1 + cum) / 2.0
    return group_avg[inverse]


def timed(run: Callable[[], Any]) -> tuple[Any, float]:
    """Run a zero-argument procedure and return (result, wall seconds).

    Monotonic clock at full resolution. Callers pass preloaded inputs so
    data loading never lands inside the measurement.
    """
    start = time.perf_counter()
    result = run()
    return result, time.perf_counter() - start
