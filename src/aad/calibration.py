"""Percentile threshold calibration.

Candidate thresholds come from the score distribution of a normal-only
validation split; the final threshold is either picked by F1 on a separately
labeled calibration split or, without labels, defaults to the highest-grid
percentile candidate. Predictions use strict inequality: score > threshold
flags a frame anomalous.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PipelineError
from .metrics import confusion, precision_recall_f1

DEFAULT_GRID = tuple(range(5, 100, 5))  # 5, 10, ..., 95


@dataclass(frozen=True)
class ThresholdCandidate:
    percentile: float
    threshold: float


@dataclass(frozen=True)
class SweepRow:
    percentile: float
    threshold: float
    precision: float
    recall: float
    f1: float


@dataclass(frozen=True)
class CalibrationResult:
    threshold: float
    percentile: float
    f1: float
    sweep: tuple[SweepRow, ...]


def percentile(values, p: float) -> float:
    """Linear-interpolation percentile: index p/100 * (n - 1) into sorted values."""
    v = np.asarray(values, dtype=float).ravel()
    if v.size == 0:
        raise PipelineError("percentile of empty vector")
    if not 0.0 <= p <= 100.0:
        raise ValueError(f"percentile p={p} outside [0, 100]")
    s = np.sort(v)
    idx = p / 100.0 * (s.size - 1)
    lo = int(np.floor(idx))
    hi = int(np.ceil(idx))
    if lo == hi:
        return float(s[lo])
    frac = idx - lo
    return float(s[lo] + frac * (s[hi] - s[lo]))


def sweep_thresholds(scores) -> list[ThresholdCandidate]:
    """One candidate per DEFAULT_GRID percentile of the validation scores."""
    s = np.asarray(scores, dtype=float).ravel()
    if s.size == 0:
        raise PipelineError("cannot sweep thresholds over empty scores")
    return [
        ThresholdCandidate(percentile=float(p), threshold=percentile(s, float(p)))
        for p in DEFAULT_GRID
    ]


def select_by_f1(scores, labels, candidates) -> CalibrationResult:
    """Pick the candidate maximizing F1; ties go to the lowest percentile."""
    s = np.asarray(scores, dtype=float).ravel()
    y = np.asarray(labels, dtype=int).ravel()
    if not candidates:
        raise PipelineError("no threshold candidates")
    if np.all(y == y[0] if y.size else True) or y.size == 0:
        raise PipelineError("F1 selection needs both classes present")

    rows = []
    for cand in sorted(candidates, key=lambda c: c.percentile):
        preds = (s > cand.threshold).astype(int)
        p, r, f1 = precision_recall_f1(confusion(y, preds))
        rows.append(SweepRow(cand.percentile, cand.threshold, p, r, f1))

    best = max(rows, key=lambda row: row.f1)  # the first of equals: the lowest percentile
    return CalibrationResult(
        threshold=best.threshold,
        percentile=best.percentile,
        f1=best.f1,
        sweep=tuple(rows),
    )


def default_candidate(candidates) -> ThresholdCandidate:
    """Fallback when no labeled calibration split exists: highest grid percentile."""
    if not candidates:
        raise PipelineError("no threshold candidates")
    return max(candidates, key=lambda c: c.percentile)
