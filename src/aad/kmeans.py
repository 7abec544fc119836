"""K-Means on normal frames; anomaly score = distance to the nearest centroid.

Fitting is k-means++ seeding followed by Lloyd iterations, fully determined
by the seed. Each empty cluster, in cluster order, is re-seeded with the
next point farthest from its assigned centroid.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .detector_api import AnomalyScoreSeries, Detector, _sq_distances, check_dim
from .errors import DegenerateDataWarning, PipelineError


@dataclass
class KMeansModel:
    centroids: np.ndarray          # [k x d]
    k: int
    inertia: float
    iterations_run: int
    seed: int
    inertia_history: tuple[float, ...] = ()
    array_dtype: ClassVar[str] = "<f8"  # the array blocks' dtype in a model file

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"block 'k' is {self.k}, a model needs k >= 1")
        if self.centroids.ndim != 2 or self.centroids.shape[0] != self.k:
            raise ValueError(f"block 'centroids' is {self.centroids.shape}, k = {self.k} needs [{self.k} x d]")


def kmeans_pp_init(rows: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding: spread initial centroids by squared-distance sampling."""
    n = rows.shape[0]
    centroids = np.empty((k, rows.shape[1]))
    centroids[0] = rows[rng.integers(n)]
    d2 = np.sum((rows - centroids[0]) ** 2, axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total <= 0:
            idx = int(rng.integers(n))
        else:
            idx = int(rng.choice(n, p=d2 / total))
        centroids[j] = rows[idx]
        d2 = np.minimum(d2, np.sum((rows - centroids[j]) ** 2, axis=1))
    return centroids


def _check_k(k: int) -> None:
    """The one range rule of K-Means settings, for the detector and kmeans_fit."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")


_MAX_ITER = 300  # Lloyd iterations at most; the value of scikit-learn's KMeans max_iter
_TOL = 1e-4  # stop once no centroid moves this far; the value of scikit-learn's KMeans tol


def kmeans_fit(X, k: int = 8, seed: int = 0) -> KMeansModel:
    """Lloyd iterations from k-means++ seeding.

    Stops when the max centroid displacement drops below _TOL or _MAX_ITER
    is reached. inertia_history holds the nearest-centroid SSE before each
    update plus the final value; it is non-increasing.
    """
    _check_k(k)
    rows = np.asarray(X, dtype=np.float64)
    n = rows.shape[0]
    if n < k:
        raise PipelineError(f"{n} rows < k = {k}")

    if k > 1 and np.all(rows == rows[0]):
        warnings.warn("all training rows identical; duplicating the unique point", DegenerateDataWarning)
        centroids = np.tile(rows[0], (k, 1))
        return KMeansModel(
            centroids=centroids, k=k, inertia=0.0, iterations_run=0, seed=seed,
            inertia_history=(0.0,),
        )

    rng = np.random.default_rng(seed)
    centroids = kmeans_pp_init(rows, k, rng)
    history: list[float] = []
    iterations = 0
    rows_sq = np.sum(rows**2, axis=1)
    for _ in range(_MAX_ITER):
        d2 = _sq_distances(rows, centroids, a_sq=rows_sq)
        labels = np.argmin(d2, axis=1)
        min_d2 = d2[np.arange(n), labels]
        history.append(float(min_d2.sum()))

        counts = np.bincount(labels, minlength=k)
        new_centroids = np.empty_like(centroids)
        for j in np.flatnonzero(counts):
            new_centroids[j] = rows[labels == j].mean(axis=0)
        empties = np.flatnonzero(counts == 0)
        if empties.size:
            new_centroids[empties] = rows[np.argsort(min_d2)[::-1][: empties.size]]

        shift = float(np.max(np.linalg.norm(new_centroids - centroids, axis=1)))
        centroids = new_centroids
        iterations += 1
        if shift < _TOL:
            break

    d2 = _sq_distances(rows, centroids, a_sq=rows_sq)
    inertia = float(d2.min(axis=1).sum())
    history.append(inertia)
    return KMeansModel(
        centroids=centroids, k=k, inertia=inertia, iterations_run=iterations,
        seed=seed, inertia_history=tuple(history),
    )


def kmeans_score(model: KMeansModel, X) -> AnomalyScoreSeries:
    """Euclidean distance from each row to its nearest centroid."""
    rows = np.asarray(X, dtype=np.float64)
    check_dim(model.centroids.shape[1], rows.shape[1])
    d2 = _sq_distances(rows, model.centroids)
    return AnomalyScoreSeries(scores=np.sqrt(d2.min(axis=1)))


class KMeansDetector(Detector):
    """K-Means on standardized frame rows."""

    kind = "kmeans"
    model_type = KMeansModel
    vectorized = True

    def __init__(self, k: int = 8, seed: int = 0):
        _check_k(k)
        super().__init__(k=k, seed=seed)

    def _fit(self, rows) -> KMeansModel:
        return kmeans_fit(rows, **self.settings)

    def _score(self, rows) -> AnomalyScoreSeries:
        return kmeans_score(self.model, rows)
