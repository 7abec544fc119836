"""K-Means on normal frames; anomaly score = distance to the nearest centroid.

Fitting is k-means++ seeding followed by Lloyd iterations, fully determined
by the seed. Empty clusters are re-seeded with the point farthest from its
assigned centroid.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .detector_api import (
    KIND_KMEANS,
    AnomalyScoreSeries,
    Detector,
    Vectorizer,
    _sq_distances,
    check_dim,
)
from .errors import DegenerateDataWarning, TooFewSamplesError


@dataclass
class KMeansModel:
    centroids: np.ndarray          # [k x d]
    k: int
    inertia: float
    iterations_run: int
    seed: int
    inertia_history: tuple[float, ...] = ()


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


def kmeans_fit(X, k: int = 8, max_iter: int = 300, tol: float = 1e-4, seed: int = 0) -> KMeansModel:
    """Lloyd iterations from k-means++ seeding.

    Stops when the max centroid displacement drops below tol or max_iter is
    reached. inertia_history holds the nearest-centroid SSE before each
    update plus the final value; it is non-increasing.
    """
    rows = np.asarray(X, dtype=np.float64)
    n = rows.shape[0]
    if n < k:
        raise TooFewSamplesError(f"{n} rows < k = {k}")

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
    for _ in range(max_iter):
        d2 = _sq_distances(rows, centroids, a_sq=rows_sq)
        labels = np.argmin(d2, axis=1)
        min_d2 = d2[np.arange(n), labels]
        history.append(float(min_d2.sum()))

        new_centroids = centroids.copy()
        for j in range(k):
            members = labels == j
            if np.any(members):
                new_centroids[j] = rows[members].mean(axis=0)
        empties = [j for j in range(k) if not np.any(labels == j)]
        if empties:
            order = np.argsort(min_d2)[::-1]
            for slot, j in enumerate(empties):
                new_centroids[j] = rows[order[slot]]

        shift = float(np.max(np.linalg.norm(new_centroids - centroids, axis=1)))
        centroids = new_centroids
        iterations += 1
        if shift < tol:
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
    """Uniform-contract wrapper: vectorize frames, fit/score the K-Means core."""

    kind = KIND_KMEANS

    def __init__(self, k: int = 8, max_iter: int = 300, tol: float = 1e-4, seed: int = 0):
        super().__init__()
        self.k = k
        self.max_iter = max_iter
        self.tol = tol
        self.seed = seed
        self.vectorizer = Vectorizer()
        self.model: KMeansModel | None = None

    def fit(self, frames) -> "KMeansDetector":
        X = self.vectorizer.fit(frames)
        self.model = kmeans_fit(X, k=self.k, max_iter=self.max_iter, tol=self.tol, seed=self.seed)
        return self

    def score(self, frames) -> AnomalyScoreSeries:
        if self.model is None:
            raise ValueError("fit before score")
        return kmeans_score(self.model, self.vectorizer.transform(frames))
