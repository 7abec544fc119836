import itertools

import numpy as np
import pytest

from aad.detector_api import _sq_distances
from aad.errors import DegenerateDataWarning, PipelineError
from aad.kmeans import _MAX_ITER, _TOL, KMeansDetector, kmeans_fit, kmeans_pp_init, kmeans_score

from conftest import random_frames


def lloyd_oracle(rows, initial_centroids, max_iter=300, tol=1e-4):
    """Plain-loop Lloyd reference, independent of the library implementation."""
    centroids = initial_centroids.copy()
    k = centroids.shape[0]
    for _ in range(max_iter):
        d2 = ((rows[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        labels = d2.argmin(axis=1)
        new_centroids = centroids.copy()
        for j in range(k):
            members = labels == j
            if members.any():
                new_centroids[j] = rows[members].mean(axis=0)
        shift = np.max(np.sqrt(((new_centroids - centroids) ** 2).sum(axis=1)))
        centroids = new_centroids
        if shift < tol:
            break
    d2 = ((rows[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    return centroids, d2.argmin(axis=1)


def reseeding_reference(rows, k, seed):
    """kmeans_fit's loop with its empty-cluster rule written one cluster and one point at a time.

    Each empty cluster, in cluster order, takes the next point farthest from its
    assigned centroid (equally far points in np.argsort's order, reversed). The
    distances are _sq_distances's, so every result can match bit for bit.
    Returns the centroids, inertia history, iterations run and re-seeding steps.
    """
    n = len(rows)
    centroids = kmeans_pp_init(rows, k, np.random.default_rng(seed))
    history, iterations, reseeding_steps = [], 0, 0
    for _ in range(_MAX_ITER):
        d2 = _sq_distances(rows, centroids)
        labels = d2.argmin(axis=1)
        min_d2 = d2[np.arange(n), labels]
        history.append(float(min_d2.sum()))
        farthest = iter(np.argsort(min_d2)[::-1])
        new_centroids = centroids.copy()
        reseeded = False
        for j in range(k):
            members = [i for i in range(n) if labels[i] == j]
            if members:
                new_centroids[j] = rows[members].mean(axis=0)
            else:
                new_centroids[j] = rows[next(farthest)]
                reseeded = True
        reseeding_steps += reseeded
        shift = float(np.max(np.linalg.norm(new_centroids - centroids, axis=1)))
        centroids = new_centroids
        iterations += 1
        if shift < _TOL:
            break
    history.append(float(_sq_distances(rows, centroids).min(axis=1).sum()))
    return centroids, tuple(history), iterations, reseeding_steps


def duplicate_heavy(seed):
    """Fewer distinct points than k, each repeated: k-means++ seeds duplicate centroids."""
    g = np.random.default_rng(seed)
    k = int(g.integers(3, 9))
    distinct = g.standard_normal((int(g.integers(2, k)), int(g.integers(1, 5)))) * 4
    rows = np.repeat(distinct, g.integers(1, 30, len(distinct)), axis=0)
    if len(rows) < k:
        rows = np.vstack([rows, np.repeat(rows[:1], k, axis=0)])
    g.shuffle(rows)
    return rows, k


def blob_data(seed=4, per_blob=20):
    gen = np.random.default_rng(seed)
    centers = np.array([[0.0, 0.0], [8.0, 0.0], [4.0, 7.0]])
    return np.vstack([c + 0.3 * gen.standard_normal((per_blob, 2)) for c in centers])


class TestFit:
    def test_separable_pair(self):
        model = kmeans_fit(np.array([[0.0], [10.0]]), k=2, seed=0)
        assert sorted(model.centroids.ravel()) == [0.0, 10.0]
        assert model.inertia == 0.0

    def test_k1_closed_form(self, rng):
        rows = rng.standard_normal((60, 4))
        model = kmeans_fit(rows, k=1, seed=0)
        assert model.centroids[0] == pytest.approx(rows.mean(axis=0), abs=1e-12)
        assert model.inertia == pytest.approx(((rows - rows.mean(axis=0)) ** 2).sum(), rel=1e-12)

    def test_three_blobs_match_lloyd_oracle(self):
        rows = blob_data()
        model = kmeans_fit(rows, k=3, seed=9)
        init = kmeans_pp_init(rows, 3, np.random.default_rng(9))
        _, oracle_labels = lloyd_oracle(rows, init)
        d2 = ((rows[:, None, :] - model.centroids[None, :, :]) ** 2).sum(axis=2)
        mine = d2.argmin(axis=1)
        assert any(
            np.array_equal(mine, np.array([perm[l] for l in oracle_labels]))
            for perm in itertools.permutations(range(3))
        )

    def test_inertia_history_non_increasing(self):
        for seed in range(20):
            rows = np.random.default_rng(seed).standard_normal((80, 3))
            model = kmeans_fit(rows, k=5, seed=seed)
            history = model.inertia_history
            assert all(a >= b - 1e-9 * max(abs(a), 1.0) for a, b in zip(history, history[1:]))

    def test_seed_determinism_bit_exact(self):
        rows = blob_data(seed=11)
        a = kmeans_fit(rows, k=4, seed=123)
        b = kmeans_fit(rows, k=4, seed=123)
        assert np.array_equal(a.centroids, b.centroids)
        assert a.inertia == b.inertia
        assert a.iterations_run == b.iterations_run

    def test_different_seeds_can_differ(self):
        rows = np.random.default_rng(0).standard_normal((40, 2))
        a = kmeans_fit(rows, k=3, seed=1)
        b = kmeans_fit(rows, k=3, seed=2)
        # inertia may coincide; the run metadata must still record the seed
        assert a.seed == 1 and b.seed == 2

    def test_too_few_samples(self):
        with pytest.raises(PipelineError, match="2 rows < k = 5"):
            kmeans_fit(np.ones((2, 3)), k=5)

    @pytest.mark.parametrize("k", [0, -2])
    def test_k_below_one_rejected(self, k):
        with pytest.raises(ValueError, match=f"k must be >= 1, got {k}"):
            kmeans_fit(np.ones((4, 3)), k=k)

    def test_degenerate_identical_rows(self):
        rows = np.tile([1.0, 2.0], (10, 1))
        with pytest.warns(DegenerateDataWarning):
            model = kmeans_fit(rows, k=3, seed=0)
        assert model.inertia == 0.0
        assert np.all(model.centroids == rows[0])

    def test_empty_cluster_reinit_keeps_k_centroids(self):
        # duplicate-heavy data often empties a k-means++ cluster mid-run
        rows = np.vstack([np.zeros((30, 2)), np.ones((2, 2)) * 50.0])
        model = kmeans_fit(rows, k=4, seed=3)
        assert model.centroids.shape == (4, 2)
        assert np.all(np.isfinite(model.centroids))

    @pytest.mark.parametrize("seed", range(40))
    def test_empty_clusters_take_the_farthest_points_in_cluster_order(self, seed):
        rows, k = duplicate_heavy(seed)
        model = kmeans_fit(rows, k=k, seed=seed)
        centroids, history, iterations, reseeding_steps = reseeding_reference(rows, k, seed)
        assert reseeding_steps > 0
        assert model.centroids.tobytes() == centroids.tobytes()
        assert model.inertia_history == history
        assert model.iterations_run == iterations


class TestScore:
    def test_point_on_centroid_scores_zero(self):
        model = kmeans_fit(np.array([[0.0], [10.0]]), k=2, seed=0)
        assert kmeans_score(model, np.array([[10.0]])).scores[0] == 0.0

    def test_midpoint_distance(self):
        model = kmeans_fit(np.array([[0.0], [10.0]]), k=2, seed=0)
        assert kmeans_score(model, np.array([[5.0]])).scores[0] == 5.0

    def test_matches_brute_force_min_distance(self, rng):
        rows = rng.standard_normal((100, 6))
        model = kmeans_fit(rows, k=7, seed=5)
        probes = rng.standard_normal((40, 6))
        scores = kmeans_score(model, probes).scores
        for i, x in enumerate(probes):
            expected = min(np.sqrt(((x - c) ** 2).sum()) for c in model.centroids)
            assert scores[i] == pytest.approx(expected, abs=1e-12)

    def test_training_scores_bounded_by_max_assigned_distance(self, rng):
        rows = rng.standard_normal((120, 4))
        model = kmeans_fit(rows, k=6, seed=7)
        scores = kmeans_score(model, rows).scores
        d2 = ((rows[:, None, :] - model.centroids[None, :, :]) ** 2).sum(axis=2)
        assigned = np.sqrt(d2[np.arange(120), d2.argmin(axis=1)])
        assert np.max(scores) <= assigned.max() + 1e-12

    def test_dimension_mismatch(self):
        model = kmeans_fit(np.zeros((4, 3)) + np.arange(4)[:, None], k=2, seed=0)
        with pytest.raises(PipelineError, match="feature dimension 5 != model dimension 3"):
            kmeans_score(model, np.zeros((2, 5)))


class TestDetectorWrapper:
    def test_fit_score_on_frames(self):
        train = random_frames(num_frames=40, n_mels=6, frame_size=4, seed=1)
        det = KMeansDetector(k=4, seed=2).fit(train)
        scores = det.score(random_frames(num_frames=10, n_mels=6, frame_size=4, seed=2))
        assert scores.scores.shape == (10,)
        assert np.all(np.isfinite(scores.scores))

    def test_wrapper_deterministic(self):
        train = random_frames(num_frames=40, n_mels=6, frame_size=4, seed=1)
        probe = random_frames(num_frames=10, n_mels=6, frame_size=4, seed=2)
        a = KMeansDetector(k=4, seed=2).fit(train).score(probe).scores
        b = KMeansDetector(k=4, seed=2).fit(train).score(probe).scores
        assert np.array_equal(a, b)
