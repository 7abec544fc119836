import dataclasses

import numpy as np
import pytest

from aad import ocsvm
from aad.errors import DimensionMismatchError, InfeasibleNuError, NonConvergenceWarning
from aad.ocsvm import OcSvmDetector, ocsvm_decision, ocsvm_fit, ocsvm_score, rbf_kernel_block, resolve_gamma

from conftest import random_frames


def projected_gradient_oracle(K, C, iters=5000):
    """Dense projected-gradient solver for the same dual; no SMO machinery."""

    def project(v):
        lo, hi = v.min() - C - 1.0, v.max() + 1.0
        for _ in range(100):
            lam = 0.5 * (lo + hi)
            if np.clip(v - lam, 0.0, C).sum() > 1.0:
                lo = lam
            else:
                hi = lam
        return np.clip(v - 0.5 * (lo + hi), 0.0, C)

    n = K.shape[0]
    alpha = project(np.full(n, 1.0 / n))
    step = 1.0 / np.linalg.eigvalsh(K).max()
    for _ in range(iters):
        alpha = project(alpha - step * (K @ alpha))
    return alpha, 0.5 * alpha @ K @ alpha


class TestFit:
    def test_single_point_analytic(self):
        model = ocsvm_fit(np.array([[1.5, -2.0]]), nu=0.7, gamma=0.3)
        assert model.alphas == pytest.approx([1.0])
        assert model.rho == 1.0
        score = ocsvm_score(model, np.array([[1.5, -2.0]])).scores[0]
        assert score == pytest.approx(0.0, abs=1e-12)

    def test_duplicated_point_matches_single(self):
        x = np.array([[0.5, 0.5]])
        double = np.vstack([x, x])
        model = ocsvm_fit(double, nu=0.5, gamma=0.7, tol=1e-6)
        assert model.rho == pytest.approx(1.0, abs=1e-9)
        probes = np.random.default_rng(0).standard_normal((10, 2))
        single = ocsvm_fit(x, nu=0.5, gamma=0.7)
        got = ocsvm_score(model, probes).scores
        expected = ocsvm_score(single, probes).scores
        assert got == pytest.approx(expected, abs=1e-9)

    def test_objective_matches_projected_gradient_oracle(self):
        rows = np.random.default_rng(7).standard_normal((200, 2))
        model = ocsvm_fit(rows, nu=0.1, gamma=0.5, tol=1e-5)
        K = rbf_kernel_block(rows, rows, 0.5)
        _, oracle_obj = projected_gradient_oracle(K, C=1.0 / (0.1 * 200))
        assert model.extra["objective"] == pytest.approx(oracle_obj, abs=1e-4)
        assert model.kkt_violation <= 1e-5

    def test_kept_kernel_rows_change_nothing(self, monkeypatch):
        rows = np.random.default_rng(5).standard_normal((300, 4))
        kept = ocsvm_fit(rows, nu=0.1, gamma=0.5, tol=1e-5)
        monkeypatch.setattr(ocsvm, "KERNEL_ROW_BYTES", 0)  # every row recomputed
        recomputed = ocsvm_fit(rows, nu=0.1, gamma=0.5, tol=1e-5)
        assert np.array_equal(kept.alphas, recomputed.alphas)
        assert kept.rho == recomputed.rho
        assert kept.iterations == recomputed.iterations
        assert kept.extra["objective"] == recomputed.extra["objective"]

    def test_dual_feasibility_at_convergence(self):
        rows = np.random.default_rng(3).standard_normal((150, 3))
        model = ocsvm_fit(rows, nu=0.15, gamma="scale", tol=1e-3)
        assert model.converged
        assert model.alphas.sum() == pytest.approx(1.0, abs=1e-6)
        C = 1.0 / (0.15 * 150)
        assert np.all(model.alphas > 0)
        assert np.all(model.alphas <= C + 1e-12)

    def test_nu_property_on_fixed_gaussian_instance(self):
        # exact-optimum property checked on a seeded instance solved tightly
        rows = np.random.default_rng(39).standard_normal((500, 2))
        n = 500
        for nu in (0.05, 0.1, 0.2):
            model = ocsvm_fit(rows, nu=nu, gamma=0.05, tol=1e-4)
            scores = ocsvm_score(model, rows).scores
            assert np.mean(scores > 0) <= nu + 1.0 / n
            assert model.alphas.size / n >= nu - 1.0 / n

    def test_infeasible_nu(self):
        with pytest.raises(InfeasibleNuError):
            ocsvm_fit(np.random.default_rng(0).standard_normal((5, 2)), nu=0.1)

    def test_nonconvergence_warns_and_records_violation(self):
        rows = np.random.default_rng(1).standard_normal((100, 2))
        with pytest.warns(NonConvergenceWarning):
            model = ocsvm_fit(rows, nu=0.3, gamma=2.0, tol=1e-12, max_passes=1)
        assert not model.converged
        assert model.kkt_violation > 1e-12

    def test_gamma_scale_resolution(self, rng):
        rows = rng.standard_normal((50, 4))
        assert resolve_gamma("scale", rows) == pytest.approx(1.0 / (4 * rows.var()))
        assert resolve_gamma(0.25, rows) == 0.25
        with pytest.raises(ValueError):
            resolve_gamma(-1.0, rows)


class TestScore:
    def test_far_point_scores_near_rho(self):
        rows = np.random.default_rng(2).standard_normal((80, 2))
        model = ocsvm_fit(rows, nu=0.1, gamma=1.0)
        far = np.array([[60.0, -60.0]])
        assert ocsvm_score(model, far).scores[0] == pytest.approx(model.rho, abs=1e-9)
        assert model.rho > 0

    def test_margin_sv_scores_zero_within_tol(self):
        rows = np.random.default_rng(5).standard_normal((200, 2))
        tol = 1e-5
        model = ocsvm_fit(rows, nu=0.2, gamma=0.5, tol=tol)
        C = 1.0 / (0.2 * 200)
        margin = (model.alphas > 1e-8) & (model.alphas < C - 1e-8)
        assert margin.any()
        margin_scores = ocsvm_score(model, model.support_vectors[margin]).scores
        assert np.max(np.abs(margin_scores)) <= 10 * tol

    def test_matches_kernel_sum_oracle(self, rng):
        rows = rng.standard_normal((120, 3))
        model = ocsvm_fit(rows, nu=0.1, gamma=0.8)
        probes = rng.standard_normal((30, 3))
        scores = ocsvm_score(model, probes).scores
        for i, x in enumerate(probes):
            g = sum(
                a * np.exp(-0.8 * ((sv - x) ** 2).sum())
                for a, sv in zip(model.alphas, model.support_vectors)
            )
            assert scores[i] == pytest.approx(model.rho - g, abs=1e-10)

    def test_translation_consistency(self, rng):
        rows = rng.standard_normal((100, 2))
        model = ocsvm_fit(rows, nu=0.1, gamma=0.5)
        probes = rng.standard_normal((20, 2))
        base = ocsvm_score(model, probes).scores

        shift = np.array([3.7, -1.2])
        shifted_model = ocsvm_fit(rows + shift, nu=0.1, gamma=0.5)
        # same dual: kernel depends only on differences, so the SMO path is identical
        shifted = ocsvm_score(shifted_model, probes + shift).scores
        assert shifted == pytest.approx(base, abs=1e-9)

    def test_dimension_mismatch(self):
        model = ocsvm_fit(np.random.default_rng(0).standard_normal((30, 2)), nu=0.2)
        with pytest.raises(DimensionMismatchError):
            ocsvm_score(model, np.zeros((3, 4)))


class TestSupportVectorNorms:
    def test_decision_bit_equal_to_kernel_sum_once_norms_are_kept(self, rng):
        model = ocsvm_fit(rng.standard_normal((120, 3)), nu=0.1, gamma=0.8)
        probes = rng.standard_normal((30, 3))
        expected = rbf_kernel_block(probes, model.support_vectors, model.gamma) @ model.alphas
        assert np.array_equal(ocsvm_decision(model, probes), expected)
        assert "sv_sq_norms" in vars(model)  # the first call kept them
        assert np.array_equal(ocsvm_decision(model, probes), expected)

    def test_replaced_support_vectors_get_their_own_norms(self, rng):
        model = ocsvm_fit(rng.standard_normal((120, 3)), nu=0.1, gamma=0.8)
        probes = rng.standard_normal((30, 3))
        ocsvm_decision(model, probes)
        moved = dataclasses.replace(model, support_vectors=model.support_vectors + 2.0)
        expected = rbf_kernel_block(probes, moved.support_vectors, moved.gamma) @ moved.alphas
        assert np.array_equal(ocsvm_decision(moved, probes), expected)


class TestDetectorWrapper:
    def test_fit_score_deterministic(self):
        train = random_frames(num_frames=60, n_mels=5, frame_size=4, seed=3)
        probe = random_frames(num_frames=15, n_mels=5, frame_size=4, seed=4)
        a = OcSvmDetector(nu=0.2, gamma="scale").fit(train).score(probe).scores
        b = OcSvmDetector(nu=0.2, gamma="scale").fit(train).score(probe).scores
        assert np.array_equal(a, b)
