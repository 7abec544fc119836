import dataclasses
import tracemalloc

import numpy as np
import pytest

from aad import ocsvm
from aad.errors import NonConvergenceWarning, PipelineError
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

    @pytest.mark.parametrize("nu", [0.0, -0.1, 1.5, np.nan])
    def test_nu_outside_unit_interval_rejected(self, nu):
        with pytest.raises(ValueError, match=r"nu must be in \(0, 1\]"):
            ocsvm_fit(np.random.default_rng(0).standard_normal((20, 2)), nu=nu)

    @pytest.mark.parametrize("gamma", [np.nan, np.inf, "nan"])
    def test_nonfinite_gamma_rejected(self, rng, gamma):
        with pytest.raises(ValueError, match=r"gamma must be finite and positive, got (nan|inf)"):
            resolve_gamma(gamma, rng.standard_normal((10, 3)))

    def test_infeasible_nu(self):
        with pytest.raises(PipelineError, match=r"nu \* n = 0.5 < 1: box constraint infeasible"):
            ocsvm_fit(np.random.default_rng(0).standard_normal((5, 2)), nu=0.1)

    def test_nonconvergence_warns_and_records_violation(self, monkeypatch):
        rows = np.random.default_rng(1).standard_normal((100, 2))
        monkeypatch.setattr(ocsvm, "_MAX_PASSES", 1)
        with pytest.warns(NonConvergenceWarning):
            model = ocsvm_fit(rows, nu=0.3, gamma=2.0, tol=1e-12)
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
        with pytest.raises(PipelineError, match="feature dimension 4 != model dimension 2"):
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


def reference_smo(rows, nu, gamma, tol=ocsvm._TOL, max_passes=50):
    """The float64 SMO: every kernel value from the raw float64 rows, no kept rows."""
    n = rows.shape[0]
    g = resolve_gamma(gamma, rows)
    C = 1.0 / (nu * n)
    bound_eps = 1e-12 * C
    alpha = np.zeros(n)
    n_full = int(np.floor(nu * n))
    alpha[:n_full] = C
    if n_full < n:
        alpha[n_full] = 1.0 - n_full * C
    sq_norms = np.sum(rows**2, axis=1)
    nz = np.flatnonzero(alpha > 0)
    grad = rbf_kernel_block(rows[nz], rows, g, b_sq=sq_norms).T @ alpha[nz]
    violation = np.inf
    for _ in range(max_passes * n):
        grad_up = np.where(alpha < C - bound_eps, grad, np.inf)
        grad_dn = np.where(alpha > bound_eps, grad, -np.inf)
        i, j = int(np.argmin(grad_up)), int(np.argmax(grad_dn))
        violation = float(grad_dn[j] - grad_up[i])
        if violation <= tol:
            break
        ki, kj = (rbf_kernel_block(rows[r : r + 1], rows, g, b_sq=sq_norms)[0] for r in (i, j))
        eta = ki[i] + kj[j] - 2.0 * ki[j]
        t_max = min(C - alpha[i], alpha[j])
        t = min(violation / eta, t_max) if eta > 1e-15 else t_max
        alpha[i] += t
        alpha[j] -= t
        grad += t * (ki - kj)
    sv_mask = alpha > bound_eps
    margin = sv_mask & (alpha < C - bound_eps)
    assert margin.any()  # the instances below have free support vectors
    return ocsvm.OcSvmModel(
        support_vectors=rows[sv_mask], alphas=alpha[sv_mask], rho=float(grad[margin].mean()),
        nu=nu, gamma=g, extra={"objective": float(0.5 * alpha @ grad)},
    )


def standardized_wide_rows(n, d, seed):
    """Low-rank structure plus noise, each column standardized like Vectorizer rows."""
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((n, 12)) @ rng.standard_normal((12, d)) + rng.standard_normal((n, d))
    rows -= rows.mean(axis=0)
    rows /= rows.std(axis=0)
    return rows


class TestFloat32Kernel:
    """SMO's kernel dot products run in float32; the model and the decision stay float64."""

    def test_matches_float64_reference(self):
        rows = standardized_wide_rows(400, 2048, seed=0)
        got = ocsvm_fit(rows, nu=0.1, gamma="scale")
        ref = reference_smo(rows, nu=0.1, gamma="scale")
        assert got.gamma == ref.gamma
        assert got.alphas.size == ref.alphas.size
        # measured (2 vCPUs, OpenBLAS): |drho| 2.2e-9, |dobjective| 1.6e-9, max |dscore| 8.2e-9
        assert abs(got.rho - ref.rho) <= 1e-8
        assert abs(got.extra["objective"] - ref.extra["objective"]) <= 1e-8
        probes = np.vstack([rows, standardized_wide_rows(200, 2048, seed=100)])
        assert np.max(np.abs(ocsvm_score(got, probes).scores - ocsvm_score(ref, probes).scores)) <= 5e-8

    def test_model_arrays_stay_float64(self):
        rows = standardized_wide_rows(120, 64, seed=1)
        model = ocsvm_fit(rows, nu=0.1, gamma="scale")
        assert model.support_vectors.dtype == np.float64 and model.alphas.dtype == np.float64
        assert all((rows == sv).all(axis=1).any() for sv in model.support_vectors)  # the input rows, not centred

    def test_fit_peak_memory_bounded(self):
        """One float32 copy of the rows, no float64 n x d temporary, one copy of the support vectors."""
        rows = np.random.default_rng(11).standard_normal((1180, 2048))
        gamma = resolve_gamma("scale", rows)  # "scale" alone allocates rows.var()'s n x d float64 temporary
        tracemalloc.start()
        try:
            ocsvm_fit(rows, nu=0.1, gamma=gamma)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # measured 17.5 MiB: the 9.2 MiB float32 rows, ~3.6 MiB kept kernel rows, 4.7 MiB support vectors
        assert peak <= 19.3 * 2**20

    def test_float32_support_vectors_refused_at_persist(self, tmp_path):
        det = OcSvmDetector(nu=0.2).fit(random_frames(num_frames=40, n_mels=4, frame_size=3, seed=5))
        det.model = dataclasses.replace(det.model, support_vectors=det.model.support_vectors.astype(np.float32))
        with pytest.raises(ValueError, match="block 'support_vectors' is <f4, OcSvmModel stores <f8"):
            det.persist(tmp_path / "m.model")
        assert not (tmp_path / "m.model").exists()
