"""One-class SVM with RBF kernel, trained by sequential minimal optimization.

Solves the nu-parameterized dual

    minimize    1/2 sum_ij alpha_i alpha_j k(x_i, x_j)
    subject to  0 <= alpha_i <= 1/(nu * n),  sum_i alpha_i = 1

by pairwise updates on the maximal-KKT-violating pair. The decision offset
rho is the mean of g(x_i) = sum_j alpha_j k(x_j, x_i) over margin support
vectors; the anomaly score is rho - g(x), positive outside the boundary.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .detector_api import (
    KIND_OCSVM,
    AnomalyScoreSeries,
    Detector,
    Vectorizer,
    _sq_distances,
    check_dim,
)
from .errors import InfeasibleNuError, NonConvergenceWarning, TooFewSamplesError


@dataclass
class OcSvmModel:
    support_vectors: np.ndarray     # [n_sv x d]
    alphas: np.ndarray              # matching positive multipliers
    rho: float
    nu: float
    gamma: float
    converged: bool = True
    kkt_violation: float = 0.0
    iterations: int = 0
    extra: dict = field(default_factory=dict)

    @cached_property
    def sv_sq_norms(self) -> np.ndarray:
        """Support-vector row norms, computed on first use (replace() the model to change its SVs)."""
        return np.sum(self.support_vectors**2, axis=1)


def resolve_gamma(gamma, rows: np.ndarray) -> float:
    """'scale' resolves to 1 / (d * var(X)); explicit positive floats pass through."""
    if gamma == "scale":
        var = float(rows.var())
        if var <= 0:
            var = 1.0
        return 1.0 / (rows.shape[1] * var)
    g = float(gamma)
    if g <= 0:
        raise ValueError(f"gamma must be positive, got {g}")
    return g


def rbf_kernel_block(A: np.ndarray, B: np.ndarray, gamma: float, b_sq=None) -> np.ndarray:
    """exp(-gamma * ||a - b||^2) for every row pair; b_sq as in _sq_distances."""
    return np.exp(-gamma * _sq_distances(A, B, b_sq=b_sq))


# Kernel-row bytes one fit keeps; rows past it are recomputed when asked again.
# Seed 42, ci sizes (n = 1180 / 1453): all 350 / 394 distinct rows fit and serve
# 162 / 138 repeats; keeping none made those fits 27-33% slower. Paper size
# (n = 7104): 1180 rows fit and 1 of 1352 requests hits them (a 1024-row LRU: 21).
KERNEL_ROW_BYTES = 64 * 2**20


def ocsvm_fit(
    X,
    nu: float = 0.1,
    gamma="scale",
    tol: float = 1e-3,
    max_passes: int = 50,
) -> OcSvmModel:
    """SMO over maximal-violating pairs until the KKT gap drops below tol.

    max_passes bounds the pair updates at max_passes * n; hitting the budget
    returns the current model with a NonConvergenceWarning and the final
    violation recorded.
    """
    rows = np.asarray(X, dtype=np.float64)
    n = rows.shape[0]
    if n < 1:
        raise TooFewSamplesError("need at least one training row")
    if not 0.0 < nu <= 1.0:
        raise ValueError(f"nu must be in (0, 1], got {nu}")

    g = resolve_gamma(gamma, rows)
    if n == 1:
        return OcSvmModel(
            support_vectors=rows.copy(), alphas=np.array([1.0]), rho=1.0,
            nu=nu, gamma=g, converged=True, kkt_violation=0.0, iterations=0,
        )
    if nu * n < 1.0:
        raise InfeasibleNuError(f"nu * n = {nu * n:.6g} < 1: box constraint infeasible")

    C = 1.0 / (nu * n)
    bound_eps = 1e-12 * C

    alpha = np.zeros(n)
    n_full = int(np.floor(nu * n))
    alpha[:n_full] = C
    if n_full < n:
        alpha[n_full] = 1.0 - n_full * C

    sq_norms = np.sum(rows**2, axis=1)
    kept: dict[int, np.ndarray] = {}

    def kernel_row(i: int) -> np.ndarray:
        k = kept.get(i)
        if k is None:
            d2 = sq_norms + sq_norms[i] - 2.0 * (rows @ rows[i])
            k = np.exp(-g * np.maximum(d2, 0.0))
            if k.nbytes * (len(kept) + 1) <= KERNEL_ROW_BYTES:
                kept[i] = k
        return k

    nz = np.flatnonzero(alpha > 0)
    grad = rbf_kernel_block(rows[nz], rows, g, b_sq=sq_norms).T @ alpha[nz]

    max_iter = max_passes * n
    iterations = 0
    violation = np.inf
    while iterations < max_iter:
        can_up = alpha < C - bound_eps
        can_dn = alpha > bound_eps
        grad_up = np.where(can_up, grad, np.inf)
        grad_dn = np.where(can_dn, grad, -np.inf)
        i = int(np.argmin(grad_up))
        j = int(np.argmax(grad_dn))
        violation = float(grad_dn[j] - grad_up[i])
        if violation <= tol:
            break

        ki = kernel_row(i)
        kj = kernel_row(j)
        eta = ki[i] + kj[j] - 2.0 * ki[j]
        t_max = min(C - alpha[i], alpha[j])
        if eta > 1e-15:
            t = min(violation / eta, t_max)
        else:
            t = t_max
        alpha[i] += t
        alpha[j] -= t
        grad += t * (ki - kj)
        iterations += 1
    else:
        warnings.warn(
            f"SMO stopped at {max_iter} updates with KKT violation {violation:.3g} > tol {tol:.3g}",
            NonConvergenceWarning,
        )

    converged = violation <= tol
    sv_mask = alpha > bound_eps
    margin = sv_mask & (alpha < C - bound_eps)
    if np.any(margin):
        rho = float(grad[margin].mean())
    else:
        # no free SVs: rho sits between the bound groups' g values
        at_upper = grad[sv_mask]
        at_lower = grad[alpha < C - bound_eps]
        hi = float(at_upper.max()) if at_upper.size else float(grad.max())
        lo = float(at_lower.min()) if at_lower.size else hi
        rho = 0.5 * (hi + lo)

    return OcSvmModel(
        support_vectors=rows[sv_mask].copy(),
        alphas=alpha[sv_mask].copy(),
        rho=rho,
        nu=nu,
        gamma=g,
        converged=converged,
        kkt_violation=max(violation, 0.0),
        iterations=iterations,
        extra={"objective": float(0.5 * alpha @ grad)},
    )


def ocsvm_decision(model: OcSvmModel, rows: np.ndarray, block: int = 2048) -> np.ndarray:
    """g(x) = sum_j alpha_j k(x_j, x), evaluated in blocks."""
    out = np.empty(rows.shape[0])
    for start in range(0, rows.shape[0], block):
        kernel = rbf_kernel_block(rows[start : start + block], model.support_vectors, model.gamma, model.sv_sq_norms)
        out[start : start + block] = kernel @ model.alphas
    return out


def ocsvm_score(model: OcSvmModel, X) -> AnomalyScoreSeries:
    """rho - g(x): positive means outside the learned normal region."""
    rows = np.asarray(X, dtype=np.float64)
    check_dim(model.support_vectors.shape[1], rows.shape[1])
    return AnomalyScoreSeries(scores=model.rho - ocsvm_decision(model, rows))


class OcSvmDetector(Detector):
    """Uniform-contract wrapper around the SMO core."""

    kind = KIND_OCSVM

    def __init__(self, nu: float = 0.1, gamma="scale", tol: float = 1e-3, max_passes: int = 50):
        super().__init__()
        self.nu = nu
        self.gamma = gamma
        self.tol = tol
        self.max_passes = max_passes
        self.vectorizer = Vectorizer()
        self.model: OcSvmModel | None = None

    def fit(self, frames) -> "OcSvmDetector":
        X = self.vectorizer.fit(frames)
        self.model = ocsvm_fit(X, nu=self.nu, gamma=self.gamma, tol=self.tol, max_passes=self.max_passes)
        return self

    def score(self, frames) -> AnomalyScoreSeries:
        if self.model is None:
            raise ValueError("fit before score")
        return ocsvm_score(self.model, self.vectorizer.transform(frames))
