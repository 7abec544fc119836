"""One-class SVM with RBF kernel, trained by sequential minimal optimization.

Solves the nu-parameterized dual

    minimize    1/2 sum_ij alpha_i alpha_j k(x_i, x_j)
    subject to  0 <= alpha_i <= 1/(nu * n),  sum_i alpha_i = 1

by pairwise updates on the maximal-KKT-violating pair; any n >= 1 fits. Below
nu * n = 1 the box 1/(nu * n) exceeds 1, which no alpha reaches, so every support
vector is free and the nu-property holds trivially. The decision offset rho is the
mean of g(x_i) = sum_j alpha_j k(x_j, x_i) over margin support vectors; the
anomaly score is rho - g(x), positive outside the boundary.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import cached_property
from typing import ClassVar

import numpy as np

from .detector_api import AnomalyScoreSeries, Detector, _sq_distances, check_dim
from .errors import NonConvergenceWarning, PipelineError


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
    array_dtype: ClassVar[str] = "<f8"  # the array blocks' dtype in a model file

    def __post_init__(self):
        if self.support_vectors.ndim != 2 or self.alphas.shape != self.support_vectors.shape[:1]:
            raise ValueError(f"block 'alphas' is {self.alphas.shape}, 'support_vectors' "
                             f"{self.support_vectors.shape} needs one alpha per [n_sv x d] row")
        if self.alphas.size == 0:
            raise ValueError(f"block 'support_vectors' is {self.support_vectors.shape}, a model needs n_sv >= 1")

    @cached_property
    def sv_sq_norms(self) -> np.ndarray:
        """Support-vector row norms, computed on first use (replace() the model to change its SVs)."""
        return np.sum(self.support_vectors**2, axis=1)


def _check_settings(nu: float = 0.1, gamma="scale") -> None:
    """The range rules of OC-SVM settings, for the detector, ocsvm_fit and resolve_gamma."""
    if not 0.0 < nu <= 1.0:
        raise ValueError(f"nu must be in (0, 1], got {nu}")
    if gamma != "scale" and not 0 < float(gamma) < np.inf:
        raise ValueError(f"gamma must be finite and positive, got {float(gamma)}")


def resolve_gamma(gamma, rows: np.ndarray) -> float:
    """'scale' resolves to 1 / (d * var(X)); explicit finite positive floats pass through."""
    if gamma == "scale":
        var = float(rows.var())
        if var <= 0:
            var = 1.0
        return 1.0 / (rows.shape[1] * var)
    _check_settings(gamma=gamma)
    return float(gamma)


def rbf_kernel_block(A: np.ndarray, B: np.ndarray, gamma: float, a_sq=None, b_sq=None) -> np.ndarray:
    """exp(-gamma * ||a - b||^2) for every row pair; a_sq / b_sq as in _sq_distances."""
    return np.exp(-gamma * _sq_distances(A, B, a_sq=a_sq, b_sq=b_sq))


# Kernel-row bytes one fit keeps; rows past it are recomputed when asked again.
# Seed 42, ci sizes (n = 1180 / 1453): all 350 / 394 distinct rows fit and serve
# 162 / 140 repeats; keeping none made those fits 30-43% slower. Paper size
# (n = 7104): 1180 rows fit and 1 of 1352 requests hits them (a 1024-row LRU: 21).
KERNEL_ROW_BYTES = 64 * 2**20
_DECISION_BLOCK = 2048  # rows per [block x n_sv] kernel block when scoring
_TOL = 1e-3  # default stopping tolerance on the KKT gap, LIBSVM's default
_MAX_PASSES = 50  # SMO makes at most _MAX_PASSES * n pair updates


def ocsvm_fit(X, nu: float = 0.1, gamma="scale", tol: float = _TOL) -> OcSvmModel:
    """SMO over maximal-violating pairs until the KKT gap drops below tol.

    Hitting the _MAX_PASSES * n update budget returns the current model with
    a NonConvergenceWarning and the final violation recorded.
    """
    rows = np.asarray(X, dtype=np.float64)
    n = rows.shape[0]
    if n < 1:
        raise PipelineError("need at least one training row")
    _check_settings(nu=nu)

    g = resolve_gamma(gamma, rows)
    C = 1.0 / (nu * n)
    bound_eps = 1e-12 * min(C, 1.0)  # no alpha exceeds 1, so C > 1 must not widen the tolerance

    alpha = np.zeros(n)
    n_full = int(np.floor(nu * n))
    alpha[:n_full] = C
    if n_full < n:
        alpha[n_full] = 1.0 - n_full * C

    # Kernel dot products run in float32 on the column-centred rows (LIBSVM's Qfloat split);
    # norms, kernel rows, grad and alpha stay float64. Centring keeps a shifted input's bits.
    r32 = np.empty(rows.shape, dtype=np.float32)
    np.subtract(rows, rows.mean(axis=0), out=r32, casting="unsafe")  # no float64 n x d temporary
    sq_norms = np.einsum("ij,ij->i", r32, r32, dtype=np.float64)  # as a_sq and b_sq: k(x_i, x_i) ~ 1
    kept: dict[int, np.ndarray] = {}

    def kernel_row(i: int) -> np.ndarray:
        k = kept.get(i)
        if k is None:
            k = rbf_kernel_block(r32[i : i + 1], r32, g, a_sq=sq_norms[i : i + 1], b_sq=sq_norms)[0]
            if k.nbytes * (len(kept) + 1) <= KERNEL_ROW_BYTES:
                kept[i] = k
        return k

    nz = np.flatnonzero(alpha > 0)
    grad = rbf_kernel_block(r32[nz], r32, g, a_sq=sq_norms[nz], b_sq=sq_norms).T @ alpha[nz]

    max_iter = _MAX_PASSES * n
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
        hi = float(grad[sv_mask].max())  # sum(alpha) = 1 keeps sv_mask non-empty
        at_lower = grad[alpha < C - bound_eps]
        lo = float(at_lower.min()) if at_lower.size else hi
        rho = 0.5 * (hi + lo)

    return OcSvmModel(
        support_vectors=rows[sv_mask],  # boolean indexing copies
        alphas=alpha[sv_mask],
        rho=rho,
        nu=nu,
        gamma=g,
        converged=converged,
        kkt_violation=max(violation, 0.0),
        iterations=iterations,
        extra={"objective": float(0.5 * alpha @ grad)},
    )


def ocsvm_decision(model: OcSvmModel, rows: np.ndarray) -> np.ndarray:
    """g(x) = sum_j alpha_j k(x_j, x), evaluated _DECISION_BLOCK rows at a time."""
    out = np.empty(rows.shape[0])
    for a in range(0, rows.shape[0], _DECISION_BLOCK):
        kernel = rbf_kernel_block(rows[a : a + _DECISION_BLOCK], model.support_vectors, model.gamma, b_sq=model.sv_sq_norms)
        out[a : a + _DECISION_BLOCK] = kernel @ model.alphas
    return out


def ocsvm_score(model: OcSvmModel, X) -> AnomalyScoreSeries:
    """rho - g(x): positive means outside the learned normal region."""
    rows = np.asarray(X, dtype=np.float64)
    check_dim(model.support_vectors.shape[1], rows.shape[1])
    return AnomalyScoreSeries(scores=model.rho - ocsvm_decision(model, rows))


class OcSvmDetector(Detector):
    """The SMO core on standardized frame rows."""

    kind = "ocsvm"
    model_type = OcSvmModel
    vectorized = True

    def __init__(self, nu: float = 0.1, gamma="scale"):
        _check_settings(nu, gamma)
        super().__init__(nu=nu, gamma=gamma)

    def _fit(self, rows) -> OcSvmModel:
        return ocsvm_fit(rows, **self.settings)

    def _score(self, rows) -> AnomalyScoreSeries:
        return ocsvm_score(self.model, rows)
