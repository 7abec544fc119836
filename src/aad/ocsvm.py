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
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from .detector_api import (
    KIND_OCSVM,
    AnomalyScoreSeries,
    Detector,
    Vectorizer,
    _as_rows,
    _read_standardizer,
    _write_standardizer,
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


def rbf_kernel_block(A: np.ndarray, B: np.ndarray, gamma: float) -> np.ndarray:
    """exp(-gamma * ||a - b||^2) for every row pair."""
    d2 = (
        np.sum(A**2, axis=1)[:, None]
        + np.sum(B**2, axis=1)[None, :]
        - 2.0 * A @ B.T
    )
    return np.exp(-gamma * np.maximum(d2, 0.0))


class _RowCache:
    """LRU cache of kernel rows so SMO never needs the dense n x n matrix."""

    def __init__(self, rows: np.ndarray, gamma: float, budget: int):
        self.rows = rows
        self.gamma = gamma
        self.budget = max(1, budget)
        self.sq_norms = np.sum(rows**2, axis=1)
        self._cache: OrderedDict[int, np.ndarray] = OrderedDict()
        self.misses = 0

    def row(self, i: int) -> np.ndarray:
        hit = self._cache.get(i)
        if hit is not None:
            self._cache.move_to_end(i)
            return hit
        self.misses += 1
        d2 = self.sq_norms + self.sq_norms[i] - 2.0 * (self.rows @ self.rows[i])
        k = np.exp(-self.gamma * np.maximum(d2, 0.0))
        self._cache[i] = k
        if len(self._cache) > self.budget:
            self._cache.popitem(last=False)
        return k


def ocsvm_fit(
    X,
    nu: float = 0.1,
    gamma="scale",
    tol: float = 1e-3,
    max_passes: int = 50,
    cache_rows: int = 1024,
) -> OcSvmModel:
    """SMO over maximal-violating pairs until the KKT gap drops below tol.

    max_passes bounds the pair updates at max_passes * n; hitting the budget
    returns the current model with a NonConvergenceWarning and the final
    violation recorded.
    """
    rows, _ = _as_rows(X)
    n = rows.shape[0]
    if n < 1:
        raise TooFewSamplesError("need at least one training row")
    if not 0.0 < nu <= 1.0:
        raise ValueError(f"nu must be in (0, 1], got {nu}")

    if n == 1:
        g = resolve_gamma(gamma, rows)
        return OcSvmModel(
            support_vectors=rows.copy(), alphas=np.array([1.0]), rho=1.0,
            nu=nu, gamma=g, converged=True, kkt_violation=0.0, iterations=0,
        )
    if nu * n < 1.0:
        raise InfeasibleNuError(f"nu * n = {nu * n:.6g} < 1: box constraint infeasible")

    g = resolve_gamma(gamma, rows)
    C = 1.0 / (nu * n)
    bound_eps = 1e-12 * C

    alpha = np.zeros(n)
    n_full = int(np.floor(nu * n))
    alpha[:n_full] = C
    if n_full < n:
        alpha[n_full] = 1.0 - n_full * C

    cache = _RowCache(rows, g, cache_rows)
    nz = np.flatnonzero(alpha > 0)
    grad = rbf_kernel_block(rows[nz], rows, g).T @ alpha[nz]

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

        ki = cache.row(i)
        kj = cache.row(j)
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
        chunk = rows[start : start + block]
        out[start : start + block] = rbf_kernel_block(chunk, model.support_vectors, model.gamma) @ model.alphas
    return out


def ocsvm_score(model: OcSvmModel, X) -> AnomalyScoreSeries:
    """rho - g(x): positive means outside the learned normal region."""
    rows, origins = _as_rows(X)
    check_dim(model.support_vectors.shape[1], rows.shape[1])
    return AnomalyScoreSeries(scores=model.rho - ocsvm_decision(model, rows), origin_columns=origins)


class OcSvmDetector(Detector):
    """Uniform-contract wrapper around the SMO core."""

    kind = KIND_OCSVM

    def __init__(self, nu: float = 0.1, gamma="scale", tol: float = 1e-3, max_passes: int = 50,
                 cache_rows: int = 1024, pooling: str = "flatten", standardize: bool = True):
        super().__init__()
        self.nu = nu
        self.gamma = gamma
        self.tol = tol
        self.max_passes = max_passes
        self.cache_rows = cache_rows
        self.vectorizer = Vectorizer(pooling=pooling, standardize=standardize)
        self.model: OcSvmModel | None = None

    def fit(self, frames) -> "OcSvmDetector":
        X = self.vectorizer.fit(frames)
        self.model = ocsvm_fit(
            X, nu=self.nu, gamma=self.gamma, tol=self.tol,
            max_passes=self.max_passes, cache_rows=self.cache_rows,
        )
        return self

    def score(self, frames) -> AnomalyScoreSeries:
        if self.model is None:
            raise ValueError("fit before score")
        return ocsvm_score(self.model, self.vectorizer.transform(frames))

    def _pack(self, w) -> None:
        m = self.model
        if m is None:
            raise ValueError("cannot persist an unfitted detector")
        w.scalar(m.nu)
        w.scalar(m.gamma)
        w.scalar(m.rho)
        w.scalar(m.alphas.size)
        w.scalar(m.support_vectors.shape[1])
        w.floats(m.alphas)
        w.floats(m.support_vectors)
        _write_standardizer(w, self.vectorizer.pooling, self.vectorizer.standardizer)
        w.scalar(1.0 if m.converged else 0.0)
        w.scalar(m.kkt_violation)
        w.scalar(m.iterations)
        w.scalar(self.train_time_s)

    @classmethod
    def _unpack(cls, r) -> "OcSvmDetector":
        nu = r.scalar()
        gamma = r.scalar()
        rho = r.scalar()
        n_sv = r.integer()
        d = r.integer()
        alphas = r.floats(n_sv)
        support = r.floats(n_sv * d).reshape(n_sv, d)
        pooling, standardizer = _read_standardizer(r)
        converged = r.integer() == 1
        kkt = r.scalar()
        iterations = r.integer()
        train_time = r.scalar()

        det = cls(nu=nu, gamma=gamma, pooling=pooling, standardize=standardizer is not None)
        det.vectorizer.standardizer = standardizer
        det.model = OcSvmModel(
            support_vectors=support, alphas=alphas, rho=rho, nu=nu, gamma=gamma,
            converged=converged, kkt_violation=kkt, iterations=iterations,
        )
        det.train_time_s = train_time
        return det
