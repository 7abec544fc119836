"""LSTM autoencoder over frame sequences; anomaly score = reconstruction MSE.

Single-layer encoder and decoder. The encoder walks a frame's time axis
(one Mel column per step); its final hidden state is the latent code. The
decoder receives that code as its input at every timestep and a linear
projection maps decoder outputs back to Mel columns.

Gate weights are stored stacked as W = [W_x | W_h], [4h x in_dim + h], with
rows ordered input, forget, output, candidate. The input side is hoisted out
of the time loops: one GEMM gives x_t @ W_x.T + b for all T steps (for the
decoder, whose input is the latent code at every step, one [B x 4h] block),
and each step adds only the recurrent h_prev @ W_h.T. Backpropagation through
time carries only da @ W_h back a step; the weight gradients are stacked GEMMs
over all T*B rows after each loop.

Every buffer and Adam moment takes the parameters' dtype. lstm_ae_init gives
float64 parameters, in which the gradient checks run; LstmAeDetector casts
them to float32 once, so it trains, scores and persists in float32. Everything is plain numpy with exact gradients, so a fixed seed and
fixed data reproduce the parameters bit for bit, under one BLAS thread or two.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from typing import ClassVar

import numpy as np

from .detector_api import AnomalyScoreSeries, Detector
from .errors import NonFiniteLossWarning, PipelineError
from .features import FrameTensor

_PARAM_NAMES = ("enc_W", "enc_b", "dec_W", "dec_b", "proj_W", "proj_b")
_SCORE_BLOCK = 512  # frames per forward pass when scoring: bounds the [T x B x 4h] gate arrays


@dataclass
class LstmAeModel:
    input_dim: int
    hidden: int
    enc_W: np.ndarray   # [4h x input_dim + h]
    enc_b: np.ndarray   # [4h]
    dec_W: np.ndarray   # [4h x 2h]
    dec_b: np.ndarray   # [4h]
    proj_W: np.ndarray  # [input_dim x h]
    proj_b: np.ndarray  # [input_dim]
    seed: int = 0
    epochs: int = 0
    batch_size: int = 0
    learning_rate: float = 0.0
    final_loss: float = float("nan")
    loss_history: tuple[float, ...] = ()
    array_dtype: ClassVar[str] = "<f4"  # the parameter blocks' dtype in a model file

    def __post_init__(self):
        h, m = self.hidden, self.input_dim
        if h < 1 or m < 1:
            raise ValueError(f"blocks 'hidden' = {h} and 'input_dim' = {m}, a model needs both >= 1")
        shapes = {"enc_W": (4 * h, m + h), "enc_b": (4 * h,), "dec_W": (4 * h, 2 * h),
                  "dec_b": (4 * h,), "proj_W": (m, h), "proj_b": (m,)}
        for name, shape in shapes.items():
            if getattr(self, name).shape != shape:
                raise ValueError(f"block {name!r} is {getattr(self, name).shape}, hidden = {h} "
                                 f"and input_dim = {m} need {shape}")

    def params(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in _PARAM_NAMES}

    def copy(self) -> "LstmAeModel":
        return replace(self, **{name: getattr(self, name).copy() for name in _PARAM_NAMES})


@dataclass(frozen=True)
class ReconstructionBatch:
    mse: np.ndarray  # [B]


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """1 / (1 + e^-x) for x >= 0 and e^x / (1 + e^x) below: exp never overflows."""
    e = np.exp(-np.abs(x))
    return np.maximum(e, x >= 0) / (1.0 + e)


def _check_settings(hidden: int = 64, epochs: int = 30, batch: int = 64, lr: float = 1e-3) -> None:
    """The range rules of LSTM-AE settings, for the detector, lstm_ae_init and lstm_ae_train."""
    if hidden < 1:
        raise ValueError(f"hidden must be >= 1, got {hidden}")
    if batch < 1:
        raise ValueError(f"batch must be >= 1, got {batch}")
    if epochs < 0:
        raise ValueError(f"epochs must be >= 0, got {epochs}")
    if not 0 < lr < np.inf:
        raise ValueError(f"lr must be finite and > 0, got {lr}")


def lstm_ae_init(n_mels: int = 128, hidden: int = 64, seed: int = 0) -> LstmAeModel:
    """Seeded init: weights uniform in [-1/sqrt(h), 1/sqrt(h)], forget bias 1."""
    if n_mels < 1:
        raise ValueError(f"n_mels must be >= 1, got {n_mels}")
    _check_settings(hidden=hidden)
    rng = np.random.default_rng(seed)
    scale = 1.0 / np.sqrt(hidden)
    enc_W = rng.uniform(-scale, scale, size=(4 * hidden, n_mels + hidden))
    dec_W = rng.uniform(-scale, scale, size=(4 * hidden, 2 * hidden))
    proj_W = rng.uniform(-scale, scale, size=(n_mels, hidden))
    enc_b = np.zeros(4 * hidden)
    dec_b = np.zeros(4 * hidden)
    enc_b[hidden : 2 * hidden] = 1.0
    dec_b[hidden : 2 * hidden] = 1.0
    return LstmAeModel(
        input_dim=n_mels, hidden=hidden,
        enc_W=enc_W, enc_b=enc_b, dec_W=dec_W, dec_b=dec_b,
        proj_W=proj_W, proj_b=np.zeros(n_mels), seed=seed,
    )


def _layer_forward(W_h, A, caches):
    """One LSTM layer from zero state over A = x_t @ W_x.T + b [T x B x 4h]; returns the hidden
    states [T+1 x B x h], zero state first. A caches list gets each step's
    (gates i/f/o, candidate, c_prev, tanh c)."""
    T, B, _ = A.shape
    h = W_h.shape[1]
    H = np.zeros((T + 1, B, h), dtype=W_h.dtype)
    cs = np.zeros((B, h), dtype=W_h.dtype)
    for t in range(T):
        a = H[t] @ W_h.T
        a += A[t]
        s = _sigmoid(a[:, : 3 * h])
        gg = np.tanh(a[:, 3 * h :])
        c_prev, cs = cs, s[:, h : 2 * h] * cs + s[:, :h] * gg
        tc = np.tanh(cs)
        if caches is not None:
            caches.append((s, gg, c_prev, tc))
        np.multiply(s[:, 2 * h :], tc, out=H[t + 1])
    return H


def _layer_backward(W_h, caches, dH):
    """BPTT through one layer from dH [T x B x h], the loss gradient reaching each hidden
    state from outside it; returns the pre-activation gradients dA [T x B x 4h]."""
    T, B, h = dH.shape
    dA = np.empty((T, B, 4 * h), dtype=W_h.dtype)
    dh = dc = np.zeros((B, h), dtype=W_h.dtype)
    for t in reversed(range(T)):
        s, gg, c_prev, tc = caches[t]
        dh = dh + dH[t]
        da = dA[t]
        dc = dc + dh * s[:, 2 * h :] * (1.0 - tc * tc)
        np.multiply(dc, gg, out=da[:, :h])
        np.multiply(dc, c_prev, out=da[:, h : 2 * h])
        np.multiply(dh, tc, out=da[:, 2 * h : 3 * h])
        da[:, : 3 * h] *= s * (1.0 - s)
        np.multiply(dc * s[:, :h], 1.0 - gg * gg, out=da[:, 3 * h :])
        dc = dc * s[:, h : 2 * h]
        dh = da @ W_h
    return dA


def _stacked(dA, inputs):
    """Sum over time and batch of dA[t, b] outer inputs[t, b]: one GEMM over the T*B stacked rows."""
    return dA.reshape(-1, dA.shape[-1]).T @ inputs.reshape(-1, inputs.shape[-1])


def _forward(model: LstmAeModel, X: np.ndarray, enc_caches=None, dec_caches=None):
    """X is [B x T x M]; returns inputs and reconstructions as step-major [T*B x M] rows, then He, Hd.

    The step-major copy of X and every state take the parameters' dtype."""
    B, T, M = X.shape
    h = model.hidden
    Xt = np.empty((T, B, M), dtype=model.enc_W.dtype)
    for b in range(0, B, 32):  # a cache-sized transpose: X may be a strided view of [N x M x T] frames
        Xt[:, b : b + 32] = X[b : b + 32].transpose(1, 0, 2)
    Xt = Xt.reshape(T * B, M)
    A = Xt @ model.enc_W[:, :M].T
    A += model.enc_b
    He = _layer_forward(model.enc_W[:, M:], A.reshape(T, B, 4 * h), enc_caches)
    A_dec = np.broadcast_to(He[-1] @ model.dec_W[:, :h].T + model.dec_b, (T, B, 4 * h))
    Hd = _layer_forward(model.dec_W[:, h:], A_dec, dec_caches)
    return Xt, Hd[1:].reshape(T * B, h) @ model.proj_W.T + model.proj_b, He, Hd


def _loss_and_grads(model: LstmAeModel, X: np.ndarray):
    """Mean reconstruction MSE over the batch plus gradients for every parameter."""
    B, T, M = X.shape
    h = model.hidden
    enc_caches, dec_caches = [], []
    Xt, Yt, He, Hd = _forward(model, X, enc_caches, dec_caches)
    diff = Yt - Xt
    loss = float(np.mean(diff**2))

    dY = 2.0 * diff / diff.size
    dAd = _layer_backward(model.dec_W[:, h:], dec_caches, (dY @ model.proj_W).reshape(T, B, h))
    dA_latent = dAd.sum(axis=0)
    dHe = np.zeros((T, B, h), dtype=model.enc_W.dtype)
    dHe[-1] = dA_latent @ model.dec_W[:, :h]
    dAe = _layer_backward(model.enc_W[:, M:], enc_caches, dHe)
    grads = {
        "enc_W": np.hstack([_stacked(dAe, Xt), _stacked(dAe, He[:-1])]),
        "enc_b": dAe.sum(axis=(0, 1)),
        "dec_W": np.hstack([dA_latent.T @ He[-1], _stacked(dAd, Hd[:-1])]),
        "dec_b": dAd.sum(axis=(0, 1)),
        "proj_W": _stacked(dY, Hd[1:]),
        "proj_b": dY.sum(axis=0),
    }
    return loss, grads


def _model_batch(model: LstmAeModel, frames) -> np.ndarray:
    """Accept a FrameTensor or a [B x T x M] array of the model's width; return it uncopied: _forward's copy takes the parameters' dtype."""
    if isinstance(frames, FrameTensor):
        X = frames.frames.transpose(0, 2, 1)  # a view: _forward's step-major copy is the only one
    else:
        X = np.asarray(frames)
        if X.ndim != 3:
            raise PipelineError(f"expected a 3-D batch, got shape {X.shape}")
    if X.shape[2] != model.input_dim:
        raise PipelineError(f"input dim {X.shape[2]} != model input dim {model.input_dim}")
    return X


def _finish(model: LstmAeModel, history: list[float], batch: int, lr: float, seed: int) -> LstmAeModel:
    """The trained model with its loss history and training settings recorded."""
    return replace(model, loss_history=tuple(history), final_loss=history[-1],
                   epochs=len(history) - 1, batch_size=batch, learning_rate=lr, seed=seed)


def lstm_ae_forward(model: LstmAeModel, frames) -> ReconstructionBatch:
    """Per-frame reconstruction MSE (mean over time and bands), _SCORE_BLOCK frames per forward pass to bound memory."""
    X = _model_batch(model, frames)
    B, T, M = X.shape
    mse = np.empty(B)
    for start in range(0, B, _SCORE_BLOCK):
        Xt, Yt, _, _ = _forward(model, X[start : start + _SCORE_BLOCK])
        mse[start : start + _SCORE_BLOCK] = np.mean(((Yt - Xt) ** 2).reshape(T, -1, M), axis=(0, 2))
    return ReconstructionBatch(mse=mse)


def lstm_ae_train(
    model: LstmAeModel,
    frames,
    epochs: int = 30,
    batch: int = 64,
    lr: float = 1e-3,
    seed: int = 0,
) -> LstmAeModel:
    """Adam on mean reconstruction MSE with per-epoch shuffling from the seed.

    Adam constants: beta1 = 0.9, beta2 = 0.999, eps = 1e-8. loss_history[0]
    is the untrained full-data loss; entry e >= 1 is the mean batch loss of
    epoch e. A non-finite batch loss aborts training and returns the last
    finite end-of-epoch checkpoint with a warning.
    """
    _check_settings(epochs=epochs, batch=batch, lr=lr)
    X = np.ascontiguousarray(_model_batch(model, frames))  # batches gather from contiguous rows
    n = X.shape[0]
    if n < 1:
        raise PipelineError("need at least one training frame")
    beta1, beta2, eps = 0.9, 0.999, 1e-8

    current = model.copy()
    params = current.params()
    m_state = {k: np.zeros_like(v) for k, v in params.items()}
    v_state = {k: np.zeros_like(v) for k, v in params.items()}
    step = 0
    rng = np.random.default_rng(seed)

    initial_loss = float(np.mean(lstm_ae_forward(current, X).mse))
    history: list[float] = [initial_loss]
    checkpoint = current.copy()
    checkpoint_history = list(history)

    for _ in range(epochs):
        order = rng.permutation(n)
        batch_losses: list[float] = []
        for start in range(0, n, batch):
            idx = order[start : start + batch]
            loss, grads = _loss_and_grads(current, X[idx])
            if not np.isfinite(loss):
                warnings.warn(
                    f"non-finite loss at epoch {len(history)}; keeping last finite checkpoint",
                    NonFiniteLossWarning,
                )
                return _finish(checkpoint, checkpoint_history, batch, lr, seed)
            batch_losses.append(loss)
            step += 1
            for key in _PARAM_NAMES:
                g = grads[key]
                m_state[key] = beta1 * m_state[key] + (1 - beta1) * g
                v_state[key] = beta2 * v_state[key] + (1 - beta2) * g * g
                m_hat = m_state[key] / (1 - beta1**step)
                v_hat = v_state[key] / (1 - beta2**step)
                params[key] -= lr * m_hat / (np.sqrt(v_hat) + eps)
        history.append(float(np.mean(batch_losses)))
        if all(np.isfinite(p).all() for p in params.values()):
            checkpoint = current.copy()
            checkpoint_history = list(history)

    return _finish(current, history, batch, lr, seed)


def lstm_ae_score(model: LstmAeModel, frames) -> AnomalyScoreSeries:
    """Per-frame reconstruction MSE (lstm_ae_forward)."""
    return AnomalyScoreSeries(scores=lstm_ae_forward(model, frames).mse)


class LstmAeDetector(Detector):
    """Frames in, reconstruction-error scores out; no vectorizer."""

    kind = "lstmae"
    model_type = LstmAeModel

    def __init__(self, hidden: int = 64, epochs: int = 30, batch: int = 64,
                 lr: float = 1e-3, seed: int = 0):
        _check_settings(hidden, epochs, batch, lr)
        super().__init__(hidden=hidden, epochs=epochs, batch_size=batch, learning_rate=lr, seed=seed)

    def _fit(self, frames) -> LstmAeModel:
        s = self.settings
        init = lstm_ae_init(n_mels=frames.n_mels, hidden=s["hidden"], seed=s["seed"])
        init = replace(init, **{name: p.astype(np.float32) for name, p in init.params().items()})
        return lstm_ae_train(init, frames, epochs=s["epochs"], batch=s["batch_size"], lr=s["learning_rate"], seed=s["seed"])

    def _score(self, frames) -> AnomalyScoreSeries:
        return lstm_ae_score(self.model, frames)
