"""LSTM autoencoder over frame sequences; anomaly score = reconstruction MSE.

Single-layer encoder and decoder. The encoder walks a frame's time axis
(one Mel column per step); its final hidden state is the latent code. The
decoder receives that code as its input at every timestep and a linear
projection maps decoder outputs back to Mel columns.

Gate weights are stored stacked as [4h x in_dim + h] with rows ordered
input, forget, output, candidate. Everything is plain numpy with exact
backpropagation through time; no framework involved, so fixed seed + fixed
data reproduces parameters bit-for-bit.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .detector_api import (
    KIND_LSTM_AE,
    AnomalyScoreSeries,
    Detector,
)
from .errors import NonFiniteLossWarning, ShapeMismatchError
from .features import FrameTensor

_PARAM_NAMES = ("enc_W", "enc_b", "dec_W", "dec_b", "proj_W", "proj_b")


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

    def params(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in _PARAM_NAMES}

    def copy(self) -> "LstmAeModel":
        return replace(self, **{name: getattr(self, name).copy() for name in _PARAM_NAMES})


@dataclass(frozen=True)
class ReconstructionBatch:
    reconstructions: np.ndarray  # [B x T x M]
    mse: np.ndarray              # [B]


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """1 / (1 + e^-x) for x >= 0 and e^x / (1 + e^x) below: exp never overflows."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def lstm_ae_init(n_mels: int = 128, hidden: int = 64, seed: int = 0) -> LstmAeModel:
    """Seeded init: weights uniform in [-1/sqrt(h), 1/sqrt(h)], forget bias 1."""
    if n_mels < 1 or hidden < 1:
        raise ValueError("dimensions must be positive")
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


def _cell_forward(W, b, x_t, h_prev, c_prev, h):
    z = np.concatenate([x_t, h_prev], axis=1)
    a = z @ W.T + b
    s = _sigmoid(a[:, : 3 * h])
    gi, gf, go = s[:, 0:h], s[:, h : 2 * h], s[:, 2 * h : 3 * h]
    gg = np.tanh(a[:, 3 * h : 4 * h])
    c = gf * c_prev + gi * gg
    tc = np.tanh(c)
    return go * tc, c, (z, gi, gf, go, gg, c_prev, tc)


def _cell_backward(W, cache, dh, dc_in, h):
    z, gi, gf, go, gg, c_prev, tc = cache
    do = dh * tc
    dc = dc_in + dh * go * (1.0 - tc * tc)
    da = np.empty((dh.shape[0], 4 * h))
    np.multiply(dc * gg * gi, 1.0 - gi, out=da[:, 0:h])
    np.multiply(dc * c_prev * gf, 1.0 - gf, out=da[:, h : 2 * h])
    np.multiply(do * go, 1.0 - go, out=da[:, 2 * h : 3 * h])
    np.multiply(dc * gi, 1.0 - gg * gg, out=da[:, 3 * h : 4 * h])
    dW = da.T @ z
    db = da.sum(axis=0)
    dz = da @ W
    return dz, dc * gf, dW, db


def _forward(model: LstmAeModel, X: np.ndarray, want_caches: bool):
    """X is [B x T x M]; returns reconstructions plus BPTT caches if asked."""
    B, T, M = X.shape
    h = model.hidden
    hs = np.zeros((B, h))
    cs = np.zeros((B, h))
    enc_caches = []
    for t in range(T):
        hs, cs, cache = _cell_forward(model.enc_W, model.enc_b, X[:, t], hs, cs, h)
        if want_caches:
            enc_caches.append(cache)
    latent = hs

    hd = np.zeros((B, h))
    cd = np.zeros((B, h))
    dec_caches = []
    H = np.empty((B, T, h))
    for t in range(T):
        hd, cd, cache = _cell_forward(model.dec_W, model.dec_b, latent, hd, cd, h)
        H[:, t] = hd
        if want_caches:
            dec_caches.append(cache)
    Y = H @ model.proj_W.T + model.proj_b
    return Y, H, enc_caches, dec_caches


def _loss_and_grads(model: LstmAeModel, X: np.ndarray):
    """Mean reconstruction MSE over the batch plus gradients for every parameter."""
    B, T, M = X.shape
    h = model.hidden
    Y, H, enc_caches, dec_caches = _forward(model, X, want_caches=True)
    diff = Y - X
    loss = float(np.mean(diff**2))

    dY = 2.0 * diff / diff.size
    grads = {
        "proj_W": dY.reshape(-1, M).T @ H.reshape(-1, h),
        "proj_b": dY.sum(axis=(0, 1)),
        "enc_W": np.zeros_like(model.enc_W),
        "enc_b": np.zeros_like(model.enc_b),
        "dec_W": np.zeros_like(model.dec_W),
        "dec_b": np.zeros_like(model.dec_b),
    }
    dH = dY @ model.proj_W

    dhd = np.zeros((B, h))
    dcd = np.zeros((B, h))
    d_latent = np.zeros((B, h))
    for t in reversed(range(T)):
        dz, dcd, dW, db = _cell_backward(model.dec_W, dec_caches[t], dH[:, t] + dhd, dcd, h)
        grads["dec_W"] += dW
        grads["dec_b"] += db
        d_latent += dz[:, :h]
        dhd = dz[:, h:]

    dhe = d_latent
    dce = np.zeros((B, h))
    M_in = model.input_dim
    for t in reversed(range(T)):
        dz, dce, dW, db = _cell_backward(model.enc_W, enc_caches[t], dhe, dce, h)
        grads["enc_W"] += dW
        grads["enc_b"] += db
        dhe = dz[:, M_in:]
    return loss, grads


def _model_batch(model: LstmAeModel, frames) -> np.ndarray:
    """Accept a FrameTensor or a [B x T x M] array; return time-major float64 of the model's width."""
    if isinstance(frames, FrameTensor):
        X = np.ascontiguousarray(frames.frames.transpose(0, 2, 1))
    else:
        X = np.asarray(frames, dtype=np.float64)
        if X.ndim != 3:
            raise ShapeMismatchError(f"expected a 3-D batch, got shape {X.shape}")
    if X.shape[2] != model.input_dim:
        raise ShapeMismatchError(f"input dim {X.shape[2]} != model input dim {model.input_dim}")
    return X


def _finish(model: LstmAeModel, history: list[float], batch: int, lr: float, seed: int) -> LstmAeModel:
    """The trained model with its loss history and training settings recorded."""
    return replace(model, loss_history=tuple(history), final_loss=history[-1],
                   epochs=len(history) - 1, batch_size=batch, learning_rate=lr, seed=seed)


def lstm_ae_forward(model: LstmAeModel, frames) -> ReconstructionBatch:
    """Reconstruct a batch and report per-frame MSE (mean over time and bands)."""
    X = _model_batch(model, frames)
    Y, _, _, _ = _forward(model, X, want_caches=False)
    mse = np.mean((Y - X) ** 2, axis=(1, 2))
    return ReconstructionBatch(reconstructions=Y, mse=mse)


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
    X = _model_batch(model, frames)
    n = X.shape[0]
    beta1, beta2, eps = 0.9, 0.999, 1e-8

    current = model.copy()
    params = current.params()
    m_state = {k: np.zeros_like(v) for k, v in params.items()}
    v_state = {k: np.zeros_like(v) for k, v in params.items()}
    step = 0
    rng = np.random.default_rng(seed)

    initial_loss = float(np.mean(_block_mse(current, X)))
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


def _block_mse(model: LstmAeModel, X: np.ndarray, block: int = 512) -> np.ndarray:
    """Per-frame reconstruction MSE, forwarded `block` frames at a time so memory stays bounded."""
    mse = np.empty(X.shape[0])
    for start in range(0, X.shape[0], block):
        mse[start : start + block] = lstm_ae_forward(model, X[start : start + block]).mse
    return mse


def lstm_ae_score(model: LstmAeModel, frames, block: int = 512) -> AnomalyScoreSeries:
    """Per-frame reconstruction MSE, evaluated in blocks."""
    return AnomalyScoreSeries(scores=_block_mse(model, _model_batch(model, frames), block))


class LstmAeDetector(Detector):
    """Uniform-contract wrapper: frames in, reconstruction-error scores out."""

    kind = KIND_LSTM_AE

    def __init__(self, hidden: int = 64, epochs: int = 30, batch: int = 64,
                 lr: float = 1e-3, seed: int = 0):
        super().__init__()
        self.hidden = hidden
        self.epochs = epochs
        self.batch = batch
        self.lr = lr
        self.seed = seed
        self.model: LstmAeModel | None = None

    def fit(self, frames) -> "LstmAeDetector":
        init = lstm_ae_init(n_mels=frames.frames.shape[1], hidden=self.hidden, seed=self.seed)
        self.model = lstm_ae_train(
            init, frames, epochs=self.epochs, batch=self.batch, lr=self.lr, seed=self.seed
        )
        return self

    def score(self, frames) -> AnomalyScoreSeries:
        if self.model is None:
            raise ValueError("fit before score")
        return lstm_ae_score(self.model, frames)
