import numpy as np
import pytest

from aad.errors import NonFiniteLossWarning, ShapeMismatchError
from aad.lstm_ae import (
    _PARAM_NAMES,
    LstmAeDetector,
    _loss_and_grads,
    _sigmoid,
    lstm_ae_forward,
    lstm_ae_init,
    lstm_ae_score,
    lstm_ae_train,
)

from conftest import random_frames


def scalar_lstm_cell(W, b, x, h_prev, c_prev, hidden):
    """Pure-scalar gate equations for one sample, one timestep."""

    def sig(v):
        return 1.0 / (1.0 + np.exp(-v))

    z = np.concatenate([x, h_prev])
    h_new = np.zeros(hidden)
    c_new = np.zeros(hidden)
    for u in range(hidden):
        ai = sum(W[u, j] * z[j] for j in range(z.size)) + b[u]
        af = sum(W[hidden + u, j] * z[j] for j in range(z.size)) + b[hidden + u]
        ao = sum(W[2 * hidden + u, j] * z[j] for j in range(z.size)) + b[2 * hidden + u]
        ag = sum(W[3 * hidden + u, j] * z[j] for j in range(z.size)) + b[3 * hidden + u]
        c_new[u] = sig(af) * c_prev[u] + sig(ai) * np.tanh(ag)
        h_new[u] = sig(ao) * np.tanh(c_new[u])
    return h_new, c_new


def scalar_forward(model, X):
    """Step-by-step scalar-loop oracle for the full encoder/decoder stack."""
    B, T, M = X.shape
    h = model.hidden
    Y = np.zeros_like(X)
    for b in range(B):
        he = np.zeros(h)
        ce = np.zeros(h)
        for t in range(T):
            he, ce = scalar_lstm_cell(model.enc_W, model.enc_b, X[b, t], he, ce, h)
        latent = he
        hd = np.zeros(h)
        cd = np.zeros(h)
        for t in range(T):
            hd, cd = scalar_lstm_cell(model.dec_W, model.dec_b, latent, hd, cd, h)
            Y[b, t] = model.proj_W @ hd + model.proj_b
    return Y


def masked_sigmoid(x):
    """Per-sign masked sigmoid, one exp per element: the reference bits for _sigmoid."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


class TestSigmoid:
    def test_bit_equal_to_masked_form(self, rng):
        edges = np.array([0.0, -0.0, 1e-300, -1e-300, 5e-324, -5e-324, 800.0, -800.0, np.inf, -np.inf])
        wide = rng.standard_normal((47, 256)) * 10.0 ** rng.uniform(-300, 3, (47, 256))
        for x in (edges, wide, wide[:, :192]):
            assert np.array_equal(_sigmoid(x), masked_sigmoid(x))
            assert np.array_equal(np.signbit(_sigmoid(x)), np.signbit(masked_sigmoid(x)))

    def test_nan_gives_nan(self):
        x = np.array([np.nan, -np.nan, 0.5, -0.5])
        assert np.array_equal(_sigmoid(x), masked_sigmoid(x), equal_nan=True)


class TestInit:
    def test_seeded_init_bit_identical(self):
        a = lstm_ae_init(16, 8, seed=5)
        b = lstm_ae_init(16, 8, seed=5)
        for name in _PARAM_NAMES:
            assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_shapes(self):
        model = lstm_ae_init(n_mels=128, hidden=64, seed=0)
        assert model.enc_W.shape == (256, 192)   # 4h x (input + h)
        assert model.enc_b.shape == (256,)
        assert model.dec_W.shape == (256, 128)   # 4h x 2h
        assert model.proj_W.shape == (128, 64)
        assert model.proj_b.shape == (128,)

    def test_forget_bias_one_others_zero(self):
        model = lstm_ae_init(12, 6, seed=1)
        h = 6
        for b in (model.enc_b, model.dec_b):
            assert np.all(b[h : 2 * h] == 1.0)
            assert np.all(b[:h] == 0.0)
            assert np.all(b[2 * h :] == 0.0)

    def test_weight_range(self):
        model = lstm_ae_init(12, 16, seed=2)
        bound = 1.0 / np.sqrt(16)
        for name in ("enc_W", "dec_W", "proj_W"):
            w = getattr(model, name)
            assert np.all(np.abs(w) <= bound)

    def test_different_seeds_differ(self):
        a = lstm_ae_init(16, 8, seed=1)
        b = lstm_ae_init(16, 8, seed=2)
        assert not np.array_equal(a.enc_W, b.enc_W)


class TestForward:
    def test_zero_input_reconstruction_is_bias_driven(self):
        model = lstm_ae_init(6, 4, seed=3)
        X = np.zeros((2, 5, 6))
        out = lstm_ae_forward(model, X)
        # zero input still drives the decoder through biases; MSE is the
        # mean square of that bias-driven output
        assert out.mse == pytest.approx(np.mean(out.reconstructions**2, axis=(1, 2)))
        assert np.array_equal(out.reconstructions[0], out.reconstructions[1])

    def test_identical_frames_identical_mse(self, rng):
        model = lstm_ae_init(6, 4, seed=4)
        frame = rng.uniform(0, 1, (1, 5, 6))
        X = np.repeat(frame, 4, axis=0)
        out = lstm_ae_forward(model, X)
        assert np.all(out.mse == out.mse[0])

    def test_matches_scalar_loop_oracle(self, rng):
        model = lstm_ae_init(n_mels=5, hidden=3, seed=6)
        X = rng.uniform(0, 1, (2, 4, 5))
        out = lstm_ae_forward(model, X)
        oracle = scalar_forward(model, X)
        assert np.max(np.abs(out.reconstructions - oracle)) < 1e-10

    def test_shape_mismatch(self):
        model = lstm_ae_init(6, 4, seed=0)
        with pytest.raises(ShapeMismatchError):
            lstm_ae_forward(model, np.zeros((2, 5, 7)))


class TestGradients:
    def test_analytic_matches_central_differences(self, rng):
        model = lstm_ae_init(n_mels=5, hidden=3, seed=1)
        X = rng.uniform(0, 1, (2, 4, 5))
        _, grads = _loss_and_grads(model, X)
        step = 1e-5
        worst = 0.0
        for name in _PARAM_NAMES:
            arr = getattr(model, name)
            grad = grads[name]
            it = np.nditer(arr, flags=["multi_index"])
            while not it.finished:
                idx = it.multi_index
                keep = arr[idx]
                arr[idx] = keep + step
                up, _ = _loss_and_grads(model, X)
                arr[idx] = keep - step
                down, _ = _loss_and_grads(model, X)
                arr[idx] = keep
                fd = (up - down) / (2 * step)
                denom = max(abs(fd), abs(grad[idx]), 1e-8)
                worst = max(worst, abs(fd - grad[idx]) / denom)
                it.iternext()
        assert worst <= 1e-4


class TestTrain:
    def test_memorizes_single_repeated_frame(self, rng):
        frame = rng.uniform(0, 1, (1, 8, 16))
        X = np.repeat(frame, 32, axis=0)
        model = lstm_ae_init(n_mels=16, hidden=32, seed=3)
        trained = lstm_ae_train(model, X, epochs=200, batch=8, lr=1e-3, seed=3)
        assert trained.loss_history[-1] < 1e-3

    def test_history_head_is_untrained_loss(self, rng):
        X = rng.uniform(0, 1, (16, 5, 6))
        model = lstm_ae_init(6, 4, seed=5)
        untrained = float(np.mean(lstm_ae_forward(model, X).mse))
        trained = lstm_ae_train(model, X, epochs=2, batch=4, lr=1e-3, seed=5)
        assert trained.loss_history[0] == pytest.approx(untrained, abs=1e-15)

    def test_initial_loss_spans_several_score_blocks(self, rng):
        X = rng.uniform(0, 1, (1100, 3, 4))  # three 512-frame blocks
        model = lstm_ae_init(4, 3, seed=5)
        trained = lstm_ae_train(model, X, epochs=0)
        assert trained.loss_history[0] == float(np.mean(lstm_ae_score(model, X).scores))
        assert trained.loss_history[0] == pytest.approx(float(np.mean(lstm_ae_forward(model, X).mse)), abs=1e-15)

    def test_training_does_not_mutate_input_model(self, rng):
        X = rng.uniform(0, 1, (8, 5, 6))
        model = lstm_ae_init(6, 4, seed=6)
        before = {n: getattr(model, n).copy() for n in _PARAM_NAMES}
        lstm_ae_train(model, X, epochs=2, batch=4, lr=1e-2, seed=6)
        for name in _PARAM_NAMES:
            assert np.array_equal(getattr(model, name), before[name])

    def test_fixed_seed_bit_deterministic(self, rng):
        X = rng.uniform(0, 1, (24, 5, 6))
        a = lstm_ae_train(lstm_ae_init(6, 4, seed=7), X, epochs=3, batch=8, seed=7)
        b = lstm_ae_train(lstm_ae_init(6, 4, seed=7), X, epochs=3, batch=8, seed=7)
        for name in _PARAM_NAMES:
            assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_loss_trend_over_seeds(self):
        # loss non-increasing after epoch 2 in at least 9 of 10 seeded runs
        data_rng = np.random.default_rng(42)
        X = data_rng.uniform(0, 1, (48, 6, 8))
        good = 0
        for seed in range(10):
            model = lstm_ae_init(8, 8, seed=seed)
            trained = lstm_ae_train(model, X, epochs=10, batch=16, lr=1e-3, seed=seed)
            tail = trained.loss_history[2:]
            if all(a >= b - 1e-9 for a, b in zip(tail, tail[1:])):
                good += 1
        assert good >= 9

    def test_nonfinite_loss_returns_last_checkpoint(self, rng):
        X = rng.uniform(0, 1, (16, 4, 5))
        model = lstm_ae_init(5, 4, seed=8)
        # an absurd learning rate overflows the projection on the second batch
        with np.errstate(over="ignore", invalid="ignore"), pytest.warns(NonFiniteLossWarning):
            trained = lstm_ae_train(model, X, epochs=5, batch=8, lr=1e200, seed=8)
        for name in _PARAM_NAMES:
            assert np.all(np.isfinite(getattr(trained, name)))
        assert all(np.isfinite(v) for v in trained.loss_history)


class TestScore:
    def test_score_length(self):
        frames = random_frames(num_frames=9, n_mels=6, frame_size=4, seed=1)
        model = lstm_ae_init(6, 4, seed=1)
        assert lstm_ae_score(model, frames).scores.shape == (9,)

    def test_batched_equals_one_at_a_time(self, rng):
        model = lstm_ae_init(6, 4, seed=2)
        X = rng.uniform(0, 1, (20, 5, 6))
        batched = lstm_ae_score(model, X).scores
        singles = np.array([lstm_ae_score(model, X[i : i + 1]).scores[0] for i in range(20)])
        assert np.max(np.abs(batched - singles)) < 1e-12

    def test_memorized_frame_scores_at_training_floor(self, rng):
        frame = rng.uniform(0, 1, (1, 6, 8))
        X = np.repeat(frame, 32, axis=0)
        model = lstm_ae_train(lstm_ae_init(8, 16, seed=4), X, epochs=200, batch=8, seed=4)
        score = lstm_ae_score(model, frame).scores[0]
        assert score == pytest.approx(model.loss_history[-1], rel=0.5)
        assert score < 1e-3

    def test_score_equals_forward_mse(self, rng):
        model = lstm_ae_init(6, 4, seed=9)
        X = rng.uniform(0, 1, (7, 5, 6))
        assert np.array_equal(lstm_ae_score(model, X).scores, lstm_ae_forward(model, X).mse)


class TestDetectorWrapper:
    def test_fit_and_score(self):
        train = random_frames(num_frames=30, n_mels=8, frame_size=5, seed=3)
        det = LstmAeDetector(hidden=8, epochs=3, batch=8, seed=1).fit(train)
        probe = random_frames(num_frames=6, n_mels=8, frame_size=5, seed=4)
        scores = det.score(probe).scores
        assert scores.shape == (6,)
        assert np.all(scores >= 0)
