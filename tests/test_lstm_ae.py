import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from aad import lstm_ae
from aad.blocks import decode_blocks
from aad.cli import main
from aad.detector_api import _HEADER_LEN, restore
from aad.errors import NonFiniteLossWarning, PipelineError
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

from conftest import forge_model, random_frames, write_frame_archive


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


def ref_cell_forward(W, b, x_t, h_prev, c_prev, h):
    """One step over the concatenated input z = [x_t, h_prev]: the per-step reference form."""
    z = np.concatenate([x_t, h_prev], axis=1)
    a = z @ W.T + b
    s = masked_sigmoid(a[:, : 3 * h])
    gi, gf, go = s[:, 0:h], s[:, h : 2 * h], s[:, 2 * h : 3 * h]
    gg = np.tanh(a[:, 3 * h : 4 * h])
    c = gf * c_prev + gi * gg
    tc = np.tanh(c)
    return go * tc, c, (z, gi, gf, go, gg, c_prev, tc)


def ref_cell_backward(W, cache, dh, dc_in, h):
    """One BPTT step: the full dz = da @ W and this step's dW, db."""
    z, gi, gf, go, gg, c_prev, tc = cache
    do = dh * tc
    dc = dc_in + dh * go * (1.0 - tc * tc)
    da = np.concatenate([
        dc * gg * gi * (1.0 - gi),
        dc * c_prev * gf * (1.0 - gf),
        do * go * (1.0 - go),
        dc * gi * (1.0 - gg * gg),
    ], axis=1)
    return da @ W, dc * gf, da.T @ z, da.sum(axis=0)


def ref_forward(model, X):
    """Per-step reference: reconstructions [B x T x M], decoder states, and both layers' caches."""
    B, T, M = X.shape
    h = model.hidden
    hs, cs = np.zeros((B, h)), np.zeros((B, h))
    enc_caches = []
    for t in range(T):
        hs, cs, cache = ref_cell_forward(model.enc_W, model.enc_b, X[:, t], hs, cs, h)
        enc_caches.append(cache)
    latent = hs
    hd, cd = np.zeros((B, h)), np.zeros((B, h))
    dec_caches = []
    H = np.empty((B, T, h))
    for t in range(T):
        hd, cd, cache = ref_cell_forward(model.dec_W, model.dec_b, latent, hd, cd, h)
        H[:, t] = hd
        dec_caches.append(cache)
    return H @ model.proj_W.T + model.proj_b, H, enc_caches, dec_caches


def reconstructions(model, X):
    """One unblocked forward pass's reconstructions as [B x T x M]."""
    B, T, M = X.shape
    return lstm_ae._forward(model, X)[1].reshape(T, B, M).transpose(1, 0, 2)


def ref_loss_and_grads(model, X):
    """Loss and gradients from the per-step reference, each step's dW accumulated in the loop."""
    B, T, M = X.shape
    h = model.hidden
    Y, H, enc_caches, dec_caches = ref_forward(model, X)
    diff = Y - X
    dY = 2.0 * diff / diff.size
    grads = {name: np.zeros_like(getattr(model, name)) for name in ("enc_W", "enc_b", "dec_W", "dec_b")}
    grads["proj_W"] = dY.reshape(-1, M).T @ H.reshape(-1, h)
    grads["proj_b"] = dY.sum(axis=(0, 1))
    dH = dY @ model.proj_W
    dhd, dcd, d_latent = np.zeros((B, h)), np.zeros((B, h)), np.zeros((B, h))
    for t in reversed(range(T)):
        dz, dcd, dW, db = ref_cell_backward(model.dec_W, dec_caches[t], dH[:, t] + dhd, dcd, h)
        grads["dec_W"] += dW
        grads["dec_b"] += db
        d_latent += dz[:, :h]
        dhd = dz[:, h:]
    dhe, dce = d_latent, np.zeros((B, h))
    for t in reversed(range(T)):
        dz, dce, dW, db = ref_cell_backward(model.enc_W, enc_caches[t], dhe, dce, h)
        grads["enc_W"] += dW
        grads["enc_b"] += db
        dhe = dz[:, M:]
    return float(np.mean(diff**2)), grads


def rel_err(a, ref):
    return float(np.max(np.abs(a - ref)) / np.max(np.abs(ref)))


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
        Y = reconstructions(model, X)
        # zero input still drives the decoder through biases; MSE is the
        # mean square of that bias-driven output
        assert out.mse == pytest.approx(np.mean(Y**2, axis=(1, 2)))
        assert np.array_equal(Y[0], Y[1])

    def test_identical_frames_identical_mse(self, rng):
        model = lstm_ae_init(6, 4, seed=4)
        frame = rng.uniform(0, 1, (1, 5, 6))
        X = np.repeat(frame, 4, axis=0)
        out = lstm_ae_forward(model, X)
        assert np.all(out.mse == out.mse[0])

    def test_matches_scalar_loop_oracle(self, rng):
        model = lstm_ae_init(n_mels=5, hidden=3, seed=6)
        X = rng.uniform(0, 1, (2, 4, 5))
        oracle = scalar_forward(model, X)
        assert np.max(np.abs(reconstructions(model, X) - oracle)) < 1e-10

    def test_shape_mismatch(self):
        model = lstm_ae_init(6, 4, seed=0)
        with pytest.raises(PipelineError, match="input dim 7 != model input dim 6"):
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


class TestReferenceForm:
    """The hoisted-input recurrence against the per-step form at the production shape."""

    @pytest.mark.parametrize("batch", [64, 47])
    def test_matches_per_step_form(self, rng, batch):
        model = lstm_ae_init(n_mels=128, hidden=64, seed=11)
        X = rng.uniform(0, 1, (batch, 16, 128))
        out = lstm_ae_forward(model, X)
        Y, _, _, _ = ref_forward(model, X)
        assert rel_err(reconstructions(model, X), Y) <= 1e-12
        assert rel_err(out.mse, np.mean((Y - X) ** 2, axis=(1, 2))) <= 1e-12
        loss, grads = _loss_and_grads(model, X)
        ref_loss, ref_grads = ref_loss_and_grads(model, X)
        assert abs(loss - ref_loss) <= 1e-12 * ref_loss
        for name in _PARAM_NAMES:
            assert grads[name].shape == ref_grads[name].shape
            assert rel_err(grads[name], ref_grads[name]) <= 1e-12, name

    def test_seeded_training_unchanged(self, rng, monkeypatch):
        X = rng.uniform(0, 1, (1184, 16, 128))
        init = lstm_ae_init(n_mels=128, hidden=64, seed=12)
        trained = lstm_ae_train(init, X, epochs=3, batch=64, seed=12)
        monkeypatch.setattr(lstm_ae, "_loss_and_grads", ref_loss_and_grads)
        ref = lstm_ae_train(init, X, epochs=3, batch=64, seed=12)
        assert len(trained.loss_history) == len(ref.loss_history) == 4
        for got, want in zip(trained.loss_history, ref.loss_history):
            assert abs(got - want) <= 1e-12 * want
        for name in _PARAM_NAMES:
            assert np.max(np.abs(getattr(trained, name) - getattr(ref, name))) <= 1e-12, name


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

    @pytest.mark.parametrize("setting, message", [
        ({"batch": 0}, "batch must be >= 1, got 0"),
        ({"epochs": -1}, "epochs must be >= 0, got -1"),
    ], ids=["batch", "epochs"])
    def test_out_of_range_setting_rejected(self, rng, setting, message):
        X = rng.uniform(0, 1, (8, 3, 4))
        with pytest.raises(ValueError, match=message):
            lstm_ae_train(lstm_ae_init(4, 3, seed=5), X, **setting)

    @pytest.mark.parametrize("lr", [np.nan, np.inf, 0.0, -1.0])
    def test_lr_not_finite_and_positive_rejected(self, rng, lr):
        X = rng.uniform(0, 1, (8, 3, 4))
        with pytest.raises(ValueError, match=f"lr must be finite and > 0, got {lr}"):
            lstm_ae_train(lstm_ae_init(4, 3, seed=5), X, lr=lr)

    def test_initial_loss_spans_several_score_blocks(self, rng):
        X = rng.uniform(0, 1, (1100, 3, 4))  # three 512-frame blocks
        model = lstm_ae_init(4, 3, seed=5)
        trained = lstm_ae_train(model, X, epochs=0)
        assert trained.loss_history[0] == float(np.mean(lstm_ae_score(model, X).scores))
        assert trained.loss_history[0] == pytest.approx(float(np.mean(lstm_ae_forward(model, X).mse)), abs=1e-15)

    def test_zero_frames_rejected(self):
        with pytest.raises(PipelineError, match="need at least one training frame"):
            lstm_ae_train(lstm_ae_init(6, 4, seed=1), np.zeros((0, 5, 6)), epochs=1)

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

    def test_frame_tensor_read_in_place(self):
        """75 archive-layout frames: two full 32-frame transposes and a ragged one."""
        frames = random_frames(num_frames=75, n_mels=6, frame_size=5, seed=12)
        model = lstm_ae_init(6, 4, seed=3)
        X = np.ascontiguousarray(frames.frames.transpose(0, 2, 1))
        scores = lstm_ae_score(model, frames).scores
        assert np.array_equal(scores, lstm_ae_score(model, X).scores)
        singles = np.array([lstm_ae_score(model, X[i : i + 1]).scores[0] for i in range(75)])
        assert np.max(np.abs(scores - singles)) < 1e-12

    def test_memorized_frame_scores_at_training_floor(self, rng):
        frame = rng.uniform(0, 1, (1, 6, 8))
        X = np.repeat(frame, 32, axis=0)
        model = lstm_ae_train(lstm_ae_init(8, 16, seed=4), X, epochs=200, batch=8, seed=4)
        score = lstm_ae_score(model, frame).scores[0]
        assert score == pytest.approx(model.loss_history[-1], rel=0.5)
        assert score < 1e-3

    def test_score_equals_forward_mse(self, rng):
        """A single short block, and two score blocks with a ragged 17-frame tail."""
        model = lstm_ae_init(6, 4, seed=9)
        for n in (7, lstm_ae._SCORE_BLOCK + 17):
            X = rng.uniform(0, 1, (n, 5, 6))
            scores = lstm_ae_score(model, X).scores
            assert np.array_equal(scores, lstm_ae_forward(model, X).mse)
            assert rel_err(scores, np.mean((reconstructions(model, X) - X) ** 2, axis=(1, 2))) <= 1e-12


class TestDetectorWrapper:
    def test_fit_and_score(self):
        train = random_frames(num_frames=30, n_mels=8, frame_size=5, seed=3)
        det = LstmAeDetector(hidden=8, epochs=3, batch=8, seed=1).fit(train)
        probe = random_frames(num_frames=6, n_mels=8, frame_size=5, seed=4)
        scores = det.score(probe).scores
        assert scores.shape == (6,)
        assert np.all(scores >= 0)


def with_dtype(model, dtype):
    return replace(model, **{name: p.astype(dtype) for name, p in model.params().items()})


# A seeded float32 fit, printed as the SHA-256 of its parameter bytes; run under different BLAS thread counts.
_THREAD_PROBE = """
import hashlib
from aad.lstm_ae import LstmAeDetector
from conftest import random_frames
det = LstmAeDetector(hidden=64, epochs=2, batch=64, seed=3).fit(
    random_frames(num_frames=600, n_mels=128, frame_size=16, hop_size=4, seed=8))
print(hashlib.sha256(b"".join(p.tobytes() for p in det.model.params().values())).hexdigest())
"""


class TestFloat32:
    """LstmAeDetector trains, scores and persists in float32; lstm_ae_init stays float64."""

    @pytest.fixture(scope="class")
    def fitted(self):
        train = random_frames(num_frames=40, n_mels=8, frame_size=5, seed=3)
        return LstmAeDetector(hidden=8, epochs=2, batch=8, seed=1).fit(train)

    def test_fit_gives_float32_parameters_persisted_as_f4(self, fitted, tmp_path):
        assert lstm_ae_init(8, 8, seed=1).enc_W.dtype == np.float64
        for name in _PARAM_NAMES:
            assert getattr(fitted.model, name).dtype == np.float32, name
        fitted.persist(tmp_path / "m.model")
        raw = (tmp_path / "m.model").read_bytes()
        blocks = decode_blocks(memoryview(raw)[_HEADER_LEN:], "m.model", raw[:_HEADER_LEN])
        for name in _PARAM_NAMES:
            assert blocks[name].dtype.str == "<f4", name
        assert blocks["loss_history"].dtype.str == "<f8"

    def test_restored_model_reproduces_scores_bit_for_bit(self, fitted, tmp_path):
        probe = random_frames(num_frames=13, n_mels=8, frame_size=5, seed=4)
        fitted.persist(tmp_path / "m.model")
        loaded = restore(tmp_path / "m.model")
        for name in _PARAM_NAMES:
            assert getattr(loaded.model, name).dtype == np.float32
            assert np.array_equal(getattr(loaded.model, name), getattr(fitted.model, name))
        assert np.array_equal(loaded.score(probe).scores, fitted.score(probe).scores)

    def test_float64_parameter_file_is_a_data_error(self, fitted, tmp_path, capsys):
        """A model file written with float64 parameters is refused, not cast."""
        fitted.persist(tmp_path / "new.model")
        raw = (tmp_path / "new.model").read_bytes()
        (tmp_path / "old.model").write_bytes(forge_model(
            raw, lambda blocks: blocks.update({name: blocks[name].astype(np.float64) for name in _PARAM_NAMES})))
        frames = tmp_path / "probe.frames"
        write_frame_archive(frames, random_frames(num_frames=6, n_mels=8, frame_size=5, seed=4))
        capsys.readouterr()
        rc = main(["score", "--model", str(tmp_path / "old.model"), "--frames", str(frames),
                   "--out", str(tmp_path / "s.scores")])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("error: score:")
        assert "block 'enc_W' is <f8" in err
        assert not (tmp_path / "s.scores").exists()

    def test_float64_parameters_are_refused_at_persist(self, fitted, tmp_path):
        old = LstmAeDetector()
        old.model = with_dtype(fitted.model, np.float64)
        with pytest.raises(ValueError, match="block 'enc_W' is <f8, LstmAeModel stores <f4"):
            old.persist(tmp_path / "old.model")
        assert not (tmp_path / "old.model").exists()

    def test_loss_history_matches_float64(self, rng):
        X = rng.uniform(0, 1, (1184, 16, 128))
        init = lstm_ae_init(n_mels=128, hidden=64, seed=12)
        single = lstm_ae_train(with_dtype(init, np.float32), X, epochs=3, batch=64, seed=12)
        double = lstm_ae_train(init, X, epochs=3, batch=64, seed=12)
        assert single.enc_W.dtype == np.float32 and double.enc_W.dtype == np.float64
        assert len(single.loss_history) == len(double.loss_history) == 4
        for got, want in zip(single.loss_history, double.loss_history):
            assert abs(got - want) <= 1e-5 * want

    def test_seeded_fit_identical_under_one_and_two_blas_threads(self):
        tests_dir = Path(__file__).resolve().parent
        path = os.pathsep.join([str(tests_dir.parent / "src"), str(tests_dir), os.environ.get("PYTHONPATH", "")])
        digests = set()
        for threads in ("1", "2"):
            env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads}
            out = subprocess.run([sys.executable, "-c", _THREAD_PROBE], env=env, check=True,
                                 capture_output=True, text=True, timeout=300).stdout.split()
            digests.add(out[-1])
        assert len(digests) == 1
