import numpy as np
import pytest

from aad.detector_api import (
    KIND_KMEANS,
    KIND_LSTM_AE,
    KIND_OCSVM,
    MODEL_VERSION,
    Vectorizer,
    persist,
    read_model_header,
    restore,
)
from aad.errors import CorruptModelFileError, PipelineError, StandardizerMissingError, VersionMismatchError
from aad.features import load_frames, save_frames
from aad.kmeans import KMeansDetector
from aad.lstm_ae import LstmAeDetector
from aad.ocsvm import OcSvmDetector

from conftest import random_frames


class TestVectorizer:
    def test_flatten_shape(self):
        frames = random_frames(num_frames=7, n_mels=128, frame_size=16)
        rows = Vectorizer().fit(frames)
        assert rows.shape == (7, 2048)

    def test_flatten_is_row_major(self):
        frames = random_frames(num_frames=3, n_mels=4, frame_size=5, seed=9)
        vec = Vectorizer()
        vec.fit(frames)
        assert np.array_equal(vec.mean, frames.frames.mean(axis=0).ravel())

    def test_standardized_training_stats(self):
        frames = random_frames(num_frames=50, n_mels=6, frame_size=4, seed=2)
        rows = Vectorizer().fit(frames)
        assert np.abs(rows.mean(axis=0)).max() < 1e-9
        assert np.abs(rows.var(axis=0) - 1.0).max() < 1e-6

    def test_zero_variance_column_maps_to_zero(self):
        from aad.features import FrameTensor

        base = random_frames(num_frames=10, n_mels=3, frame_size=2, seed=3)
        values = base.frames.copy()
        values[:, 0, 0] = 0.5  # constant feature
        frames = FrameTensor(
            frames=values, frame_size=base.frame_size, hop_size=base.hop_size,
            origin_columns=base.origin_columns, sample_rate=16000, hop_length=512,
        )
        vec = Vectorizer()
        rows = vec.fit(frames)
        assert np.all(rows[:, 0] == 0.0)
        other = random_frames(num_frames=4, n_mels=3, frame_size=2, seed=4)
        assert np.all(vec.transform(other)[:, 0] == 0.0)

    def test_transform_before_fit_raises(self):
        with pytest.raises(StandardizerMissingError):
            Vectorizer().transform(random_frames())

    def test_transform_reuses_fitted_stats(self):
        train = random_frames(num_frames=30, n_mels=5, frame_size=3, seed=5)
        vec = Vectorizer()
        vec.fit(train)
        test = random_frames(num_frames=8, n_mels=5, frame_size=3, seed=6)
        expected = (test.frames.reshape(8, -1) - vec.mean) / vec.std
        assert np.array_equal(vec.transform(test), expected)


def _fitted_detectors(frames):
    return [
        KMeansDetector(k=3, seed=1).fit(frames),
        OcSvmDetector(nu=0.2, gamma=0.5, tol=1e-4).fit(frames),
        LstmAeDetector(hidden=8, epochs=2, batch=8, seed=1).fit(frames),
    ]


class TestPersistence:
    def test_round_trip_scores_bit_exact(self, tmp_path):
        train = random_frames(num_frames=40, n_mels=6, frame_size=5, seed=7)
        probe = random_frames(num_frames=12, n_mels=6, frame_size=5, seed=8)
        pairs = {}
        for det in _fitted_detectors(train):
            det.train_time_s = 1.25
            path = tmp_path / f"{det.kind}.model"
            det.persist(path)
            loaded = restore(path)
            assert loaded.kind == det.kind
            assert np.array_equal(loaded.score(probe).scores, det.score(probe).scores)
            assert loaded.train_time_s == det.train_time_s
            pairs[det.kind] = (det.model, loaded.model)
        # solver diagnostics survive the round trip, not only the scoring parameters
        original, loaded = pairs[KIND_KMEANS]
        assert len(original.inertia_history) > 1
        assert loaded.inertia_history == original.inertia_history
        original, loaded = pairs[KIND_LSTM_AE]
        assert len(original.loss_history) == 3
        assert loaded.loss_history == original.loss_history
        original, loaded = pairs[KIND_OCSVM]
        assert loaded.extra["objective"] == original.extra["objective"]

    def test_header_readable_without_parameters(self, tmp_path):
        train = random_frames(num_frames=20, n_mels=4, frame_size=3, seed=9)
        det = KMeansDetector(k=2, seed=0).fit(train)
        det.config_digest = bytes(range(32))
        path = tmp_path / "m.model"
        det.persist(path)
        kind, version, digest = read_model_header(path)
        assert kind == KIND_KMEANS
        assert version == MODEL_VERSION
        assert digest == bytes(range(32))

    def test_truncated_file_rejected(self, tmp_path):
        train = random_frames(num_frames=20, n_mels=4, frame_size=3, seed=10)
        det = KMeansDetector(k=2, seed=0).fit(train)
        path = tmp_path / "m.model"
        det.persist(path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 16])
        with pytest.raises(CorruptModelFileError):
            restore(path)

    def test_trailing_garbage_rejected(self, tmp_path):
        train = random_frames(num_frames=20, n_mels=4, frame_size=3, seed=11)
        det = KMeansDetector(k=2, seed=0).fit(train)
        path = tmp_path / "m.model"
        det.persist(path)
        path.write_bytes(path.read_bytes() + b"\x00" * 8)
        with pytest.raises(CorruptModelFileError):
            restore(path)

    @pytest.mark.parametrize("version", [1, 200])
    def test_future_version_rejected(self, tmp_path, version):
        train = random_frames(num_frames=20, n_mels=4, frame_size=3, seed=12)
        det = KMeansDetector(k=2, seed=0).fit(train)
        path = tmp_path / "m.model"
        det.persist(path)
        data = bytearray(path.read_bytes())
        data[8] = version  # low byte of the little-endian version word
        path.write_bytes(bytes(data))
        with pytest.raises(VersionMismatchError):
            restore(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.model"
        path.write_bytes(b"NOTMODEL" + b"\x00" * 64)
        with pytest.raises(CorruptModelFileError):
            restore(path)

    def test_non_ascii_kind_tag_rejected(self, tmp_path):
        train = random_frames(num_frames=20, n_mels=4, frame_size=3, seed=16)
        path = tmp_path / "m.model"
        KMeansDetector(k=2, seed=0).fit(train).persist(path)
        data = bytearray(path.read_bytes())
        data[12] ^= 0xFF  # first byte of the kind tag
        path.write_bytes(bytes(data))
        with pytest.raises(CorruptModelFileError, match="kind tag"):
            read_model_header(path)
        with pytest.raises(CorruptModelFileError, match="kind tag"):
            restore(path)

    def test_kind_tags(self, tmp_path):
        train = random_frames(num_frames=30, n_mels=4, frame_size=4, seed=13)
        for det, kind in zip(_fitted_detectors(train), (KIND_KMEANS, KIND_OCSVM, KIND_LSTM_AE)):
            path = tmp_path / f"{kind}.model"
            det.persist(path)
            assert read_model_header(path)[0] == kind


class TestCorruptionFuzz:
    @pytest.mark.parametrize("artifact", [KIND_KMEANS, KIND_OCSVM, KIND_LSTM_AE, "frames"])
    def test_every_mutation_is_a_pipeline_error(self, tmp_path, artifact):
        """Seeded truncations and 1-3 byte XOR flips; none may load."""
        train = random_frames(num_frames=30, n_mels=4, frame_size=4, seed=17)
        path = tmp_path / "artifact"
        if artifact == "frames":
            save_frames(train, path)
            load = load_frames
        else:
            next(d for d in _fitted_detectors(train) if d.kind == artifact).persist(path)
            load = restore
        pristine = path.read_bytes()
        rng = np.random.default_rng(0)
        for trial in range(51):
            data = bytearray(pristine)
            if trial % 3 == 0:
                data = data[: int(rng.integers(len(data)))]
            else:
                for pos in rng.choice(len(data), size=int(rng.integers(1, 4)), replace=False):
                    data[pos] ^= int(rng.integers(1, 256))
            path.write_bytes(bytes(data))
            with pytest.raises(PipelineError):
                load(path)


class TestScoreOrderInvariance:
    def test_permuted_frames_score_identically(self):
        train = random_frames(num_frames=40, n_mels=5, frame_size=4, seed=14)
        probe = random_frames(num_frames=16, n_mels=5, frame_size=4, seed=15)
        perm = np.random.default_rng(0).permutation(16)
        from aad.features import FrameTensor

        shuffled = FrameTensor(
            frames=probe.frames[perm],
            frame_size=probe.frame_size,
            hop_size=probe.hop_size,
            origin_columns=probe.origin_columns[perm],
            sample_rate=probe.sample_rate,
            hop_length=probe.hop_length,
        )
        for det in _fitted_detectors(train):
            direct = det.score(probe).scores
            permuted = det.score(shuffled).scores
            assert np.array_equal(permuted, direct[perm])
