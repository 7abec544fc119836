import dataclasses
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from aad.audio_io import load_wav
from aad.cli import main
from aad.config import load_config, load_manifest
from aad.detector_api import MODEL_VERSION, Vectorizer, _sq_distances, persist, restore
from aad.errors import PipelineError
from aad.features import load_frames, save_frames
from aad.kmeans import KMeansDetector
from aad.lstm_ae import LstmAeDetector
from aad.ocsvm import OcSvmDetector
from aad.synthgen import read_intervals

from conftest import random_frames, with_kind_tag


class TestVectorizer:
    def test_flatten_shape(self):
        frames = random_frames(num_frames=7, n_mels=128, frame_size=16)
        rows = Vectorizer().fit(frames)
        assert rows.shape == (7, 2048)

    def test_flatten_is_row_major(self):
        frames = random_frames(num_frames=3, n_mels=4, frame_size=5, seed=9)
        vec = Vectorizer()
        vec.fit(frames)
        assert np.array_equal(vec.mean, frames.frames.mean(axis=0, dtype=np.float64).ravel())

    def test_standardized_training_stats(self):
        frames = random_frames(num_frames=50, n_mels=6, frame_size=4, seed=2)
        rows = Vectorizer().fit(frames)
        assert np.abs(rows.mean(axis=0)).max() < 1e-9
        assert np.abs(rows.var(axis=0) - 1.0).max() < 1e-6

    def test_zero_variance_column_maps_to_zero(self):
        from aad.features import FrameTensor

        base = random_frames(num_frames=10, n_mels=3, frame_size=2, seed=3)
        spec = base.parts[0].copy()
        spec[0, :: base.hop_size] = 0.5  # every frame's first column: a constant feature
        frames = FrameTensor(
            parts=(spec,), frame_size=base.frame_size, hop_size=base.hop_size,
            sample_rate=16000, hop_length=512,
        )
        vec = Vectorizer()
        rows = vec.fit(frames)
        assert np.all(rows[:, 0] == 0.0)
        other = random_frames(num_frames=4, n_mels=3, frame_size=2, seed=4)
        assert np.all(vec.transform(other)[:, 0] == 0.0)

    def test_transform_before_fit_raises(self):
        with pytest.raises(PipelineError, match="transform before fit: no stored statistics"):
            Vectorizer().transform(random_frames())

    def test_transform_reuses_fitted_stats(self):
        train = random_frames(num_frames=30, n_mels=5, frame_size=3, seed=5)
        vec = Vectorizer()
        vec.fit(train)
        test = random_frames(num_frames=8, n_mels=5, frame_size=3, seed=6)
        expected = (test.frames.reshape(8, -1) - vec.mean) / vec.std
        assert np.array_equal(vec.transform(test), expected)

    @pytest.mark.parametrize("num_frames, n_mels, frame_size", [
        (1000, 1, 1), (3, 1, 1), (600, 2, 1), (40, 128, 16), (300, 257, 1), (300, 1, 513), (17, 3, 86),
    ])
    def test_std_is_np_std(self, num_frames, n_mels, frame_size):
        # numpy sums a lone column pairwise, not row by row: 1 column, and 257 (256 + a lone one)
        frames = random_frames(num_frames=num_frames, n_mels=n_mels, frame_size=frame_size,
                               hop_size=frame_size, seed=num_frames)
        rows = np.array(frames.frames, dtype=np.float64, order="C").reshape(num_frames, -1)
        vec = Vectorizer()
        vec.fit(frames)
        assert np.array_equal(vec.std, rows.std(axis=0))
        assert np.array_equal(vec.mean, rows.mean(axis=0))

    def test_fit_holds_one_n_by_d_array(self):
        frames = random_frames(num_frames=1000, n_mels=128, frame_size=16, hop_size=16, seed=18)
        frames.frames  # the cached view, made before tracing
        tracemalloc.start()
        try:
            rows = Vectorizer().fit(frames)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * rows.nbytes  # np.std(axis=0) alone would add a second rows.nbytes


class TestSqDistances:
    @pytest.mark.parametrize("n, m, d", [(1180, 8, 64), (47, 265, 33), (300, 8, 2048), (5, 1, 1)])
    def test_bit_equal_to_scaling_the_rows(self, n, m, d):
        gen = np.random.default_rng(n)
        A, B = gen.standard_normal((n, d)), gen.standard_normal((m, d))
        a_sq, b_sq = np.sum(A**2, axis=1), np.sum(B**2, axis=1)
        old = np.maximum(a_sq[:, None] + b_sq[None, :] - 2.0 * A @ B.T, 0.0)
        assert np.array_equal(_sq_distances(A, B), old)
        assert np.array_equal(_sq_distances(A, B, a_sq, b_sq), old)

    def test_no_n_by_d_temporary_with_norms_given(self):
        gen = np.random.default_rng(3)
        A, B = gen.standard_normal((2000, 1024)), gen.standard_normal((8, 1024))
        a_sq, b_sq = np.sum(A**2, axis=1), np.sum(B**2, axis=1)
        tracemalloc.start()
        try:
            _sq_distances(A, B, a_sq, b_sq)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < A.nbytes / 8  # 2.0 * A would be a full copy of A


def _fitted_detectors(frames):
    return [
        KMeansDetector(k=3, seed=1).fit(frames),
        OcSvmDetector(nu=0.2, gamma=0.5).fit(frames),
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
        original, loaded = pairs[KMeansDetector.kind]
        assert len(original.inertia_history) > 1
        assert loaded.inertia_history == original.inertia_history
        original, loaded = pairs[LstmAeDetector.kind]
        assert len(original.loss_history) == 3
        assert loaded.loss_history == original.loss_history
        original, loaded = pairs[OcSvmDetector.kind]
        assert loaded.extra["objective"] == original.extra["objective"]

    def test_header_readable_without_parameters(self, tmp_path):
        train = random_frames(num_frames=20, n_mels=4, frame_size=3, seed=9)
        det = KMeansDetector(k=2, seed=0).fit(train)
        det.config_digest = bytes(range(32))
        path = tmp_path / "m.model"
        det.persist(path)
        loaded = restore(path)
        assert loaded.kind == KMeansDetector.kind
        assert path.read_bytes()[8:12] == MODEL_VERSION.to_bytes(4, "little")
        assert loaded.config_digest == bytes(range(32))

    def test_truncated_file_rejected(self, tmp_path):
        train = random_frames(num_frames=20, n_mels=4, frame_size=3, seed=10)
        det = KMeansDetector(k=2, seed=0).fit(train)
        path = tmp_path / "m.model"
        det.persist(path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 16])
        with pytest.raises(PipelineError, match="checksum mismatch"):
            restore(path)

    def test_trailing_garbage_rejected(self, tmp_path):
        train = random_frames(num_frames=20, n_mels=4, frame_size=3, seed=11)
        det = KMeansDetector(k=2, seed=0).fit(train)
        path = tmp_path / "m.model"
        det.persist(path)
        path.write_bytes(path.read_bytes() + b"\x00" * 8)
        with pytest.raises(PipelineError, match="checksum mismatch"):
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
        with pytest.raises(PipelineError, match=f"model version {version}, supported "):
            restore(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.model"
        path.write_bytes(b"NOTMODEL" + b"\x00" * 64)
        with pytest.raises(PipelineError, match="not a model file"):
            restore(path)

    def test_non_ascii_kind_tag_rejected(self, tmp_path):
        train = random_frames(num_frames=20, n_mels=4, frame_size=3, seed=16)
        path = tmp_path / "m.model"
        KMeansDetector(k=2, seed=0).fit(train).persist(path)
        data = bytearray(path.read_bytes())
        data[12] ^= 0xFF  # first byte of the kind tag
        path.write_bytes(bytes(data))
        with pytest.raises(PipelineError, match="kind tag"):
            restore(path)

    def test_kind_tags(self, tmp_path):
        train = random_frames(num_frames=30, n_mels=4, frame_size=4, seed=13)
        for det in _fitted_detectors(train):
            path = tmp_path / f"{det.kind}.model"
            det.persist(path)
            assert type(restore(path)) is type(det)

    def test_package_import_registers_every_kind(self, tmp_path):
        """A fresh process that imports only restore still restores all three kinds.

        restore() looks the kind up among Detector.__subclasses__(), so it relies on
        the package root importing the kind modules; this process has imported them itself.
        """
        train = random_frames(num_frames=30, n_mels=4, frame_size=4, seed=13)
        paths = []
        for det in _fitted_detectors(train):
            paths.append(str(tmp_path / f"{det.kind}.model"))
            det.persist(paths[-1])
        src = Path(__file__).resolve().parent.parent / "src"
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
        probe = "import sys; from aad.detector_api import restore; print(*[restore(p).kind for p in sys.argv[1:]])"
        out = subprocess.run([sys.executable, "-c", probe, *paths], env=env, check=True,
                             capture_output=True, text=True, timeout=120).stdout.split()
        assert out == [KMeansDetector.kind, OcSvmDetector.kind, LstmAeDetector.kind]


each_kind = pytest.mark.parametrize("detector_type", [KMeansDetector, OcSvmDetector, LstmAeDetector],
                                    ids=lambda detector_type: detector_type.kind)


class TestDetectorContract:
    @each_kind
    def test_score_before_fit_raises(self, detector_type):
        with pytest.raises(ValueError, match="fit before score"):
            detector_type().score(random_frames())

    @each_kind
    def test_persist_before_fit_raises(self, tmp_path, detector_type):
        with pytest.raises(ValueError, match="cannot persist an unfitted detector"):
            detector_type().persist(tmp_path / "m.model")
        assert not (tmp_path / "m.model").exists()

    def test_restored_vectorizer(self, tmp_path):
        train = random_frames(num_frames=30, n_mels=4, frame_size=4, seed=17)
        for det in _fitted_detectors(train):
            det.persist(tmp_path / f"{det.kind}.model")
            loaded = restore(tmp_path / f"{det.kind}.model")
            if det.kind == LstmAeDetector.kind:
                assert loaded.vectorizer is None
                continue
            assert np.array_equal(loaded.vectorizer.mean, det.vectorizer.mean)
            assert np.array_equal(loaded.vectorizer.std, det.vectorizer.std)
            assert loaded.vectorizer.frame_shape == det.vectorizer.frame_shape == (4, 4)

    @each_kind
    def test_restore_refits_with_the_persisted_settings(self, tmp_path, detector_type):
        """Non-default settings come back from the model file; OC-SVM's gamma as the resolved value."""
        settings = {KMeansDetector: {"k": 3, "seed": 5}, OcSvmDetector: {"nu": 0.5},
                    LstmAeDetector: {"hidden": 4, "epochs": 2, "batch": 8, "lr": 0.01, "seed": 3}}[detector_type]
        train = random_frames(num_frames=30, n_mels=4, frame_size=4, seed=19)
        det = detector_type(**settings).fit(train)
        det.persist(tmp_path / "m.model")
        loaded = restore(tmp_path / "m.model")
        expected = dict(det.settings, gamma=det.model.gamma) if detector_type is OcSvmDetector else det.settings
        assert loaded.settings == expected
        refit = loaded.fit(train).model
        for field in dataclasses.fields(det.model):
            built, again = getattr(det.model, field.name), getattr(refit, field.name)
            if isinstance(built, np.ndarray):
                assert (built.dtype, built.shape, built.tobytes()) == (again.dtype, again.shape, again.tobytes())
            else:
                assert built == again, field.name

    @pytest.mark.parametrize("detector_type, settings, message", [
        (KMeansDetector, {"k": 0}, "k must be >= 1, got 0"),
        (OcSvmDetector, {"nu": 0.0}, "nu must be in (0, 1], got 0.0"),
        (OcSvmDetector, {"gamma": -1.0}, "gamma must be finite and positive, got -1.0"),
        (LstmAeDetector, {"hidden": 0}, "hidden must be >= 1, got 0"),
        (LstmAeDetector, {"epochs": -1}, "epochs must be >= 0, got -1"),
        (LstmAeDetector, {"batch": 0}, "batch must be >= 1, got 0"),
        (LstmAeDetector, {"lr": float("inf")}, "lr must be finite and > 0, got inf"),
    ], ids=["k", "nu", "gamma", "hidden", "epochs", "batch", "lr"])
    def test_constructor_checks_its_settings(self, detector_type, settings, message):
        with pytest.raises(ValueError) as exc:
            detector_type(**settings)
        assert str(exc.value) == message

    def test_unknown_kind_tag_rejected(self, tmp_path):
        train = random_frames(num_frames=20, n_mels=4, frame_size=3, seed=18)
        path = tmp_path / "m.model"
        KMeansDetector(k=2, seed=0).fit(train).persist(path)
        path.write_bytes(with_kind_tag(path.read_bytes(), b"pca"))
        with pytest.raises(PipelineError, match="unknown detector kind 'pca'"):
            restore(path)


def _mutants(pristine: bytes, trials: int):
    """Seeded mutations: every third a truncation, the others 1-3 byte XOR flips."""
    rng = np.random.default_rng(0)
    for trial in range(trials):
        data = bytearray(pristine)
        if trial % 3 == 0:
            data = data[: int(rng.integers(len(data)))]
        else:
            for pos in rng.choice(len(data), size=int(rng.integers(1, 4)), replace=False):
                data[pos] ^= int(rng.integers(1, 256))
        yield bytes(data)


@pytest.fixture(scope="module")
def tiny_synth(tmp_path_factory):
    """A 4 s + 4 s knock dataset: the WAV, config, manifest and label files to mutate."""
    out = tmp_path_factory.mktemp("fuzz")
    assert main(["synth", "--out", str(out), "--seed", "7",
                 "--normal-s", "4", "--anomalous-s", "4", "--rate", "240"]) == 0
    assert read_intervals(out / "test.labels")
    return out


class TestCorruptionFuzz:
    @pytest.mark.parametrize("artifact", [KMeansDetector.kind, OcSvmDetector.kind, LstmAeDetector.kind, "frames"])
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
        for data in _mutants(path.read_bytes(), trials=51):
            path.write_bytes(data)
            with pytest.raises(PipelineError):
                load(path)

    @pytest.mark.parametrize(
        "reader, name",
        [(load_wav, "val.wav"), (load_config, "config.txt"),
         (load_manifest, "manifest.tsv"), (read_intervals, "test.labels")],
        ids=["load_wav", "load_config", "load_manifest", "read_intervals"],
    )
    def test_dataset_reader_mutations(self, tiny_synth, tmp_path, reader, name):
        """A mutated dataset file may still parse; any failure must be a PipelineError."""
        path = tmp_path / name
        for data in _mutants((tiny_synth / name).read_bytes(), trials=400):
            path.write_bytes(data)
            try:
                reader(path)
            except PipelineError:
                pass


class TestScoreOrderInvariance:
    def test_permuted_frames_score_identically(self):
        train = random_frames(num_frames=40, n_mels=5, frame_size=4, seed=14)
        probe = random_frames(num_frames=16, n_mels=5, frame_size=4, hop_size=4, seed=15)
        perm = np.random.default_rng(0).permutation(16)
        from aad.features import FrameTensor

        # frames tile the columns when hop_size == frame_size, so permuting column blocks permutes frames
        blocks = probe.parts[0].reshape(5, 16, 4)[:, perm].reshape(5, 64)
        shuffled = FrameTensor(
            parts=(blocks,),
            frame_size=probe.frame_size,
            hop_size=probe.hop_size,
            sample_rate=probe.sample_rate,
            hop_length=probe.hop_length,
        )
        assert np.array_equal(shuffled.frames, probe.frames[perm])
        for det in _fitted_detectors(train):
            direct = det.score(probe).scores
            permuted = det.score(shuffled).scores
            assert np.array_equal(permuted, direct[perm])
