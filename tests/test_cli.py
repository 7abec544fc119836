import json
import shutil

import numpy as np
import pytest

from aad.calibration import DEFAULT_GRID
from aad.cli import main, read_calibration_threshold, read_vector, write_matrix
from aad.config import RunConfig, load_config, load_manifest
from aad.detector_api import restore
from aad.errors import ManifestError
from aad.features import load_frames

from conftest import random_frames, write_frame_archive

pytestmark = pytest.mark.cli


def read_matrix(path) -> tuple[str, np.ndarray]:
    """Name and values of a matrix file written by write_matrix."""
    lines = path.read_text().splitlines()
    name, rows, cols = lines[0].lstrip("# ").split()
    m = np.array([[float(v) for v in line.split("\t")] for line in lines[1:]])
    assert m.shape == (int(rows), int(cols))
    return name, m


@pytest.fixture(scope="session")
def tiny_dataset(tmp_path_factory):
    """Small knock dataset + fast config shared by the CLI tests."""
    out = tmp_path_factory.mktemp("tiny")
    assert main(["synth", "--out", str(out), "--seed", "7",
                 "--normal-s", "60", "--anomalous-s", "24", "--rate", "30"]) == 0
    fast = out / "fast.txt"
    text = (out / "config.txt").read_text().replace("lstm_epochs = 30", "lstm_epochs = 2")
    fast.write_text(text.replace("seed = 0", "seed = 7"))
    return out


@pytest.fixture(scope="session")
def tiny_bench(tiny_dataset, tmp_path_factory):
    out = tmp_path_factory.mktemp("tinybench")
    assert main(["bench", "--manifest", str(tiny_dataset / "manifest.tsv"),
                 "--out", str(out), "--config", str(tiny_dataset / "fast.txt")]) == 0
    return out


@pytest.fixture(scope="session")
def tiny_rare_dataset(tmp_path_factory):
    """Small rare-mode dataset: one transient in test, no labeled calib split."""
    out = tmp_path_factory.mktemp("tinyrare")
    assert main(["synth", "--out", str(out), "--mode", "rare", "--seed", "7",
                 "--normal-s", "60", "--transient-s", "2"]) == 0
    fast = out / "fast.txt"
    text = (out / "config.txt").read_text().replace("lstm_epochs = 30", "lstm_epochs = 2")
    fast.write_text(text.replace("seed = 0", "seed = 7"))
    return out


@pytest.fixture(scope="session")
def tiny_rare_bench(tiny_rare_dataset, tmp_path_factory):
    out = tmp_path_factory.mktemp("tinyrarebench")
    assert main(["bench", "--manifest", str(tiny_rare_dataset / "manifest.tsv"),
                 "--out", str(out), "--config", str(tiny_rare_dataset / "fast.txt")]) == 0
    return out


class TestSynth:
    def test_layout_and_label_policy(self, tiny_dataset):
        records = load_manifest(tiny_dataset / "manifest.tsv")
        by_split = {r.split: r for r in records}
        assert set(by_split) == {"train", "val", "calib", "test"}
        assert by_split["train"].labels is None
        assert by_split["val"].labels is None
        assert by_split["calib"].labels is not None
        assert by_split["test"].labels is not None
        for r in records:
            assert r.wav.exists()

    def test_same_seed_byte_identical(self, tmp_path):
        main(["synth", "--out", str(tmp_path / "a"), "--seed", "3",
              "--normal-s", "20", "--anomalous-s", "8", "--rate", "30"])
        main(["synth", "--out", str(tmp_path / "b"), "--seed", "3",
              "--normal-s", "20", "--anomalous-s", "8", "--rate", "30"])
        for name in ("train.wav", "val.wav", "calib.wav", "test.wav", "test.labels"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_config_seed_drives_the_data(self, tmp_path):
        cfg = tmp_path / "seed5.txt"
        cfg.write_text("seed = 5\n")
        sizes = ["--normal-s", "20", "--anomalous-s", "8", "--rate", "30"]
        assert main(["synth", "--out", str(tmp_path / "a"), "--config", str(cfg), *sizes]) == 0
        assert main(["synth", "--out", str(tmp_path / "b"), "--seed", "5", *sizes]) == 0
        for name in ("train.wav", "val.wav", "calib.wav", "test.wav", "test.labels", "config.txt"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        assert load_config(tmp_path / "a" / "config.txt").seed == 5

    def test_split_durations_follow_ratios(self, tmp_path):
        main(["synth", "--out", str(tmp_path / "d"), "--seed", "5",
              "--normal-s", "64", "--anomalous-s", "16", "--rate", "30"])
        from aad.audio_io import load_wav

        frame = 0.512
        durations = {n: load_wav(tmp_path / "d" / f"{n}.wav").duration_s
                     for n in ("train", "val", "calib", "test")}
        assert durations["train"] == pytest.approx(64 * 0.875, abs=frame)
        assert durations["val"] == pytest.approx(64 * 0.125, abs=frame)
        assert durations["calib"] == pytest.approx(8.0, abs=frame)
        assert durations["test"] == pytest.approx(8.0, abs=frame)

    def test_rare_mode_layout(self, tmp_path):
        main(["synth", "--out", str(tmp_path / "r"), "--mode", "rare", "--seed", "4",
              "--normal-s", "120", "--transient-s", "2"])
        records = load_manifest(tmp_path / "r" / "manifest.tsv")
        by_split = {r.split: r for r in records}
        assert by_split["calib"].labels is None  # rare mode: no labeled calib split
        assert by_split["test"].labels is not None
        from aad.synthgen import read_intervals

        intervals = read_intervals(by_split["test"].labels)
        assert len(intervals) == 1
        assert intervals[0].kind == "transient"


class TestBenchReport:
    def test_report_rows_complete(self, tiny_bench):
        payload = json.loads((tiny_bench / "report.json").read_text())
        assert {row["method"] for row in payload["rows"]} == {"kmeans", "ocsvm", "lstmae"}
        for row in payload["rows"]:
            for key in ("train_time_s", "inference_time_s", "roc_auc", "precision",
                        "recall", "f1", "threshold"):
                assert key in row
            cm = row["confusion"]
            assert cm["tp"] + cm["fp"] + cm["tn"] + cm["fn"] > 0
            p, r = row["precision"], row["recall"]
            expected_f1 = 2 * p * r / (p + r) if p + r > 0 else 0.0
            assert row["f1"] == pytest.approx(expected_f1, abs=5e-4)

    def test_report_table_columns(self, tiny_bench):
        header = (tiny_bench / "report.txt").read_text().splitlines()[0]
        for column in ("Method", "Train Time (s)", "ROC AUC", "Precision", "Recall",
                       "F1-Score", "Inference Time (s)"):
            assert column in header

    def test_auc_recomputable_from_persisted_scores(self, tiny_bench):
        from aad.metrics import roc_auc

        payload = json.loads((tiny_bench / "report.json").read_text())
        labels = read_vector(tiny_bench / "test.framelabels").astype(int)
        for row in payload["rows"]:
            scores = read_vector(tiny_bench / f"{row['method']}.scores")
            assert roc_auc(labels, scores) == pytest.approx(row["roc_auc"], abs=1e-9)

    def test_metrics_deterministic_across_reruns(self, tiny_dataset, tiny_bench, tmp_path):
        out = tmp_path / "again"
        main(["bench", "--manifest", str(tiny_dataset / "manifest.tsv"),
              "--out", str(out), "--config", str(tiny_dataset / "fast.txt")])
        a = json.loads((tiny_bench / "report.json").read_text())
        b = json.loads((out / "report.json").read_text())
        for ra, rb in zip(a["rows"], b["rows"]):
            for key in ("roc_auc", "precision", "recall", "f1", "threshold"):
                assert ra[key] == rb[key]

    def test_inspect_artifacts_present(self, tiny_bench):
        for name in ("mel_db.tsv", "mfcc.tsv", "fft_amplitude.tsv"):
            assert (tiny_bench / "inspect" / name).exists()


class TestStageIsolation:
    @pytest.mark.parametrize("mode", ["knocks", "rare"])
    def test_bench_equals_chained_commands(self, mode, request, tmp_path):
        # rare mode has no labeled calib split: calibrate runs without --calib-*
        # and both paths take the default candidate
        prefix = "tiny" if mode == "knocks" else "tiny_rare"
        dataset = request.getfixturevalue(f"{prefix}_dataset")
        bench = request.getfixturevalue(f"{prefix}_bench")
        labeled_calib = (dataset / "calib.labels").exists()
        cfg = str(dataset / "fast.txt")
        out = tmp_path / "staged"
        out.mkdir()
        for split in ("train", "val", "calib", "test"):
            args = ["features", "--wav", str(dataset / f"{split}.wav"),
                    "--out", str(out), "--config", cfg]
            if (dataset / f"{split}.labels").exists():
                args += ["--labels", str(dataset / f"{split}.labels")]
            assert main(args) == 0

        calib_args = []
        if labeled_calib:
            calib_args = ["--calib-frames", str(out / "calib.frames"),
                          "--calib-labels", str(dataset / "calib.labels")]
        for kind in ("kmeans", "ocsvm", "lstmae"):
            assert main(["train", "--frames", str(out / "train.frames"),
                         "--detector", kind, "--out", str(out / f"{kind}.model"),
                         "--config", cfg]) == 0
            assert main(["calibrate", "--model", str(out / f"{kind}.model"),
                         "--val-frames", str(out / "val.frames"), *calib_args,
                         "--out", str(out / f"{kind}.calibration"), "--config", cfg]) == 0
            assert main(["score", "--model", str(out / f"{kind}.model"),
                         "--frames", str(out / "test.frames"),
                         "--out", str(out / f"{kind}.scores")]) == 0
            assert main(["eval", "--scores", str(out / f"{kind}.scores"),
                         "--labels", str(out / "test.framelabels"),
                         "--calibration", str(out / f"{kind}.calibration"),
                         "--method", kind, "--out", str(out / f"{kind}.eval.json")]) == 0

            staged_scores = read_vector(out / f"{kind}.scores")
            bench_scores = read_vector(bench / f"{kind}.scores")
            assert np.array_equal(staged_scores, bench_scores)

            mode_line = "mode = f1\n" if labeled_calib else "mode = default\n"
            assert mode_line in (out / f"{kind}.calibration").read_text()
            staged_threshold = read_calibration_threshold(out / f"{kind}.calibration")
            bench_threshold = read_calibration_threshold(bench / f"{kind}.calibration")
            assert staged_threshold == bench_threshold

            staged = json.loads((out / f"{kind}.eval.json").read_text())
            bench_rows = json.loads((bench / "report.json").read_text())["rows"]
            bench_row = next(r for r in bench_rows if r["method"] == kind)
            for key in ("roc_auc", "precision", "recall", "f1"):
                assert staged[key] == bench_row[key]
            assert staged["confusion"] == bench_row["confusion"]


class TestCorruptInputs:
    def test_malformed_archive_is_a_data_error(self, tiny_bench, tmp_path, capsys):
        frames = tmp_path / "test.frames"
        write_frame_archive(frames, load_frames(tiny_bench / "test.frames"), hop_size=0)
        capsys.readouterr()
        rc = main(["score", "--model", str(tiny_bench / "kmeans.model"),
                   "--frames", str(frames), "--out", str(tmp_path / "s.scores")])
        assert rc == 3
        # main prefixes every failure with "error: "; the stage tag follows it
        assert capsys.readouterr().err.startswith("error: score:")

    @pytest.mark.parametrize("kind, n_mels, frame_size, message", [
        pytest.param(kind, 5, 4, "feature dimension 20 != model dimension", id=kind)
        for kind in ("kmeans", "ocsvm")
    ] + [
        # same number of values as the 128 x 16 training frames, another shape
        pytest.param(kind, 16, 128, "frame shape (16, 128) != model frame shape (128, 16)", id=f"{kind}-transposed")
        for kind in ("kmeans", "ocsvm")
    ])
    def test_archive_of_another_geometry_is_a_data_error(self, tiny_bench, tmp_path, capsys,
                                                         kind, n_mels, frame_size, message):
        frames = tmp_path / "other.frames"
        write_frame_archive(frames, random_frames(num_frames=10, n_mels=n_mels, frame_size=frame_size))
        capsys.readouterr()
        rc = main(["score", "--model", str(tiny_bench / f"{kind}.model"),
                   "--frames", str(frames), "--out", str(tmp_path / "s.scores")])
        assert rc == 3
        assert capsys.readouterr().err.startswith(f"error: score: {message}")

    @pytest.mark.parametrize("kind, field, value", [
        ("kmeans", "centroids", np.nan),
        ("ocsvm", "alphas", np.nan),
        ("lstmae", "proj_b", 1e200),
    ], ids=["kmeans", "ocsvm", "lstmae"])
    def test_non_finite_scores_are_a_numeric_error(self, tiny_bench, tmp_path, capsys, kind, field, value):
        detector = restore(tiny_bench / f"{kind}.model")
        getattr(detector.model, field)[:] = value
        detector.persist(tmp_path / "bad.model")
        capsys.readouterr()
        with np.errstate(over="ignore", invalid="ignore"):
            rc = main(["score", "--model", str(tmp_path / "bad.model"),
                       "--frames", str(tiny_bench / "test.frames"), "--out", str(tmp_path / "s.scores")])
        assert rc == 4
        assert capsys.readouterr().err.startswith("error: score: scores must be finite")

    @pytest.mark.parametrize("flag, text", [
        ("--scores", "0.5\nabc\n"),
        ("--scores", "0.5\nnan\n"),
        ("--calibration", "mode = f1\nthreshold = x\n"),
    ], ids=["scores", "nan-score", "calibration"])
    def test_unparseable_eval_input_is_a_data_error(self, tiny_bench, tmp_path, capsys, flag, text):
        inputs = {"--scores": tiny_bench / "kmeans.scores",
                  "--calibration": tiny_bench / "kmeans.calibration"}
        inputs[flag] = tmp_path / "bad.txt"
        inputs[flag].write_text(text)
        argv = ["eval", "--labels", str(tiny_bench / "test.framelabels"),
                "--out", str(tmp_path / "e.json")]
        for name, path in inputs.items():
            argv += [name, str(path)]
        capsys.readouterr()
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: eval:")
        assert "bad.txt:2" in err

    @pytest.mark.parametrize("kind, content", [
        ("config", b"n_fft = 1024\nseed = \xff\n"),
        ("manifest", b"train.wav\ttrain\n\xff.wav\tval\n"),
        ("labels", b"0.5\t1.0\tknock\n1.0\t2.0\n"),
        ("labels", b"0.5\t1.0\tknock\nx\t2.0\tknock\n"),
        ("labels", b"0.5\t1.0\tknock\n2.0\t1.5\tknock\n"),
        ("labels", b"0.5\t1.0\tknock\n\xff\n"),
        ("scores", b"0.5\n\xff\n"),
    ], ids=["config-not-utf8", "manifest-not-utf8", "labels-two-fields", "labels-not-a-number",
            "labels-end-before-start", "labels-not-utf8", "scores-not-utf8"])
    def test_malformed_text_input_is_a_data_error(self, tiny_dataset, tmp_path, capsys, kind, content):
        bad = tmp_path / f"bad.{kind}"
        bad.write_bytes(content)
        out = str(tmp_path / "out")
        argv = {
            "config": ["synth", "--config", str(bad), "--out", out],
            "manifest": ["bench", "--manifest", str(bad), "--out", out],
            "labels": ["features", "--wav", str(tiny_dataset / "test.wav"), "--labels", str(bad), "--out", out],
            "scores": ["eval", "--scores", str(bad), "--labels", str(bad), "--threshold", "0", "--out", out],
        }[kind]
        capsys.readouterr()
        assert main(argv) == 3
        assert f"bad.{kind}:2:" in capsys.readouterr().err


class TestInspect:
    def test_matrix_round_trip(self, tmp_path, rng):
        matrix = rng.standard_normal((7, 11))
        write_matrix(tmp_path / "m.tsv", "demo", matrix)
        name, loaded = read_matrix(tmp_path / "m.tsv")
        assert name == "demo"
        assert np.array_equal(loaded, matrix)  # %.17g round-trips doubles

    def test_normal_clip_energy_below_2khz_rows(self, tiny_dataset, tmp_path):
        assert main(["inspect", "--wav", str(tiny_dataset / "train.wav"),
                     "--out", str(tmp_path / "ins")]) == 0
        _, mel_db = read_matrix(tmp_path / "ins" / "mel_db.tsv")
        from aad.features import hz_to_mel, mel_to_hz

        n_mels = mel_db.shape[0]
        edges = mel_to_hz(np.linspace(hz_to_mel(0.0), hz_to_mel(8000.0), n_mels + 2))
        centers = edges[1:-1]
        power = 10 ** (mel_db / 10.0)
        low = power[centers <= 2000.0].sum()
        assert low / power.sum() > 0.95

    def test_zero_wav_surfaces_tagged_numeric_error(self, tmp_path, capsys):
        from aad.audio_io import AudioClip, save_wav

        zero = tmp_path / "zero.wav"
        save_wav(AudioClip(samples=np.zeros(32000), sample_rate=16000), zero)
        rc = main(["inspect", "--wav", str(zero), "--out", str(tmp_path / "o")])
        assert rc == 4
        err = capsys.readouterr().err
        assert "inspect:" in err

    def test_fft_matrix_has_freq_and_amp_rows(self, tiny_dataset, tmp_path):
        main(["inspect", "--wav", str(tiny_dataset / "val.wav"), "--out", str(tmp_path / "i2")])
        _, fft = read_matrix(tmp_path / "i2" / "fft_amplitude.tsv")
        assert fft.shape[0] == 2
        assert fft[0, 0] == 0.0
        assert np.all(np.diff(fft[0]) > 0)


class TestConfig:
    def test_digest_stable_under_reordering(self, tmp_path):
        a = tmp_path / "a.cfg"
        b = tmp_path / "b.cfg"
        a.write_text("n_fft = 512\nseed = 9\nlstm_lr = 0.01\n")
        b.write_text("lstm_lr = 0.01\nn_fft = 512\nseed = 9\n")
        assert load_config(a).digest() == load_config(b).digest()

    def test_digest_changes_with_values(self, tmp_path):
        a = tmp_path / "a.cfg"
        a.write_text("n_fft = 512\n")
        b = tmp_path / "b.cfg"
        b.write_text("n_fft = 1024\n")
        assert load_config(a).digest() != load_config(b).digest()

    def test_defaults_match_spec_values(self):
        cfg = RunConfig()
        assert cfg.n_fft == 1024
        assert cfg.hop_length == 512
        assert cfg.n_mels == 128
        assert cfg.time_per_frame == 0.512
        assert cfg.hop_ratio == 0.2
        assert cfg.kmeans_k == 8
        assert cfg.ocsvm_nu == 0.1
        assert cfg.lstm_hidden == 64
        assert cfg.lstm_epochs == 30
        assert cfg.lstm_batch == 64
        assert cfg.lstm_lr == 1e-3
        assert DEFAULT_GRID == tuple(range(5, 100, 5))
        assert cfg.denoise is False

    def test_unknown_key_rejected(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("warp_speed = 9\n")
        from aad.errors import ConfigError

        with pytest.raises(ConfigError):
            load_config(bad)

    def test_round_trip_via_write(self, tmp_path):
        cfg = RunConfig(n_fft=2048, denoise=True, ocsvm_gamma=0.125, fmax=6000.0, seed=11)
        cfg.write(tmp_path / "c.cfg")
        again = load_config(tmp_path / "c.cfg")
        assert again == cfg


class TestManifest:
    def test_train_with_labels_rejected(self, tmp_path):
        bad = tmp_path / "m.tsv"
        bad.write_text("a.wav\ttrain\ta.labels\n")
        with pytest.raises(ManifestError):
            load_manifest(bad)

    def test_test_without_labels_rejected(self, tmp_path):
        bad = tmp_path / "m.tsv"
        bad.write_text("a.wav\ttest\n")
        with pytest.raises(ManifestError):
            load_manifest(bad)

    def test_unknown_split_rejected(self, tmp_path):
        bad = tmp_path / "m.tsv"
        bad.write_text("a.wav\tholdout\n")
        with pytest.raises(ManifestError):
            load_manifest(bad)

    def test_manifest_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "m.tsv"
        bad.write_text("a.wav\ttrain\ta.labels\n")
        rc = main(["bench", "--manifest", str(bad), "--out", str(tmp_path / "o")])
        assert rc == 3

    def test_shared_stem_is_a_manifest_error(self, tiny_dataset, tmp_path, capsys):
        # x/rec.wav and y/rec.wav would both write rec.frames into the bench directory
        for sub, split in (("x", "train"), ("y", "val")):
            (tmp_path / sub).mkdir()
            shutil.copy(tiny_dataset / f"{split}.wav", tmp_path / sub / "rec.wav")
        manifest = tmp_path / "m.tsv"
        manifest.write_text(f"x/rec.wav\ttrain\ny/rec.wav\tval\n"
                            f"{tiny_dataset / 'test.wav'}\ttest\t{tiny_dataset / 'test.labels'}\n")
        capsys.readouterr()
        rc = main(["bench", "--manifest", str(manifest), "--out", str(tmp_path / "o"),
                   "--config", str(tiny_dataset / "fast.txt")])
        assert rc == 3
        assert "share the file stem(s) rec;" in capsys.readouterr().err
        assert not (tmp_path / "o" / "rec.frames").exists()

    def test_bench_stacks_the_records_of_a_split(self, tiny_dataset, tmp_path):
        from aad.audio_io import AudioClip, load_wav, save_wav
        from aad.detector_api import restore
        from aad.features import FrameTensor
        from aad.kmeans import KMeansDetector

        clip = load_wav(tiny_dataset / "train.wav")
        half = clip.samples.size // 2
        for name, samples in (("train_a", clip.samples[:half]), ("train_b", clip.samples[half:])):
            save_wav(AudioClip(samples=samples, sample_rate=clip.sample_rate), tmp_path / f"{name}.wav")
        manifest = tmp_path / "m.tsv"
        manifest.write_text(f"train_a.wav\ttrain\ntrain_b.wav\ttrain\n"
                            f"{tiny_dataset / 'val.wav'}\tval\n"
                            f"{tiny_dataset / 'test.wav'}\ttest\t{tiny_dataset / 'test.labels'}\n")
        out = tmp_path / "o"
        cfg = tiny_dataset / "fast.txt"
        assert main(["bench", "--manifest", str(manifest), "--out", str(out), "--config", str(cfg)]) == 0

        parts = [load_frames(out / f"{name}.frames") for name in ("train_a", "train_b")]
        stacked = FrameTensor(
            frames=np.concatenate([p.frames for p in parts]), frame_size=parts[0].frame_size,
            hop_size=parts[0].hop_size, origin_columns=np.concatenate([p.origin_columns for p in parts]),
            sample_rate=parts[0].sample_rate, hop_length=parts[0].hop_length,
        )
        config = load_config(cfg)
        direct = KMeansDetector(k=config.kmeans_k, max_iter=config.kmeans_max_iter,
                                tol=config.kmeans_tol, seed=config.seed).fit(stacked)
        restored = restore(out / "kmeans.model")
        assert restored.model.centroids.shape[0] == config.kmeans_k
        assert np.array_equal(restored.model.centroids, direct.model.centroids)
        assert np.array_equal(restored.vectorizer.mean, direct.vectorizer.mean)

    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as exc:
            main(["bench"])  # missing required arguments
        assert exc.value.code == 2
