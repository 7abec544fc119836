import argparse
import dataclasses
import json
import re
import shutil
from pathlib import Path

import numpy as np
import pytest

from aad.calibration import DEFAULT_GRID
from aad.cli import _MATRIX_BLOCK, DETECTORS, build_parser, main, read_calibration_threshold, read_vector, write_matrix
from aad.config import RunConfig, load_config, load_manifest
from aad.detector_api import restore
from aad.errors import PipelineError
from aad.features import load_frames

from conftest import forge_model, make_clip, random_frames, whole_mel_power, write_frame_archive

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

    @pytest.mark.parametrize("flag, value", [
        ("--normal-s", "inf"), ("--anomalous-s", "inf"), ("--normal-s", "-5"), ("--normal-s", "nan"),
        ("--rate", "inf"), ("--rate", "0"), ("--transient-s", "inf"),
        ("--train-frac", "1"), ("--train-frac", "0"), ("--calib-frac", "1.5"), ("--calib-frac", "nan"),
    ])
    def test_bad_number_is_a_usage_error(self, tmp_path, capsys, flag, value):
        out = tmp_path / "d"
        sizes = {"--normal-s": "20", "--anomalous-s": "8", flag: value}
        argv = ["synth", "--out", str(out), *(x for kv in sizes.items() for x in kv)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert flag in err and "Traceback" not in err
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("mode, flag, value", [
        ("rare", "--train-frac", "0.5"), ("rare", "--calib-frac", "0.9"), ("rare", "--rate", "99"),
        ("rare", "--anomalous-s", "7"), ("knocks", "--transient-s", "2"),
    ])
    def test_flag_the_mode_does_not_read_is_a_usage_error(self, tmp_path, capsys, mode, flag, value):
        """Each mode reads its own size flags; a valid value for the other mode is refused, not ignored."""
        out = tmp_path / "d"
        assert main(["synth", "--out", str(out), "--mode", mode, "--normal-s", "60", flag, value]) == 2
        err = capsys.readouterr().err
        assert f"{flag}: not read by --mode {mode}" in err and "Traceback" not in err
        assert not out.exists()

    def test_rare_transient_is_range_checked(self, tmp_path, capsys):
        out = tmp_path / "d"
        assert main(["synth", "--out", str(out), "--mode", "rare", "--normal-s", "60", "--transient-s", "inf"]) == 2
        assert "--transient-s must be finite and > 0, got inf" in capsys.readouterr().err
        assert not out.exists()

    def test_failing_injector_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "d"
        argv = ["synth", "--out", str(out), "--normal-s", "4", "--anomalous-s", "2", "--rate", "1"]
        assert main(argv) == 3
        assert "synth: 1.0 s at 1.0/min yields < 1 expected knock" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("sizes, code", [
        (["--normal-s", "0.3", "--anomalous-s", "0.3"], 2),
        (["--mode", "rare", "--normal-s", "20"], 3),
    ], ids=["knocks-under-1s", "rare-transient-longer-than-test"])
    def test_failed_synth_leaves_no_directory(self, tmp_path, capsys, sizes, code):
        out = tmp_path / "d"
        assert main(["synth", "--out", str(out), *sizes]) == code
        err = capsys.readouterr().err
        assert err.startswith("error: synth: ") and "Traceback" not in err
        assert not out.exists()


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

    @pytest.mark.parametrize("mode", ["knocks", "rare"])
    def test_in_memory_scores_equal_bench(self, mode, request):
        """frame_pipeline on the test WAV, scored by the bench's restored models, gives the bench's scores."""
        from aad.audio_io import load_wav
        from aad.features import frame_pipeline

        prefix = "tiny" if mode == "knocks" else "tiny_rare"
        dataset = request.getfixturevalue(f"{prefix}_dataset")
        bench = request.getfixturevalue(f"{prefix}_bench")
        cfg = load_config(dataset / "fast.txt")
        frames = frame_pipeline(
            load_wav(dataset / "test.wav"), n_fft=cfg.n_fft, hop_length=cfg.hop_length, n_mels=cfg.n_mels,
            fmin=cfg.fmin, fmax=cfg.fmax, time_per_frame=cfg.time_per_frame, hop_ratio=cfg.hop_ratio,
            target_rms=cfg.target_rms, denoise=cfg.denoise, denoise_percentile=cfg.denoise_percentile,
            denoise_margin_db=cfg.denoise_margin_db,
        )
        for kind in ("kmeans", "ocsvm", "lstmae"):
            scores = restore(bench / f"{kind}.model").score(frames).scores
            assert np.array_equal(scores, read_vector(bench / f"{kind}.scores")), kind


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

    @pytest.mark.parametrize("kind", ["kmeans", "ocsvm", "lstmae"])
    def test_empty_archive_is_a_data_error(self, tmp_path, capsys, kind):
        """An archive with no columns, and one whose spectrogram holds a NaN cell."""
        nan_cell = random_frames().parts[0].copy()
        nan_cell[3, 4] = np.nan
        for name, spectrogram in [("empty", np.zeros((12, 0), "<f4")), ("nan", nan_cell)]:
            frames = tmp_path / f"{name}.frames"
            write_frame_archive(frames, random_frames(), spectrogram=spectrogram)
            capsys.readouterr()
            rc = main(["train", "--frames", str(frames), "--detector", kind, "--out", str(tmp_path / "m.model")])
            assert rc == 3, name
            assert capsys.readouterr().err.startswith("error: train:"), name
            assert not (tmp_path / "m.model").exists(), name

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

    def test_model_without_frame_shape_is_a_data_error(self, tiny_bench, tmp_path, capsys):
        raw = (tiny_bench / "kmeans.model").read_bytes()
        (tmp_path / "old.model").write_bytes(forge_model(raw, lambda blocks: blocks.pop("frame_shape")))
        capsys.readouterr()
        rc = main(["score", "--model", str(tmp_path / "old.model"),
                   "--frames", str(tiny_bench / "test.frames"), "--out", str(tmp_path / "s.scores")])
        assert rc == 3
        assert "error: score:" in (err := capsys.readouterr().err)
        assert "missing block 'frame_shape'" in err
        assert not (tmp_path / "s.scores").exists()

    @pytest.mark.parametrize("kind, name, edit, message", [
        ("kmeans", "centroids", lambda a: a.reshape(-1), "block 'centroids' is ("),
        ("ocsvm", "alphas", lambda a: a[:-1], "block 'alphas' is ("),
        ("lstmae", "hidden", lambda a: a + 1, "block 'enc_W' is ("),
        ("lstmae", "enc_b", lambda a: a[:5], "block 'enc_b' is (5,)"),
        ("kmeans", "std", lambda a: a[:-1], "blocks 'mean' ("),
        ("ocsvm", "frame_shape", lambda a: a + 1, "blocks 'mean' ("),
    ], ids=["kmeans-1d-centroids", "ocsvm-short-alphas", "lstmae-hidden", "lstmae-enc_b",
            "kmeans-short-std", "ocsvm-frame_shape"])
    def test_mis_shaped_model_block_is_a_data_error(self, tiny_bench, tmp_path, capsys, kind, name, edit, message):
        """Blocks of the right dtype whose shapes disagree, re-encoded under the real header."""
        model = tmp_path / "bad.model"
        model.write_bytes(forge_model((tiny_bench / f"{kind}.model").read_bytes(),
                                      lambda blocks: blocks.update({name: edit(blocks[name])})))
        capsys.readouterr()
        rc = main(["score", "--model", str(model),
                   "--frames", str(tiny_bench / "test.frames"), "--out", str(tmp_path / "s.scores")])
        err = capsys.readouterr().err
        assert rc == 3
        assert err.startswith(f"error: score: {model}: {message}")
        assert "Traceback" not in err
        assert not (tmp_path / "s.scores").exists()

    @pytest.mark.parametrize("kind, edit, message", [
        ("kmeans", lambda b: {"k": np.zeros_like(b["k"]), "centroids": b["centroids"][:0]}, "block 'k' is 0"),
        ("ocsvm", lambda b: {"support_vectors": b["support_vectors"][:0], "alphas": b["alphas"][:0]},
         "block 'support_vectors' is (0, "),
        ("lstmae", lambda b: {"hidden": np.zeros_like(b["hidden"]), "enc_W": b["enc_W"][:0, :int(b["input_dim"])],
                              "enc_b": b["enc_b"][:0], "dec_W": b["dec_W"][:0, :0], "dec_b": b["dec_b"][:0],
                              "proj_W": b["proj_W"][:, :0]}, "blocks 'hidden' = 0 and 'input_dim' = "),
    ], ids=["kmeans-k0", "ocsvm-no-support-vectors", "lstmae-hidden0"])
    def test_empty_model_is_a_data_error(self, tiny_bench, tmp_path, capsys, kind, edit, message):
        """An empty model whose blocks agree in shape, re-encoded under the real header, is never scored."""
        model = tmp_path / "empty.model"
        model.write_bytes(forge_model((tiny_bench / f"{kind}.model").read_bytes(),
                                      lambda blocks: blocks.update(edit(blocks))))
        capsys.readouterr()
        rc = main(["score", "--model", str(model),
                   "--frames", str(tiny_bench / "test.frames"), "--out", str(tmp_path / "s.scores")])
        err = capsys.readouterr().err
        assert rc == 3
        assert err.startswith(f"error: score: {model}: {message}")
        assert "Traceback" not in err
        assert not (tmp_path / "s.scores").exists()

    def test_unknown_detector_kind_is_a_data_error(self, tiny_bench, tmp_path, capsys):
        model = tmp_path / "pca.model"
        model.write_bytes(forge_model((tiny_bench / "kmeans.model").read_bytes(), kind=b"pca"))
        capsys.readouterr()
        rc = main(["score", "--model", str(model),
                   "--frames", str(tiny_bench / "test.frames"), "--out", str(tmp_path / "s.scores")])
        assert rc == 3
        assert "unknown detector kind 'pca'" in capsys.readouterr().err
        assert not (tmp_path / "s.scores").exists()

    @pytest.mark.parametrize("kind, field, value", [
        ("kmeans", "centroids", np.nan),
        ("ocsvm", "alphas", np.nan),
        ("lstmae", "proj_b", 1e30),  # finite in float32, its square is not
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

    @pytest.mark.parametrize("calibration, code, message", [
        ("# calibration report\nmode = f1\npercentile = 95\n", 3, "no threshold line"),
        (None, 2, "eval needs --threshold or --calibration"),
    ], ids=["calibration-without-threshold", "no-threshold-source"])
    def test_eval_without_a_threshold(self, tiny_bench, tmp_path, capsys, calibration, code, message):
        argv = ["eval", "--scores", str(tiny_bench / "kmeans.scores"),
                "--labels", str(tiny_bench / "test.framelabels"), "--out", str(tmp_path / "e.json")]
        if calibration is not None:
            (tmp_path / "bad.calibration").write_text(calibration)
            argv += ["--calibration", str(tmp_path / "bad.calibration")]
        capsys.readouterr()
        assert main(argv) == code
        assert message in capsys.readouterr().err
        assert not (tmp_path / "e.json").exists()

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


class TestLabelsParsedBeforeAnyArchive:
    @pytest.mark.parametrize("content, code", [(b"0.5\t1.0\tknock\nx\t2.0\tknock\n", 3), (None, 2),
                                               (b"0.5\tinf\tknock\n", 3)],  # inf would label every later frame
                             ids=["malformed", "missing", "infinite-end"])
    def test_features_writes_nothing(self, tiny_dataset, tmp_path, capsys, content, code):
        labels = tmp_path / "bad.labels"
        if content is not None:
            labels.write_bytes(content)
        out = tmp_path / "out"
        capsys.readouterr()
        rc = main(["features", "--wav", str(tiny_dataset / "test.wav"), "--labels", str(labels), "--out", str(out)])
        assert rc == code
        err = capsys.readouterr().err
        assert err.startswith("error: features: ") and "Traceback" not in err
        assert content is None or re.match(rf"error: features: {re.escape(str(labels))}:\d+: ", err)
        assert not out.exists()

    def test_bench_writes_no_archive(self, tiny_dataset, tmp_path, capsys):
        """The malformed labels file belongs to the last split bench featurizes."""
        (tmp_path / "bad.labels").write_text("0.5\t1.0\tknock\n2.0\t1.5\tknock\n")
        manifest = tmp_path / "m.tsv"
        manifest.write_text(f"{tiny_dataset / 'train.wav'}\ttrain\n{tiny_dataset / 'val.wav'}\tval\n"
                            f"{tiny_dataset / 'calib.wav'}\tcalib\t{tiny_dataset / 'calib.labels'}\n"
                            f"{tiny_dataset / 'test.wav'}\ttest\tbad.labels\n")
        out = tmp_path / "o"
        capsys.readouterr()
        rc = main(["bench", "--manifest", str(manifest), "--out", str(out), "--config", str(tiny_dataset / "fast.txt")])
        assert rc == 3
        assert capsys.readouterr().err.startswith(f"error: features: {tmp_path / 'bad.labels'}:2: ")
        assert not out.exists()


class TestFailedStageLeavesNoDirectory:
    """--out is made where the first file is written, so a refused setting or manifest leaves none."""

    @pytest.mark.parametrize("command, stage", [("features", "features"), ("inspect", "inspect"), ("bench", "features")])
    def test_n_fft_not_a_power_of_two(self, tiny_dataset, tmp_path, capsys, command, stage):
        (tmp_path / "bad.cfg").write_text("n_fft = 1000\n")
        source = ["--manifest", str(tiny_dataset / "manifest.tsv")] if command == "bench" else ["--wav", str(tiny_dataset / "val.wav")]
        out = tmp_path / "out"
        capsys.readouterr()
        assert main([command, *source, "--config", str(tmp_path / "bad.cfg"), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {stage}: ") and "Traceback" not in err
        assert not out.exists()

    def test_bench_manifest_error(self, tiny_dataset, tmp_path, capsys):
        manifest = tmp_path / "m.tsv"
        manifest.write_text(f"{tiny_dataset / 'train.wav'}\ttrain\n{tiny_dataset / 'val.wav'}\tval\n")
        out = tmp_path / "out"
        capsys.readouterr()
        assert main(["bench", "--manifest", str(manifest), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "manifest has no test records" in err and "Traceback" not in err
        assert not out.exists()


class TestDetectorTable:
    def test_kinds_in_one_order(self, tiny_bench):
        parser = build_parser()
        commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
        choices = next(a for a in commands["train"]._actions if a.dest == "detector").choices
        rows = json.loads((tiny_bench / "report.json").read_text())["rows"]
        assert tuple(DETECTORS) == ("kmeans", "ocsvm", "lstmae")
        assert tuple(choices) == tuple(DETECTORS)
        assert tuple(row["method"] for row in rows) == tuple(DETECTORS)

    def test_builders_read_their_settings(self):
        cfg = RunConfig(kmeans_k=5, ocsvm_nu=0.3, ocsvm_gamma=0.25, lstm_hidden=7, lstm_epochs=4,
                        lstm_batch=9, lstm_lr=0.002, seed=11)
        built = {kind: build(cfg) for kind, build in DETECTORS.items()}
        assert all(det.kind == kind for kind, det in built.items())
        assert built["kmeans"].settings == {"k": 5, "seed": 11}
        assert built["ocsvm"].settings == {"nu": 0.3, "gamma": 0.25}
        assert built["lstmae"].settings == {"hidden": 7, "epochs": 4, "batch_size": 9, "learning_rate": 0.002, "seed": 11}


class TestThresholdAndLabelSources:
    @pytest.mark.parametrize("given", ["--calib-frames", "--calib-labels"])
    def test_calibrate_with_one_calibration_flag(self, tiny_bench, tiny_dataset, tmp_path, capsys, given):
        value = {"--calib-frames": tiny_bench / "calib.frames", "--calib-labels": tiny_dataset / "calib.labels"}[given]
        out = tmp_path / "k.calibration"
        capsys.readouterr()
        rc = main(["calibrate", "--model", str(tiny_bench / "kmeans.model"),
                   "--val-frames", str(tiny_bench / "val.frames"), given, str(value), "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "--calib-frames" in err and "--calib-labels" in err
        assert not out.exists()

    @pytest.mark.parametrize("threshold_args, message", [
        (["--threshold", "0.5", "--calibration", "kmeans.calibration"], "eval needs --threshold or --calibration"),
        (["--threshold", "nan"], "--threshold must be finite"),
        (["--threshold", "inf"], "--threshold must be finite"),
        (["--threshold=-inf"], "--threshold must be finite"),
    ], ids=["both-sources", "nan", "inf", "minus-inf"])
    def test_eval_needs_one_finite_threshold(self, tiny_bench, tmp_path, capsys, threshold_args, message):
        argv = ["eval", "--scores", str(tiny_bench / "kmeans.scores"),
                "--labels", str(tiny_bench / "test.framelabels"), "--out", str(tmp_path / "e.json")]
        argv += [str(tiny_bench / a) if a.endswith(".calibration") else a for a in threshold_args]
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err
        assert not (tmp_path / "e.json").exists()

    @pytest.mark.parametrize("label", ["2", "0.7", "-1"])
    def test_eval_refuses_a_non_binary_label(self, tiny_bench, tmp_path, capsys, label):
        lines = (tiny_bench / "test.framelabels").read_text().splitlines()
        lines[2] = label
        bad = tmp_path / "bad.framelabels"
        bad.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        rc = main(["eval", "--scores", str(tiny_bench / "kmeans.scores"), "--labels", str(bad),
                   "--threshold", "0", "--out", str(tmp_path / "e.json")])
        assert rc == 3
        err = capsys.readouterr().err
        assert "bad.framelabels:3:" in err and "0 or 1" in err
        assert not (tmp_path / "e.json").exists()


class TestDetectorSettings:
    @pytest.mark.parametrize("kind, setting, message", [
        ("kmeans", "kmeans_k = 0", "k must be >= 1, got 0"),
        ("kmeans", "kmeans_k = -2", "k must be >= 1, got -2"),
        ("lstmae", "lstm_batch = 0", "batch must be >= 1, got 0"),
        ("lstmae", "lstm_epochs = -1", "epochs must be >= 0, got -1"),
    ], ids=["kmeans_k-0", "kmeans_k-negative", "lstm_batch-0", "lstm_epochs-negative"])
    def test_out_of_range_setting_is_a_usage_error(self, tmp_path, capsys, kind, setting, message):
        frames = tmp_path / "train.frames"
        write_frame_archive(frames, random_frames())
        config = tmp_path / "bad.cfg"
        config.write_text(f"{setting}\n")
        capsys.readouterr()
        rc = main(["train", "--frames", str(frames), "--detector", kind, "--config", str(config),
                   "--out", str(tmp_path / "m.model")])
        assert rc == 2
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err
        assert not (tmp_path / "m.model").exists()

    def test_zero_lstm_hidden_is_a_usage_error(self, tmp_path, capsys):
        frames = tmp_path / "train.frames"
        write_frame_archive(frames, random_frames())
        config = tmp_path / "bad.cfg"
        config.write_text("lstm_hidden = 0\n")
        capsys.readouterr()
        rc = main(["train", "--frames", str(frames), "--detector", "lstmae", "--config", str(config),
                   "--out", str(tmp_path / "m.model")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "hidden must be >= 1, got 0" in err
        assert "Traceback" not in err
        assert not (tmp_path / "m.model").exists()

    def test_five_frames_train_an_ocsvm_but_not_kmeans(self, tmp_path, capsys):
        """nu * n = 0.5 < 1 fits, as in LIBSVM; K-Means still needs k rows, as in scikit-learn."""
        frames = tmp_path / "five.frames"
        write_frame_archive(frames, random_frames(num_frames=5))
        assert main(["train", "--frames", str(frames), "--detector", "ocsvm", "--out", str(tmp_path / "o.model")]) == 0
        assert restore(tmp_path / "o.model").model.alphas.sum() == pytest.approx(1.0)
        capsys.readouterr()
        rc = main(["train", "--frames", str(frames), "--detector", "kmeans", "--out", str(tmp_path / "k.model")])
        assert rc == 3
        assert capsys.readouterr().err == "error: train: 5 rows < k = 8\n"
        assert not (tmp_path / "k.model").exists()


class TestStageTags:
    def test_train_tags_a_usage_error(self, tmp_path, capsys):
        frames = tmp_path / "train.frames"
        write_frame_archive(frames, random_frames())
        (tmp_path / "bad.cfg").write_text("kmeans_k = 0\n")
        capsys.readouterr()
        rc = main(["train", "--frames", str(frames), "--detector", "kmeans", "--config", str(tmp_path / "bad.cfg"),
                   "--out", str(tmp_path / "m.model")])
        assert rc == 2
        assert capsys.readouterr().err == "error: train: k must be >= 1, got 0\n"

    def test_features_tags_a_missing_wav(self, tmp_path, capsys):
        capsys.readouterr()
        rc = main(["features", "--wav", str(tmp_path / "missing.wav"), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: features: [Errno 2] ")

    def test_bench_tags_the_failing_detector(self, tiny_dataset, tmp_path, capsys):
        config = tmp_path / "bad.cfg"
        config.write_text((tiny_dataset / "fast.txt").read_text().replace("kmeans_k = 8", "kmeans_k = 0"))
        capsys.readouterr()
        rc = main(["bench", "--manifest", str(tiny_dataset / "manifest.tsv"), "--out", str(tmp_path / "o"),
                   "--config", str(config)])
        assert rc == 2
        assert capsys.readouterr().err == "error: train[kmeans]: k must be >= 1, got 0\n"
        assert not (tmp_path / "o" / "kmeans.model").exists()


class TestFramingSettings:
    @pytest.mark.parametrize("setting, message", [
        ("hop_ratio = -1", "hop_ratio must be > 0, got -1.0"),
        ("time_per_frame = 0", "time_per_frame must be > 0, got 0.0"),
    ], ids=["hop_ratio-negative", "time_per_frame-0"])
    def test_nonpositive_framing_is_a_usage_error(self, tiny_dataset, tmp_path, capsys, setting, message):
        config = tmp_path / "bad.cfg"
        config.write_text(f"{setting}\n")
        capsys.readouterr()
        rc = main(["features", "--wav", str(tiny_dataset / "val.wav"), "--config", str(config),
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err
        assert not (tmp_path / "out" / "val.frames").exists()

    @pytest.mark.parametrize("setting", ["time_per_frame = 0.01", "hop_length = 100000"])
    def test_zero_column_frame_is_a_usage_error(self, tiny_dataset, tmp_path, capsys, setting):
        """A frame that rounds to 0 spectrogram columns names its settings, and synth writes no dataset."""
        config = tmp_path / "bad.cfg"
        config.write_text(f"{setting}\n")
        for command, source in [("synth", ["--normal-s", "24", "--anomalous-s", "40"]),
                                ("features", ["--wav", str(tiny_dataset / "val.wav")])]:
            out = tmp_path / command
            capsys.readouterr()
            assert main([command, *source, "--config", str(config), "--out", str(out)]) == 2, command
            err = capsys.readouterr().err
            assert err.startswith(f"error: {command}: time_per_frame ") and "hop_length" in err, err
            assert "Traceback" not in err
            assert not out.exists(), command


class TestNonFiniteSettings:
    @pytest.mark.parametrize("setting, message", [
        ("hop_ratio = inf", "hop_ratio must be finite, got inf"),
        ("time_per_frame = inf", "time_per_frame must be finite, got inf"),
        ("time_per_frame = nan", "time_per_frame must be > 0, got nan"),
    ], ids=["hop_ratio-inf", "time_per_frame-inf", "time_per_frame-nan"])
    def test_nonfinite_framing_is_a_usage_error(self, tiny_dataset, tmp_path, capsys, setting, message):
        config = tmp_path / "bad.cfg"
        config.write_text(f"{setting}\n")
        capsys.readouterr()
        rc = main(["features", "--wav", str(tiny_dataset / "val.wav"), "--config", str(config),
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err == f"error: features: {message}\n"
        assert not (tmp_path / "out" / "val.frames").exists()

    def test_nonfinite_framing_stops_synth_before_any_file(self, tmp_path, capsys):
        config = tmp_path / "bad.cfg"
        config.write_text("hop_ratio = inf\n")
        capsys.readouterr()
        rc = main(["synth", "--out", str(tmp_path / "d"), "--config", str(config),
                   "--normal-s", "24", "--anomalous-s", "40"])
        assert rc == 2
        assert capsys.readouterr().err == "error: synth: hop_ratio must be finite, got inf\n"
        assert not (tmp_path / "d").exists()

    def test_overflowing_framing_is_a_usage_error(self, tmp_path, capsys):
        """A finite hop_ratio whose product with the frame size overflows: exit 2, no traceback, no file."""
        config = tmp_path / "bad.cfg"
        config.write_text("hop_ratio = 1e308\n")
        capsys.readouterr()
        rc = main(["synth", "--out", str(tmp_path / "d"), "--config", str(config),
                   "--normal-s", "24", "--anomalous-s", "40"])
        assert rc == 2
        assert capsys.readouterr().err == "error: synth: hop_ratio is too large: the frame arithmetic overflows to inf\n"
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize("kind, setting, message", [
        ("lstmae", "lstm_lr = nan", "lr must be finite and > 0, got nan"),
        ("lstmae", "lstm_lr = -1", "lr must be finite and > 0, got -1.0"),
        ("ocsvm", "ocsvm_gamma = nan", "gamma must be finite and positive, got nan"),
    ], ids=["lstm_lr-nan", "lstm_lr-negative", "ocsvm_gamma-nan"])
    def test_bad_solver_setting_writes_no_model(self, tmp_path, capsys, kind, setting, message):
        frames = tmp_path / "train.frames"
        write_frame_archive(frames, random_frames())
        (tmp_path / "bad.cfg").write_text(f"{setting}\n")
        capsys.readouterr()
        rc = main(["train", "--frames", str(frames), "--detector", kind, "--config", str(tmp_path / "bad.cfg"),
                   "--out", str(tmp_path / "m.model")])
        assert rc == 2
        assert capsys.readouterr().err == f"error: train: {message}\n"
        assert not (tmp_path / "m.model").exists()


class TestDenoiseSettings:
    @pytest.mark.parametrize("setting, message", [
        ("denoise_margin_db = nan", "denoise_margin_db must be finite and >= 0, got nan"),
        ("denoise_margin_db = inf", "denoise_margin_db must be finite and >= 0, got inf"),
        ("denoise_margin_db = -1", "denoise_margin_db must be finite and >= 0, got -1.0"),
        ("denoise_percentile = 100", "denoise_percentile must be in (0, 100), got 100.0"),
    ], ids=["margin-nan", "margin-inf", "margin-negative", "percentile-100"])
    def test_bad_gate_setting_is_a_usage_error(self, tiny_dataset, tmp_path, capsys, setting, message):
        config = tmp_path / "bad.cfg"
        config.write_text(f"denoise = true\n{setting}\n")
        capsys.readouterr()
        rc = main(["features", "--wav", str(tiny_dataset / "val.wav"), "--config", str(config),
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        assert capsys.readouterr().err == f"error: features: {message}\n"
        assert not list((tmp_path / "out").glob("*.frames"))


class TestBenchChecksSettingsFirst:
    @pytest.mark.parametrize("old, new, message", [
        ("kmeans_k = 8", "kmeans_k = 0", "train[kmeans]: k must be >= 1, got 0"),
        ("ocsvm_gamma = scale", "ocsvm_gamma = -1", "train[ocsvm]: gamma must be finite and positive, got -1.0"),
    ], ids=["kmeans_k-0", "ocsvm_gamma-negative"])
    def test_bad_detector_setting_writes_no_archive(self, tiny_dataset, tmp_path, capsys, old, new, message):
        config = tmp_path / "bad.cfg"
        text = (tiny_dataset / "fast.txt").read_text()
        assert old in text
        config.write_text(text.replace(old, new))
        capsys.readouterr()
        rc = main(["bench", "--manifest", str(tiny_dataset / "manifest.tsv"), "--out", str(tmp_path / "o"),
                   "--config", str(config)])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        written = [p.name for p in (tmp_path / "o").iterdir()] if (tmp_path / "o").exists() else []
        suffixes = (".frames", ".framelabels", ".model", ".calibration", ".scores")
        assert not [name for name in written if name.endswith(suffixes)]


class TestFlagsThatLoadNoConfig:
    @pytest.mark.parametrize("command", ["score", "eval"])
    @pytest.mark.parametrize("flag, value", [("--config", "x.cfg"), ("--seed", "3")])
    def test_config_and_seed_are_usage_errors(self, tmp_path, capsys, command, flag, value):
        argv = {
            "score": ["score", "--model", "m", "--frames", "f", "--out", str(tmp_path / "s")],
            "eval": ["eval", "--scores", "s", "--labels", "l", "--threshold", "0", "--out", str(tmp_path / "e")],
        }[command]
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(argv + [flag, value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"unrecognized arguments: {flag} {value}" in err
        assert "Traceback" not in err
        assert not list(tmp_path.iterdir())


class TestSeedOnlyWhereRead:
    @pytest.mark.parametrize("command", ["features", "inspect", "calibrate"])
    def test_seed_is_a_usage_error(self, tmp_path, capsys, command):
        argv = {
            "features": ["features", "--wav", "w.wav", "--out", str(tmp_path / "f")],
            "inspect": ["inspect", "--wav", "w.wav", "--out", str(tmp_path / "i")],
            "calibrate": ["calibrate", "--model", "m", "--val-frames", "v", "--out", str(tmp_path / "c")],
        }[command]
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--seed", "1"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments: --seed 1" in err and "Traceback" not in err
        assert not list(tmp_path.iterdir())


class TestInspect:
    def test_matrix_round_trip(self, tmp_path, rng):
        matrix = rng.standard_normal((7, 11))
        write_matrix(tmp_path / "m.tsv", "demo", matrix)
        name, loaded = read_matrix(tmp_path / "m.tsv")
        assert name == "demo"
        assert np.array_equal(loaded, matrix)  # %.17g round-trips doubles

    @pytest.mark.parametrize("shape", [(2, 2 * _MATRIX_BLOCK + 17), (3, _MATRIX_BLOCK), (1, 1), (5, 0)])
    def test_matrix_bytes_equal_savetxt(self, tmp_path, rng, shape):
        """Row text is written in blocks; the file is np.savetxt's, byte for byte."""
        matrix = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, shape)
        write_matrix(tmp_path / "m.tsv", "demo", matrix)
        np.savetxt(tmp_path / "ref.tsv", matrix, fmt="%.17g", delimiter="\t",
                   header=f"demo {shape[0]} {shape[1]}", comments="# ")
        assert (tmp_path / "m.tsv").read_bytes() == (tmp_path / "ref.tsv").read_bytes()

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

    def test_mel_db_is_the_whole_matrix_chain(self, tmp_path, rng):
        """Two full STFT blocks and a ragged 17-column one: the bits of the reference chain."""
        from aad.audio_io import load_wav, save_wav
        from aad.features import _STFT_BLOCK, mel_filterbank, power_to_db

        n_cols = 2 * _STFT_BLOCK + 17
        save_wav(make_clip(rng.uniform(-0.9, 0.9, 1024 + (n_cols - 1) * 512 + 300)), tmp_path / "a.wav")
        assert main(["inspect", "--wav", str(tmp_path / "a.wav"), "--out", str(tmp_path / "ins")]) == 0
        clip = load_wav(tmp_path / "a.wav")
        want = power_to_db(whole_mel_power(clip, mel_filterbank(clip.sample_rate, 1024))).values
        _, mel_db = read_matrix(tmp_path / "ins" / "mel_db.tsv")
        assert mel_db.shape == (128, n_cols)
        assert np.array_equal(mel_db, want)

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
        with pytest.raises(PipelineError, match="unknown config key 'warp_speed'"):
            load_config(bad)

    @pytest.mark.parametrize("key", ["kmeans_max_iter", "kmeans_tol", "ocsvm_tol", "ocsvm_max_passes"])
    def test_removed_solver_key_is_a_data_error(self, tmp_path, capsys, key):
        frames = tmp_path / "train.frames"
        write_frame_archive(frames, random_frames())
        (tmp_path / "old.cfg").write_text(f"{key} = 1\n")
        capsys.readouterr()
        rc = main(["train", "--frames", str(frames), "--detector", "kmeans", "--config", str(tmp_path / "old.cfg"),
                   "--out", str(tmp_path / "m.model")])
        assert rc == 3
        assert f"unknown config key {key!r}" in capsys.readouterr().err

    def test_readme_lists_every_config_key(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        paragraph = readme[readme.index("Config keys cover"):readme.index("The calibration grid is not")]
        assert re.findall(r"`(\w+)`", paragraph) == [f.name for f in dataclasses.fields(RunConfig)]

    @pytest.mark.parametrize("line", ["kmeans_k = true", "lstm_epochs = false", "n_fft = none", "fmax = scale",
                                      "ocsvm_gamma = none", "denoise = 2", "fmax ="])
    def test_value_outside_the_declared_type_is_a_data_error(self, tmp_path, line):
        path = tmp_path / "bad.cfg"
        path.write_text(f"seed = 3\n{line}\n")
        key = line.split("=")[0].strip()
        with pytest.raises(PipelineError, match=f"^{re.escape(str(path))}:2: bad value for {key}: "):
            load_config(path)

    def test_repeated_key_is_a_data_error(self, tmp_path, capsys):
        frames = tmp_path / "train.frames"
        write_frame_archive(frames, random_frames())
        (tmp_path / "twice.cfg").write_text("n_mels = 16\nseed = 3\nn_mels = 32\n")
        capsys.readouterr()
        rc = main(["train", "--frames", str(frames), "--detector", "kmeans", "--config", str(tmp_path / "twice.cfg"),
                   "--out", str(tmp_path / "m.model")])
        assert rc == 3
        assert "twice.cfg:3: repeated config key 'n_mels', first set on line 1" in capsys.readouterr().err
        assert not (tmp_path / "m.model").exists()

    @pytest.mark.parametrize("kind, seed, via_config", [
        pytest.param("kmeans", 2**70, False, id="kmeans-2**70"),
        pytest.param("ocsvm", -1, False, id="ocsvm-minus1"),
        pytest.param("lstmae", 2**70, True, id="lstmae-2**70-config"),
    ])
    def test_seed_outside_int64_range_is_a_usage_error(self, tmp_path, capsys, kind, seed, via_config):
        """A model file stores the seed as an int64 block; -1 and 2**70 never reach a stage."""
        frames = tmp_path / "train.frames"
        write_frame_archive(frames, random_frames())
        (tmp_path / "seed.cfg").write_text(f"seed = {seed}\n")
        flags = ["--config", str(tmp_path / "seed.cfg")] if via_config else ["--seed", str(seed)]
        capsys.readouterr()
        rc = main(["train", "--frames", str(frames), "--detector", kind, *flags, "--out", str(tmp_path / "m.model")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: seed must be in [0, 2**63), got {seed}")
        assert not (tmp_path / "m.model").exists()

    def test_largest_int64_seed_round_trips(self, tmp_path):
        frames = tmp_path / "train.frames"
        write_frame_archive(frames, random_frames())
        model = tmp_path / "m.model"
        assert main(["train", "--frames", str(frames), "--detector", "kmeans", "--seed", str(2**63 - 1),
                     "--out", str(model)]) == 0
        assert main(["score", "--model", str(model), "--frames", str(frames), "--out", str(tmp_path / "s")]) == 0

    def test_boolean_word_in_an_integer_key_exits_3(self, tmp_path, capsys):
        frames = tmp_path / "train.frames"
        write_frame_archive(frames, random_frames())
        (tmp_path / "bad.cfg").write_text("kmeans_k = true\n")
        capsys.readouterr()
        rc = main(["train", "--frames", str(frames), "--detector", "kmeans", "--config", str(tmp_path / "bad.cfg"),
                   "--out", str(tmp_path / "m.model")])
        assert rc == 3
        err = capsys.readouterr().err
        assert "bad.cfg:1: bad value for kmeans_k" in err
        assert "Traceback" not in err
        assert not (tmp_path / "m.model").exists()

    @pytest.mark.parametrize("line, key, value", [
        ("denoise = yes", "denoise", True), ("denoise = Off", "denoise", False), ("denoise = 1", "denoise", True),
        ("fmax = none", "fmax", None), ("target_rms = None", "target_rms", None), ("fmax = 6000", "fmax", 6000.0),
        ("ocsvm_gamma = scale", "ocsvm_gamma", "scale"), ("ocsvm_gamma = 0.5", "ocsvm_gamma", 0.5),
        ("lstm_epochs = 0", "lstm_epochs", 0), ("lstm_lr = 1e-2", "lstm_lr", 0.01),
    ])
    def test_value_parsed_by_its_declared_type(self, tmp_path, line, key, value):
        (tmp_path / "c.cfg").write_text(f"{line}\n")
        parsed = getattr(load_config(tmp_path / "c.cfg"), key)
        assert parsed == value and type(parsed) is type(value)

    def test_round_trip_via_write(self, tmp_path):
        cfg = RunConfig(n_fft=2048, denoise=True, ocsvm_gamma=0.125, fmax=6000.0, seed=11)
        cfg.write(tmp_path / "c.cfg")
        again = load_config(tmp_path / "c.cfg")
        assert again == cfg


class TestManifest:
    def test_train_with_labels_rejected(self, tmp_path):
        bad = tmp_path / "m.tsv"
        bad.write_text("a.wav\ttrain\ta.labels\n")
        with pytest.raises(PipelineError, match="train records are normal-only, no labels allowed"):
            load_manifest(bad)

    def test_test_without_labels_rejected(self, tmp_path):
        bad = tmp_path / "m.tsv"
        bad.write_text("a.wav\ttest\n")
        with pytest.raises(PipelineError, match="test records need a labels file"):
            load_manifest(bad)

    def test_unknown_split_rejected(self, tmp_path):
        bad = tmp_path / "m.tsv"
        bad.write_text("a.wav\tholdout\n")
        with pytest.raises(PipelineError, match="unknown split 'holdout'"):
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

    @pytest.mark.parametrize("case, message", [
        ("no-train", "error: manifest has no train records"),
        ("mixed-rates", "error: features: records in one split disagree on feature geometry"),
    ], ids=["no-train", "mixed-rates"])
    def test_unusable_manifest_is_a_data_error(self, tiny_dataset, tmp_path, capsys, case, message):
        from aad.audio_io import AudioClip, load_wav, save_wav

        rows = (f"{tiny_dataset / 'val.wav'}\tval\n"
                f"{tiny_dataset / 'test.wav'}\ttest\t{tiny_dataset / 'test.labels'}\n")
        if case == "mixed-rates":  # a 16 kHz and an 8 kHz train record: frames of different sizes
            clip = load_wav(tiny_dataset / "train.wav")
            save_wav(AudioClip(samples=clip.samples[: 5 * clip.sample_rate], sample_rate=8000), tmp_path / "slow.wav")
            rows = f"{tiny_dataset / 'train.wav'}\ttrain\nslow.wav\ttrain\n" + rows
        (tmp_path / "m.tsv").write_text(rows)
        capsys.readouterr()
        rc = main(["bench", "--manifest", str(tmp_path / "m.tsv"), "--out", str(tmp_path / "o"),
                   "--config", str(tiny_dataset / "fast.txt")])
        assert rc == 3
        assert capsys.readouterr().err.startswith(message)

    def test_bench_never_reads_an_archive(self, tiny_dataset, tiny_bench, tmp_path, monkeypatch):
        import aad.features

        def refuse(path):
            raise AssertionError(f"bench read {path}")

        monkeypatch.setattr(aad.features, "load_frames", refuse)
        out = tmp_path / "o"
        assert main(["bench", "--manifest", str(tiny_dataset / "manifest.tsv"), "--out", str(out),
                     "--config", str(tiny_dataset / "fast.txt")]) == 0
        for name in ("kmeans.scores", "ocsvm.scores", "lstmae.scores", "test.frames"):
            assert (out / name).read_bytes() == (tiny_bench / name).read_bytes(), name

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
            parts=(parts[0].parts[0], parts[1].parts[0]), frame_size=parts[0].frame_size,
            hop_size=parts[0].hop_size, sample_rate=parts[0].sample_rate, hop_length=parts[0].hop_length,
        )
        config = load_config(cfg)
        direct = KMeansDetector(k=config.kmeans_k, seed=config.seed).fit(stacked)
        restored = restore(out / "kmeans.model")
        assert restored.model.centroids.shape[0] == config.kmeans_k
        assert np.array_equal(restored.model.centroids, direct.model.centroids)
        assert np.array_equal(restored.vectorizer.mean, direct.vectorizer.mean)

    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as exc:
            main(["bench"])  # missing required arguments
        assert exc.value.code == 2
