"""The three workloads: ``knock``, ``rare`` and ``stream``.

Each workload drives ``aad`` from outside, through ``aad.cli.main`` and the
public functions a deployment would call (``load_wav``, ``frame_pipeline``,
``restore``, ``Detector.score``). Program functions are looked up on their
modules at call time so that the tracer in ``tracing.py`` sees them.

A run sets up ``Scale.datasets`` datasets, each from its own seed derived
from the workload seed, and cycles its timed operation over them. Per-seed
data effects (K-Means and SMO iteration counts, calibration drift) are then
averaged inside one run instead of showing up as run-to-run spread.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from aad import audio_io, cli, config, detector_api, features, metrics, synthgen
from aad.errors import PipelineError

from tracing import Tracer, layer_metrics

DETECTORS = ("kmeans", "ocsvm", "lstmae")
# train_s is end to end for these; K-Means fit time varies too much with the data (README)
TRAIN_S_DETECTORS = ("ocsvm", "lstmae")
CLIP_S = 5.0
CLIP_STRIDE_S = 0.5        # clip starts; not a multiple of the 32 ms STFT hop
DATASET_SEED_STEP = 7919   # dataset j of workload seed S uses seed S + j * step

# Acceptance criteria 1 (knock) and 2 (rare): ROC AUC floors per detector.
AUC_FLOORS = {
    "knock": {"kmeans": 0.95, "ocsvm": 0.97, "lstmae": 0.97},
    "rare": {"ocsvm": 0.90, "lstmae": 0.90},
}


@dataclass(frozen=True)
class Scale:
    """Input sizes, in seconds of audio, and the LSTM-AE epochs."""

    normal_s: float            # knock and stream: normal audio, split 7:1 into train and val
    anomalous_s: float         # knock: knock audio, split 1:1 into calib and test; stream: calib is half
    rare_normal_s: float       # rare: 70% train, 10% each val, calib and test
    lstm_epochs: int
    stream_clips: int          # distinct clips per dataset
    stream_quality_clips: int  # the first clips of a run, always scored; quality comes from them
    datasets: int

    @property
    def block_clips(self) -> int:
        """Stream: ``bench_s`` is the loop's wall time per this many clips."""
        return self.stream_quality_clips // 2

    @property
    def digest_clips(self) -> int:
        """Stream: clips per dataset whose scores enter the determinism digest."""
        return self.stream_quality_clips // self.datasets


SCALES = {
    # what the benchmark runs: a few seconds per timed operation
    "ci": Scale(normal_s=130.0, anomalous_s=60.0, rare_normal_s=200.0, lstm_epochs=3,
                stream_clips=250, stream_quality_clips=200, datasets=3),
    # the self-test: seconds in total
    "tiny": Scale(normal_s=24.0, anomalous_s=40.0, rare_normal_s=120.0, lstm_epochs=1,
                  stream_clips=16, stream_quality_clips=16, datasets=2),
    # the `aad synth` and config defaults: reproduces the paper-table run of README.md
    "paper": Scale(normal_s=780.0, anomalous_s=210.0, rare_normal_s=1200.0, lstm_epochs=30,
                   stream_clips=210, stream_quality_clips=200, datasets=1),
}


@dataclass
class Clip:
    path: Path
    intervals: tuple


@dataclass
class Dataset:
    seed: int
    root: Path
    ok: bool = False            # set up without a failure
    clips: list[Clip] = field(default_factory=list)
    # stream only: the restored models, and what their clip scores feed
    detectors: dict = field(default_factory=dict)
    thresholds: dict = field(default_factory=dict)
    quality_scores: dict = field(default_factory=lambda: {k: [] for k in DETECTORS})
    quality_labels: list = field(default_factory=list)
    digest: object = field(default_factory=hashlib.sha256)
    digested: int = 0


@dataclass
class Tally:
    """Operations attempted and failed; each failure keeps its reason."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def op(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failures.append("; ".join(problems))
            print(f"check failed: {self.failures[-1]}", file=sys.stderr)


def _cli(argv: list[str]) -> int:
    """Run one ``aad`` command with its console output sent to stderr."""
    with contextlib.redirect_stdout(sys.stderr):
        return cli.main([str(a) for a in argv])


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def _sha256_files(paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(Path(p).name.encode())
        h.update(Path(p).read_bytes())
    return h.hexdigest()


# --- checks ------------------------------------------------------------------

def check_bench_outputs(out: Path, workload: str) -> tuple[list[str], str]:
    """Problems found in an ``aad bench`` output directory, and a digest of its score files.

    Checks: report.json has one row per detector, the acceptance AUC floors
    hold, and every score file holds one finite number per test frame.
    """
    problems: list[str] = []
    try:
        rows = {r["method"]: r for r in json.loads((out / "report.json").read_text())["rows"]}
    except (OSError, ValueError, KeyError) as exc:
        return [f"report.json unreadable: {exc}"], ""
    if sorted(rows) != sorted(DETECTORS):
        problems.append(f"report.json rows {sorted(rows)} != {sorted(DETECTORS)}")
    for kind, floor in AUC_FLOORS[workload].items():
        auc = rows.get(kind, {}).get("roc_auc", float("nan"))
        if not auc >= floor:
            problems.append(f"{kind} ROC AUC {auc} below floor {floor}")
    n_frames = len((out / "test.framelabels.all").read_text().split())
    score_files = [out / f"{kind}.scores" for kind in DETECTORS]
    for path in score_files:
        try:
            scores = np.array([float(v) for v in path.read_text().split()])
        except (OSError, ValueError) as exc:
            problems.append(f"{path.name} unreadable: {exc}")
            continue
        if scores.size != n_frames:
            problems.append(f"{path.name} has {scores.size} scores for {n_frames} frames")
        if not np.all(np.isfinite(scores)):
            problems.append(f"{path.name} holds non-finite scores")
    digest = _sha256_files(p for p in score_files if p.exists())
    return problems, digest


class DigestBook:
    """Digests of score files, kept in the checkout across runs.

    A key names the workload, scale, dataset seed and a hash of the program
    and benchmark sources, so a mismatch means one commit gave two different
    outputs for one seed (ROADMAP aim 3, bit-determinism).
    """

    def __init__(self, path: Path, tree_hash: str):
        self.path = path
        self.tree_hash = tree_hash
        self.book = json.loads(path.read_text()) if path.exists() else {}
        self.seen: dict[str, str] = {}

    def check(self, key: str, digest: str) -> list[str]:
        full = f"{key}/{self.tree_hash}"
        expected = self.seen.get(full) or self.book.get(full)
        self.seen.setdefault(full, digest)
        if expected is not None and expected != digest:
            return [f"digest of {key} is {digest[:12]}, earlier run gave {expected[:12]}"]
        return []

    def save(self) -> None:
        # the first digest ever recorded for a key stays the reference
        merged = {**self.seen, **self.book}
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(merged, indent=1, sort_keys=True))
        tmp.replace(self.path)


# --- shared pieces ---------------------------------------------------------

def _config_file(run: "Run") -> list:
    path = run.work / "config.txt"
    path.write_text(f"lstm_epochs = {run.scale.lstm_epochs}\n")
    return ["--config", path]


def cut_clips(wav: Path, labels: Path, out: Path, stride_s: float, limit: int | None) -> list[Clip]:
    """Write 5 s clips of a labelled recording, one every ``stride_s`` seconds.

    The stride is not a multiple of the STFT hop and every clip is RMS- and
    min-max-normalized on its own, so no two clips share a feature frame.
    """
    out.mkdir(parents=True, exist_ok=True)
    rec = audio_io.load_wav(wav)
    intervals = synthgen.read_intervals(labels)
    sr = rec.sample_rate
    width = int(round(CLIP_S * sr))
    starts = range(0, rec.samples.size - width + 1, int(round(stride_s * sr)))
    clips = []
    for i, a in enumerate(starts):
        if limit is not None and i >= limit:
            break
        t0 = a / sr
        path = out / f"clip{i:04d}.wav"
        audio_io.save_wav(audio_io.AudioClip(samples=rec.samples[a : a + width], sample_rate=sr), path)
        shifted = tuple(
            synthgen.AnomalyInterval(max(iv.start_s - t0, 0.0), min(iv.end_s - t0, CLIP_S), iv.kind)
            for iv in intervals if iv.end_s > t0 and iv.start_s < t0 + CLIP_S
        )
        clips.append(Clip(path, shifted))
    return clips


def deploy(model_dir: Path) -> tuple[dict, dict]:
    """Restore the persisted detectors and read their calibrated thresholds."""
    detectors = {k: detector_api.restore(model_dir / f"{k}.model") for k in DETECTORS}
    thresholds = {k: cli.read_calibration_threshold(model_dir / f"{k}.calibration") for k in DETECTORS}
    return detectors, thresholds


def _calibrated_percentile(path: Path) -> float:
    for line in path.read_text().splitlines():
        if line.startswith("percentile = "):
            return float(line.split("=", 1)[1])
    return float("nan")


def score_clip(clip: Clip, detectors: dict, thresholds: dict, cfg: config.RunConfig):
    """File -> verdict for one clip; returns (seconds, scores, frame labels, problems).

    Scores and labels are None when the clip failed.
    """
    start = time.perf_counter()
    try:
        rec = audio_io.load_wav(clip.path)
        frames = features.frame_pipeline(
            rec, n_fft=cfg.n_fft, hop_length=cfg.hop_length, n_mels=cfg.n_mels,
            fmin=cfg.fmin, fmax=cfg.fmax, time_per_frame=cfg.time_per_frame,
            hop_ratio=cfg.hop_ratio, target_rms=cfg.target_rms, denoise=cfg.denoise,
            denoise_percentile=cfg.denoise_percentile, denoise_margin_db=cfg.denoise_margin_db,
        )
        scores = {}
        for kind, det in detectors.items():
            scores[kind] = det.score(frames).scores
            _verdict = scores[kind] > thresholds[kind]
    except (PipelineError, ValueError) as exc:
        return time.perf_counter() - start, None, None, [f"{clip.path.name}: {exc}"]
    elapsed = time.perf_counter() - start
    problems = [
        f"{clip.path.name}: {kind} gave {s.size} scores for {frames.num_frames} frames"
        for kind, s in scores.items() if s.size != frames.num_frames
    ] + [
        f"{clip.path.name}: {kind} gave a non-finite score"
        for kind, s in scores.items() if not np.all(np.isfinite(s))
    ]
    return elapsed, scores, synthgen.frame_labels(clip.intervals, frames), problems


def quality(scores: dict, labels: list, thresholds: dict) -> dict:
    """ROC AUC and F1 per detector over the pooled frames of some clips.

    Both are None when those frames hold one class only: a window of a few
    clips can miss every knock, and AUC is undefined there.
    """
    y = np.concatenate(labels) if labels else np.zeros(0, dtype=int)
    out = {}
    for kind in DETECTORS:
        if y.size == 0 or y.min() == y.max():
            out[kind] = {"auc": None, "f1": None}
            continue
        s = np.concatenate(scores[kind])
        cm = metrics.confusion(y, (s > thresholds[kind]).astype(int))
        out[kind] = {"auc": metrics.roc_auc(y, s), "f1": metrics.precision_recall_f1(cm)[2]}
    return out


# --- the run -------------------------------------------------------------------

@dataclass
class Run:
    workload: str
    seed: int
    seconds: float
    trace: bool
    scale_name: str
    work: Path
    digests: DigestBook
    tally: Tally = field(default_factory=Tally)
    cfg: config.RunConfig = field(default_factory=config.RunConfig)
    setup_s: list[float] = field(default_factory=list)
    op_s: list[float] = field(default_factory=list)          # untraced timed operations
    traced_op_s: list[float] = field(default_factory=list)
    clip_s: list[float] = field(default_factory=list)
    train_s: dict = field(default_factory=lambda: {k: [] for k in TRAIN_S_DETECTORS})  # fit only
    per_dataset: list[dict] = field(default_factory=list)
    layers: list[dict] = field(default_factory=list)

    @property
    def scale(self) -> Scale:
        return SCALES[self.scale_name]

    def key(self, what: str, seed: int) -> str:
        """Digest-book key of one output of one dataset."""
        return f"{self.workload}/{self.scale_name}/{what}/{seed}"

    @property
    def dataset_count(self) -> int:
        # a traced run measures layers on the first dataset only
        return 1 if self.trace else self.scale.datasets

    def dataset_seed(self, j: int) -> int:
        return self.seed + j * DATASET_SEED_STEP

    def traced(self, fn):
        """Run ``fn`` under a tracer when this is a traced run; return (result, spans)."""
        if not self.trace:
            return fn(), []
        with Tracer() as tracer:
            result = fn()
        return result, tracer.spans


def run_workload(run: Run) -> None:
    if run.workload == "stream":
        _run_stream(run)
    else:
        _run_bench(run)


# --- knock and rare: `aad synth` then repeated `aad bench` ------------------

def _synth_args(run: Run, seed: int, out: Path, test_s: float | None = None) -> list:
    s = run.scale
    argv = ["synth", "--out", out, "--seed", seed]
    if run.workload == "rare":
        return argv + ["--mode", "rare", "--normal-s", s.rare_normal_s]
    if run.workload == "knock":
        return argv + ["--normal-s", s.normal_s, "--anomalous-s", s.anomalous_s]
    calib_s = s.anomalous_s / 2
    return argv + ["--normal-s", s.normal_s, "--anomalous-s", calib_s + test_s,
                   "--calib-frac", calib_s / (calib_s + test_s)]


def _synth(run: Run, seed: int, out: Path, test_s: float | None = None) -> tuple[int, int]:
    """Run ``aad synth``; returns (exit code, seed used).

    A knock split drawn with no knock at all (Poisson; about 1 in 400 for a
    30 s split) cannot be calibrated or scored, so it is no benchmark input:
    the next seed is tried instead.
    """
    while True:
        rc = _cli(_synth_args(run, seed, out, test_s))
        if rc or run.workload == "rare" or all(
            synthgen.read_intervals(out / f"{split}.labels") for split in ("calib", "test")
        ):
            return rc, seed
        shutil.rmtree(out)
        seed += 1


def _setup_bench_dataset(run: Run, j: int) -> Dataset:
    ds = Dataset(seed=run.dataset_seed(j), root=run.work / f"data{j}")
    start = time.perf_counter()
    rc, ds.seed = _synth(run, ds.seed, ds.root)
    if rc == 0:
        ds.clips = cut_clips(ds.root / "test.wav", ds.root / "test.labels", ds.root / "clips",
                             CLIP_STRIDE_S, None)
    run.setup_s.append(time.perf_counter() - start)
    problems = [f"aad synth exited {rc}"] if rc else []
    if not problems:
        inputs = sorted(p for p in ds.root.iterdir() if p.is_file())
        problems += run.digests.check(run.key("inputs", ds.seed), _sha256_files(inputs))
    run.tally.op(problems)
    ds.ok = not problems
    return ds


def _bench_once(run: Run, ds: Dataset, i: int, config_args: list, traced: bool):
    out = run.work / f"bench{i}"
    argv = ["bench", "--manifest", ds.root / "manifest.tsv", "--out", out, "--seed", ds.seed,
            *config_args]
    start = time.perf_counter()
    rc = _cli(argv)
    elapsed = time.perf_counter() - start
    if rc != 0:
        run.tally.op([f"aad bench exited {rc}"])
        return None
    problems, digest = check_bench_outputs(out, run.workload)
    if not digest:  # no readable report.json
        run.tally.op(problems)
        return None
    problems += run.digests.check(run.key("scores", ds.seed), digest)
    run.tally.op(problems)
    (run.traced_op_s if traced else run.op_s).append(elapsed)
    rows = {r["method"]: r for r in json.loads((out / "report.json").read_text())["rows"]}
    for kind in TRAIN_S_DETECTORS:
        run.train_s[kind].append(rows[kind]["train_time_s"])
    record = {
        "dataset_seed": ds.seed,
        "auc": {k: rows[k]["roc_auc"] for k in DETECTORS},
        "f1": {k: rows[k]["f1"] for k in DETECTORS},
        "percentile": {k: _calibrated_percentile(out / f"{k}.calibration") for k in DETECTORS},
        "output_bytes": _dir_bytes(out),
    }
    # deployment check: the models this bench wrote score the test recording clip by clip
    detectors, thresholds = deploy(out)
    for clip in ds.clips:
        elapsed_clip, _, _, clip_problems = score_clip(clip, detectors, thresholds, run.cfg)
        run.tally.op(clip_problems)
        run.clip_s.append(elapsed_clip)
    shutil.rmtree(out)
    return record


def _run_bench(run: Run) -> None:
    config_args = _config_file(run)
    if run.trace:
        ds, setup_spans = run.traced(lambda: _setup_bench_dataset(run, 0))
        i = 0
        start = time.perf_counter()
        while ds.ok and (i == 0 or time.perf_counter() - start < run.seconds):
            _bench_once(run, ds, 2 * i, config_args, traced=False)
            record, spans = run.traced(lambda: _bench_once(run, ds, 2 * i + 1, config_args, traced=True))
            if record is not None:
                layers = layer_metrics(setup_spans + spans)
                layers.update(_record_layers(record))
                run.layers.append(layers)
                run.per_dataset[:1] = [record]
            i += 1
        return
    datasets = [ds for j in range(run.dataset_count) if (ds := _setup_bench_dataset(run, j)).ok]
    seen: dict[int, dict] = {}
    i = 0
    start = time.perf_counter()
    while datasets and (i < len(datasets) or time.perf_counter() - start < run.seconds):
        ds = datasets[i % len(datasets)]
        record = _bench_once(run, ds, i, config_args, traced=False)
        if record is not None:
            seen.setdefault(ds.seed, record)
        i += 1
    run.per_dataset = list(seen.values())


def _record_layers(record: dict) -> dict:
    out = {f"calibration.percentile.{k}": record["percentile"][k] for k in DETECTORS}
    out.update({f"calibration.f1.{k}": record["f1"][k] for k in DETECTORS})
    out["cli.output_bytes"] = record["output_bytes"]
    return out


# --- stream: trained detectors score distinct 5 s clips, one at a time -------

def _setup_stream_dataset(run: Run, j: int) -> Dataset:
    s = run.scale
    ds = Dataset(seed=run.dataset_seed(j), root=run.work / f"stream{j}")
    data, frames, models = ds.root / "data", ds.root / "frames", ds.root / "models"
    config_args = _config_file(run)
    start = time.perf_counter()
    rc, ds.seed = _synth(run, ds.seed, data, CLIP_S + (s.stream_clips - 0.5) * CLIP_STRIDE_S)
    problems = [f"aad synth exited {rc}"] if rc else []
    steps = [["features", "--wav", data / f"{split}.wav", "--out", frames, *config_args]
             for split in ("train", "val", "calib")]
    steps += [["train", "--frames", frames / "train.frames", "--detector", kind,
               "--out", models / f"{kind}.model", "--seed", ds.seed, *config_args]
              for kind in DETECTORS]
    steps += [["calibrate", "--model", models / f"{kind}.model", "--val-frames", frames / "val.frames",
               "--calib-frames", frames / "calib.frames", "--calib-labels", data / "calib.labels",
               "--out", models / f"{kind}.calibration", *config_args]
              for kind in DETECTORS]
    for argv in [] if problems else steps:
        rc = _cli(argv)
        if rc:
            problems.append(f"aad {argv[0]} exited {rc}")
            break
    if not problems:
        ds.detectors, ds.thresholds = deploy(models)
        ds.clips = cut_clips(data / "test.wav", data / "test.labels", ds.root / "clips",
                             CLIP_STRIDE_S, s.stream_clips)
    run.setup_s.append(time.perf_counter() - start)
    if not problems:
        for kind in TRAIN_S_DETECTORS:
            run.train_s[kind].append(ds.detectors[kind].train_time_s)
        inputs = sorted(p for p in data.iterdir() if p.is_file())
        problems += run.digests.check(run.key("inputs", ds.seed), _sha256_files(inputs))
    run.tally.op(problems)
    ds.ok = not problems
    return ds


def _run_stream(run: Run) -> None:
    if run.trace:
        ds, setup_spans = run.traced(lambda: _setup_stream_dataset(run, 0))
        datasets = [ds] if ds.ok else []
    else:
        datasets = [ds for j in range(run.dataset_count) if (ds := _setup_stream_dataset(run, j)).ok]
    # round-robin over datasets, so every prefix of the loop mixes all of them
    order = [(ds, ds.clips[n]) for n in range(run.scale.stream_clips) for ds in datasets
             if n < len(ds.clips)]
    n_quality = min(run.scale.stream_quality_clips, len(order))
    block = run.scale.block_clips

    def score(first: int, count: int) -> float:
        t0 = time.perf_counter()
        for n in range(first, min(first + count, len(order))):
            _stream_clip(run, *order[n], n < n_quality)
        return time.perf_counter() - t0

    start = time.perf_counter()
    if run.trace:
        # alternate untraced and traced blocks of clips; their difference is the overhead
        b = 0
        while (b + 1) * block <= len(order) and (b < 2 or time.perf_counter() - start < run.seconds):
            if b % 2:
                elapsed, spans = run.traced(lambda: score(b * block, block))
                run.traced_op_s.append(elapsed)
                run.layers.append(layer_metrics(setup_spans + spans))
            else:
                run.op_s.append(score(b * block, block))
            b += 1
    else:
        done = 0
        while done < len(order) and (done < n_quality or time.perf_counter() - start < run.seconds):
            score(done, 1)
            done += 1
        # the loop's wall time per block of clips: throughput, which averages over the whole
        # loop, is steadier than a median of per-block times on a host that switches speed
        run.op_s.append((time.perf_counter() - start) * block / done)
    for ds in datasets:
        run.tally.op(run.digests.check(run.key("scores", ds.seed), ds.digest.hexdigest()))
        q = quality(ds.quality_scores, ds.quality_labels, ds.thresholds)
        run.per_dataset.append({
            "dataset_seed": ds.seed,
            "clips": len(ds.quality_labels),
            "auc": {k: q[k]["auc"] for k in DETECTORS},
            "f1": {k: q[k]["f1"] for k in DETECTORS},
            "percentile": {k: _calibrated_percentile(ds.root / "models" / f"{k}.calibration")
                           for k in DETECTORS},
            "output_bytes": _dir_bytes(ds.root / "frames") + _dir_bytes(ds.root / "models"),
        })
    for layers in run.layers:
        layers.update(_record_layers(run.per_dataset[0]))


def _stream_clip(run: Run, ds: Dataset, clip: Clip, for_quality: bool) -> None:
    elapsed, scores, labels, problems = score_clip(clip, ds.detectors, ds.thresholds, run.cfg)
    run.tally.op(problems)
    run.clip_s.append(elapsed)
    if scores is None:
        return
    if for_quality:
        for kind in DETECTORS:
            ds.quality_scores[kind].append(scores[kind])
        ds.quality_labels.append(labels)
    if ds.digested < run.scale.digest_clips:
        for kind in DETECTORS:
            ds.digest.update(np.ascontiguousarray(scores[kind], dtype="<f8").tobytes())
        ds.digested += 1


# --- metrics -----------------------------------------------------------------

def end_to_end(run: Run, peak_rss_mb: float) -> dict[str, float]:
    med = statistics.median
    m = {
        "setup_s": med(run.setup_s),
        "bench_s": med(run.op_s),
        "peak_rss_mb": peak_rss_mb,
        "clip_ms.p50": 1000.0 * float(np.quantile(run.clip_s, 0.50)),
        "clip_ms.p95": 1000.0 * float(np.quantile(run.clip_s, 0.95)),
    }
    for kind in TRAIN_S_DETECTORS:
        m[f"train_s.{kind}"] = med(run.train_s[kind])
    for kind in DETECTORS:
        m[f"auc.{kind}"] = med(r["auc"][kind] for r in run.per_dataset if r["auc"][kind] is not None)
    return m


def per_layer(run: Run) -> dict[str, float]:
    keys = run.layers[0].keys()
    m = {k: statistics.median(layers[k] for layers in run.layers) for k in keys}
    m["trace.overhead_s"] = statistics.median(run.traced_op_s) - statistics.median(run.op_s)
    return m
