"""Command-line surface: synth | features | train | calibrate | score | eval | bench | inspect.

Exit codes: 0 success, 2 usage error, 3 data error, 4 numeric failure.
Every stage failure is re-raised tagged with its stage name so bench output
points at the failing step.

File formats emitted here:

* scores / frame labels: one number per line (%.17g / 0-1)
* matrices (inspect): header "# <name> <rows> <cols>", then tab-separated
  %.17g rows -- lossless round trip
* benchmark report: report.json plus an aligned report.txt with columns
  Method, Train Time (s), ROC AUC, Precision, Recall, F1-Score,
  Inference Time (s)
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import features as feat
from .audio_io import AudioClip, load_wav, save_wav
from .calibration import default_candidate, select_by_f1, sweep_thresholds
from .config import SPLITS, ManifestRecord, RunConfig, _text_lines, load_config, load_manifest, write_manifest
from .detector_api import restore
from .errors import PipelineError
from .kmeans import KMeansDetector
from .lstm_ae import LstmAeDetector
from .metrics import EvalReport, confusion, precision_recall_f1, roc_auc, timed
from .ocsvm import OcSvmDetector
from .synthgen import frame_labels, gen_normal, inject_knocks, inject_transient, read_intervals, write_intervals

SAMPLE_RATE = 16000
_MATRIX_BLOCK = 4096  # values per write in write_matrix

# kind -> builder of that detector from its run settings; bench runs the kinds in this order
DETECTORS = {
    KMeansDetector.kind: lambda cfg: KMeansDetector(k=cfg.kmeans_k, seed=cfg.seed),
    OcSvmDetector.kind: lambda cfg: OcSvmDetector(nu=cfg.ocsvm_nu, gamma=cfg.ocsvm_gamma),
    LstmAeDetector.kind: lambda cfg: LstmAeDetector(hidden=cfg.lstm_hidden, epochs=cfg.lstm_epochs,
                                                    batch=cfg.lstm_batch, lr=cfg.lstm_lr, seed=cfg.seed),
}


@contextlib.contextmanager
def _stage(name: str):
    """Tag pipeline, usage (ValueError) and OS errors with the stage they came from."""
    try:
        yield
    except (PipelineError, ValueError, OSError) as exc:
        # other errors become the plain base type: subclasses such as UnicodeDecodeError take other arguments
        tagged = type(exc) if isinstance(exc, PipelineError) else ValueError if isinstance(exc, ValueError) else OSError
        raise tagged(f"{name}: {exc}") from exc


def _load_run_config(args) -> RunConfig:
    cfg = load_config(args.config) if args.config else RunConfig()
    if (seed := getattr(args, "seed", None)) is not None:  # only synth, train and bench take --seed
        cfg.seed = seed
    if not 0 <= cfg.seed < 2**63:  # a model file stores the seed as an int64 block
        raise ValueError(f"seed must be in [0, 2**63), got {cfg.seed}")
    return cfg


# --- small text formats ---------------------------------------------------

def write_vector(path, values, fmt: str = "%.17g") -> None:
    np.savetxt(path, np.asarray(values).ravel(), fmt=fmt)


def _parse_float(path, lineno: int, text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = np.nan
    if not np.isfinite(value):
        raise PipelineError(f"{path}:{lineno}: not a finite number: {text.strip()!r}")
    return value


def _parse_label(path, lineno: int, text: str) -> int:
    value = _parse_float(path, lineno, text)
    if value not in (0.0, 1.0):
        raise PipelineError(f"{path}:{lineno}: a label is 0 or 1, got {text.strip()!r}")
    return int(value)


def read_vector(path, parse=_parse_float) -> np.ndarray:
    """One value per non-blank line; parse (a finite float by default) raises PipelineError at file:line."""
    lines = _text_lines(path)
    return np.array([parse(path, n, line) for n, line in lines if line.strip()])


def write_matrix(path, name: str, matrix) -> None:
    """np.savetxt's bytes, formatted _MATRIX_BLOCK values at a time: no whole row is ever one string.

    One string per row held about 17 MB of text and float objects at once for a
    2 x 240001 FFT amplitude matrix, and a process that benches repeatedly kept
    the heap that left behind resident.
    """
    m = np.atleast_2d(np.asarray(matrix, dtype=np.float64))
    with open(path, "w") as fh:
        fh.write(f"# {name} {m.shape[0]} {m.shape[1]}\n")
        for row in m:
            for a in range(0, row.size, _MATRIX_BLOCK):
                values = row[a : a + _MATRIX_BLOCK].tolist()
                fh.write(("\t" if a else "") + "\t".join(["%.17g"] * len(values)) % tuple(values))
            fh.write("\n")


def write_calibration_report(path, mode: str, threshold: float, percentile: float,
                             f1: float | None, sweep_rows) -> None:
    with open(path, "w") as fh:
        fh.write("# calibration report\n")
        fh.write(f"mode = {mode}\n")
        fh.write(f"threshold = {threshold:.17g}\n")
        fh.write(f"percentile = {percentile:.17g}\n")
        if f1 is not None:
            fh.write(f"f1 = {f1:.17g}\n")
        if mode == "f1":
            fh.write("# sweep: percentile\tthreshold\tprecision\trecall\tf1\n")
            for row in sweep_rows:
                fh.write(f"{row.percentile:g}\t{row.threshold:.17g}\t"
                         f"{row.precision:.6f}\t{row.recall:.6f}\t{row.f1:.6f}\n")
        else:
            fh.write("# candidates: percentile\tthreshold\n")
            for cand in sweep_rows:
                fh.write(f"{cand.percentile:g}\t{cand.threshold:.17g}\n")


def read_calibration_threshold(path) -> float:
    for n, line in _text_lines(path):
        if line.startswith("threshold = "):
            return _parse_float(path, n, line.split("=", 1)[1])
    raise PipelineError(f"{path}: no threshold line")


# --- synth ----------------------------------------------------------------

def _slice_clip(clip: AudioClip, start_s: float, end_s: float) -> AudioClip:
    a = int(round(start_s * clip.sample_rate))
    b = int(round(end_s * clip.sample_rate))
    return AudioClip(samples=clip.samples[a:b], sample_rate=clip.sample_rate)


# per --mode, the size flags it reads and their defaults; a flag of the other mode is a usage error
SYNTH_SIZES = {
    "knocks": {"normal_s": 780.0, "anomalous_s": 210.0, "rate": 12.0, "train_frac": 0.875, "calib_frac": 0.5},
    "rare": {"normal_s": 1200.0, "transient_s": 5.0},
}


def _synth_sizes(args) -> dict:
    """The sizes args.mode reads, defaults filled in; each must be > 0 and finite, a fraction < 1."""
    own = SYNTH_SIZES[args.mode]
    stray = [f"--{dest.replace('_', '-')}" for sizes in SYNTH_SIZES.values() for dest in sizes
             if dest not in own and getattr(args, dest) is not None]
    if stray:
        raise ValueError(f"{', '.join(stray)}: not read by --mode {args.mode}")
    resolved = {}
    for dest, default in own.items():
        value = getattr(args, dest)
        value = resolved[dest] = default if value is None else value
        upper = 1.0 if dest.endswith("_frac") else np.inf
        if not 0.0 < value < upper:
            bounds = "finite and > 0" if upper == np.inf else "in (0, 1)"
            raise ValueError(f"--{dest.replace('_', '-')} must be {bounds}, got {value}")
    return resolved


def cmd_synth(args) -> int:
    """Generate one continuous machine recording and slice it into splits.

    All splits share the same acoustic signature; anomalies are injected
    only into the calib/test slices. Bad numbers, and size flags the mode
    does not read, are rejected before any write.
    """
    sizes = _synth_sizes(args)
    cfg = _load_run_config(args)
    out = Path(args.out)
    seed = cfg.seed
    rows = []
    with _stage("synth"):
        _, hop_size = feat.default_framing(SAMPLE_RATE, cfg.hop_length, cfg.time_per_frame, cfg.hop_ratio)
        align_s = hop_size * cfg.hop_length / SAMPLE_RATE

        normal_s = sizes["normal_s"]
        if args.mode == "knocks":
            anomalous_s = sizes["anomalous_s"]
            total_s = normal_s + anomalous_s
            train_s = normal_s * sizes["train_frac"]
            calib_s = anomalous_s * sizes["calib_frac"]
            durations = {
                "train": train_s, "val": normal_s - train_s, "calib": calib_s, "test": anomalous_s - calib_s,
            }
            injectors = {
                "calib": lambda piece: inject_knocks(piece, sizes["rate"], seed + 13, align_s=align_s),
                "test": lambda piece: inject_knocks(piece, sizes["rate"], seed + 14, align_s=align_s),
            }
        else:  # rare
            total_s = normal_s
            durations = {
                "train": 0.7 * normal_s, "val": 0.1 * normal_s,
                "calib": 0.1 * normal_s, "test": 0.1 * normal_s,
            }
            injectors = {
                "test": lambda piece: inject_transient(
                    piece, duration_s=sizes["transient_s"], seed=seed + 14, align_s=align_s
                ),
            }

        full = gen_normal(total_s, SAMPLE_RATE, seed)
        edges = np.cumsum([0.0] + [durations[split] for split in SPLITS])  # sequential sums
        spans = dict(zip(SPLITS, zip(edges, edges[1:])))
        # Inject before the first write: an injector that fails leaves no directory.
        injected = {split: inject(_slice_clip(full, *spans[split])) for split, inject in injectors.items()}
        out.mkdir(parents=True, exist_ok=True)
        for split in SPLITS:
            labels_name = None
            if (labeled := injected.pop(split, None)) is not None:
                clip, labels_name = labeled.clip, f"{split}.labels"
                write_intervals(out / labels_name, labeled.intervals)
            else:
                clip = _slice_clip(full, *spans[split])
            save_wav(clip, out / f"{split}.wav")
            rows.append((f"{split}.wav", split, labels_name))
    write_manifest(out / "manifest.tsv", rows)
    cfg.write(out / "config.txt")
    print(f"wrote {out / 'manifest.tsv'}")
    return 0


# --- stage functions: the single-stage commands and bench both call these ----

def write_features(wav, intervals, out, cfg: RunConfig) -> tuple[Path, feat.FrameTensor, np.ndarray | None]:
    """Write <out>/<stem>.frames, plus <stem>.framelabels when intervals (read_intervals) are given.

    Callers parse every labels file before the first call, so a bad one
    leaves no archive. Returns the archive path, the tensor written (equal
    to what load_frames reads back) and the frame labels (None without
    intervals).
    """
    stem = Path(wav).stem
    frames = feat.frame_pipeline(
        load_wav(wav),
        n_fft=cfg.n_fft, hop_length=cfg.hop_length, n_mels=cfg.n_mels,
        fmin=cfg.fmin, fmax=cfg.fmax,
        time_per_frame=cfg.time_per_frame, hop_ratio=cfg.hop_ratio,
        target_rms=cfg.target_rms, denoise=cfg.denoise,
        denoise_percentile=cfg.denoise_percentile, denoise_margin_db=cfg.denoise_margin_db,
    )
    path = Path(out) / f"{stem}.frames"
    path.parent.mkdir(parents=True, exist_ok=True)
    feat.save_frames(frames, path)
    vector = None
    if intervals is not None:
        vector = frame_labels(intervals, frames)
        write_vector(Path(out) / f"{stem}.framelabels", vector, fmt="%d")
    return path, frames, vector


def train_detector(detector, cfg: RunConfig, frames: feat.FrameTensor, path):
    """Fit a detector built from cfg (DETECTORS), record its wall-clock fit time and persist it to path."""
    detector.config_digest = cfg.digest()
    _, detector.train_time_s = timed(lambda: detector.fit(frames))
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    detector.persist(path)
    return detector


def calibrate_detector(detector, val_frames, calib_frames, calib_labels, path) -> float:
    """Threshold from the DEFAULT_GRID percentiles of the validation scores, written as a calibration report.

    With calib labels the candidate with the best calib F1 wins; without them
    the highest-percentile candidate does.
    """
    candidates = sweep_thresholds(detector.score(val_frames).scores)
    if calib_labels is not None:
        result = select_by_f1(detector.score(calib_frames).scores, calib_labels, candidates)
        write_calibration_report(path, "f1", result.threshold, result.percentile, result.f1, result.sweep)
        return result.threshold
    cand = default_candidate(candidates)
    write_calibration_report(path, "default", cand.threshold, cand.percentile, None, candidates)
    return cand.threshold


def evaluate(method: str, labels, scores, threshold: float,
             train_time_s: float = 0.0, inference_time_s: float = 0.0) -> EvalReport:
    """One report row: thresholded confusion counts, P/R/F1 and ROC AUC."""
    cm = confusion(labels, (scores > threshold).astype(int))
    p, r, f1 = precision_recall_f1(cm)
    return EvalReport(
        method=method, train_time_s=train_time_s, inference_time_s=inference_time_s,
        roc_auc=roc_auc(labels, scores), precision=p, recall=r, f1=f1,
        confusion=cm, threshold=threshold,
    )


# --- single-stage commands --------------------------------------------------

def cmd_features(args) -> int:
    cfg = _load_run_config(args)
    with _stage("features"):
        intervals = read_intervals(args.labels) if args.labels else None
        path, frames, _ = write_features(args.wav, intervals, args.out, cfg)
    print(f"wrote {path} ({frames.num_frames} frames)")
    return 0


def cmd_train(args) -> int:
    cfg = _load_run_config(args)
    with _stage("train"):
        detector = train_detector(DETECTORS[args.detector](cfg), cfg, feat.load_frames(args.frames), args.out)
    print(f"trained {args.detector} in {detector.train_time_s:.3f} s -> {args.out}")
    return 0


def cmd_score(args) -> int:
    with _stage("score"):
        detector = restore(args.model)
        frames = feat.load_frames(args.frames)
        series, infer_time = timed(lambda: detector.score(frames))
        write_vector(args.out, series.scores)
    print(f"scored {series.scores.size} frames in {infer_time:.3f} s -> {args.out}")
    return 0


def cmd_calibrate(args) -> int:
    if bool(args.calib_frames) != bool(args.calib_labels):
        raise ValueError("calibrate needs both --calib-frames and --calib-labels, or neither")
    with _stage("calibrate"):
        detector = restore(args.model)
        val_frames = feat.load_frames(args.val_frames)
        calib_frames = calib_labels = None
        if args.calib_frames:
            calib_frames = feat.load_frames(args.calib_frames)
            calib_labels = frame_labels(read_intervals(args.calib_labels), calib_frames)
        threshold = calibrate_detector(detector, val_frames, calib_frames, calib_labels, args.out)
    print(f"threshold {threshold:.6g} -> {args.out}")
    return 0


def cmd_eval(args) -> int:
    if (args.threshold is None) == (not args.calibration):
        raise ValueError("eval needs --threshold or --calibration, exactly one")
    if args.threshold is not None and not np.isfinite(args.threshold):
        raise ValueError(f"--threshold must be finite, got {args.threshold}")
    with _stage("eval"):
        scores = read_vector(args.scores)
        labels = read_vector(args.labels, _parse_label)
        threshold = args.threshold if args.threshold is not None else read_calibration_threshold(args.calibration)
        report = evaluate(args.method, labels, scores, threshold)
        Path(args.out).write_text(json.dumps(dataclasses.asdict(report), indent=2, sort_keys=True) + "\n")
    print(f"roc_auc {report.roc_auc:.4f} precision {report.precision:.4f} "
          f"recall {report.recall:.4f} f1 {report.f1:.4f}")
    return 0


# --- inspect ----------------------------------------------------------------

def write_inspect(wav, out, cfg: RunConfig) -> None:
    """Write the Mel dB, MFCC and FFT amplitude matrices of one wav into <out>."""
    out = Path(out)
    clip = load_wav(wav)
    mel_db = feat.clip_mel_db(clip, cfg.n_fft, cfg.hop_length, cfg.n_mels, cfg.fmin, cfg.fmax)
    coeffs = feat.mfcc(mel_db, n_mfcc=min(13, cfg.n_mels))
    freqs, amps = feat.fft_amplitude_spectrum(clip)
    out.mkdir(parents=True, exist_ok=True)
    write_matrix(out / "mel_db.tsv", "mel_db", mel_db.values)
    write_matrix(out / "mfcc.tsv", "mfcc", coeffs)
    write_matrix(out / "fft_amplitude.tsv", "fft_amplitude", np.vstack([freqs, amps]))


def cmd_inspect(args) -> int:
    cfg = _load_run_config(args)
    with _stage("inspect"):
        write_inspect(args.wav, args.out, cfg)
    print(f"wrote inspect artifacts to {args.out}")
    return 0


# --- bench ------------------------------------------------------------------

def _split_records(records: list[ManifestRecord]) -> dict[str, list[ManifestRecord]]:
    """Group records by split; stems must be unique, as each names a <stem>.frames archive."""
    stems = [rec.wav.stem for rec in records]
    shared = sorted({stem for stem in stems if stems.count(stem) > 1})
    if shared:
        raise PipelineError(f"records share the file stem(s) {', '.join(shared)}; their archives would collide")
    by_split: dict[str, list[ManifestRecord]] = {}
    for rec in records:
        by_split.setdefault(rec.split, []).append(rec)
    for needed in ("train", "val", "test"):
        if needed not in by_split:
            raise PipelineError(f"manifest has no {needed} records")
    return by_split


def _features_for(records: list[ManifestRecord], intervals: dict, out_dir: Path, cfg: RunConfig):
    """Write each record's frame archive and stack the tensors written, which equal the archives.

    intervals maps a labeled record's wav to its read_intervals. The stacked
    labels are None when no record in the split has a labels file.
    """
    tensors = []
    labels_list = []
    for rec in records:
        _, frames, labels = write_features(rec.wav, intervals.get(rec.wav), out_dir, cfg)
        tensors.append(frames)
        labels_list.append(labels if labels is not None else np.zeros(frames.num_frames, dtype=int))
    if len({(t.n_mels, t.frame_size, t.hop_size, t.sample_rate, t.hop_length) for t in tensors}) > 1:
        raise PipelineError("records in one split disagree on feature geometry")
    stacked = dataclasses.replace(tensors[0], parts=tuple(part for t in tensors for part in t.parts))
    labeled = any(rec.labels is not None for rec in records)
    return stacked, np.concatenate(labels_list) if labeled else None


def _format_report_table(rows: list[EvalReport]) -> str:
    headers = ["Method", "Train Time (s)", "ROC AUC", "Precision", "Recall",
               "F1-Score", "Inference Time (s)"]
    table = [headers]
    for r in rows:
        table.append([
            r.method, f"{r.train_time_s:.4f}", f"{r.roc_auc:.4f}", f"{r.precision:.4f}",
            f"{r.recall:.4f}", f"{r.f1:.4f}", f"{r.inference_time_s:.4f}",
        ])
    widths = [max(len(row[i]) for row in table) for i in range(len(headers))]
    lines = []
    for row in table:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip())
    lines.append("")
    for r in rows:
        cm = r.confusion
        lines.append(
            f"{r.method} confusion: tp={cm.tp} fp={cm.fp} tn={cm.tn} fn={cm.fn} "
            f"(threshold {r.threshold:.6g})"
        )
    return "\n".join(lines) + "\n"


def cmd_bench(args) -> int:
    cfg = _load_run_config(args)
    out = Path(args.out)
    by_split = _split_records(load_manifest(args.manifest))
    detectors = {}
    for kind, build in DETECTORS.items():  # a constructor checks its settings: fail before any archive
        with _stage(f"train[{kind}]"):
            detectors[kind] = build(cfg)

    with _stage("features"):
        # every labels file parses before the first archive is written
        intervals = {rec.wav: read_intervals(rec.labels)
                     for recs in by_split.values() for rec in recs if rec.labels}
        train_frames, _ = _features_for(by_split["train"], intervals, out, cfg)
        val_frames, _ = _features_for(by_split["val"], intervals, out, cfg)
        calib_frames, calib_labels = (None, None)
        if "calib" in by_split:
            calib_frames, calib_labels = _features_for(by_split["calib"], intervals, out, cfg)
        test_frames, test_labels = _features_for(by_split["test"], intervals, out, cfg)

    reports = []
    for kind, detector in detectors.items():
        with _stage(f"train[{kind}]"):
            train_detector(detector, cfg, train_frames, out / f"{kind}.model")
        with _stage(f"calibrate[{kind}]"):
            threshold = calibrate_detector(
                detector, val_frames, calib_frames, calib_labels, out / f"{kind}.calibration"
            )
        with _stage(f"score[{kind}]"):
            series, infer_time = timed(lambda: detector.score(test_frames))
            write_vector(out / f"{kind}.scores", series.scores)
        with _stage(f"eval[{kind}]"):
            reports.append(evaluate(
                kind, test_labels, series.scores, threshold, detector.train_time_s, infer_time
            ))

    write_vector(out / "test.framelabels.all", test_labels, fmt="%d")
    payload = {
        "config_digest": cfg.digest().hex(),
        "seed": cfg.seed,
        "rows": [dataclasses.asdict(r) for r in reports],
    }
    (out / "report.json").write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    (out / "report.txt").write_text(_format_report_table(reports))

    with _stage("inspect"):
        write_inspect(by_split["test"][0].wav, out / "inspect", cfg)
    print(f"wrote inspect artifacts to {out / 'inspect'}")

    print((out / "report.txt").read_text())
    return 0


# --- entry point --------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aad", description="Acoustic anomaly detection pipeline"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="key = value config file")

    def seeded(p):
        common(p)
        p.add_argument("--seed", type=int, default=None, help="override config seed")

    p = sub.add_parser("synth", help="generate a synthetic labeled dataset")
    seeded(p)
    p.add_argument("--out", required=True)
    p.add_argument("--mode", choices=("knocks", "rare"), default="knocks")
    p.add_argument("--normal-s", type=float, dest="normal_s",
                   help="total normal audio seconds (default 780, rare: 1200)")
    p.add_argument("--anomalous-s", type=float, dest="anomalous_s",
                   help="knocks only: total knock-injected seconds (default 210)")
    p.add_argument("--rate", type=float, help="knocks only: knocks per minute (default 12)")
    p.add_argument("--train-frac", type=float, dest="train_frac",
                   help="knocks only: fraction of normal audio used for train, the rest is val (default 0.875)")
    p.add_argument("--calib-frac", type=float, dest="calib_frac",
                   help="knocks only: fraction of anomalous audio used for calib, the rest is test (default 0.5)")
    p.add_argument("--transient-s", type=float, dest="transient_s",
                   help="rare only: transient duration in seconds (default 5)")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("features", help="wav -> frame archive")
    common(p)
    p.add_argument("--wav", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--labels", help="interval labels file; also emits frame labels")
    p.set_defaults(func=cmd_features)

    p = sub.add_parser("train", help="fit one detector on a frame archive")
    seeded(p)
    p.add_argument("--frames", required=True)
    p.add_argument("--detector", required=True, choices=tuple(DETECTORS))
    p.add_argument("--out", required=True, help="model file path")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("calibrate", help="pick a threshold from validation scores")
    common(p)  # reads no setting; the stream benchmark passes --config
    p.add_argument("--model", required=True)
    p.add_argument("--val-frames", required=True, dest="val_frames")
    p.add_argument("--calib-frames", dest="calib_frames")
    p.add_argument("--calib-labels", dest="calib_labels")
    p.add_argument("--out", required=True, help="calibration report path")
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("score", help="score a frame archive with a model")
    p.add_argument("--model", required=True)
    p.add_argument("--frames", required=True)
    p.add_argument("--out", required=True, help="scores file path")
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("eval", help="metrics from scores + frame labels")
    p.add_argument("--scores", required=True)
    p.add_argument("--labels", required=True, help="frame labels file (0/1 per line)")
    p.add_argument("--threshold", type=float, default=None)
    p.add_argument("--calibration", help="calibration report to read the threshold from")
    p.add_argument("--method", default="detector")
    p.add_argument("--out", required=True, help="report JSON path")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("bench", help="full benchmark over a manifest")
    seeded(p)
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("inspect", help="numeric Mel/MFCC/FFT views of one wav")
    common(p)
    p.add_argument("--wav", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_inspect)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except PipelineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
