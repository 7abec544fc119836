"""Spans around calls into the public functions of every ``aad`` module.

The tracer lives in the benchmark, not in the program: ``install`` replaces
each public function and public method of ``aad.*`` with a timing wrapper,
in every namespace that binds it (``aad.cli.load_wav`` as well as
``aad.audio_io.load_wav``), so a call is seen whichever name the caller
looks up. ``uninstall`` puts the originals back.

A span records name, start, end and parent. Spans are kept in memory and
reduced to per-layer numbers by ``layer_metrics``. Arguments and results
are never retained; a few probes copy the counts the layer metrics need
(frame counts, solver iterations, file sizes) when the call returns.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import os
import time
from dataclasses import dataclass, field

MODULES = (
    "audio_io", "calibration", "cli", "config", "detector_api", "errors",
    "features", "kmeans", "lstm_ae", "metrics", "ocsvm", "synthgen",
)


@dataclass
class Span:
    name: str
    parent: "Span | None"
    start: float = 0.0
    end: float = 0.0
    facts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def ancestors(self):
        node = self.parent
        while node is not None:
            yield node
            node = node.parent


def _rows(x) -> int:
    if hasattr(x, "num_frames"):
        return int(x.num_frames)
    if hasattr(x, "rows"):
        return int(x.rows.shape[0])
    return int(x.shape[0])


def _file_bytes(path) -> int:
    return os.path.getsize(path) if os.path.exists(path) else 0


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


# name -> probe(args, kwargs, result) -> facts; only small numbers are kept.
PROBES = {
    "audio_io.load_wav": lambda a, k, r: {"bytes": _file_bytes(_arg(a, k, 0, "path"))},
    "features.frame_pipeline": lambda a, k, r: {"audio_s": a[0].duration_s},
    "features.save_frames": lambda a, k, r: {
        "bytes": _file_bytes(a[1]) + _file_bytes(f"{a[1]}.meta")},
    "detector_api.persist": lambda a, k, r: {"bytes": _file_bytes(_arg(a, k, 1, "path"))},
    "lstm_ae.lstm_ae_forward": lambda a, k, r: {"frames": int(r.mse.size)},
    "lstm_ae.lstm_ae_train": lambda a, k, r: {
        "n": _rows(a[1]), "epochs": r.epochs, "batch": r.batch_size, "final_loss": r.final_loss,
        "T": int(getattr(a[1], "frame_size", 0) or a[1].shape[1]),
        "M": r.input_dim, "h": r.hidden},
    "ocsvm.ocsvm_fit": lambda a, k, r: {
        "n": _rows(a[0]), "d": int(r.support_vectors.shape[1]), "iterations": r.iterations,
        "n_sv": int(r.alphas.size), "kkt_gap": r.kkt_violation},
    "ocsvm.ocsvm_decision": lambda a, k, r: {"frames": int(r.size)},
    "kmeans.kmeans_fit": lambda a, k, r: {
        "n": _rows(a[0]), "d": int(r.centroids.shape[1]), "k": r.k, "iterations": r.iterations_run},
}


class Tracer:
    """Installs timing wrappers on ``aad`` and collects their spans."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        probe = PROBES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, self._stack[-1] if self._stack else None)
            self._stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                self.spans.append(span)
            if probe is not None:
                span.facts = probe(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        modules = {short: importlib.import_module(f"aad.{short}") for short in MODULES}
        namespaces = [importlib.import_module("aad"), *modules.values()]
        for short, module in modules.items():
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapper = self._wrap(f"{short}.{attr}", obj)
                    for ns in namespaces:
                        for bound, value in list(vars(ns).items()):
                            if value is obj:
                                self._replace(ns, bound, wrapper)
                elif inspect.isclass(obj):
                    for meth, fn in list(vars(obj).items()):
                        if not meth.startswith("_") and inspect.isfunction(fn):
                            self._replace(obj, meth, self._wrap(f"{short}.{attr}.{meth}", fn))

    def _replace(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


# --- reduction to per-layer metrics --------------------------------------

def _select(spans, names, inside=(), outside=()):
    """Spans named in ``names``, optionally required to sit under (or not
    under) a span named in ``inside`` / ``outside``."""
    out = []
    for s in spans:
        if s.name not in names:
            continue
        up = {a.name for a in s.ancestors()}
        if inside and not up & set(inside):
            continue
        if outside and up & set(outside):
            continue
        out.append(s)
    return out


def _busy(spans, names, inside=(), outside=()) -> float:
    """Wall time covered by the selected spans, counting nested ones once."""
    chosen = _select(spans, names, inside, outside)
    return sum(s.duration for s in chosen if not any(a.name in names for a in s.ancestors()))


def _fact_sum(spans, name, key):
    return sum(s.facts.get(key, 0) for s in spans if s.name == name)


def _last_fact(spans, name, key, default=0.0):
    found = [s.facts[key] for s in spans if s.name == name and key in s.facts]
    return found[-1] if found else default


def lstm_forward_flop(T: int, M: int, h: int) -> float:
    """Multiply-add FLOPs of one frame through encoder, decoder and projection."""
    return T * (2 * 4 * h * (M + h) + 2 * 4 * h * (2 * h) + 2 * h * M)


def _rate(count, seconds):
    return count / seconds if seconds > 0 else 0.0


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer numbers from one traced setup plus one traced iteration.

    Times are in seconds of wall time covered by the layer's spans. Counters
    marked ``computed`` in the README are derived from returned models and
    array shapes, not counted inside the program.
    """
    m: dict[str, float] = {}
    train = "lstm_ae.lstm_ae_train"
    fwd = "lstm_ae.lstm_ae_forward"
    train_spans = [s for s in spans if s.name == train]
    m["lstm_ae.train_s"] = _busy(spans, {train})
    batches = 0
    gflop = 0.0
    for s in train_spans:
        f = s.facts
        per_epoch = math.ceil(f["n"] / f["batch"]) if f["batch"] else 0
        batches += f["epochs"] * per_epoch
        # one full-data loss pass, then forward + backward (about 2x forward) per step
        gflop += (f["n"] + 3 * f["epochs"] * f["n"]) * lstm_forward_flop(f["T"], f["M"], f["h"]) / 1e9
    inner_fwd = _busy(spans, {fwd}, inside={train})
    m["lstm_ae.batches"] = batches
    m["lstm_ae.batch_ms"] = 1000.0 * (m["lstm_ae.train_s"] - inner_fwd) / batches if batches else 0.0
    m["lstm_ae.final_loss"] = _last_fact(spans, train, "final_loss")
    m["lstm_ae.train_gflop"] = gflop
    m["lstm_ae.forward_s"] = _busy(spans, {fwd}, outside={train})
    fwd_frames = sum(s.facts["frames"] for s in _select(spans, {fwd}, outside={train}))
    m["lstm_ae.forward_frames_per_s"] = _rate(fwd_frames, m["lstm_ae.forward_s"])

    fit = "ocsvm.ocsvm_fit"
    fits = [s.facts for s in spans if s.name == fit]
    m["ocsvm.fit_s"] = _busy(spans, {fit})
    m["ocsvm.smo_iterations"] = sum(f["iterations"] for f in fits)
    m["ocsvm.n_sv"] = fits[-1]["n_sv"] if fits else 0
    m["ocsvm.kkt_gap"] = fits[-1]["kkt_gap"] if fits else 0.0
    # each SMO step fetches at most two kernel rows, each streaming the n x d float64 train matrix
    m["ocsvm.kernel_row_gb_bound"] = sum(2 * f["iterations"] * f["n"] * f["d"] * 8 for f in fits) / 1e9
    dec = "ocsvm.ocsvm_decision"
    m["ocsvm.decision_s"] = _busy(spans, {dec})
    m["ocsvm.decision_frames_per_s"] = _rate(_fact_sum(spans, dec, "frames"), m["ocsvm.decision_s"])

    km = "kmeans.kmeans_fit"
    kfits = [s.facts for s in spans if s.name == km]
    m["kmeans.fit_s"] = _busy(spans, {km})
    m["kmeans.iterations"] = sum(f["iterations"] for f in kfits)
    # one n x k x d distance GEMM per Lloyd iteration plus the final inertia pass
    m["kmeans.distance_gflop"] = sum(
        2 * (f["iterations"] + 1) * f["n"] * f["k"] * f["d"] for f in kfits) / 1e9
    m["kmeans.iteration_ms"] = (
        1000.0 * m["kmeans.fit_s"] / m["kmeans.iterations"] if m["kmeans.iterations"] else 0.0)
    m["kmeans.score_s"] = _busy(spans, {"kmeans.kmeans_score"})

    m["detector_api.vectorize_s"] = _busy(
        spans, {"detector_api.Vectorizer.fit", "detector_api.Vectorizer.transform"})
    m["detector_api.persist_s"] = _busy(spans, {"detector_api.persist"})
    m["detector_api.restore_s"] = _busy(spans, {"detector_api.restore"})
    m["detector_api.model_bytes"] = _fact_sum(spans, "detector_api.persist", "bytes")

    pipe = "features.frame_pipeline"
    m["features.pipeline_s"] = _busy(spans, {pipe})
    m["features.calls"] = sum(1 for s in spans if s.name == pipe)
    m["features.audio_x_realtime"] = _rate(_fact_sum(spans, pipe, "audio_s"), m["features.pipeline_s"])
    m["features.stft_s"] = _busy(spans, {"features.stft"}, inside={pipe})
    m["features.mel_s"] = _busy(spans, {"features.mel_filterbank", "features.mel_power"}, inside={pipe})
    m["features.db_s"] = _busy(spans, {"features.power_to_db"}, inside={pipe})
    m["features.segment_s"] = _busy(spans, {"features.segment_frames"}, inside={pipe})
    m["features.archive_write_s"] = _busy(spans, {"features.save_frames"})
    m["features.archive_read_s"] = _busy(spans, {"features.load_frames"})
    m["features.archive_bytes"] = _fact_sum(spans, "features.save_frames", "bytes")

    m["audio_io.decode_s"] = _busy(spans, {"audio_io.load_wav"})
    m["audio_io.decode_bytes"] = _fact_sum(spans, "audio_io.load_wav", "bytes")
    m["audio_io.encode_s"] = _busy(spans, {"audio_io.save_wav"})

    m["synthgen.generate_s"] = _busy(
        spans, {"synthgen.gen_normal", "synthgen.inject_knocks", "synthgen.inject_transient"})

    calib = {"calibration.sweep_thresholds", "calibration.select_by_f1", "calibration.default_candidate"}
    m["calibration.select_s"] = _busy(spans, calib)
    m["metrics.eval_s"] = _busy(
        spans, {"metrics.confusion", "metrics.precision_recall_f1", "metrics.roc_auc"}, outside=calib)

    m["cli.inspect_s"] = _busy(spans, {"cli.cmd_inspect"})
    m["cli.text_write_s"] = _busy(
        spans, {"cli.write_vector", "cli.write_matrix", "cli.write_calibration_report"})
    return m
