"""Shared detector contract: frame vectorization, score series, persistence.

All detectors fit on normal-only frames and emit one score per frame with
higher = more anomalous. Model files are self-describing: kind and config
digest are readable without touching the parameter blocks.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, fields
from pathlib import Path
from typing import get_origin, get_type_hints

import numpy as np

from .blocks import block, decode_blocks, encode_blocks
from .errors import (
    CorruptModelFileError,
    DimensionMismatchError,
    NonFiniteScoresError,
    StandardizerMissingError,
    VersionMismatchError,
)
from .features import FrameTensor

MODEL_MAGIC = b"AADMODEL"
MODEL_VERSION = 2
_HEADER_LEN = len(MODEL_MAGIC) + 4 + 8 + 32  # magic, version, kind tag, config digest

KIND_KMEANS = "kmeans"
KIND_OCSVM = "ocsvm"
KIND_LSTM_AE = "lstmae"


@dataclass(frozen=True)
class AnomalyScoreSeries:
    """One score per frame; higher means more anomalous."""

    scores: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.scores, dtype=np.float64)
        if not np.all(np.isfinite(s)):
            raise NonFiniteScoresError("scores must be finite")
        object.__setattr__(self, "scores", s)


def _sq_distances(A: np.ndarray, B: np.ndarray, a_sq=None, b_sq=None) -> np.ndarray:
    """Row-pair squared distances; a_sq / b_sq reuse np.sum(A**2, axis=1) / np.sum(B**2, axis=1)."""
    d2 = (
        (np.sum(A**2, axis=1) if a_sq is None else a_sq)[:, None]
        + (np.sum(B**2, axis=1) if b_sq is None else b_sq)[None, :]
        - 2.0 * A @ B.T
    )
    return np.maximum(d2, 0.0)


class Vectorizer:
    """Standardized frame rows for K-Means and OC-SVM.

    Each frame is flattened row-major ([n_mels x frame_size] -> one row).
    fit() learns the frame shape and per-dimension mean/std from training
    frames; transform() reuses them and refuses to run before fitting or on
    frames of another shape. Zero-variance dimensions are mapped to 0 on
    every input (they carry no information and would otherwise divide by zero).
    """

    def __init__(self):
        self.mean: np.ndarray | None = None
        self.std: np.ndarray | None = None
        self.frame_shape: tuple[int, ...] | None = None  # None: a model file that predates it

    def fit(self, frames: FrameTensor) -> np.ndarray:
        rows = frames.frames.reshape(frames.num_frames, -1)
        self.mean, self.std = rows.mean(axis=0), rows.std(axis=0)
        self.frame_shape = frames.frames.shape[1:]
        return self._standardize(rows)

    def transform(self, frames: FrameTensor) -> np.ndarray:
        if self.mean is None:
            raise StandardizerMissingError("transform before fit: no stored statistics")
        rows = frames.frames.reshape(frames.num_frames, -1)
        check_dim(self.mean.size, rows.shape[1])
        shape = frames.frames.shape[1:]
        if self.frame_shape is not None and shape != self.frame_shape:
            raise DimensionMismatchError(f"frame shape {shape} != model frame shape {self.frame_shape}")
        return self._standardize(rows)

    def _standardize(self, rows: np.ndarray) -> np.ndarray:
        z = (rows - self.mean) / np.where(self.std > 0, self.std, 1.0)
        z[:, self.std == 0] = 0.0
        return z


class Detector:
    """Uniform fit/score surface over frames, implemented per detector kind."""

    kind: str = ""

    def __init__(self):
        self.config_digest: bytes = b"\x00" * 32
        self.train_time_s: float = 0.0
        self.seed: int = 0
        self.model = None

    def fit(self, frames: FrameTensor) -> "Detector":
        raise NotImplementedError

    def score(self, frames: FrameTensor) -> AnomalyScoreSeries:
        raise NotImplementedError

    def persist(self, path) -> None:
        persist(self, path)


# --- model file format --------------------------------------------------

_SCALAR_DTYPES = {int: "<i8", bool: "<i8", float: "<f8"}


def persist(detector: Detector, path) -> None:
    """Write a detector: the header, then one named block per model field.

    The model dataclass's annotations fix each block's type: int and bool
    fields are "<i8" scalars, float fields "<f8" scalars, tuples and arrays
    "<f8", and a dict field one scalar per key ("extra.objective"). The
    detector adds train_time_s and, with a vectorizer, its mean, std and
    frame_shape.
    """
    model = detector.model
    if model is None:
        raise ValueError("cannot persist an unfitted detector")
    blocks = {"train_time_s": float(detector.train_time_s)}
    hints = get_type_hints(type(model))
    for f in fields(model):
        value, hint = getattr(model, f.name), hints[f.name]
        if hint is dict:
            blocks.update({f"{f.name}.{key}": float(v) for key, v in value.items()})
        else:
            blocks[f.name] = hint(value) if hint in _SCALAR_DTYPES else value
    vectorizer = getattr(detector, "vectorizer", None)
    if vectorizer is not None:
        blocks["mean"] = vectorizer.mean
        blocks["std"] = vectorizer.std
        if vectorizer.frame_shape is not None:
            blocks["frame_shape"] = vectorizer.frame_shape
    kind_tag = detector.kind.encode("ascii").ljust(8, b"\x00")
    header = MODEL_MAGIC + struct.pack("<I", MODEL_VERSION) + kind_tag + detector.config_digest
    Path(path).write_bytes(header + encode_blocks(blocks, header))


def _model_from_blocks(model_type, blocks: dict, path):
    """Rebuild a model dataclass, taking each field's block type from its annotation."""
    hints = get_type_hints(model_type)
    values = {}
    for f in fields(model_type):
        hint = hints[f.name]
        if hint is dict:
            prefix = f"{f.name}."
            values[f.name] = {
                name[len(prefix):]: float(block(blocks, name, path, ndim=0))
                for name in blocks if name.startswith(prefix)
            }
        elif hint is np.ndarray:
            values[f.name] = block(blocks, f.name, path).copy()
        elif get_origin(hint) is tuple:
            values[f.name] = tuple(block(blocks, f.name, path, ndim=1).tolist())
        else:
            values[f.name] = hint(block(blocks, f.name, path, _SCALAR_DTYPES[hint], ndim=0))
    return model_type(**values)


def _parse_header(raw: bytes, path) -> tuple[str, int, bytes]:
    if len(raw) < _HEADER_LEN or raw[: len(MODEL_MAGIC)] != MODEL_MAGIC:
        raise CorruptModelFileError(f"{path}: not a model file")
    (version,) = struct.unpack_from("<I", raw, len(MODEL_MAGIC))
    try:
        kind = raw[len(MODEL_MAGIC) + 4 : len(MODEL_MAGIC) + 12].rstrip(b"\x00").decode("ascii")
    except UnicodeDecodeError as exc:
        raise CorruptModelFileError(f"{path}: kind tag is not ASCII") from exc
    digest = raw[len(MODEL_MAGIC) + 12 : _HEADER_LEN]
    return kind, version, digest


def read_model_header(path) -> tuple[str, int, bytes]:
    """Kind tag, format version and config digest without loading parameters."""
    with open(path, "rb") as fh:
        return _parse_header(fh.read(_HEADER_LEN), path)


def restore(path) -> Detector:
    """Load any persisted detector; scores reproduce the original bit-exactly.

    The model carries everything scoring needs; constructor settings that
    only fit() reads (k, nu, hidden, tolerances) keep their class defaults.
    """
    from . import kmeans, lstm_ae, ocsvm  # deferred: those modules import this one

    raw = Path(path).read_bytes()
    kind, version, digest = _parse_header(raw, path)
    if version != MODEL_VERSION:
        raise VersionMismatchError(f"{path}: model version {version}, supported {MODEL_VERSION}")
    types = {
        KIND_KMEANS: (kmeans.KMeansDetector, kmeans.KMeansModel),
        KIND_OCSVM: (ocsvm.OcSvmDetector, ocsvm.OcSvmModel),
        KIND_LSTM_AE: (lstm_ae.LstmAeDetector, lstm_ae.LstmAeModel),
    }
    if kind not in types:
        raise CorruptModelFileError(f"{path}: unknown detector kind {kind!r}")
    detector_type, model_type = types[kind]
    blocks = decode_blocks(memoryview(raw)[_HEADER_LEN:], path, raw[:_HEADER_LEN])
    detector = detector_type()
    detector.model = _model_from_blocks(model_type, blocks, path)
    detector.train_time_s = float(block(blocks, "train_time_s", path, ndim=0))
    detector.config_digest = digest
    if hasattr(detector, "vectorizer"):
        vectorizer = detector.vectorizer
        vectorizer.mean = block(blocks, "mean", path, ndim=1).copy()
        vectorizer.std = block(blocks, "std", path, ndim=1).copy()
        if "frame_shape" in blocks:
            vectorizer.frame_shape = tuple(block(blocks, "frame_shape", path, "<i8", ndim=1).tolist())
    return detector


def check_dim(expected: int, got: int) -> None:
    if expected != got:
        raise DimensionMismatchError(f"feature dimension {got} != model dimension {expected}")
