"""Shared detector contract: frame vectorization, score series, persistence.

All detectors fit on normal-only frames and emit one score per frame with
higher = more anomalous. Model files are self-describing: kind and config
digest are readable without touching the parameter blocks.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    CorruptModelFileError,
    DimensionMismatchError,
    StandardizerMissingError,
    VersionMismatchError,
)
from .features import FrameTensor

MODEL_MAGIC = b"AADMODEL"
MODEL_VERSION = 1
_HEADER_LEN = len(MODEL_MAGIC) + 4 + 8 + 32  # magic, version, kind tag, config digest

POOL_FLATTEN = "flatten"
POOL_MEAN_TIME = "mean_pool_time"

KIND_KMEANS = "kmeans"
KIND_OCSVM = "ocsvm"
KIND_LSTM_AE = "lstmae"


@dataclass(frozen=True)
class Standardizer:
    """Per-dimension mean/std fitted on training rows.

    Zero-variance dimensions are mapped to 0 on every input (they carry no
    information and would otherwise divide by zero).
    """

    mean: np.ndarray
    std: np.ndarray

    def apply(self, rows: np.ndarray) -> np.ndarray:
        safe = np.where(self.std > 0, self.std, 1.0)
        z = (rows - self.mean) / safe
        z[:, self.std == 0] = 0.0
        return z

    @staticmethod
    def fit(rows: np.ndarray) -> "Standardizer":
        return Standardizer(mean=rows.mean(axis=0), std=rows.std(axis=0))


@dataclass(frozen=True)
class FeatureMatrix:
    rows: np.ndarray            # [num_frames x d]
    origin_columns: np.ndarray


@dataclass(frozen=True)
class AnomalyScoreSeries:
    """One score per frame; higher means more anomalous."""

    scores: np.ndarray
    origin_columns: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.scores, dtype=np.float64)
        if not np.all(np.isfinite(s)):
            raise ValueError("scores must be finite")
        if s.size != np.asarray(self.origin_columns).size:
            raise ValueError("one score per frame origin required")
        object.__setattr__(self, "scores", s)


def pool_frames(frames: FrameTensor, pooling: str) -> np.ndarray:
    """Flatten each frame row-major, or average it over the time axis."""
    if pooling == POOL_FLATTEN:
        return frames.frames.reshape(frames.num_frames, -1).copy()
    if pooling == POOL_MEAN_TIME:
        return frames.frames.mean(axis=2)
    raise ValueError(f"unknown pooling {pooling!r}")


def _as_rows(X) -> tuple[np.ndarray, np.ndarray]:
    """Rows and frame origins of a FeatureMatrix; a bare array gets origins 0..n-1."""
    if isinstance(X, FeatureMatrix):
        return X.rows, X.origin_columns
    rows = np.asarray(X, dtype=np.float64)
    return rows, np.arange(rows.shape[0], dtype=np.int64)


class Vectorizer:
    """Stateful vectorization for the detector wrappers.

    fit() learns per-dimension statistics from training frames; transform()
    reuses them and refuses to run before fitting when standardization is on.
    Standardization can be disabled entirely (the autoencoder path consumes
    raw [0, 1] frames).
    """

    def __init__(self, pooling: str = POOL_FLATTEN, standardize: bool = True):
        self.pooling = pooling
        self.standardize = standardize
        self.standardizer: Standardizer | None = None

    def fit(self, frames: FrameTensor) -> FeatureMatrix:
        rows = pool_frames(frames, self.pooling)
        if self.standardize:
            self.standardizer = Standardizer.fit(rows)
            rows = self.standardizer.apply(rows)
        return FeatureMatrix(rows=rows, origin_columns=frames.origin_columns)

    def transform(self, frames: FrameTensor) -> FeatureMatrix:
        rows = pool_frames(frames, self.pooling)
        if self.standardize:
            if self.standardizer is None:
                raise StandardizerMissingError("transform before fit: no stored statistics")
            rows = self.standardizer.apply(rows)
        return FeatureMatrix(rows=rows, origin_columns=frames.origin_columns)


class Detector:
    """Uniform fit/score surface over frames, implemented per detector kind."""

    kind: str = ""

    def __init__(self):
        self.config_digest: bytes = b"\x00" * 32
        self.train_time_s: float = 0.0
        self.seed: int = 0

    def fit(self, frames: FrameTensor) -> "Detector":
        raise NotImplementedError

    def score(self, frames: FrameTensor) -> AnomalyScoreSeries:
        raise NotImplementedError

    def persist(self, path) -> None:
        persist(self, path)


# --- model file format --------------------------------------------------

class _Writer:
    def __init__(self):
        self.chunks: list[bytes] = []

    def floats(self, arr) -> None:
        self.chunks.append(np.ascontiguousarray(arr, dtype="<f8").tobytes())

    def scalar(self, x: float) -> None:
        self.chunks.append(struct.pack("<d", float(x)))

    def payload(self) -> bytes:
        return b"".join(self.chunks)


class _Reader:
    def __init__(self, buf: bytes, path):
        self.buf = buf
        self.offset = 0
        self.path = path

    def floats(self, count: int) -> np.ndarray:
        end = self.offset + count * 8
        if end > len(self.buf):
            raise CorruptModelFileError(f"{self.path}: truncated parameter block")
        out = np.frombuffer(self.buf[self.offset : end], dtype="<f8").copy()
        self.offset = end
        return out

    def scalar(self) -> float:
        return float(self.floats(1)[0])

    def integer(self) -> int:
        value = self.scalar()
        if not float(value).is_integer():
            raise CorruptModelFileError(f"{self.path}: expected integer block, got {value}")
        return int(value)

    def done(self) -> None:
        if self.offset != len(self.buf):
            raise CorruptModelFileError(f"{self.path}: {len(self.buf) - self.offset} trailing bytes")


def _write_standardizer(w: _Writer, pooling: str, standardizer: Standardizer | None) -> None:
    w.scalar(0.0 if pooling == POOL_FLATTEN else 1.0)
    if standardizer is None:
        w.scalar(0.0)
        return
    w.scalar(1.0)
    w.scalar(standardizer.mean.size)
    w.floats(standardizer.mean)
    w.floats(standardizer.std)


def _read_standardizer(r: _Reader) -> tuple[str, Standardizer | None]:
    pooling = POOL_FLATTEN if r.integer() == 0 else POOL_MEAN_TIME
    if r.integer() == 0:
        return pooling, None
    d = r.integer()
    mean = r.floats(d)
    std = r.floats(d)
    return pooling, Standardizer(mean=mean, std=std)


def persist(detector: Detector, path) -> None:
    """Write a detector to the model file format."""
    w = _Writer()
    detector._pack(w)
    kind_tag = detector.kind.encode("ascii").ljust(8, b"\x00")
    header = MODEL_MAGIC + struct.pack("<I", MODEL_VERSION) + kind_tag + detector.config_digest
    Path(path).write_bytes(header + w.payload())


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
    return _parse_header(Path(path).read_bytes(), path)


def restore(path) -> Detector:
    """Load any persisted detector; scores reproduce the original bit-exactly."""
    from . import kmeans, lstm_ae, ocsvm  # deferred: those modules import this one

    raw = Path(path).read_bytes()
    kind, version, digest = _parse_header(raw, path)
    if version > MODEL_VERSION:
        raise VersionMismatchError(f"{path}: model version {version} > supported {MODEL_VERSION}")
    loaders = {
        KIND_KMEANS: kmeans.KMeansDetector._unpack,
        KIND_OCSVM: ocsvm.OcSvmDetector._unpack,
        KIND_LSTM_AE: lstm_ae.LstmAeDetector._unpack,
    }
    if kind not in loaders:
        raise CorruptModelFileError(f"{path}: unknown detector kind {kind!r}")
    reader = _Reader(raw[_HEADER_LEN:], path)
    detector = loaders[kind](reader)
    reader.done()
    detector.config_digest = digest
    return detector


def check_dim(expected: int, got: int) -> None:
    if expected != got:
        raise DimensionMismatchError(f"feature dimension {got} != model dimension {expected}")
