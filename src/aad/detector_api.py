"""Shared detector contract: frame vectorization, score series, persistence.

All detectors fit on normal-only frames and emit one score per frame with
higher = more anomalous. Model files are self-describing: restore() reads
the header (magic, version, kind tag, config digest) and checks it before it
decodes any parameter block; there is no separate header reader.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, fields
from pathlib import Path
from typing import get_origin, get_type_hints

import numpy as np

from .blocks import block, decode_blocks, encode_blocks
from .errors import NumericError, PipelineError
from .features import FrameTensor

MODEL_MAGIC = b"AADMODEL"
MODEL_VERSION = 2
_HEADER_LEN = len(MODEL_MAGIC) + 4 + 8 + 32  # magic, version, kind tag, config digest


@dataclass(frozen=True)
class AnomalyScoreSeries:
    """One score per frame; higher means more anomalous."""

    scores: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.scores, dtype=np.float64)
        if not np.all(np.isfinite(s)):
            raise NumericError("scores must be finite")
        object.__setattr__(self, "scores", s)


def _sq_distances(A: np.ndarray, B: np.ndarray, a_sq=None, b_sq=None) -> np.ndarray:
    """Row-pair squared distances; a_sq / b_sq reuse np.sum(A**2, axis=1) / np.sum(B**2, axis=1)."""
    d2 = (
        (np.sum(A**2, axis=1) if a_sq is None else a_sq)[:, None]
        + (np.sum(B**2, axis=1) if b_sq is None else b_sq)[None, :]
        - 2.0 * (A @ B.T)  # scales the product: (2.0 * A) would be an n x d temporary
    )
    return np.maximum(d2, 0.0)


def _frame_rows(frames: FrameTensor) -> np.ndarray:
    """A fresh float64 copy of the frames, one flattened frame per row."""
    return np.array(frames.frames, dtype=np.float64, order="C").reshape(frames.num_frames, -1)


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
        self.frame_shape: tuple[int, int] | None = None

    def fit(self, frames: FrameTensor) -> np.ndarray:
        rows = _frame_rows(frames)
        # np.std's bits without a second n x d array: ~256 columns at a time, none alone (numpy sums one column pairwise)
        edges = np.linspace(0, rows.shape[1], -(-rows.shape[1] // 256) + 1).astype(int)
        self.mean, self.std = rows.mean(axis=0), np.concatenate([rows[:, a:b].std(axis=0) for a, b in zip(edges, edges[1:])])
        self.frame_shape = (frames.n_mels, frames.frame_size)
        return self._standardize(rows)

    def transform(self, frames: FrameTensor) -> np.ndarray:
        if self.mean is None:
            raise PipelineError("transform before fit: no stored statistics")
        check_dim(self.mean.size, frames.n_mels * frames.frame_size)
        shape = (frames.n_mels, frames.frame_size)
        if shape != self.frame_shape:
            raise PipelineError(f"frame shape {shape} != model frame shape {self.frame_shape}")
        return self._standardize(_frame_rows(frames))

    def _standardize(self, rows: np.ndarray) -> np.ndarray:
        """Standardize rows in place; zero-variance columns become 0."""
        rows -= self.mean
        rows /= np.where(self.std > 0, self.std, 1.0)
        rows[:, self.std == 0] = 0.0
        return rows


class Detector:
    """Fit on normal frames, then score every frame: one contract for every kind.

    Each kind declares its `kind` tag, its `model_type` dataclass and whether
    it is `vectorized` (consumes standardized rows); its constructor checks
    its `settings`, keyed by the model fields that record them. Two hooks:
    `_fit(inputs)` returns the fitted model, `_score(inputs)` scores with
    `self.model`. A vectorized kind's hooks get its `vectorizer`'s rows
    (fitted by fit(), reused by score()); the others get the frames. persist()
    and restore() carry the vectorizer's statistics for vectorized kinds only.
    """

    kind: str = ""
    model_type: type | None = None
    vectorized: bool = False

    def __init__(self, **settings):
        self.settings = settings
        self.config_digest: bytes = b"\x00" * 32
        self.train_time_s: float = 0.0
        self.model = None
        self.vectorizer = Vectorizer() if self.vectorized else None

    def fit(self, frames: FrameTensor) -> "Detector":
        self.model = self._fit(self.vectorizer.fit(frames) if self.vectorized else frames)
        return self

    def score(self, frames: FrameTensor) -> AnomalyScoreSeries:
        if self.model is None:
            raise ValueError("fit before score")
        return self._score(self.vectorizer.transform(frames) if self.vectorized else frames)

    def persist(self, path) -> None:
        persist(self, path)


# --- model file format --------------------------------------------------

_SCALAR_DTYPES = {int: "<i8", bool: "<i8", float: "<f8"}


def persist(detector: Detector, path) -> None:
    """Write a detector: the header, then one named block per model field.

    The model dataclass's annotations fix each block's type: int and bool
    fields are "<i8" scalars, float fields "<f8" scalars, tuples "<f8",
    arrays the model type's array_dtype ("<f8" for K-Means and OC-SVM, "<f4"
    for the LSTM-AE), and a dict field one scalar per key ("extra.objective").
    An array in any other dtype is a ValueError naming the block, never cast,
    so a file restore() would refuse is never written. The detector adds
    train_time_s and, for a vectorized kind, its vectorizer's mean, std and
    frame_shape.
    """
    model = detector.model
    if model is None:
        raise ValueError("cannot persist an unfitted detector")
    blocks = {"train_time_s": float(detector.train_time_s)}
    hints = get_type_hints(type(model))
    for f in fields(model):
        value, hint = getattr(model, f.name), hints[f.name]
        if hint is np.ndarray and value.dtype != np.dtype(model.array_dtype):
            raise ValueError(f"block {f.name!r} is {value.dtype.str}, {type(model).__name__} stores {model.array_dtype}")
        if hint is dict:
            blocks.update({f"{f.name}.{key}": float(v) for key, v in value.items()})
        else:
            blocks[f.name] = hint(value) if hint in _SCALAR_DTYPES else value
    if detector.vectorized:
        vectorizer = detector.vectorizer
        blocks.update(mean=vectorizer.mean, std=vectorizer.std, frame_shape=vectorizer.frame_shape)
    kind_tag = detector.kind.encode("ascii").ljust(8, b"\x00")
    header = MODEL_MAGIC + struct.pack("<I", MODEL_VERSION) + kind_tag + detector.config_digest
    Path(path).write_bytes(header + encode_blocks(blocks, header))


def _model_from_blocks(model_type, blocks: dict, path):
    """Rebuild a model dataclass, taking each field's block type from its annotation.

    Array fields must be in the model type's array_dtype: a block in any other
    dtype (an LSTM-AE file with "<f8" parameters) is a PipelineError
    naming the block, never cast. So are arrays whose shapes the model type
    refuses (K-Means centroids that are not k rows) and empty models (k = 0).
    """
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
            values[f.name] = block(blocks, f.name, path, model_type.array_dtype).copy()
        elif get_origin(hint) is tuple:
            values[f.name] = tuple(block(blocks, f.name, path, ndim=1).tolist())
        else:
            values[f.name] = hint(block(blocks, f.name, path, _SCALAR_DTYPES[hint], ndim=0))
    try:
        return model_type(**values)
    except ValueError as exc:  # the model type's own rules: arrays that disagree, an empty model
        raise PipelineError(f"{path}: {exc}") from exc


def restore(path) -> Detector:
    """Load any persisted detector; scores reproduce the original bit-exactly.

    The header's kind tag picks the Detector subclass whose `kind` it is
    (importing aad imports every kind); that class's `model_type` rebuilds
    the model from the blocks, its settings are refilled from the model's
    fields, and a vectorized class gets its vectorizer's statistics back.
    The header checks run in this order: magic, kind tag is ASCII, version,
    known kind; the block checksum is checked last.
    """
    raw = Path(path).read_bytes()
    if len(raw) < _HEADER_LEN or raw[: len(MODEL_MAGIC)] != MODEL_MAGIC:
        raise PipelineError(f"{path}: not a model file")
    try:
        kind = raw[len(MODEL_MAGIC) + 4 : len(MODEL_MAGIC) + 12].rstrip(b"\x00").decode("ascii")
    except UnicodeDecodeError as exc:
        raise PipelineError(f"{path}: kind tag is not ASCII") from exc
    (version,) = struct.unpack_from("<I", raw, len(MODEL_MAGIC))
    if version != MODEL_VERSION:
        raise PipelineError(f"{path}: model version {version}, supported {MODEL_VERSION}")
    types = {cls.kind: cls for cls in Detector.__subclasses__()}
    if kind not in types:
        raise PipelineError(f"{path}: unknown detector kind {kind!r}")
    blocks = decode_blocks(memoryview(raw)[_HEADER_LEN:], path, raw[:_HEADER_LEN])
    detector = types[kind]()
    detector.model = _model_from_blocks(detector.model_type, blocks, path)
    detector.settings = {key: getattr(detector.model, key) for key in detector.settings}
    detector.train_time_s = float(block(blocks, "train_time_s", path, ndim=0))
    detector.config_digest = raw[len(MODEL_MAGIC) + 12 : _HEADER_LEN]
    if detector.vectorized:
        vectorizer = detector.vectorizer
        vectorizer.mean = block(blocks, "mean", path, ndim=1).copy()
        vectorizer.std = block(blocks, "std", path, ndim=1).copy()
        vectorizer.frame_shape = tuple(block(blocks, "frame_shape", path, "<i8", ndim=1).tolist())
        if vectorizer.std.shape != vectorizer.mean.shape or math.prod(vectorizer.frame_shape) != vectorizer.mean.size:
            raise PipelineError(f"{path}: blocks 'mean' {vectorizer.mean.shape}, 'std' {vectorizer.std.shape} "
                                f"and 'frame_shape' {vectorizer.frame_shape} disagree")
    return detector


def check_dim(expected: int, got: int) -> None:
    if expected != got:
        raise PipelineError(f"feature dimension {got} != model dimension {expected}")
