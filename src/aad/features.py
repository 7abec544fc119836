"""Time-frequency feature chain: STFT, Mel power, dB, min-max, frame segmentation.

Conventions fixed here so every downstream consumer and every test oracle
agrees:

* periodic Hann window, no signal padding; column n covers samples
  [n*hop, n*hop + n_fft), so n_cols = 1 + floor((N - n_fft) / hop)
* Mel warp mel(f) = 2595 * log10(1 + f/700); triangular filters
  area-normalized by 2 / (f_right - f_left)
* dB stage clamps at DB_FLOOR (-80) with the global max cell at exactly 0 dB
* min-max maps a constant matrix to all zeros
"""

from __future__ import annotations

import functools
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .audio_io import AudioClip, estimate_noise_profile, rms_normalize, spectral_gate
from .blocks import block, decode_blocks, encode_blocks
from .errors import (
    AllZeroSpectrogramError,
    CorruptModelFileError,
    InvalidBandRangeError,
    InvalidFftSizeError,
    ShapeMismatchError,
    SignalTooShortError,
    SpectrogramTooShortError,
    TooManyCoefficientsError,
    VersionMismatchError,
)

DB_FLOOR = -80.0

_FRAME_MAGIC = b"AADFRAME"
_FRAME_VERSION = 2


@dataclass(frozen=True)
class StftMatrix:
    """Complex spectrogram [n_bins x n_cols] with its analysis parameters."""

    values: np.ndarray
    n_fft: int
    hop_length: int
    sample_rate: int

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.complex128)
        if v.ndim != 2 or v.shape[0] != self.n_fft // 2 + 1:
            raise ValueError("values must be [n_fft//2 + 1 x n_cols]")
        if not np.all(np.isfinite(v.real)) or not np.all(np.isfinite(v.imag)):
            raise ValueError("STFT values must be finite")
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    @property
    def n_cols(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class MelFilterbank:
    """Triangular filter weights [n_mels x n_bins] for a fixed FFT layout."""

    weights: np.ndarray
    sample_rate: int
    n_fft: int
    fmin: float
    fmax: float

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        if w.ndim != 2 or np.any(w < 0):
            raise ValueError("weights must be a non-negative matrix")
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)

    @property
    def n_mels(self) -> int:
        return self.weights.shape[0]


@dataclass(frozen=True)
class MelSpectrogram:
    """Mel-band matrix [n_mels x n_cols] tagged with its processing stage."""

    values: np.ndarray
    stage: str  # "power" | "db" | "normalized"
    sample_rate: int
    hop_length: int

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 2 or v.size == 0:
            raise ValueError("values must be a non-empty 2-D matrix")
        if self.stage == "power":
            if np.any(v < 0):
                raise ValueError("power stage requires non-negative values")
        elif self.stage == "db":
            if np.any(v < DB_FLOOR - 1e-9) or np.any(v > 1e-9):
                raise ValueError(f"db stage requires values in [{DB_FLOOR}, 0]")
        elif self.stage == "normalized":
            if np.any(v < -1e-12) or np.any(v > 1.0 + 1e-12):
                raise ValueError("normalized stage requires values in [0, 1]")
        else:
            raise ValueError(f"unknown stage {self.stage!r}")
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    @property
    def n_mels(self) -> int:
        return self.values.shape[0]

    @property
    def n_cols(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class FrameTensor:
    """Stack of overlapping spectrogram windows, the unit detectors consume.

    frames has shape [num_frames x n_mels x frame_size]; origin_columns[i]
    is the spectrogram column where frame i starts.
    """

    frames: np.ndarray
    frame_size: int
    hop_size: int
    origin_columns: np.ndarray
    sample_rate: int
    hop_length: int

    def __post_init__(self):
        f = np.asarray(self.frames, dtype=np.float64)
        o = np.asarray(self.origin_columns, dtype=np.int64)
        if f.ndim != 3 or f.shape[0] != o.size or f.shape[2] != self.frame_size:
            raise ValueError("frames must be [num_frames x n_mels x frame_size]")
        f.flags.writeable = False
        o.flags.writeable = False
        object.__setattr__(self, "frames", f)
        object.__setattr__(self, "origin_columns", o)

    @property
    def num_frames(self) -> int:
        return self.frames.shape[0]

    @property
    def n_mels(self) -> int:
        return self.frames.shape[1]


def hann_window(n_fft: int) -> np.ndarray:
    """Periodic Hann window of length n_fft."""
    m = np.arange(n_fft)
    return 0.5 * (1.0 - np.cos(2.0 * np.pi * m / n_fft))


def stft(clip: AudioClip, n_fft: int = 1024, hop_length: int = 512) -> StftMatrix:
    """Short-time Fourier transform over full windows only (no padding).

    Column n is the length-n_fft DFT of samples [n*hop, n*hop + n_fft)
    multiplied by a periodic Hann window; only bins 0..n_fft/2 are kept.
    """
    if n_fft < 2 or (n_fft & (n_fft - 1)) != 0:
        raise InvalidFftSizeError(f"n_fft must be a power of two >= 2, got {n_fft}")
    if hop_length < 1:
        raise ValueError("hop_length must be >= 1")
    x = clip.samples
    if x.size < n_fft:
        raise SignalTooShortError(f"signal has {x.size} samples, need >= n_fft = {n_fft}")
    windows = np.lib.stride_tricks.sliding_window_view(x, n_fft)[::hop_length]
    spec = np.fft.rfft(windows * hann_window(n_fft), axis=1)
    return StftMatrix(values=spec.T, n_fft=n_fft, hop_length=hop_length, sample_rate=clip.sample_rate)


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def mel_filterbank(
    sample_rate: int,
    n_fft: int,
    n_mels: int = 128,
    fmin: float = 0.0,
    fmax: float | None = None,
) -> MelFilterbank:
    """Triangular filters with peaks equally spaced on the Mel scale.

    Each triangle is scaled by 2 / (f_right - f_left) so filters integrate
    to the same area regardless of bandwidth.
    """
    if fmax is None:
        fmax = sample_rate / 2.0
    if not (0.0 <= fmin < fmax <= sample_rate / 2.0):
        raise InvalidBandRangeError(f"need 0 <= fmin < fmax <= sr/2, got [{fmin}, {fmax}]")
    if n_mels < 2:
        raise InvalidBandRangeError(f"n_mels must be >= 2, got {n_mels}")

    edges_hz = mel_to_hz(np.linspace(hz_to_mel(fmin), hz_to_mel(fmax), n_mels + 2))
    bin_hz = np.arange(n_fft // 2 + 1) * (sample_rate / n_fft)

    left = edges_hz[:-2, None]
    center = edges_hz[1:-1, None]
    right = edges_hz[2:, None]
    rising = (bin_hz[None, :] - left) / np.maximum(center - left, 1e-30)
    falling = (right - bin_hz[None, :]) / np.maximum(right - center, 1e-30)
    weights = np.maximum(0.0, np.minimum(rising, falling))
    weights *= 2.0 / (right - left)
    return MelFilterbank(weights=weights, sample_rate=sample_rate, n_fft=n_fft, fmin=fmin, fmax=float(fmax))


@functools.lru_cache(maxsize=16)
def _shared_filterbank(sample_rate: int, n_fft: int, n_mels: int, fmin: float, fmax) -> MelFilterbank:
    """One read-only mel_filterbank per parameter set, reused by every frame_pipeline call."""
    return mel_filterbank(sample_rate, n_fft, n_mels=n_mels, fmin=fmin, fmax=fmax)


def mel_power(stft_matrix: StftMatrix, fb: MelFilterbank) -> MelSpectrogram:
    """Mel power M(m, n) = sum_k H_m(k) |STFT(n, k)|^2."""
    if fb.n_fft != stft_matrix.n_fft or fb.sample_rate != stft_matrix.sample_rate:
        raise ShapeMismatchError(
            f"filterbank built for n_fft={fb.n_fft}/sr={fb.sample_rate}, "
            f"STFT has n_fft={stft_matrix.n_fft}/sr={stft_matrix.sample_rate}"
        )
    power = np.abs(stft_matrix.values) ** 2
    return MelSpectrogram(
        values=fb.weights @ power,
        stage="power",
        sample_rate=stft_matrix.sample_rate,
        hop_length=stft_matrix.hop_length,
    )


def power_to_db(mel: MelSpectrogram) -> MelSpectrogram:
    """10*log10 of each cell relative to the global max, clamped at DB_FLOOR."""
    if mel.stage != "power":
        raise ValueError(f"power_to_db expects the power stage, got {mel.stage!r}")
    ref = float(np.max(mel.values))
    if ref <= 0.0:
        raise AllZeroSpectrogramError("all spectrogram cells are zero")
    with np.errstate(divide="ignore"):
        db = 10.0 * np.log10(mel.values / ref)
    db = np.maximum(db, DB_FLOOR)
    return MelSpectrogram(values=db, stage="db", sample_rate=mel.sample_rate, hop_length=mel.hop_length)


def minmax_normalize(mel: MelSpectrogram) -> MelSpectrogram:
    """Map the matrix affinely onto [0, 1]; a constant matrix becomes all zeros."""
    if mel.stage != "db":
        raise ValueError(f"minmax_normalize expects the db stage, got {mel.stage!r}")
    lo = float(np.min(mel.values))
    hi = float(np.max(mel.values))
    if hi == lo:
        norm = np.zeros_like(mel.values)
    else:
        norm = (mel.values - lo) / (hi - lo)
    return MelSpectrogram(
        values=norm, stage="normalized", sample_rate=mel.sample_rate, hop_length=mel.hop_length
    )


def segment_frames(mel: MelSpectrogram, frame_size: int, hop_size: int) -> FrameTensor:
    """Slice the spectrogram into overlapping column windows.

    Frame i is columns [i*hop_size, i*hop_size + frame_size); trailing
    columns that do not fill a frame are dropped.
    """
    if frame_size < 1 or hop_size < 1:
        raise ValueError("frame_size and hop_size must be >= 1")
    n_cols = mel.n_cols
    if n_cols < frame_size:
        raise SpectrogramTooShortError(f"{n_cols} columns < frame_size {frame_size}")
    num_frames = (n_cols - frame_size) // hop_size + 1
    frames = np.empty((num_frames, mel.n_mels, frame_size))
    origins = np.arange(num_frames, dtype=np.int64) * hop_size
    for i, start in enumerate(origins):
        frames[i] = mel.values[:, start : start + frame_size]
    return FrameTensor(
        frames=frames,
        frame_size=frame_size,
        hop_size=hop_size,
        origin_columns=origins,
        sample_rate=mel.sample_rate,
        hop_length=mel.hop_length,
    )


def mfcc(mel_db: MelSpectrogram, n_mfcc: int = 13) -> np.ndarray:
    """First n_mfcc orthonormal DCT-II coefficients of each dB column.

    Coefficient 0 is the scaled column mean, i.e. the average log-energy.
    """
    if mel_db.stage != "db":
        raise ValueError(f"mfcc expects the db stage, got {mel_db.stage!r}")
    n_mels = mel_db.n_mels
    if n_mfcc > n_mels:
        raise TooManyCoefficientsError(f"n_mfcc {n_mfcc} > n_mels {n_mels}")
    k = np.arange(n_mfcc)[:, None]
    m = np.arange(n_mels)[None, :]
    basis = np.sqrt(2.0 / n_mels) * np.cos(np.pi * k * (2 * m + 1) / (2.0 * n_mels))
    basis[0] /= np.sqrt(2.0)
    return basis @ mel_db.values


def fft_amplitude_spectrum(clip: AudioClip) -> tuple[np.ndarray, np.ndarray]:
    """Full-signal amplitude spectrum, normalized by signal length."""
    n = clip.samples.size
    amplitudes = np.abs(np.fft.rfft(clip.samples)) / n
    frequencies = np.fft.rfftfreq(n, d=1.0 / clip.sample_rate)
    return frequencies, amplitudes


def default_framing(
    sample_rate: int,
    hop_length: int,
    time_per_frame: float = 0.512,
    hop_ratio: float = 0.2,
) -> tuple[int, int]:
    """Frame/hop sizes in spectrogram columns from a duration and overlap ratio."""
    if sample_rate <= 0 or hop_length <= 0 or time_per_frame <= 0 or hop_ratio <= 0:
        raise ValueError("all framing inputs must be positive")
    frame_size = _round_half_up(time_per_frame * sample_rate / hop_length)
    hop_size = max(1, _round_half_up(hop_ratio * frame_size))
    return frame_size, hop_size


def _round_half_up(x: float) -> int:
    return int(np.floor(x + 0.5))


def frame_pipeline(
    clip: AudioClip,
    *,
    n_fft: int = 1024,
    hop_length: int = 512,
    n_mels: int = 128,
    fmin: float = 0.0,
    fmax: float | None = None,
    time_per_frame: float = 0.512,
    hop_ratio: float = 0.2,
    target_rms: float | None = 0.1,
    denoise: bool = False,
    denoise_percentile: float = 20.0,
    denoise_margin_db: float = 6.0,
) -> FrameTensor:
    """Run the whole feature chain on one clip and return its FrameTensor.

    Stage order: optional RMS normalization, STFT, Mel power, dB, optional
    spectral gate, min-max normalization, frame segmentation.
    """
    if target_rms is not None:
        clip = rms_normalize(clip, target_rms).clip
    spec = stft(clip, n_fft=n_fft, hop_length=hop_length)
    fb = _shared_filterbank(clip.sample_rate, n_fft, n_mels, fmin, fmax)
    mel_db = power_to_db(mel_power(spec, fb))
    if denoise:
        profile = estimate_noise_profile(mel_db, denoise_percentile, margin_db=denoise_margin_db)
        mel_db = spectral_gate(mel_db, profile)
    norm = minmax_normalize(mel_db)
    frame_size, hop_size = default_framing(
        clip.sample_rate, hop_length, time_per_frame=time_per_frame, hop_ratio=hop_ratio
    )
    return segment_frames(norm, frame_size, hop_size)


def save_frames(frames: FrameTensor, path) -> None:
    """Write the frame archive: magic "AADFRAME", version u32 LE, then named
    blocks (aad.blocks): frames as float32, hop_size, sample_rate, hop_length.
    """
    header = _FRAME_MAGIC + struct.pack("<I", _FRAME_VERSION)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(encode_blocks({
            "frames": frames.frames.astype("<f4"),
            "hop_size": frames.hop_size,
            "sample_rate": frames.sample_rate,
            "hop_length": frames.hop_length,
        }, header))


def load_frames(path) -> FrameTensor:
    """Read a frame archive written by save_frames; frame_size is the frames' last axis."""
    raw = Path(path).read_bytes()
    prefix = len(_FRAME_MAGIC) + 4
    if len(raw) < prefix or raw[: len(_FRAME_MAGIC)] != _FRAME_MAGIC:
        raise CorruptModelFileError(f"{path}: not a frame archive")
    (version,) = struct.unpack_from("<I", raw, len(_FRAME_MAGIC))
    if version != _FRAME_VERSION:
        raise VersionMismatchError(f"{path}: frame archive version {version} unsupported")
    blocks = decode_blocks(memoryview(raw)[prefix:], path, raw[:prefix])
    values = block(blocks, "frames", path, "<f4", ndim=3)
    names = ("hop_size", "sample_rate", "hop_length")
    geometry = {k: int(block(blocks, k, path, "<i8", ndim=0)) for k in names}
    if min(geometry.values()) < 1:
        raise CorruptModelFileError(f"{path}: frame geometry below 1: {geometry}")
    return FrameTensor(
        frames=values.astype(np.float64),
        frame_size=values.shape[2],
        origin_columns=np.arange(values.shape[0], dtype=np.int64) * geometry["hop_size"],
        **geometry,
    )
