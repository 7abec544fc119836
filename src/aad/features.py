"""Time-frequency feature chain: STFT, Mel power, dB, min-max, frame segmentation.

Conventions fixed here so every downstream consumer and every test oracle
agrees:

* periodic Hann window, no signal padding; column n covers samples
  [n*hop, n*hop + n_fft), so n_cols = 1 + floor((N - n_fft) / hop)
* Mel warp mel(f) = 2595 * log10(1 + f/700); triangular filters
  area-normalized by 2 / (f_right - f_left)
* dB stage clamps at DB_FLOOR (-80) with the global max cell at exactly 0 dB
* min-max maps a constant matrix to all zeros
* segmentation copies nothing: frames are float32 views of the normalized
  spectrogram, the same bits in memory and in the frame archive
"""

from __future__ import annotations

import functools
import struct
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .audio_io import AudioClip, rms_normalize
from .blocks import block, decode_blocks, encode_blocks
from .calibration import percentile
from .errors import NumericError, PipelineError

DB_FLOOR = -80.0
_STFT_BLOCK = 512  # STFT columns per block in clip_mel_db: 8.4 MB of temporaries at n_fft 1024

_FRAME_MAGIC = b"AADFRAME"
_FRAME_VERSION = 3


@dataclass(frozen=True)
class StftMatrix:
    """Complex spectrogram [n_bins x n_cols] with its analysis parameters."""

    values: np.ndarray
    n_fft: int

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


@dataclass(frozen=True)
class FrameTensor:
    """Overlapping column windows of normalized spectrograms, the unit detectors consume.

    parts holds one read-only float32 [n_mels x n_cols] spectrogram per record: the
    feature dtype is decided here and nowhere else. Frame i of a part is its columns
    [i*hop_size, i*hop_size + frame_size); columns that do not fill a frame are dropped.
    frames [num_frames x n_mels x frame_size] is a read-only view of a single part, else
    the parts' frames concatenated; origin_columns restarts at 0 in each part.
    """

    parts: tuple
    frame_size: int
    hop_size: int
    sample_rate: int
    hop_length: int

    def __post_init__(self):
        if self.frame_size < 1 or self.hop_size < 1:
            raise ValueError("frame_size and hop_size must be >= 1")
        parts = tuple(np.asarray(p, dtype=np.float32) for p in self.parts)
        if not parts or any(p.ndim != 2 or p.shape[0] != parts[0].shape[0] for p in parts):
            raise ValueError("parts must be one or more [n_mels x n_cols] matrices of equal n_mels")
        for p in parts:
            if p.shape[1] < self.frame_size:
                raise PipelineError(f"{p.shape[1]} columns < frame_size {self.frame_size}")
            p.flags.writeable = False
        object.__setattr__(self, "parts", parts)

    @functools.cached_property
    def frames(self) -> np.ndarray:
        window = np.lib.stride_tricks.sliding_window_view
        views = [window(p, self.frame_size, axis=1)[:, :: self.hop_size].transpose(1, 0, 2) for p in self.parts]
        frames = views[0] if len(views) == 1 else np.concatenate(views)
        frames.flags.writeable = False
        return frames

    @property
    def origin_columns(self) -> np.ndarray:
        return np.concatenate([np.arange(0, p.shape[1] - self.frame_size + 1, self.hop_size) for p in self.parts])

    @property
    def num_frames(self) -> int:
        return self.frames.shape[0]

    @property
    def n_mels(self) -> int:
        return self.parts[0].shape[0]


def hann_window(n_fft: int) -> np.ndarray:
    """Periodic Hann window of length n_fft."""
    m = np.arange(n_fft)
    return 0.5 * (1.0 - np.cos(2.0 * np.pi * m / n_fft))


def stft(clip: AudioClip, n_fft: int = 1024, hop_length: int = 512) -> StftMatrix:
    """Short-time Fourier transform over full windows only (no padding).

    Column n is the length-n_fft DFT of samples [n*hop, n*hop + n_fft)
    multiplied by a periodic Hann window; only bins 0..n_fft/2 are kept.
    """
    spec = _spectrum_rows(_analysis_windows(clip, n_fft, hop_length), hann_window(n_fft))
    return StftMatrix(values=spec.T, n_fft=n_fft)


def _analysis_windows(clip: AudioClip, n_fft: int, hop_length: int) -> np.ndarray:
    """Read-only view [n_cols x n_fft]: row n is samples [n*hop, n*hop + n_fft) of the clip."""
    if n_fft < 2 or (n_fft & (n_fft - 1)) != 0:
        raise PipelineError(f"n_fft must be a power of two >= 2, got {n_fft}")
    if hop_length < 1:
        raise ValueError("hop_length must be >= 1")
    x = clip.samples
    if x.size < n_fft:
        raise PipelineError(f"signal has {x.size} samples, need >= n_fft = {n_fft}")
    return np.lib.stride_tricks.sliding_window_view(x, n_fft)[::hop_length]


def _spectrum_rows(windows: np.ndarray, window: np.ndarray) -> np.ndarray:
    """The one STFT kernel, rfft of each windowed row: a block of rows gets the bits it has in the whole matrix."""
    return np.fft.rfft(windows * window, axis=1)


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


@functools.lru_cache(maxsize=16)
def mel_filterbank(
    sample_rate: int,
    n_fft: int,
    n_mels: int = 128,
    fmin: float = 0.0,
    fmax: float | None = None,
) -> np.ndarray:
    """Read-only float64 weights [n_mels x n_fft//2+1] of triangular filters with peaks equally spaced on the Mel scale.

    Each triangle is scaled by 2 / (f_right - f_left) so filters integrate
    to the same area regardless of bandwidth. One array is kept per
    parameter set and returned to every call that repeats it.
    """
    if fmax is None:
        fmax = sample_rate / 2.0
    if not (0.0 <= fmin < fmax <= sample_rate / 2.0):
        raise PipelineError(f"need 0 <= fmin < fmax <= sr/2, got [{fmin}, {fmax}]")
    if n_mels < 2:
        raise PipelineError(f"n_mels must be >= 2, got {n_mels}")

    edges_hz = mel_to_hz(np.linspace(hz_to_mel(fmin), hz_to_mel(fmax), n_mels + 2))
    bin_hz = np.arange(n_fft // 2 + 1) * (sample_rate / n_fft)

    left = edges_hz[:-2, None]
    center = edges_hz[1:-1, None]
    right = edges_hz[2:, None]
    rising = (bin_hz[None, :] - left) / np.maximum(center - left, 1e-30)
    falling = (right - bin_hz[None, :]) / np.maximum(right - center, 1e-30)
    weights = np.maximum(0.0, np.minimum(rising, falling))
    weights *= 2.0 / (right - left)
    weights.flags.writeable = False
    return weights


def _blocked_mel_power(clip: AudioClip, n_fft: int, hop_length: int, fb: np.ndarray) -> MelSpectrogram:
    """Mel power sum_k fb[m, k] |STFT(n, k)|^2: the bits of fb @ |stft(clip).values|^2 without the whole STFT.

    rfft and |.|^2 run over blocks of _STFT_BLOCK columns into one
    [n_cols x n_bins] power array; the filterbank GEMM runs once over all of
    it, because a GEMM over column blocks does not give the same bits on the
    ragged last block.
    """
    windows = _analysis_windows(clip, n_fft, hop_length)
    window = hann_window(n_fft)
    power = np.empty((windows.shape[0], n_fft // 2 + 1))
    for a in range(0, windows.shape[0], _STFT_BLOCK):
        rows = power[a : a + _STFT_BLOCK]
        np.abs(_spectrum_rows(windows[a : a + _STFT_BLOCK], window), out=rows)
        np.square(rows, out=rows)
    return MelSpectrogram(
        values=fb @ power.T, stage="power", sample_rate=clip.sample_rate, hop_length=hop_length
    )


def clip_mel_db(clip: AudioClip, n_fft: int, hop_length: int, n_mels: int, fmin: float, fmax) -> MelSpectrogram:
    """power_to_db of the clip's Mel power (_blocked_mel_power) from the cached filterbank."""
    fb = mel_filterbank(clip.sample_rate, n_fft, n_mels, fmin, fmax)
    return power_to_db(_blocked_mel_power(clip, n_fft, hop_length, fb))


def power_to_db(mel: MelSpectrogram) -> MelSpectrogram:
    """10*log10 of each cell relative to the global max, clamped at DB_FLOOR."""
    if mel.stage != "power":
        raise ValueError(f"power_to_db expects the power stage, got {mel.stage!r}")
    ref = float(np.max(mel.values))
    if ref <= 0.0:
        raise NumericError("all spectrogram cells are zero")
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
    """The spectrogram cut into overlapping column windows (see FrameTensor)."""
    return FrameTensor(parts=(mel.values,), frame_size=frame_size, hop_size=hop_size,
                       sample_rate=mel.sample_rate, hop_length=mel.hop_length)


def mfcc(mel_db: MelSpectrogram, n_mfcc: int = 13) -> np.ndarray:
    """First n_mfcc orthonormal DCT-II coefficients of each dB column.

    Coefficient 0 is the scaled column mean, i.e. the average log-energy.
    """
    if mel_db.stage != "db":
        raise ValueError(f"mfcc expects the db stage, got {mel_db.stage!r}")
    n_mels = mel_db.values.shape[0]
    if n_mfcc > n_mels:
        raise PipelineError(f"n_mfcc {n_mfcc} > n_mels {n_mels}")
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
    for name, value in (("sample_rate", sample_rate), ("hop_length", hop_length),
                        ("time_per_frame", time_per_frame), ("hop_ratio", hop_ratio)):
        if not value > 0:
            raise ValueError(f"{name} must be > 0, got {value}")
        if not np.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    frame_size = _round_half_up(time_per_frame * sample_rate / hop_length, "time_per_frame")
    hop_size = max(1, _round_half_up(hop_ratio * frame_size, "hop_ratio"))
    return frame_size, hop_size


def _round_half_up(x: float, name: str) -> int:
    """x rounded half up; x overflowed to inf is a ValueError naming the setting that made it."""
    if not np.isfinite(x):
        raise ValueError(f"{name} is too large: the frame arithmetic overflows to {x}")
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
    spectral gate, min-max normalization (float64), float32 frame segmentation.
    The complex STFT is never held whole (clip_mel_db).
    """
    if target_rms is not None:
        clip = rms_normalize(clip, target_rms).clip
    mel_db = clip_mel_db(clip, n_fft, hop_length, n_mels, fmin, fmax)
    if denoise:
        mel_db = _spectral_gate(mel_db, denoise_percentile, denoise_margin_db)
    norm = minmax_normalize(mel_db)
    frame_size, hop_size = default_framing(
        clip.sample_rate, hop_length, time_per_frame=time_per_frame, hop_ratio=hop_ratio
    )
    return segment_frames(norm, frame_size, hop_size)


def _spectral_gate(mel_db: MelSpectrogram, percentile_p: float, margin_db: float) -> MelSpectrogram:
    """Push each band's cells at or below its noise floor + margin_db down to DB_FLOOR.

    A band's floor is the percentile_p-th percentile of its dB row over time;
    cells above the gate are untouched.
    """
    if not 0.0 < percentile_p < 100.0:
        raise ValueError(f"denoise_percentile must be in (0, 100), got {percentile_p}")
    if not 0.0 <= margin_db < np.inf:
        raise ValueError(f"denoise_margin_db must be finite and >= 0, got {margin_db}")
    values = mel_db.values
    if values.shape[1] < 10:
        raise PipelineError(f"need >= 10 spectrogram columns to estimate noise, got {values.shape[1]}")
    floor = np.array([percentile(row, percentile_p) for row in values])
    return replace(mel_db, values=np.where(values <= floor[:, None] + margin_db, DB_FLOOR, values))


def save_frames(frames: FrameTensor, path) -> None:
    """Write the frame archive: magic "AADFRAME", version u32 LE, then named
    blocks (aad.blocks): the float32 spectrogram [n_mels x n_cols] as it is,
    frame_size, hop_size, sample_rate, hop_length. One archive holds one record.
    """
    if len(frames.parts) != 1:
        raise ValueError(f"a frame archive holds one spectrogram, the tensor has {len(frames.parts)}")
    header = _FRAME_MAGIC + struct.pack("<I", _FRAME_VERSION)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(encode_blocks({
            "spectrogram": frames.parts[0],
            "frame_size": frames.frame_size,
            "hop_size": frames.hop_size,
            "sample_rate": frames.sample_rate,
            "hop_length": frames.hop_length,
        }, header))


def load_frames(path) -> FrameTensor:
    """Read a frame archive written by save_frames: the tensor it was given, its part a read-only view of the file."""
    raw = Path(path).read_bytes()
    prefix = len(_FRAME_MAGIC) + 4
    if len(raw) < prefix or raw[: len(_FRAME_MAGIC)] != _FRAME_MAGIC:
        raise PipelineError(f"{path}: not a frame archive")
    (version,) = struct.unpack_from("<I", raw, len(_FRAME_MAGIC))
    if version != _FRAME_VERSION:
        raise PipelineError(f"{path}: frame archive version {version} unsupported")
    blocks = decode_blocks(memoryview(raw)[prefix:], path, raw[:prefix])
    spectrogram = block(blocks, "spectrogram", path, "<f4", ndim=2)
    names = ("frame_size", "hop_size", "sample_rate", "hop_length")
    geometry = {k: int(block(blocks, k, path, "<i8", ndim=0)) for k in names}
    if min(geometry.values()) < 1:
        raise PipelineError(f"{path}: frame geometry below 1: {geometry}")
    if spectrogram.shape[0] == 0 or spectrogram.shape[1] < geometry["frame_size"]:
        raise PipelineError(f"{path}: spectrogram {spectrogram.shape} too small for one frame: {geometry}")
    if not np.isfinite(spectrogram).all():
        raise PipelineError(f"{path}: spectrogram has a non-finite cell")
    return FrameTensor(parts=(spectrogram,), **geometry)
