"""WAV decoding and signal-level conditioning.

Supported container: RIFF/WAVE with PCM 16-bit LE or IEEE float 32-bit LE
payloads, mono or stereo. No resampling: clips keep their native rate.
"""

from __future__ import annotations

import dataclasses
import struct
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .calibration import percentile
from .errors import (
    CorruptHeaderError,
    EmptyAudioError,
    ShapeMismatchError,
    SilentInputWarning,
    TooFewColumnsError,
    UnsupportedFormatError,
)

_PCM = 1
_IEEE_FLOAT = 3
_SILENCE_RMS = 1e-12


@dataclass(frozen=True)
class AudioClip:
    """Mono sample sequence in [-1, 1] at a fixed sample rate."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        s = np.asarray(self.samples, dtype=np.float64)
        if s.ndim != 1 or s.size < 1:
            raise ValueError("samples must be a non-empty 1-D sequence")
        if not np.all(np.isfinite(s)):
            raise ValueError("samples must be finite")
        if np.max(np.abs(s)) > 1.0 + 1e-9:
            raise ValueError("samples must lie within [-1, 1]")
        s = np.clip(s, -1.0, 1.0)
        s.flags.writeable = False
        object.__setattr__(self, "samples", s)
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")

    @property
    def duration_s(self) -> float:
        return self.samples.size / self.sample_rate

    def rms(self) -> float:
        return float(np.sqrt(np.mean(self.samples**2)))


@dataclass(frozen=True)
class NoiseProfile:
    """Per-Mel-band noise floor (dB) plus a gating margin."""

    floor_db: np.ndarray
    margin_db: float

    def __post_init__(self):
        f = np.asarray(self.floor_db, dtype=np.float64)
        if f.ndim != 1 or not np.all(np.isfinite(f)):
            raise ValueError("floor_db must be a finite 1-D vector")
        if self.margin_db < 0:
            raise ValueError("margin_db must be >= 0")
        f.flags.writeable = False
        object.__setattr__(self, "floor_db", f)


@dataclass(frozen=True)
class RmsNormalizeResult:
    clip: AudioClip
    gain: float
    clipped: int
    silent: bool


def load_wav(path) -> AudioClip:
    """Decode a WAV file to a normalized mono clip.

    16-bit samples are scaled by 1/32768; stereo collapses to the per-sample
    channel mean; the header sample rate is kept as-is.
    """
    raw = Path(path).read_bytes()
    if len(raw) < 12 or raw[0:4] != b"RIFF" or raw[8:12] != b"WAVE":
        raise CorruptHeaderError(f"{path}: not a RIFF/WAVE file")

    fmt_chunk = None
    data_chunk = None
    offset = 12
    while offset + 8 <= len(raw):
        chunk_id = raw[offset : offset + 4]
        (size,) = struct.unpack_from("<I", raw, offset + 4)
        payload = raw[offset + 8 : offset + 8 + size]
        if len(payload) < size:
            raise CorruptHeaderError(f"{path}: truncated '{chunk_id.decode(errors='replace')}' chunk")
        if chunk_id == b"fmt ":
            fmt_chunk = payload
        elif chunk_id == b"data":
            data_chunk = payload
        offset += 8 + size + (size & 1)

    if fmt_chunk is None or len(fmt_chunk) < 16:
        raise CorruptHeaderError(f"{path}: missing or short fmt chunk")
    if data_chunk is None:
        raise CorruptHeaderError(f"{path}: missing data chunk")

    audio_format, channels, sample_rate, _, _, bits = struct.unpack_from("<HHIIHH", fmt_chunk, 0)
    if channels == 0 or sample_rate == 0:
        raise CorruptHeaderError(f"{path}: zero channels or sample rate")
    if channels > 2:
        raise UnsupportedFormatError(f"{path}: {channels} channels (only mono/stereo supported)")
    if audio_format == _PCM and bits == 16:
        dtype, scale = np.dtype("<i2"), 1.0 / 32768.0
    elif audio_format == _IEEE_FLOAT and bits == 32:
        dtype, scale = np.dtype("<f4"), 1.0
    else:
        raise UnsupportedFormatError(
            f"{path}: format code {audio_format} at {bits}-bit not supported "
            "(need PCM 16-bit or IEEE float 32-bit)"
        )

    frame_bytes = channels * dtype.itemsize
    n_frames = len(data_chunk) // frame_bytes
    if n_frames == 0:
        raise EmptyAudioError(f"{path}: data chunk holds no samples")
    arr = np.frombuffer(data_chunk[: n_frames * frame_bytes], dtype=dtype)
    arr = arr.reshape(n_frames, channels).astype(np.float64) * scale
    mono = arr.mean(axis=1)
    if not np.all(np.isfinite(mono)):
        raise CorruptHeaderError(f"{path}: non-finite samples in data chunk")
    mono = np.clip(mono, -1.0, 1.0)
    return AudioClip(samples=mono, sample_rate=int(sample_rate))


def save_wav(clip: AudioClip, path) -> None:
    """Write a clip as mono PCM 16-bit WAV."""
    ints = np.clip(np.round(clip.samples * 32768.0), -32768, 32767)
    payload = ints.astype("<i2").tobytes()
    # format code, channels, sample rate, byte rate, block align, bits per sample
    fmt = struct.pack("<HHIIHH", _PCM, 1, clip.sample_rate, 2 * clip.sample_rate, 2, 16)
    body = b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt
    body += b"data" + struct.pack("<I", len(payload)) + payload
    with open(path, "wb") as fh:
        fh.write(b"RIFF" + struct.pack("<I", len(body)) + body)


def rms_normalize(clip: AudioClip, target_rms: float) -> RmsNormalizeResult:
    """Scale a clip to the target RMS with uniform gain.

    Samples pushed past +-1 by the gain are hard-clipped and counted. An
    input quieter than the silence threshold is returned unchanged with the
    silent flag set (never divides by ~0).
    """
    if not 0.0 < target_rms <= 1.0:
        raise ValueError(f"target_rms {target_rms} outside (0, 1]")
    rms = clip.rms()
    if rms < _SILENCE_RMS:
        warnings.warn("input RMS below silence threshold; returning unchanged", SilentInputWarning)
        return RmsNormalizeResult(clip=clip, gain=1.0, clipped=0, silent=True)
    gain = target_rms / rms
    scaled = clip.samples * gain
    clipped = int(np.sum(np.abs(scaled) > 1.0))
    scaled = np.clip(scaled, -1.0, 1.0)
    out = AudioClip(samples=scaled, sample_rate=clip.sample_rate)
    return RmsNormalizeResult(clip=out, gain=gain, clipped=clipped, silent=False)


def estimate_noise_profile(mel_db, percentile_p: float, margin_db: float = 6.0) -> NoiseProfile:
    """Per-band noise floor: the p-th percentile of each Mel row across time."""
    if mel_db.stage != "db":
        raise ValueError(f"noise profile needs a dB-stage spectrogram, got {mel_db.stage!r}")
    if not 0.0 < percentile_p < 100.0:
        raise ValueError(f"percentile_p {percentile_p} outside (0, 100)")
    values = mel_db.values
    if values.shape[1] < 10:
        raise TooFewColumnsError(
            f"need >= 10 spectrogram columns to estimate noise, got {values.shape[1]}"
        )
    floor = np.array([percentile(row, percentile_p) for row in values])
    return NoiseProfile(floor_db=floor, margin_db=margin_db)


def spectral_gate(mel_db, profile: NoiseProfile):
    """Push cells at or below the per-band floor + margin down to the dB floor.

    Cells above the gate are untouched; the result stays in the dB stage.
    """
    from .features import DB_FLOOR  # deferred: features imports this module

    if mel_db.stage != "db":
        raise ValueError(f"spectral gate needs a dB-stage spectrogram, got {mel_db.stage!r}")
    values = mel_db.values
    if profile.floor_db.size != values.shape[0]:
        raise ShapeMismatchError(
            f"profile has {profile.floor_db.size} bands, spectrogram has {values.shape[0]}"
        )
    gate = profile.floor_db[:, None] + profile.margin_db
    gated = np.where(values <= gate, DB_FLOOR, values)
    return dataclasses.replace(mel_db, values=gated)
