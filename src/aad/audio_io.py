"""WAV decoding and signal-level conditioning.

Supported container: RIFF/WAVE with PCM 16-bit LE or IEEE float 32-bit LE
payloads, mono or stereo. No resampling: clips keep their native rate.
"""

from __future__ import annotations

import struct
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import PipelineError, SilentInputWarning

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
        lo, hi = np.min(s), np.max(s)  # a NaN or an infinity shows in one of them
        if not (np.isfinite(lo) and np.isfinite(hi)):
            raise ValueError("samples must be finite")
        if max(hi, -lo) > 1.0 + 1e-9:
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
class RmsNormalizeResult:
    clip: AudioClip
    gain: float
    clipped: int
    silent: bool


def load_wav(path) -> AudioClip:
    """Decode a WAV file to a normalized mono clip.

    16-bit samples are scaled by 1/32768; stereo collapses to the per-sample
    channel mean; the header sample rate is kept as-is. Payloads are views of
    the file bytes; one float64 buffer takes the mean, then the (exact, power-of-two) scale.
    """
    raw = memoryview(Path(path).read_bytes())
    if len(raw) < 12 or raw[0:4] != b"RIFF" or raw[8:12] != b"WAVE":
        raise PipelineError(f"{path}: not a RIFF/WAVE file")

    fmt_chunk = None
    data_chunk = None
    offset = 12
    while offset + 8 <= len(raw):
        chunk_id = raw[offset : offset + 4].tobytes()
        (size,) = struct.unpack_from("<I", raw, offset + 4)
        payload = raw[offset + 8 : offset + 8 + size]
        if len(payload) < size:
            raise PipelineError(f"{path}: truncated '{chunk_id.decode(errors='replace')}' chunk")
        if chunk_id == b"fmt ":
            fmt_chunk = payload
        elif chunk_id == b"data":
            data_chunk = payload
        offset += 8 + size + (size & 1)

    if fmt_chunk is None or len(fmt_chunk) < 16:
        raise PipelineError(f"{path}: missing or short fmt chunk")
    if data_chunk is None:
        raise PipelineError(f"{path}: missing data chunk")

    audio_format, channels, sample_rate, _, _, bits = struct.unpack_from("<HHIIHH", fmt_chunk, 0)
    if channels == 0 or sample_rate == 0:
        raise PipelineError(f"{path}: zero channels or sample rate")
    if channels > 2:
        raise PipelineError(f"{path}: {channels} channels (only mono/stereo supported)")
    if audio_format == _PCM and bits == 16:
        dtype, scale = np.dtype("<i2"), 1.0 / 32768.0
    elif audio_format == _IEEE_FLOAT and bits == 32:
        dtype, scale = np.dtype("<f4"), 1.0
    else:
        raise PipelineError(
            f"{path}: format code {audio_format} at {bits}-bit not supported "
            "(need PCM 16-bit or IEEE float 32-bit)"
        )

    frame_bytes = channels * dtype.itemsize
    n_frames = len(data_chunk) // frame_bytes
    if n_frames == 0:
        raise PipelineError(f"{path}: data chunk holds no samples")
    arr = np.frombuffer(data_chunk[: n_frames * frame_bytes], dtype=dtype).reshape(n_frames, channels)
    mono = arr.mean(axis=1, dtype=np.float64)
    mono *= scale
    if not np.all(np.isfinite(mono)):
        raise PipelineError(f"{path}: non-finite samples in data chunk")
    np.clip(mono, -1.0, 1.0, out=mono)
    return AudioClip(samples=mono, sample_rate=int(sample_rate))


def save_wav(clip: AudioClip, path) -> None:
    """Write a clip as mono PCM 16-bit WAV.

    The samples are scaled, rounded and clipped in one float64 buffer; the
    header and the int16 payload are written separately, never joined.
    """
    ints = clip.samples * 32768.0
    np.round(ints, out=ints)
    np.clip(ints, -32768, 32767, out=ints)
    payload = ints.astype("<i2")
    # format code, channels, sample rate, byte rate, block align, bits per sample
    fmt = struct.pack("<HHIIHH", _PCM, 1, clip.sample_rate, 2 * clip.sample_rate, 2, 16)
    head = b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt
    head += b"data" + struct.pack("<I", payload.nbytes)
    with open(path, "wb") as fh:
        fh.write(b"RIFF" + struct.pack("<I", len(head) + payload.nbytes) + head)
        fh.write(payload)


def rms_normalize(clip: AudioClip, target_rms: float) -> RmsNormalizeResult:
    """Scale a clip to the target RMS with uniform gain.

    Samples pushed past +-1 by the gain are hard-clipped and counted. An
    input quieter than the silence threshold is returned unchanged with the
    silent flag set (never divides by ~0). The input clip is never modified:
    the samples are scaled once into a new buffer, which is counted and
    clipped in place and then copied by the returned AudioClip.
    """
    if not 0.0 < target_rms <= 1.0:
        raise ValueError(f"target_rms {target_rms} outside (0, 1]")
    rms = clip.rms()
    if rms < _SILENCE_RMS:
        warnings.warn("input RMS below silence threshold; returning unchanged", SilentInputWarning)
        return RmsNormalizeResult(clip=clip, gain=1.0, clipped=0, silent=True)
    gain = target_rms / rms
    scaled = clip.samples * gain
    clipped = int(np.count_nonzero(scaled > 1.0) + np.count_nonzero(scaled < -1.0))
    np.clip(scaled, -1.0, 1.0, out=scaled)
    out = AudioClip(samples=scaled, sample_rate=clip.sample_rate)
    return RmsNormalizeResult(clip=out, gain=gain, clipped=clipped, silent=False)
