"""Deterministic synthetic dataset generator with exact ground-truth intervals.

Normal audio is machine-like: a handful of slowly amplitude-modulated
harmonic tones with fundamentals in [50, 400] Hz plus broadband noise
low-pass filtered around 2 kHz. Injected knocks are short exponentially
decaying bursts band-limited to [2000, 6000] Hz; the rare-event variant
injects one long broadband transient instead.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .audio_io import AudioClip
from .config import _text_lines
from .errors import PipelineError
from .features import FrameTensor

KNOCK_BAND = (2000.0, 6000.0)
TRANSIENT_BAND = (50.0, 6800.0)
LOWPASS_CUTOFF_HZ = 2000.0
_LOWPASS_ORDER = 3
# No generated content above this frequency: the top Mel bands then sit at the
# dB conversion's -80 floor in every clip, which pins the min-max range and
# keeps features comparable across separately normalized recordings.
SILENT_ABOVE_HZ = 7000.0
_TONE_BLOCK = 1 << 15  # tone samples per work item: a block's temporaries stay in the CPU caches


@dataclass(frozen=True)
class AnomalyInterval:
    start_s: float
    end_s: float
    kind: str = "knock"

    def __post_init__(self):
        if not 0.0 <= self.start_s < self.end_s < np.inf:
            raise ValueError(f"bad interval [{self.start_s}, {self.end_s})")


@dataclass(frozen=True)
class LabeledClip:
    clip: AudioClip
    intervals: tuple[AnomalyInterval, ...]

    def __post_init__(self):
        last_end = 0.0
        for iv in self.intervals:
            if iv.start_s < last_end:
                raise ValueError("intervals must be sorted and non-overlapping")
            if iv.end_s > self.clip.duration_s + 1e-9:
                raise ValueError("interval extends past the clip")
            last_end = iv.end_s


def _lowpass(spectrum: np.ndarray, n: int, sample_rate: int) -> np.ndarray:
    """FFT-domain low-pass with a Butterworth-shaped magnitude rolloff.

    A smooth rolloff (not a brick wall) keeps a small, varying energy floor
    above the cutoff, which is what real low-passed machine noise looks like.
    spectrum is the rfft of a length-n signal; the filter takes ownership of it,
    overwrites it with the filtered spectrum and returns the filtered signal.
    """
    spectrum *= _lowpass_response(n, sample_rate)
    return np.fft.irfft(spectrum, n=n)


def _lowpass_response(n: int, sample_rate: int) -> np.ndarray:
    """1 / sqrt(1 + (f / LOWPASS_CUTOFF_HZ)^(2 * _LOWPASS_ORDER)) per rfft bin, 0 from SILENT_ABOVE_HZ up, built in one buffer."""
    response = np.fft.rfftfreq(n, d=1.0 / sample_rate)
    silent_from = np.searchsorted(response, SILENT_ABOVE_HZ)  # first bin at or above it
    response /= LOWPASS_CUTOFF_HZ
    response **= 2 * _LOWPASS_ORDER
    response += 1.0
    np.sqrt(response, out=response)
    np.divide(1.0, response, out=response)
    response[silent_from:] = 0.0
    return response


def _usable_cpus() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _add_tones(x: np.ndarray, tones, a: int, sample_rate: int) -> None:
    """Add every tone to the block of x at a: the whole-clip expressions, evaluated on its t.

    Each tone's envelope is 1 + am_depth sin(2 pi am_freq t + am_phase), and each harmonic
    adds (amp / harmonic) envelope sin(2 pi f0 harmonic t + phase), computed into three
    block buffers. Only the operand order of a product or sum differs from those
    expressions, which leaves every double unchanged.
    """
    t = np.arange(a, min(a + _TONE_BLOCK, x.size)) / sample_rate
    block = x[a : a + t.size]
    arg, envelope, wave = np.empty_like(t), np.empty_like(t), np.empty_like(t)
    for f0, amp, am_freq, am_depth, am_phase, phases in tones:
        np.multiply(2.0 * np.pi * am_freq, t, out=arg)
        arg += am_phase
        np.sin(arg, out=envelope)
        envelope *= am_depth
        envelope += 1.0
        for harmonic, phase in enumerate(phases, start=1):
            np.multiply(2.0 * np.pi * f0 * harmonic, t, out=arg)
            arg += phase
            np.sin(arg, out=wave)
            np.multiply(envelope, amp / harmonic, out=arg)
            wave *= arg
            block += wave


def gen_normal(duration_s: float, sample_rate: int = 16000, seed: int = 0) -> AudioClip:
    """Machine-like background, peak-normalized to 0.5, energy below ~2 kHz.

    The noise is low-pass filtered first, on this thread, and only then is the tone sum
    allocated and computed in blocks over the usable CPUs: no tone array is resident while
    the FFTs hold their input, output and scratch buffers, so the peak is about 4x the
    clip's float64 size, not 5x. The samples equal one full-length pass bit for bit on any
    CPU count: the tone parameters are still drawn before the noise.
    """
    if duration_s < 1.0:
        raise ValueError("duration must be at least 1 s")
    rng = np.random.default_rng(seed)
    n = int(round(duration_s * sample_rate))

    tones = []
    for _ in range(int(rng.integers(4, 9))):
        f0 = rng.uniform(50.0, 400.0)
        amp = rng.uniform(0.4, 1.0)
        am_freq = rng.uniform(0.05, 0.9)
        am_depth = rng.uniform(0.1, 0.5)
        am_phase = rng.uniform(0.0, 2.0 * np.pi)
        phases = [rng.uniform(0.0, 2.0 * np.pi) for _harmonic in range(3)]
        tones.append((f0, amp, am_freq, am_depth, am_phase, phases))
    noise = _lowpass(np.fft.rfft(rng.standard_normal(n)), n, sample_rate)
    x = np.zeros(n)
    with ThreadPoolExecutor(max_workers=_usable_cpus()) as pool:
        list(pool.map(lambda a: _add_tones(x, tones, a, sample_rate), range(0, n, _TONE_BLOCK)))
    noise *= 0.3 * np.sqrt(np.mean(x**2)) / max(np.sqrt(np.mean(noise**2)), 1e-30)
    x += noise
    del noise  # AudioClip's copy of x is the next full-length array

    x *= 0.5 / max(np.max(x), -np.min(x))
    return AudioClip(samples=x, sample_rate=sample_rate)


def _band_noise(n: int, sample_rate: int, band: tuple[float, float], rng: np.random.Generator) -> np.ndarray:
    spectrum = np.fft.rfft(rng.standard_normal(n))
    f = np.fft.rfftfreq(n, d=1.0 / sample_rate)
    spectrum[(f < band[0]) | (f > band[1])] = 0.0
    out = np.fft.irfft(spectrum, n=n)
    peak = np.max(np.abs(out))
    return out / peak if peak > 0 else out


def inject_knocks(
    clip: AudioClip, rate_per_min: float, seed: int = 0, align_s: float | None = None
) -> LabeledClip:
    """Place exponentially decaying band-limited bursts by a Poisson process.

    Knock count ~ Poisson(rate * minutes); overlapping draws are rejected.
    Each knock lasts 30-80 ms with peak amplitude 2-3x the background RMS.
    With align_s set, onsets snap to that time grid so downstream frame
    labels never mark a frame that holds only a sliver of a knock.
    """
    duration = clip.duration_s
    if rate_per_min * duration / 60.0 < 1.0:
        raise PipelineError(
            f"{duration:.1f} s at {rate_per_min}/min yields < 1 expected knock"
        )
    rng = np.random.default_rng(seed)
    background_rms = clip.rms()
    samples = clip.samples.copy()
    sr = clip.sample_rate

    count = int(rng.poisson(rate_per_min * duration / 60.0))
    placed: list[tuple[float, float]] = []
    for _ in range(count):
        for _attempt in range(100):
            knock_s = rng.uniform(0.03, 0.08)
            start_s = rng.uniform(0.0, duration - knock_s)
            if align_s is not None and align_s > 0:
                start_s = round(start_s / align_s) * align_s
                if start_s + knock_s > duration:
                    continue
            end_s = start_s + knock_s
            if all(end_s <= s or start_s >= e for s, e in placed):
                placed.append((start_s, end_s))
                break

    placed.sort()
    intervals = []
    for start_s, end_s in placed:
        i0 = int(round(start_s * sr))
        m = int(round((end_s - start_s) * sr))
        m = min(m, samples.size - i0)
        tt = np.arange(m) / sr
        envelope = np.exp(-5.0 * tt / (end_s - start_s))
        burst = _band_noise(m, sr, KNOCK_BAND, rng) * envelope
        peak = np.max(np.abs(burst))
        if peak > 0:
            burst *= rng.uniform(2.0, 3.0) * background_rms / peak
        samples[i0 : i0 + m] += burst
        intervals.append(AnomalyInterval(start_s=start_s, end_s=end_s, kind="knock"))
    return _labeled(samples, sr, intervals)


def inject_transient(
    clip: AudioClip,
    duration_s: float = 5.0,
    seed: int = 0,
    align_s: float | None = None,
) -> LabeledClip:
    """Inject one broadband transient at a seeded position.

    With align_s set, the interval snaps to that time grid so its edges
    coincide with frame boundaries and every labeled frame genuinely
    overlaps the burst.
    """
    total = clip.duration_s
    if total <= duration_s * 2:
        raise PipelineError(f"clip {total:.1f} s too short for a {duration_s:.1f} s transient")
    rng = np.random.default_rng(seed)
    sr = clip.sample_rate

    start_s = rng.uniform(duration_s * 0.5, total - duration_s * 1.5)
    if align_s is not None and align_s > 0:
        start_s = round(start_s / align_s) * align_s
        duration_s = max(align_s, round(duration_s / align_s) * align_s)
    end_s = start_s + duration_s

    i0 = int(round(start_s * sr))
    m = int(round(duration_s * sr))
    m = min(m, clip.samples.size - i0)
    burst = _band_noise(m, sr, TRANSIENT_BAND, rng)
    ramp = min(int(0.02 * sr), m // 4)
    envelope = np.ones(m)
    if ramp > 0:
        edge = 0.5 * (1.0 - np.cos(np.pi * np.arange(ramp) / ramp))
        envelope[:ramp] = edge
        envelope[-ramp:] = edge[::-1]
    burst *= envelope * rng.uniform(2.0, 3.0) * clip.rms()

    samples = clip.samples.copy()
    samples[i0 : i0 + m] += burst
    return _labeled(samples, sr, [AnomalyInterval(start_s=start_s, end_s=end_s, kind="transient")])


def _labeled(samples: np.ndarray, sample_rate: int, intervals) -> LabeledClip:
    """The injectors' common tail: clip the samples to [-1, 1] in place, wrap them and attach the intervals."""
    np.clip(samples, -1.0, 1.0, out=samples)
    return LabeledClip(clip=AudioClip(samples=samples, sample_rate=sample_rate), intervals=tuple(intervals))


def frame_labels(intervals, frames: FrameTensor) -> np.ndarray:
    """Label a frame 1 iff its time span overlaps any interval by > 0.

    A frame spans [origin * hop / sr, (origin + frame_size) * hop / sr).
    """
    span = frames.hop_length / frames.sample_rate
    t0 = frames.origin_columns * span
    t1 = (frames.origin_columns + frames.frame_size) * span
    labels = np.zeros(frames.num_frames, dtype=int)
    for iv in intervals:
        labels[(t0 < iv.end_s) & (t1 > iv.start_s)] = 1
    return labels


def write_intervals(path, intervals) -> None:
    """One interval per line: start, end (6 decimals, tab-separated), kind."""
    with open(path, "w") as fh:
        for iv in intervals:
            fh.write(f"{iv.start_s:.6f}\t{iv.end_s:.6f}\t{iv.kind}\n")


def read_intervals(path) -> tuple[AnomalyInterval, ...]:
    """Parse write_intervals output; a malformed line is a PipelineError at file:line."""
    out = []
    for lineno, line in _text_lines(path):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            start, end, kind = line.split("\t")
            out.append(AnomalyInterval(start_s=float(start), end_s=float(end), kind=kind))
        except ValueError as exc:
            raise PipelineError(
                f"{path}:{lineno}: expected 'start<TAB>end<TAB>kind', 0 <= start < end < inf: {exc}"
            ) from exc
    return tuple(out)
