import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from aad import synthgen
from aad.errors import PipelineError
from aad.features import fft_amplitude_spectrum
from aad.synthgen import (
    LOWPASS_CUTOFF_HZ,
    AnomalyInterval,
    frame_labels,
    gen_normal,
    inject_knocks,
    inject_transient,
    read_intervals,
    write_intervals,
)

from conftest import random_frames, traced_peak


_RSS_PROBE = """
from aad.synthgen import gen_normal
def status(key):
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) * 1024 for line in fh if line.startswith(key + ":"))
before = status("VmRSS")
gen_normal(60.0, seed=42)
print(status("VmHWM") - before)
"""


def band_energy(samples, sample_rate, lo, hi):
    spectrum = np.abs(np.fft.rfft(samples)) ** 2
    freqs = np.fft.rfftfreq(samples.size, d=1.0 / sample_rate)
    return spectrum[(freqs >= lo) & (freqs < hi)].sum()


class TestGenNormal:
    def test_seed_determinism(self):
        a = gen_normal(2.0, seed=5)
        b = gen_normal(2.0, seed=5)
        assert np.array_equal(a.samples, b.samples)

    def test_length_arithmetic(self):
        clip = gen_normal(10.0, sample_rate=16000, seed=0)
        assert clip.samples.size == 160000

    def test_peak_normalized(self):
        clip = gen_normal(3.0, seed=1)
        assert np.max(np.abs(clip.samples)) == pytest.approx(0.5, abs=1e-9)

    def test_energy_concentrated_below_2khz(self):
        for seed in range(5):
            clip = gen_normal(8.0, seed=seed)
            freqs, amps = fft_amplitude_spectrum(clip)
            energy = amps**2
            high = energy[freqs > 2000.0].sum()
            assert high / energy.sum() < 0.05

    def test_rejects_subsecond(self):
        with pytest.raises(ValueError):
            gen_normal(0.5, seed=0)

    def test_traced_peak_bounded(self):
        """60 s: the noise draw, its spectrum and the filtered noise, before the tone sum exists.

        3.00-3.11x the clip's float64 size measured (the first call in a process is the
        highest); 3.35-3.46x while the tones overlapped the filter, and the whole-array
        low-pass peaked at 6.4x.
        """
        nbytes = 60 * 16000 * 8
        assert traced_peak(lambda: gen_normal(60.0, seed=42)) < 3.3 * nbytes

    @pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs Linux /proc/self/status")
    def test_resident_peak_bounded(self):
        """60 s in a fresh process: VmHWM after the call over VmRSS before it, pocketfft's scratch included.

        tracemalloc misses the FFT scratch buffers. 4.39-4.41x the clip's float64 size measured,
        on two CPUs and on one; 5.0-5.6x while the tone sum stayed resident through the FFTs.
        """
        src = Path(__file__).resolve().parent.parent / "src"
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
        out = subprocess.run([sys.executable, "-c", _RSS_PROBE], env=env, check=True,
                             capture_output=True, text=True, timeout=120).stdout.split()
        assert int(out[-1]) < 4.7 * 60 * 16000 * 8


def ref_lowpass(noise, sample_rate, cutoff_hz, order):
    """The whole-array low-pass that synthgen._lowpass's in-place form must reproduce bit for bit."""
    spectrum = np.fft.rfft(noise)
    f = np.fft.rfftfreq(noise.size, d=1.0 / sample_rate)
    response = 1.0 / np.sqrt(1.0 + (f / cutoff_hz) ** (2 * order))
    response[f >= synthgen.SILENT_ABOVE_HZ] = 0.0
    return np.fft.irfft(spectrum * response, n=noise.size)


def ref_gen_normal(duration_s, sample_rate=16000, seed=0):
    """The single full-length pass that gen_normal's tone blocks must reproduce bit for bit."""
    rng = np.random.default_rng(seed)
    n = int(round(duration_s * sample_rate))
    t = np.arange(n) / sample_rate

    x = np.zeros(n)
    for _ in range(int(rng.integers(4, 9))):
        f0 = rng.uniform(50.0, 400.0)
        amp = rng.uniform(0.4, 1.0)
        am_freq = rng.uniform(0.05, 0.9)
        am_depth = rng.uniform(0.1, 0.5)
        am_phase = rng.uniform(0.0, 2.0 * np.pi)
        envelope = 1.0 + am_depth * np.sin(2.0 * np.pi * am_freq * t + am_phase)
        for harmonic in (1, 2, 3):
            phase = rng.uniform(0.0, 2.0 * np.pi)
            x += (amp / harmonic) * envelope * np.sin(2.0 * np.pi * f0 * harmonic * t + phase)

    noise = rng.standard_normal(n)
    noise = ref_lowpass(noise, sample_rate, LOWPASS_CUTOFF_HZ, synthgen._LOWPASS_ORDER)
    noise *= 0.3 * np.sqrt(np.mean(x**2)) / max(np.sqrt(np.mean(noise**2)), 1e-30)
    x += noise

    x *= 0.5 / np.max(np.abs(x))
    return x


BLOCK_S = synthgen._TONE_BLOCK / 16000
# under one block, exactly one, one block + 1 sample, many blocks and a ragged tail
LENGTHS_S = [1.5, BLOCK_S, (synthgen._TONE_BLOCK + 1) / 16000, 37.123]


def assert_bit_equal(a, b):
    assert a.shape == b.shape
    assert np.array_equal(a.view(np.int64), b.view(np.int64))


class TestBlockedTones:
    def test_seeds_span_the_tone_count_range(self):
        assert [int(np.random.default_rng(s).integers(4, 9)) for s in (42, 7961)] == [4, 8]

    @pytest.mark.parametrize("seed", [42, 7961])
    @pytest.mark.parametrize("duration_s", LENGTHS_S, ids=["sub-block", "one-block", "block+1", "37.123s"])
    def test_bit_equal_to_single_pass(self, seed, duration_s):
        assert_bit_equal(gen_normal(duration_s, 16000, seed).samples, ref_gen_normal(duration_s, 16000, seed))

    @pytest.mark.parametrize("seed", [42, 7961])
    def test_one_worker_bit_equal(self, monkeypatch, seed):
        """No affinity call and one CPU: the fallback lookup gives a one-worker pool."""
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        assert synthgen._usable_cpus() == 1
        for duration_s in LENGTHS_S:
            assert_bit_equal(gen_normal(duration_s, 16000, seed).samples, ref_gen_normal(duration_s, 16000, seed))

    def test_more_workers_than_cores_lose_no_block(self, monkeypatch):
        """Sixteen workers switching every microsecond: a lost or doubled block breaks bit equality."""
        monkeypatch.setattr(synthgen, "_usable_cpus", lambda: 16)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = gen_normal(37.123, 16000, 7961).samples
        finally:
            sys.setswitchinterval(interval)
        assert_bit_equal(got, ref_gen_normal(37.123, 16000, 7961))


class TestInjectKnocks:
    def test_poisson_count_band(self):
        # Poisson(12) over one minute: count in [4, 22] for ~99.5% of draws
        base = gen_normal(60.0, seed=3)
        within = 0
        seeds = range(40)
        for seed in seeds:
            labeled = inject_knocks(base, rate_per_min=12.0, seed=seed)
            if 4 <= len(labeled.intervals) <= 22:
                within += 1
        assert within >= 0.95 * len(seeds)

    def test_intervals_inside_clip_sorted_disjoint(self):
        base = gen_normal(30.0, seed=4)
        labeled = inject_knocks(base, rate_per_min=30.0, seed=9)
        last_end = 0.0
        for iv in labeled.intervals:
            assert 0.0 <= iv.start_s < iv.end_s <= base.duration_s
            assert iv.start_s >= last_end
            assert 0.03 <= iv.end_s - iv.start_s <= 0.08
            last_end = iv.end_s

    def test_knock_band_contrast_at_least_6db(self):
        base = gen_normal(30.0, seed=6)
        labeled = inject_knocks(base, rate_per_min=20.0, seed=7)
        sr = base.sample_rate
        checked = 0
        for iv in labeled.intervals:
            i0, i1 = int(iv.start_s * sr), int(iv.end_s * sr)
            width = i1 - i0
            if i0 - 2 * width < 0:
                continue
            knock = band_energy(labeled.clip.samples[i0:i1], sr, 2000, 6000)
            before = band_energy(labeled.clip.samples[i0 - 2 * width : i0 - width], sr, 2000, 6000)
            assert 10 * np.log10(knock / max(before, 1e-30)) >= 6.0
            checked += 1
        assert checked > 0

    def test_knock_peak_at_least_twice_background_rms(self):
        base = gen_normal(30.0, seed=8)
        labeled = inject_knocks(base, rate_per_min=20.0, seed=11)
        sr = base.sample_rate
        rms = base.rms()
        for iv in labeled.intervals:
            i0, i1 = int(iv.start_s * sr), int(iv.end_s * sr)
            delta = labeled.clip.samples[i0:i1] - base.samples[i0:i1]
            assert np.max(np.abs(delta)) >= 2.0 * rms * 0.99

    def test_alignment_snaps_onsets(self):
        base = gen_normal(30.0, seed=12)
        labeled = inject_knocks(base, rate_per_min=20.0, seed=13, align_s=0.096)
        assert labeled.intervals
        for iv in labeled.intervals:
            assert iv.start_s / 0.096 == pytest.approx(round(iv.start_s / 0.096), abs=1e-9)

    def test_determinism(self):
        base = gen_normal(20.0, seed=14)
        a = inject_knocks(base, 15.0, seed=2)
        b = inject_knocks(base, 15.0, seed=2)
        assert np.array_equal(a.clip.samples, b.clip.samples)
        assert a.intervals == b.intervals

    def test_too_short_clip(self):
        base = gen_normal(2.0, seed=15)
        with pytest.raises(PipelineError, match="2.0 s at 10.0/min yields < 1 expected knock"):
            inject_knocks(base, rate_per_min=10.0, seed=0)


class TestInjectTransient:
    def test_single_interval_with_requested_duration(self):
        base = gen_normal(60.0, seed=16)
        labeled = inject_transient(base, duration_s=5.0, seed=1)
        assert len(labeled.intervals) == 1
        iv = labeled.intervals[0]
        assert iv.kind == "transient"
        assert iv.end_s - iv.start_s == pytest.approx(5.0, abs=0.2)

    def test_alignment(self):
        base = gen_normal(60.0, seed=17)
        labeled = inject_transient(base, duration_s=5.0, seed=2, align_s=0.096)
        iv = labeled.intervals[0]
        assert iv.start_s / 0.096 == pytest.approx(round(iv.start_s / 0.096), abs=1e-9)
        assert (iv.end_s - iv.start_s) / 0.096 == pytest.approx(
            round((iv.end_s - iv.start_s) / 0.096), abs=1e-9
        )

    def test_broadband_energy(self):
        base = gen_normal(60.0, seed=18)
        labeled = inject_transient(base, duration_s=5.0, seed=3)
        iv = labeled.intervals[0]
        sr = base.sample_rate
        i0, i1 = int(iv.start_s * sr), int(iv.end_s * sr)
        inside = band_energy(labeled.clip.samples[i0:i1], sr, 2000, 6000)
        outside = band_energy(base.samples[i0:i1], sr, 2000, 6000)
        assert inside > 4.0 * outside

    def test_too_short(self):
        with pytest.raises(PipelineError, match="clip 8.0 s too short for a 5.0 s transient"):
            inject_transient(gen_normal(8.0, seed=0), duration_s=5.0, seed=0)


class TestFrameLabels:
    def test_empty_intervals_all_zero(self):
        frames = random_frames(num_frames=10)
        assert np.all(frame_labels((), frames) == 0)

    def test_full_cover_all_one(self):
        frames = random_frames(num_frames=10, hop_size=3, hop_length=512)
        span_end = (frames.origin_columns[-1] + frames.frame_size) * 512 / 16000
        labels = frame_labels((AnomalyInterval(0.0, span_end + 1.0, "x"),), frames)
        assert np.all(labels == 1)

    def test_matches_overlap_oracle(self, rng):
        frames = random_frames(num_frames=50, frame_size=16, hop_size=3)
        intervals = []
        t = 0.0
        for _ in range(6):
            t += float(rng.uniform(0.1, 1.2))
            dur = float(rng.uniform(0.02, 0.6))
            intervals.append(AnomalyInterval(t, t + dur, "k"))
            t += dur
        labels = frame_labels(tuple(intervals), frames)
        span = frames.hop_length / frames.sample_rate
        for i in range(frames.num_frames):
            t0 = frames.origin_columns[i] * span
            t1 = (frames.origin_columns[i] + frames.frame_size) * span
            expected = any(min(t1, iv.end_s) - max(t0, iv.start_s) > 0 for iv in intervals)
            assert labels[i] == int(expected)

    def test_zero_overlap_boundary_not_labeled(self):
        frames = random_frames(num_frames=5, frame_size=16, hop_size=3, hop_length=512)
        span = 512 / 16000
        start = (frames.origin_columns[2] + frames.frame_size) * span
        labels = frame_labels((AnomalyInterval(start, start + 0.01, "k"),), frames)
        assert labels[2] == 0
        assert labels[3] == 1


class TestIntervalFiles:
    def test_round_trip(self, tmp_path):
        intervals = (
            AnomalyInterval(0.123456, 0.223456, "knock"),
            AnomalyInterval(1.5, 1.58, "knock"),
        )
        path = tmp_path / "x.labels"
        write_intervals(path, intervals)
        text = path.read_text()
        assert text.splitlines()[0] == "0.123456\t0.223456\tknock"
        loaded = read_intervals(path)
        assert len(loaded) == 2
        assert loaded[0].start_s == pytest.approx(0.123456, abs=1e-6)
        assert loaded[1].kind == "knock"
