import struct

import numpy as np
import pytest

from aad.audio_io import AudioClip, load_wav, rms_normalize, save_wav
from aad.calibration import percentile
from aad.cli import main
from aad.errors import PipelineError, SilentInputWarning
from aad.features import (
    DB_FLOOR,
    _spectral_gate,
    clip_mel_db,
    default_framing,
    frame_pipeline,
    minmax_normalize,
    segment_frames,
)

from conftest import make_clip, mel_db_matrix, sine_clip, traced_peak


def wav_bytes(frames, channels=1, sample_rate=16000, fmt_code=1, bits=16, extra_chunks=()):
    """Build WAV bytes by hand, independent of the library's encoder."""
    if fmt_code == 1:
        payload = np.asarray(frames, dtype="<i2").tobytes()
    else:
        payload = np.asarray(frames, dtype="<f4").tobytes()
    block = channels * bits // 8
    fmt = struct.pack("<HHIIHH", fmt_code, channels, sample_rate, sample_rate * block, block, bits)
    body = b"WAVE"
    for cid, data in extra_chunks:
        body += cid + struct.pack("<I", len(data)) + data
    body += b"fmt " + struct.pack("<I", len(fmt)) + fmt
    body += b"data" + struct.pack("<I", len(payload)) + payload
    return b"RIFF" + struct.pack("<I", len(body)) + body


def short_fmt_wav_bytes():
    """A PCM WAV whose fmt chunk stops after 14 of its 16 bytes."""
    fmt = struct.pack("<HHIIH", 1, 1, 16000, 32000, 2)
    body = b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt
    body += b"data" + struct.pack("<I", 4) + b"\x00" * 4
    return b"RIFF" + struct.pack("<I", len(body)) + body


def write_wav(tmp_path, name, **kwargs):
    path = tmp_path / name
    path.write_bytes(wav_bytes(**kwargs))
    return path


class TestLoadWav:
    def test_pcm16_scaling(self, tmp_path):
        path = write_wav(tmp_path, "a.wav", frames=[32767, -32768, 0, 16384])
        clip = load_wav(path)
        assert clip.sample_rate == 16000
        assert clip.samples[0] == pytest.approx(32767 / 32768)
        assert clip.samples[1] == pytest.approx(-1.0)
        assert clip.samples[2] == 0.0
        assert clip.samples[3] == pytest.approx(0.5)

    def test_stereo_channel_mean(self, tmp_path):
        frames = np.array([[16384, -16384], [8192, 8192]]).ravel()
        path = write_wav(tmp_path, "s.wav", frames=frames, channels=2)
        clip = load_wav(path)
        assert clip.samples[0] == pytest.approx(0.0)
        assert clip.samples[1] == pytest.approx(0.25)

    def test_float32_payload(self, tmp_path):
        path = write_wav(tmp_path, "f.wav", frames=[0.5, -0.25], fmt_code=3, bits=32)
        clip = load_wav(path)
        assert clip.samples == pytest.approx([0.5, -0.25])

    def test_three_channels_unsupported(self, tmp_path):
        path = write_wav(tmp_path, "c3.wav", frames=[0, 0, 0], channels=3)
        with pytest.raises(PipelineError, match=r"3 channels \(only mono/stereo supported\)"):
            load_wav(path)

    def test_compressed_format_unsupported(self, tmp_path):
        path = write_wav(tmp_path, "adpcm.wav", frames=[0, 0], fmt_code=2)
        with pytest.raises(PipelineError, match="format code 2 at 16-bit not supported"):
            load_wav(path)

    def test_24bit_unsupported(self, tmp_path):
        path = tmp_path / "b24.wav"
        fmt = struct.pack("<HHIIHH", 1, 1, 16000, 48000, 3, 24)
        body = b"WAVE" + b"fmt " + struct.pack("<I", 16) + fmt
        body += b"data" + struct.pack("<I", 3) + b"\x00\x00\x00"
        path.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)
        with pytest.raises(PipelineError, match="format code 1 at 24-bit not supported"):
            load_wav(path)

    def test_not_riff(self, tmp_path):
        path = tmp_path / "x.wav"
        path.write_bytes(b"OggS" + b"\x00" * 60)
        with pytest.raises(PipelineError, match="not a RIFF/WAVE file"):
            load_wav(path)

    def test_truncated_data_chunk(self, tmp_path):
        raw = bytearray(wav_bytes(frames=[1, 2, 3, 4]))
        path = tmp_path / "t.wav"
        path.write_bytes(bytes(raw[:-4]))
        with pytest.raises(PipelineError, match="truncated 'data' chunk"):
            load_wav(path)

    def test_empty_data(self, tmp_path):
        path = write_wav(tmp_path, "e.wav", frames=[])
        with pytest.raises(PipelineError, match="data chunk holds no samples"):
            load_wav(path)

    @pytest.mark.parametrize("raw, match", [
        (wav_bytes(frames=[0.5, np.nan], fmt_code=3, bits=32), "non-finite samples"),
        (wav_bytes(frames=[0, 0], channels=0), "zero channels or sample rate"),
        (short_fmt_wav_bytes(), "missing or short fmt chunk"),
    ], ids=["nan-sample", "zero-channels", "short-fmt"])
    def test_corrupt_header_is_a_data_error(self, tmp_path, capsys, raw, match):
        path = tmp_path / "bad.wav"
        path.write_bytes(raw)
        with pytest.raises(PipelineError, match=match):
            load_wav(path)
        capsys.readouterr()
        assert main(["features", "--wav", str(path), "--out", str(tmp_path / "out")]) == 3
        assert match in capsys.readouterr().err

    def test_skips_foreign_chunks(self, tmp_path):
        path = write_wav(tmp_path, "j.wav", frames=[100], extra_chunks=((b"JUNK", b"abcd"),))
        clip = load_wav(path)
        assert clip.samples.size == 1

    def test_roundtrip_pcm16_bit_exact(self, tmp_path, rng):
        ints = rng.integers(-32768, 32768, size=1000)
        original = write_wav(tmp_path, "o.wav", frames=ints)
        clip = load_wav(original)
        save_wav(clip, tmp_path / "copy.wav")
        again = load_wav(tmp_path / "copy.wav")
        assert np.array_equal(clip.samples, again.samples)
        assert again.sample_rate == clip.sample_rate

    @pytest.mark.parametrize("channels, fmt_code, bits", [(1, 1, 16), (2, 1, 16), (1, 3, 32), (2, 3, 32)],
                             ids=["mono-pcm16", "stereo-pcm16", "mono-float32", "stereo-float32"])
    def test_samples_match_the_scale_then_mean_expression(self, tmp_path, rng, channels, fmt_code, bits):
        """Mean first, then the power-of-two scale: the bits of scaling each channel before the mean."""
        if fmt_code == 1:
            frames, dtype, scale = rng.integers(-32768, 32768, size=(4001, channels)), "<i2", 1.0 / 32768.0
            frames[:3] = [-32768] * channels, [32767] * channels, [1] * channels
        else:
            frames, dtype, scale = rng.uniform(-1.0, 1.0, size=(4001, channels)), "<f4", 1.0
        path = write_wav(tmp_path, "w.wav", frames=frames.ravel(), channels=channels, fmt_code=fmt_code, bits=bits)
        stored = np.asarray(frames, dtype=dtype)
        want = np.clip((stored.astype(np.float64) * scale).mean(axis=1), -1.0, 1.0)
        assert np.array_equal(load_wav(path).samples, want)

    def test_traced_peak_bounded(self, tmp_path, rng):
        """The file bytes, one float64 buffer and AudioClip's copy: 2.25x measured, 3.5x decoding in steps."""
        clip = make_clip(rng.uniform(-1.0, 1.0, 30 * 16000))
        save_wav(clip, tmp_path / "a.wav")
        assert traced_peak(lambda: load_wav(tmp_path / "a.wav")) < 2.5 * clip.samples.nbytes


class TestSaveWav:
    def test_bytes_match_hand_built_wav(self, tmp_path, rng):
        samples = rng.uniform(-1.0, 1.0, 4001)  # odd: the data chunk has an odd size
        samples[:4] = [1.0, -1.0, 0.99999, -0.99999]
        save_wav(make_clip(samples), tmp_path / "a.wav")
        ints = np.clip(np.round(samples * 32768.0), -32768, 32767)
        assert (tmp_path / "a.wav").read_bytes() == wav_bytes(ints)

    def test_traced_peak_bounded(self, tmp_path, rng):
        """One float64 buffer and the int16 payload: 1.25x measured, 2.0x with the joined bytes."""
        clip = make_clip(rng.uniform(-1.0, 1.0, 30 * 16000))
        assert traced_peak(lambda: save_wav(clip, tmp_path / "a.wav")) < 1.4 * clip.samples.nbytes


class TestRmsNormalize:
    def test_sine_gain(self):
        result = rms_normalize(sine_clip(), target_rms=0.1)
        assert result.gain == pytest.approx(0.1 * np.sqrt(2), rel=1e-6)
        assert result.clip.rms() == pytest.approx(0.1, rel=1e-9)
        assert result.clipped == 0

    def test_identity_when_already_on_target(self):
        clip = make_clip(np.full(100, 0.1))
        result = rms_normalize(clip, target_rms=0.1)
        assert result.gain == pytest.approx(1.0, rel=1e-12)
        assert result.clip.samples == pytest.approx(clip.samples, rel=1e-12)

    def test_silent_input_returned_unchanged(self):
        clip = make_clip(np.zeros(64))
        with pytest.warns(SilentInputWarning):
            result = rms_normalize(clip, target_rms=0.5)
        assert result.silent
        assert result.gain == 1.0
        assert np.array_equal(result.clip.samples, clip.samples)

    def test_clipping_counted(self):
        samples = np.full(100, 0.01)
        samples[:10] = 0.9
        result = rms_normalize(make_clip(samples), target_rms=0.9)
        assert result.clipped == 10
        assert np.max(np.abs(result.clip.samples)) <= 1.0

    def test_idempotent_without_clipping(self, rng):
        clip = make_clip(rng.uniform(-0.5, 0.5, 2048))
        first = rms_normalize(clip, target_rms=0.05)
        second = rms_normalize(first.clip, target_rms=0.05)
        assert second.gain == pytest.approx(1.0, abs=1e-9)

    def test_rejects_bad_target(self):
        with pytest.raises(ValueError):
            rms_normalize(sine_clip(), target_rms=0.0)

    def test_matches_whole_array_expression_when_clipping(self, rng):
        samples = rng.uniform(-0.5, 0.5, 10001)
        result = rms_normalize(make_clip(samples), target_rms=0.9)
        scaled = samples * (0.9 / np.sqrt(np.mean(samples**2)))
        clipped = int(np.sum(np.abs(scaled) > 1.0))
        assert np.any(scaled > 1.0) and np.any(scaled < -1.0)
        assert result.clipped == clipped
        assert np.array_equal(result.clip.samples, np.clip(scaled, -1.0, 1.0))


def sort_interpolate_floor(values, p):
    """Each row's p-th percentile by sorting and linear interpolation, independent of the library."""
    s = np.sort(values, axis=1)
    idx = p / 100.0 * (s.shape[1] - 1)
    lo, hi = int(np.floor(idx)), int(np.ceil(idx))
    return s[:, lo] + (idx - lo) * (s[:, hi] - s[:, lo]) if lo != hi else s[:, lo]


class TestNoiseProfile:
    """The per-band floor, seen through a zero-margin gate: a cell is gated iff it is <= its band's floor."""

    def test_constant_band(self):
        mel = mel_db_matrix(np.full((4, 12), -40.0))
        gated = _spectral_gate(mel, percentile_p=30.0, margin_db=0.0)
        assert np.all(gated.values == DB_FLOOR)

    def test_median_band(self):
        values = np.linspace(-80.0, -40.0, 11)[None, :]
        gated = _spectral_gate(mel_db_matrix(values), percentile_p=50.0, margin_db=0.0)
        assert np.all(gated.values[0, :6] == DB_FLOOR)  # the median is -60, the sixth cell
        assert np.array_equal(gated.values[0, 6:], values[0, 6:])

    def test_matches_sort_interpolate_oracle(self, rng):
        values = rng.uniform(-80.0, 0.0, (6, 50))
        mel = mel_db_matrix(values)
        for p in (5.0, 33.3, 50.0, 77.7, 95.0):
            floor = sort_interpolate_floor(values, p)
            assert np.array_equal(floor, [percentile(row, p) for row in values])
            gated = _spectral_gate(mel, percentile_p=p, margin_db=2.5)
            assert np.array_equal(gated.values, np.where(values <= floor[:, None] + 2.5, DB_FLOOR, values))

    def test_too_few_columns(self):
        mel = mel_db_matrix(np.full((4, 9), -40.0))
        with pytest.raises(PipelineError, match="need >= 10 spectrogram columns"):
            _spectral_gate(mel, percentile_p=50.0, margin_db=6.0)

    @pytest.mark.parametrize("p", [0.0, 100.0, -1.0, float("nan")])
    def test_percentile_outside_the_open_range(self, p):
        with pytest.raises(ValueError, match="denoise_percentile must be in"):
            _spectral_gate(mel_db_matrix(np.full((4, 12), -40.0)), percentile_p=p, margin_db=6.0)

    @pytest.mark.parametrize("margin", [-1.0, float("nan"), float("inf")])
    def test_margin_must_be_finite_and_not_negative(self, margin):
        with pytest.raises(ValueError, match="denoise_margin_db must be finite and >= 0"):
            _spectral_gate(mel_db_matrix(np.full((4, 12), -40.0)), percentile_p=20.0, margin_db=margin)


class TestSpectralGate:
    def test_below_gate_goes_to_floor(self):
        mel = mel_db_matrix(np.array([[-70.0] * 9 + [-20.0]]))
        gated = _spectral_gate(mel, percentile_p=50.0, margin_db=6.0)  # floor -70, gate -64
        assert np.all(gated.values[0, :9] == DB_FLOOR)
        assert gated.values[0, 9] == -20.0
        assert gated.stage == "db"

    def test_zero_margin_exact_minima_gated(self, rng):
        values = rng.uniform(-60.0, -10.0, (5, 20))
        mel = mel_db_matrix(values)
        gated = _spectral_gate(mel, percentile_p=1e-6, margin_db=0.0)  # floor between the two lowest cells
        for band in range(5):
            for col in range(20):
                if values[band, col] <= values[band].min():
                    assert gated.values[band, col] == DB_FLOOR
                else:
                    assert gated.values[band, col] == values[band, col]

    def test_never_increases_and_leaves_pass_cells(self, rng):
        values = rng.uniform(-75.0, 0.0, (8, 30))
        mel = mel_db_matrix(values)
        gated = _spectral_gate(mel, percentile_p=20.0, margin_db=6.0)
        assert np.all(gated.values <= values + 1e-12)
        above = values > np.array([percentile(row, 20.0) for row in values])[:, None] + 6.0
        assert np.array_equal(gated.values[above], values[above])

    def test_frame_pipeline_denoise_matches_oracle(self, rng):
        """frame_pipeline(denoise=True) equals, bit for bit, the gate rebuilt from its stages."""
        t = np.arange(32000) / 16000.0
        clip = make_clip(0.3 * np.sin(2 * np.pi * 440.0 * t) * (t > 1.0) + rng.uniform(-0.05, 0.05, t.size))
        got = frame_pipeline(clip, denoise=True, denoise_percentile=20.0, denoise_margin_db=6.0)
        mel_db = clip_mel_db(rms_normalize(clip, 0.1).clip, 1024, 512, 128, 0.0, None)
        floor = sort_interpolate_floor(mel_db.values, 20.0)
        gate = mel_db.values <= floor[:, None] + 6.0
        assert 0 < np.count_nonzero(gate) < gate.size
        gated = mel_db_matrix(np.where(gate, DB_FLOOR, mel_db.values))
        expected = segment_frames(minmax_normalize(gated), *default_framing(16000, 512))
        assert np.array_equal(got.frames, expected.frames)
        assert (got.frame_size, got.hop_size) == (expected.frame_size, expected.hop_size)
        assert not np.array_equal(got.frames, frame_pipeline(clip).frames)


class TestAudioClipInvariants:
    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            AudioClip(samples=np.array([1.5]), sample_rate=16000)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            AudioClip(samples=np.array([]), sample_rate=16000)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            AudioClip(samples=np.array([np.nan]), sample_rate=16000)

    @pytest.mark.parametrize("samples, message", [
        ([0.5, np.nan, 0.1], "finite"),
        ([0.0, np.inf], "finite"),
        ([-np.inf, 0.0], "finite"),
        ([2.0, np.nan], "finite"),  # non-finite is reported before out of range
        ([0.0, 1.5], r"within \[-1, 1\]"),
        ([-1.0 - 1e-6, 0.0], r"within \[-1, 1\]"),
    ], ids=["nan", "inf", "-inf", "nan-and-range", "above", "below"])
    def test_rejection_messages(self, samples, message):
        with pytest.raises(ValueError, match=message):
            AudioClip(samples=np.array(samples), sample_rate=16000)

    def test_tolerance_is_clipped_away(self):
        clip = AudioClip(samples=np.array([1.0 + 5e-10, -1.0 - 5e-10]), sample_rate=16000)
        assert np.array_equal(clip.samples, [1.0, -1.0])

    def test_samples_read_only(self):
        clip = make_clip([0.1, 0.2])
        with pytest.raises(ValueError):
            clip.samples[0] = 0.5
