import numpy as np
import pytest

from aad import features as F
from aad.errors import (
    AllZeroSpectrogramError,
    InvalidBandRangeError,
    InvalidFftSizeError,
    ShapeMismatchError,
    SignalTooShortError,
    SpectrogramTooShortError,
    TooManyCoefficientsError,
    VersionMismatchError,
    CorruptModelFileError,
)

from conftest import make_clip, mel_db_matrix, sine_clip


def naive_dft_column(segment):
    """O(N^2) DFT oracle, non-negative bins only."""
    n = segment.size
    k = np.arange(n // 2 + 1)[:, None]
    m = np.arange(n)[None, :]
    return (segment[None, :] * np.exp(-2j * np.pi * k * m / n)).sum(axis=1)


class TestStft:
    def test_zero_signal_all_zero(self):
        clip = make_clip(np.zeros(2048))
        out = F.stft(clip, n_fft=512, hop_length=128)
        assert np.all(out.values == 0)

    def test_impulse_magnitude_equals_window(self):
        samples = np.zeros(1024)
        m0 = 100
        samples[m0] = 1.0
        clip = make_clip(samples)
        out = F.stft(clip, n_fft=1024, hop_length=512)
        w = F.hann_window(1024)
        assert np.abs(out.values[:, 0]) == pytest.approx(np.full(513, w[m0]), abs=1e-12)

    def test_cosine_peaks_at_its_bin(self):
        sr, n_fft, k0 = 16000, 1024, 40
        clip = sine_clip(freq=k0 * sr / n_fft, duration_s=0.5, amplitude=0.9)
        out = F.stft(clip, n_fft=n_fft, hop_length=256)
        mags = np.abs(out.values)
        assert np.all(np.argmax(mags, axis=0) == k0)

    def test_matches_naive_dft_oracle(self, rng):
        x = rng.uniform(-0.9, 0.9, 1500)
        clip = make_clip(x)
        out = F.stft(clip, n_fft=256, hop_length=100)
        w = F.hann_window(256)
        scale = np.abs(out.values).max()
        for col in range(out.n_cols):
            seg = x[col * 100 : col * 100 + 256] * w
            oracle = naive_dft_column(seg)
            assert np.max(np.abs(oracle - out.values[:, col])) / scale < 1e-9

    def test_column_count_formula(self, rng):
        for _ in range(25):
            n = int(rng.integers(600, 5000))
            hop = int(rng.integers(1, 400))
            clip = make_clip(rng.uniform(-1, 1, n))
            out = F.stft(clip, n_fft=512, hop_length=hop)
            assert out.n_cols == 1 + (n - 512) // hop

    def test_parseval_per_column(self, rng):
        x = rng.uniform(-0.9, 0.9, 4096)
        clip = make_clip(x)
        out = F.stft(clip, n_fft=1024, hop_length=512)
        w = F.hann_window(1024)
        for col in range(out.n_cols):
            spec = np.abs(out.values[:, col]) ** 2
            doubled = spec[0] + spec[-1] + 2.0 * spec[1:-1].sum()
            seg = x[col * 512 : col * 512 + 1024] * w
            energy = 1024 * np.sum(seg**2)
            assert doubled == pytest.approx(energy, rel=1e-6)

    def test_signal_too_short(self):
        with pytest.raises(SignalTooShortError):
            F.stft(make_clip(np.zeros(100)), n_fft=1024)

    def test_invalid_fft_size(self):
        with pytest.raises(InvalidFftSizeError):
            F.stft(make_clip(np.zeros(4096)), n_fft=1000)


class TestMelFilterbank:
    def test_support_boundaries(self):
        fb = F.mel_filterbank(16000, 1024, n_mels=32, fmin=100.0, fmax=7000.0)
        bin_hz = np.arange(513) * (16000 / 1024)
        first_support = bin_hz[fb.weights[0] > 0]
        last_support = bin_hz[fb.weights[-1] > 0]
        assert first_support.min() >= 100.0
        assert last_support.max() <= 7000.0

    def test_rows_have_one_contiguous_support(self):
        fb = F.mel_filterbank(16000, 1024, n_mels=128)
        for row in fb.weights:
            support = np.flatnonzero(row > 0)
            assert support.size > 0
            assert np.all(np.diff(support) == 1)

    def test_rows_unimodal(self):
        fb = F.mel_filterbank(16000, 1024, n_mels=64)
        for row in fb.weights:
            peak = np.argmax(row)
            assert np.all(np.diff(row[: peak + 1]) >= -1e-15)
            assert np.all(np.diff(row[peak:]) <= 1e-15)

    def test_mel_warp_matches_closed_form(self):
        def mel(f):
            return 2595.0 * np.log10(1.0 + f / 700.0)

        def inv_mel(m):
            return 700.0 * (10 ** (m / 2595.0) - 1.0)

        fmin, fmax, n_mels = 0.0, 8000.0, 128
        edges = inv_mel(np.linspace(mel(fmin), mel(fmax), n_mels + 2))
        lib_edges = F.mel_to_hz(np.linspace(F.hz_to_mel(fmin), F.hz_to_mel(fmax), n_mels + 2))
        assert np.max(np.abs(edges - lib_edges)) < 1e-6

    def test_every_interior_bin_covered(self):
        fb = F.mel_filterbank(16000, 1024, n_mels=128, fmin=0.0, fmax=8000.0)
        bin_hz = np.arange(513) * (16000 / 1024)
        interior = (bin_hz > 0.0) & (bin_hz < 8000.0)
        assert np.all(fb.weights.sum(axis=0)[interior] > 0)

    def test_invalid_range(self):
        with pytest.raises(InvalidBandRangeError):
            F.mel_filterbank(16000, 1024, n_mels=16, fmin=5000.0, fmax=4000.0)
        with pytest.raises(InvalidBandRangeError):
            F.mel_filterbank(16000, 1024, n_mels=1)


class TestMelPower:
    def _stft(self, rng, n=3000, n_fft=256, hop=128):
        return F.stft(make_clip(rng.uniform(-0.9, 0.9, n)), n_fft=n_fft, hop_length=hop)

    def test_ones_spectrum_gives_row_sums(self):
        fb = F.mel_filterbank(16000, 256, n_mels=16)
        ones = F.StftMatrix(values=np.ones((129, 5), dtype=complex), n_fft=256,
                            hop_length=128, sample_rate=16000)
        mel = F.mel_power(ones, fb)
        expected = fb.weights.sum(axis=1)
        for col in range(5):
            assert mel.values[:, col] == pytest.approx(expected)

    def test_zero_stft(self):
        fb = F.mel_filterbank(16000, 256, n_mels=16)
        zero = F.StftMatrix(values=np.zeros((129, 3), dtype=complex), n_fft=256,
                            hop_length=128, sample_rate=16000)
        assert np.all(F.mel_power(zero, fb).values == 0)

    def test_matches_double_loop_oracle(self, rng):
        stft_matrix = self._stft(rng)
        fb = F.mel_filterbank(16000, 256, n_mels=12)
        mel = F.mel_power(stft_matrix, fb)
        power = np.abs(stft_matrix.values) ** 2
        for m in range(12):
            for n in range(0, stft_matrix.n_cols, 7):
                oracle = sum(fb.weights[m, k] * power[k, n] for k in range(129))
                assert mel.values[m, n] == pytest.approx(oracle, rel=1e-10, abs=1e-300)

    def test_shape_mismatch(self, rng):
        stft_matrix = self._stft(rng)
        fb = F.mel_filterbank(16000, 512, n_mels=12)
        with pytest.raises(ShapeMismatchError):
            F.mel_power(stft_matrix, fb)


class TestPowerToDb:
    def _mel(self, values):
        return F.MelSpectrogram(values=np.asarray(values, dtype=float), stage="power",
                                sample_rate=16000, hop_length=512)

    def test_max_cell_is_zero_db(self):
        out = F.power_to_db(self._mel([[1.0, 10.0], [5.0, 2.0]]))
        assert out.values.max() == 0.0
        assert out.values[0, 1] == 0.0

    def test_decade_is_minus_ten(self):
        out = F.power_to_db(self._mel([[1.0, 10.0]]))
        assert out.values[0, 0] == pytest.approx(-10.0, abs=1e-12)

    def test_zero_cell_floors(self):
        out = F.power_to_db(self._mel([[0.0, 1.0]]))
        assert out.values[0, 0] == F.DB_FLOOR

    def test_all_zero_raises(self):
        with pytest.raises(AllZeroSpectrogramError):
            F.power_to_db(self._mel(np.zeros((3, 3))))


class TestMinMaxNormalize:
    def test_spec_example(self):
        mel = mel_db_matrix([[-80.0, -40.0], [-20.0, 0.0]])
        out = F.minmax_normalize(mel)
        assert out.values == pytest.approx(np.array([[0.0, 0.5], [0.75, 1.0]]))

    def test_constant_maps_to_zeros(self):
        out = F.minmax_normalize(mel_db_matrix(np.full((3, 4), -30.0)))
        assert np.all(out.values == 0.0)
        assert out.stage == "normalized"

    def test_exact_extremes(self, rng):
        for _ in range(10):
            values = rng.uniform(-80.0, 0.0, (6, 9))
            out = F.minmax_normalize(mel_db_matrix(values))
            assert out.values.min() == 0.0
            assert out.values.max() == 1.0


class TestSegmentFrames:
    def _norm(self, values):
        return F.MelSpectrogram(values=values, stage="normalized",
                                sample_rate=16000, hop_length=512)

    def test_spec_count(self, rng):
        frames = F.segment_frames(self._norm(rng.uniform(0, 1, (8, 100))), 16, 3)
        assert frames.num_frames == 29

    def test_single_frame_boundary(self, rng):
        frames = F.segment_frames(self._norm(rng.uniform(0, 1, (8, 16))), 16, 3)
        assert frames.num_frames == 1

    def test_contents_match_slicing_oracle(self, rng):
        for _ in range(30):
            n_cols = int(rng.integers(5, 80))
            frame_size = int(rng.integers(1, n_cols + 1))
            hop = int(rng.integers(1, 12))
            values = rng.uniform(0, 1, (4, n_cols))
            frames = F.segment_frames(self._norm(values), frame_size, hop)
            expected = (n_cols - frame_size) // hop + 1
            assert frames.num_frames == expected
            for i in range(frames.num_frames):
                start = i * hop
                assert np.array_equal(frames.frames[i], values[:, start : start + frame_size])
                assert frames.origin_columns[i] == start

    def test_too_short(self, rng):
        with pytest.raises(SpectrogramTooShortError):
            F.segment_frames(self._norm(rng.uniform(0, 1, (4, 10))), 16, 3)


class TestMfcc:
    def test_constant_column(self):
        # orthonormal DCT-II of a constant column c: coefficient 0 = c*sqrt(n), rest 0
        mel = mel_db_matrix(np.full((128, 2), -1.0))
        coeffs = F.mfcc(mel, n_mfcc=13)
        assert coeffs[0, 0] == pytest.approx(-np.sqrt(128.0), abs=1e-9)
        assert np.abs(coeffs[1:, 0]).max() < 1e-12

    def test_zero_column(self):
        mel = mel_db_matrix(np.zeros((32, 3)))
        assert np.all(F.mfcc(mel, 8) == 0)

    def test_matches_dct_summation_oracle(self, rng):
        values = rng.uniform(-80.0, 0.0, (24, 5))
        mel = mel_db_matrix(values)
        coeffs = F.mfcc(mel, n_mfcc=10)
        n = 24
        for k in range(10):
            for col in range(5):
                total = sum(values[m, col] * np.cos(np.pi * k * (2 * m + 1) / (2 * n)) for m in range(n))
                scale = np.sqrt(1.0 / n) if k == 0 else np.sqrt(2.0 / n)
                assert coeffs[k, col] == pytest.approx(scale * total, rel=1e-9, abs=1e-9)

    def test_too_many_coefficients(self):
        with pytest.raises(TooManyCoefficientsError):
            F.mfcc(mel_db_matrix(np.zeros((8, 2))), n_mfcc=9)


class TestFftAmplitude:
    def test_zero_signal(self):
        freqs, amps = F.fft_amplitude_spectrum(make_clip(np.zeros(1000)))
        assert np.all(amps == 0)

    def test_vector_length(self, rng):
        for n in (100, 101, 4096):
            _, amps = F.fft_amplitude_spectrum(make_clip(rng.uniform(-1, 1, n)))
            assert amps.size == n // 2 + 1

    def test_tone_peaks_at_nearest_bin(self):
        clip = sine_clip(freq=1000.0, duration_s=0.25, amplitude=0.8)
        freqs, amps = F.fft_amplitude_spectrum(clip)
        assert abs(freqs[np.argmax(amps)] - 1000.0) <= freqs[1] - freqs[0]

    def test_matches_naive_dft(self, rng):
        x = rng.uniform(-1, 1, 256)
        freqs, amps = F.fft_amplitude_spectrum(make_clip(x))
        oracle = np.abs(naive_dft_column(x)) / x.size
        assert amps == pytest.approx(oracle, abs=1e-12)
        assert freqs[0] == 0.0
        assert freqs[-1] == pytest.approx(16000 / 2, rel=1e-12)


class TestDefaultFraming:
    def test_paper_prose_values(self):
        assert F.default_framing(16000, 512, 0.512, 0.2) == (16, 3)

    def test_listing_values(self):
        assert F.default_framing(16000, 512, 0.6, 0.2) == (19, 4)

    def test_hop_clamped_to_one(self):
        frame_size, hop = F.default_framing(16000, 512, 0.512, 0.001)
        assert hop == 1


class TestPipeline:
    def test_deterministic_bit_identical(self, rng):
        x = rng.uniform(-0.8, 0.8, 48000)
        a = F.frame_pipeline(make_clip(x), n_fft=512, hop_length=256, n_mels=32)
        b = F.frame_pipeline(make_clip(x), n_fft=512, hop_length=256, n_mels=32)
        assert np.array_equal(a.frames, b.frames)
        assert np.array_equal(a.origin_columns, b.origin_columns)

    def test_stage_transitions_preserve_shape_and_argmax(self, rng):
        x = rng.uniform(-0.8, 0.8, 32000)
        spec = F.stft(make_clip(x), n_fft=512, hop_length=256)
        fb = F.mel_filterbank(16000, 512, n_mels=32)
        power = F.mel_power(spec, fb)
        db = F.power_to_db(power)
        norm = F.minmax_normalize(db)
        assert power.values.shape == db.values.shape == norm.values.shape
        argmax = np.unravel_index(np.argmax(power.values), power.values.shape)
        assert np.unravel_index(np.argmax(db.values), db.values.shape) == argmax
        assert np.unravel_index(np.argmax(norm.values), norm.values.shape) == argmax

    def test_shared_filterbank_matches_a_fresh_one(self, rng):
        clip = make_clip(rng.uniform(-0.8, 0.8, 48000))
        spec = F.stft(clip, n_fft=512, hop_length=256)
        # the repeated (32, None) is served by the filterbank built for the first call
        for n_mels, fmax in [(32, None), (24, None), (24, 6000.0), (32, None)]:
            got = F.frame_pipeline(clip, n_fft=512, hop_length=256, n_mels=n_mels, fmax=fmax, target_rms=None)
            fb = F.mel_filterbank(16000, 512, n_mels=n_mels, fmax=fmax)
            norm = F.minmax_normalize(F.power_to_db(F.mel_power(spec, fb)))
            want = F.segment_frames(norm, *F.default_framing(16000, 256))
            assert np.array_equal(got.frames, want.frames)

    def test_frames_in_unit_interval(self, rng):
        x = rng.uniform(-0.8, 0.8, 48000)
        frames = F.frame_pipeline(make_clip(x), n_fft=512, hop_length=256, n_mels=32)
        assert frames.frames.min() >= 0.0
        assert frames.frames.max() <= 1.0


class TestFramePersistence:
    def test_round_trip(self, tmp_path, rng):
        from conftest import random_frames

        frames = random_frames(num_frames=15, n_mels=9, frame_size=5, hop_size=2, seed=3)
        path = tmp_path / "x.frames"
        F.save_frames(frames, path)
        loaded = F.load_frames(path)
        assert loaded.frames == pytest.approx(frames.frames, abs=1e-7)  # f32 storage
        assert np.array_equal(loaded.origin_columns, frames.origin_columns)
        assert (loaded.sample_rate, loaded.hop_length) == (frames.sample_rate, frames.hop_length)
        assert (loaded.frame_size, loaded.hop_size) == (frames.frame_size, frames.hop_size)

    def test_f32_payload_round_trips_exactly(self, tmp_path):
        from conftest import random_frames

        frames = random_frames(seed=4)
        path = tmp_path / "y.frames"
        F.save_frames(frames, path)
        once = F.load_frames(path)
        F.save_frames(once, tmp_path / "z.frames")
        twice = F.load_frames(tmp_path / "z.frames")
        assert np.array_equal(once.frames, twice.frames)

    def test_truncated_archive(self, tmp_path):
        from conftest import random_frames

        path = tmp_path / "t.frames"
        F.save_frames(random_frames(seed=5), path)
        data = path.read_bytes()
        path.write_bytes(data[:-10])
        with pytest.raises(CorruptModelFileError):
            F.load_frames(path)

    @pytest.mark.parametrize("overrides, tail, flip, match", [
        ({"hop_size": None}, b"", None, "missing block 'hop_size'"),
        ({"hop_size": 0}, b"", None, "below 1"),
        ({"hop_size": 3.5}, b"", None, "'hop_size' is <f8"),
        ({"sample_rate": -5}, b"", None, "below 1"),
        ({}, b"\x00" * 8, None, "trailing bytes"),
        ({}, b"", 40, "checksum"),
    ], ids=["missing-hop-size", "zero-hop-size", "float-hop-size", "negative-sample-rate",
            "trailing-bytes", "flipped-byte"])
    def test_malformed_archive_rejected(self, tmp_path, overrides, tail, flip, match):
        from conftest import random_frames, write_frame_archive

        path = tmp_path / "s.frames"
        write_frame_archive(path, random_frames(seed=7), tail=tail, **overrides)
        if flip is not None:
            data = bytearray(path.read_bytes())
            data[flip] ^= 0x01
            path.write_bytes(bytes(data))
        with pytest.raises(CorruptModelFileError, match=match):
            F.load_frames(path)

    @pytest.mark.parametrize("version", [1, 200])
    def test_future_version_rejected(self, tmp_path, version):
        from conftest import random_frames

        path = tmp_path / "v.frames"
        F.save_frames(random_frames(seed=6), path)
        data = bytearray(path.read_bytes())
        data[8] = version
        path.write_bytes(bytes(data))
        with pytest.raises(VersionMismatchError):
            F.load_frames(path)
