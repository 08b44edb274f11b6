import struct

import numpy as np
import pytest

from mvcnn.audio import (
    AudioClip,
    SilenceConfig,
    hamming_coefficients,
    load_wav,
    remove_silence,
    rms,
    save_wav,
    segment,
    window_rms,
)
from mvcnn.errors import InvalidSetting, MalformedWav


def make_wav_bytes(samples_i16, sample_rate=24000, n_channels=1, bits=16, fmt_tag=1):
    """Build a minimal RIFF/WAVE blob by hand (independent of save_wav)."""
    pcm = b"".join(struct.pack("<h", s) for s in samples_i16)
    block_align = n_channels * bits // 8
    header = struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF",
        36 + len(pcm),
        b"WAVE",
        b"fmt ",
        16,
        fmt_tag,
        n_channels,
        sample_rate,
        sample_rate * block_align,
        block_align,
        bits,
        b"data",
        len(pcm),
    )
    return header + pcm


class TestLoadWav:
    def test_linear_scaling(self, tmp_path):
        path = tmp_path / "a.wav"
        path.write_bytes(make_wav_bytes([0, 16384, -16384]))
        clip = load_wav(path)
        assert clip.sample_rate == 24000
        np.testing.assert_allclose(clip.samples, [0.0, 0.5, -0.5])

    def test_stereo_rejected(self, tmp_path):
        path = tmp_path / "st.wav"
        path.write_bytes(make_wav_bytes([0, 0], n_channels=2))
        with pytest.raises(MalformedWav, match="expected mono, got 2 channels"):
            load_wav(path)

    def test_non_pcm_rejected(self, tmp_path):
        path = tmp_path / "f.wav"
        path.write_bytes(make_wav_bytes([0, 0], fmt_tag=3))
        with pytest.raises(MalformedWav, match=r"not PCM \(format tag 3\)"):
            load_wav(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "t.wav"
        path.write_bytes(make_wav_bytes([1, 2, 3])[:20])
        with pytest.raises(MalformedWav):
            load_wav(path)

    def test_not_riff(self, tmp_path):
        path = tmp_path / "n.wav"
        path.write_bytes(b"OggS" + b"\x00" * 40)
        with pytest.raises(MalformedWav):
            load_wav(path)

    def test_save_load_round_trip(self, tmp_path):
        rng = np.random.Generator(np.random.PCG64(7))
        clip = AudioClip(rng.uniform(-0.9, 0.9, 1000), 24000)
        path = tmp_path / "r.wav"
        save_wav(path, clip)
        back = load_wav(path)
        assert back.sample_rate == 24000
        # 16-bit quantization only
        assert np.max(np.abs(back.samples - clip.samples)) <= 0.5 / 32768


class TestRms:
    def test_zeros(self):
        assert rms(np.zeros(100)) == 0.0

    def test_constant(self):
        assert rms(np.full(50, 0.5)) == pytest.approx(0.5)

    def test_hand_computed(self):
        # sqrt((0.36 + 0.64) / 2)
        assert rms([0.6, -0.8]) == pytest.approx(np.sqrt(0.5), abs=1e-12)

    def test_scale_equivariance(self):
        rng = np.random.Generator(np.random.PCG64(0))
        x = rng.normal(size=257)
        for c in (-3.0, 0.25, 7.5):
            assert rms(c * x) == pytest.approx(abs(c) * rms(x), rel=1e-12)


def tone_clip(freq, seconds, amplitude, sr=24000):
    t = np.arange(int(seconds * sr)) / sr
    return amplitude * np.sin(2 * np.pi * freq * t)


class TestRemoveSilence:
    def test_recovers_active_middle_second(self):
        sr = 24000
        middle = tone_clip(1000, 1.0, 0.5, sr)
        samples = np.concatenate([np.zeros(sr), middle, np.zeros(sr)])
        out = remove_silence(AudioClip(samples, sr), SilenceConfig(threshold=0.03))
        np.testing.assert_array_equal(out.samples, middle)

    def test_all_zero_clip_empties(self):
        out = remove_silence(AudioClip(np.zeros(48000), 24000), SilenceConfig())
        assert len(out) == 0

    def test_zero_threshold_keeps_everything(self):
        clip = AudioClip(np.zeros(50000), 24000)
        out = remove_silence(clip, SilenceConfig(threshold=0.0))
        np.testing.assert_array_equal(out.samples, clip.samples)

    def test_trailing_partial_window_kept_iff_active(self):
        sr = 1000
        samples = np.concatenate([np.zeros(sr), np.full(300, 0.5)])
        out = remove_silence(AudioClip(samples, sr), SilenceConfig(threshold=0.03))
        np.testing.assert_array_equal(out.samples, np.full(300, 0.5))
        samples2 = np.concatenate([np.full(sr, 0.5), np.zeros(300)])
        out2 = remove_silence(AudioClip(samples2, sr), SilenceConfig(threshold=0.03))
        np.testing.assert_array_equal(out2.samples, np.full(sr, 0.5))

    def test_idempotent_on_random_clips(self):
        rng = np.random.Generator(np.random.PCG64(42))
        cfg = SilenceConfig(threshold=0.1, window_seconds=0.25)
        for _ in range(50):
            n = int(rng.integers(1, 12000))
            # random mix of silent and loud stretches
            samples = rng.normal(0, 0.3, n) * (rng.random(n) < 0.5)
            once = remove_silence(AudioClip(samples, 8000), cfg)
            if len(once) == 0:
                continue
            twice = remove_silence(once, cfg)
            np.testing.assert_array_equal(once.samples, twice.samples)

    def test_output_is_window_subsequence(self):
        rng = np.random.Generator(np.random.PCG64(3))
        sr = 1000
        cfg = SilenceConfig(threshold=0.2, window_seconds=1.0)
        samples = np.concatenate(
            [rng.normal(0, 0.5, sr) * on for on in (1, 0, 1, 0, 0, 1)]
        )
        out = remove_silence(AudioClip(samples, sr), cfg)
        assert len(out) <= len(samples)
        expected = np.concatenate(
            [samples[0:sr], samples[2 * sr : 3 * sr], samples[5 * sr : 6 * sr]]
        )
        np.testing.assert_array_equal(out.samples, expected)

    def test_matches_per_window_rms_oracle(self):
        """Thresholds sit exactly on one window's RMS, so a reduction that is
        not bit-identical to rms() of each window keeps or drops it wrongly."""
        rng = np.random.Generator(np.random.PCG64(11))
        for _ in range(400):
            sr = int(rng.choice([1000, 8000, 24000]))
            win = int(round(rng.uniform(0.002, 0.05) * sr))
            # up to six full windows, then half the time a partial one
            tail = int(rng.integers(0, win)) if rng.random() < 0.5 else 0
            n = int(rng.integers(0, 7)) * win + tail
            loudness = rng.uniform(0, 0.4, n // win + 1) * (rng.random(n // win + 1) < 0.8)
            samples = rng.normal(0, 1, n) * np.repeat(loudness, win)[:n]
            chunks = [samples[s : s + win] for s in range(0, n, win)]
            levels = [rms(c) for c in chunks if rms(c) <= 0.5]
            threshold = float(rng.choice(levels)) if levels else 0.1
            cfg = SilenceConfig(threshold=threshold, window_seconds=win / sr)
            expected = [c for c in chunks if rms(c) >= threshold]
            out = remove_silence(AudioClip(samples, sr), cfg)
            np.testing.assert_array_equal(
                out.samples, np.concatenate(expected) if expected else np.empty(0)
            )


class TestWindowRms:
    @staticmethod
    def per_window_levels(samples, win):
        """Test-only oracle: rms() of each consecutive slice of win samples."""
        return [rms(samples[s : s + win]) for s in range(0, len(samples), win)]

    def test_matches_per_window_rms(self):
        rng = np.random.Generator(np.random.PCG64(19))
        for _ in range(300):
            sr = int(rng.choice([1000, 8000, 24000]))
            win = int(rng.integers(1, 400))
            # full windows, a trailing partial one, or fewer samples than one window
            n = int(rng.integers(0, 6)) * win + int(rng.integers(0, win + 1))
            samples = rng.normal(0, rng.uniform(0, 0.5), n)
            levels, got_win = window_rms(AudioClip(samples, sr),
                                         SilenceConfig(window_seconds=win / sr))
            assert got_win == (min(win, n) or 1)
            np.testing.assert_array_equal(levels, self.per_window_levels(samples, got_win))
            assert len(levels) == -(-n // win)

    def test_window_longer_than_the_clip_is_the_whole_clip(self):
        samples = np.linspace(-0.4, 0.3, 100)
        for seconds in (1.0, 1e6, 1e15, 1e308):
            levels, win = window_rms(AudioClip(samples, 24000),
                                     SilenceConfig(window_seconds=seconds))
            assert win == 100
            np.testing.assert_array_equal(levels, [rms(samples)])

    def test_empty_clip_has_no_windows(self):
        levels, _ = window_rms(AudioClip(np.empty(0), 24000), SilenceConfig())
        assert levels.shape == (0,)

    def test_window_of_no_sample(self):
        with pytest.raises(InvalidSetting, match="shorter than one sample"):
            window_rms(AudioClip(np.ones(10), 1000), SilenceConfig(window_seconds=1e-4))

    @pytest.mark.parametrize("seconds", [0.0, -1.0, float("nan"), float("inf")])
    def test_config_refuses_a_window_that_is_not_positive_and_finite(self, seconds):
        with pytest.raises(InvalidSetting, match="window_seconds"):
            SilenceConfig(window_seconds=seconds)

    @pytest.mark.parametrize("seconds", [1e6, 1e15])
    def test_remove_silence_with_a_window_longer_than_the_clip(self, seconds):
        # one window of 100 samples, not a mask of a full window's length
        samples = np.full(100, 0.2)
        cfg = SilenceConfig(threshold=0.1, window_seconds=seconds)
        np.testing.assert_array_equal(
            remove_silence(AudioClip(samples, 24000), cfg).samples, samples
        )
        quiet = AudioClip(samples / 4, 24000)
        assert len(remove_silence(quiet, cfg)) == 0


class TestSegment:
    def test_three_frames_half_overlap(self):
        samples = np.arange(32768) / 32768.0
        frames = segment(AudioClip(samples, 24000), 16384, 0.5)
        assert frames.shape == (3, 16384)
        for i, row in enumerate(frames):
            np.testing.assert_array_equal(row, samples[i * 8192 : i * 8192 + 16384])

    def test_short_clip_yields_nothing(self):
        for n in (0, 1, 100, 2047):
            frames = segment(AudioClip(np.zeros(n), 24000), 2048, 0.5)
            assert frames.shape == (0, 2048)
            assert frames.dtype == np.float64
            assert not frames.flags.writeable  # a read-only view, as for longer clips

    def test_no_overlap_tiles(self):
        samples = np.arange(4096.0)
        frames = segment(AudioClip(samples, 24000), 2048, 0.0)
        np.testing.assert_array_equal(frames, samples.reshape(2, 2048))

    def test_rows_are_raw_samples(self):
        rng = np.random.Generator(np.random.PCG64(5))
        samples = rng.normal(size=70000)
        frames = segment(AudioClip(samples, 24000), 16384, 0.5)
        assert len(frames) == (70000 - 16384) // 8192 + 1
        for i, row in enumerate(frames):
            np.testing.assert_array_equal(row, samples[i * 8192 : i * 8192 + 16384])

    def test_frames_are_a_read_only_view(self):
        clip = AudioClip(np.arange(8192.0), 24000)
        frames = segment(clip, 2048, 0.5)
        assert np.shares_memory(frames, clip.samples)
        with pytest.raises(ValueError, match="read-only"):
            frames[0, 0] = 1.0


class TestHamming:
    def test_endpoint_and_midpoint(self):
        w = hamming_coefficients(1024)
        assert w[0] == pytest.approx(0.08, abs=1e-12)
        assert w[512] == pytest.approx(1.0, abs=1e-12)

    def test_cached_read_only_and_equal_to_formula(self):
        w = hamming_coefficients(512)
        assert hamming_coefficients(512) is w
        assert not w.flags.writeable
        k = np.arange(512)
        np.testing.assert_array_equal(w, 0.54 - 0.46 * np.cos(2.0 * np.pi * k / 512))
