import numpy as np
import pytest

from mvcnn.audio import AudioClip, hamming_coefficients
from mvcnn.errors import InvalidSetting, LengthMismatch, ZeroPowerSignal
from mvcnn.evaluation import DEFAULT_GRIDS
from mvcnn.spectral import (
    HIGHPASS_BLOCK,
    HIGHPASS_ORDER,
    add_noise_snr,
    dct_matrix,
    design_highpass,
    fit_standardizer,
    highpass_butterworth,
    log_features,
    measure_snr,
    mel_filterbank,
    mfcc_features,
    normalize,
    power_spectra,
    spectrum_features,
    standard_normals,
    standardize,
    _GROUP_BLOCKS,
    _average_groups,
    _highpass_operators,
)


def naive_dft_magnitudes(x):
    """O(N^2) DFT oracle, bins 0..N/2."""
    n = len(x)
    k = np.arange(n)
    mat = np.exp(-2j * np.pi * np.outer(k, k) / n)
    return np.abs(mat @ x)[: n // 2 + 1]


def tdf2_reference(sections, x, dtype=np.float64):
    """Per-sample transposed direct form II recurrence, section by section."""
    y = np.array(x, dtype=dtype)
    for b0, b1, b2, _, a1, a2 in np.asarray(sections, dtype=dtype):
        z1 = z2 = dtype(0)
        for i in range(len(y)):
            xi = y[i]
            yi = b0 * xi + z1
            z1 = b1 * xi - a1 * yi + z2
            z2 = b2 * xi - a2 * yi
            y[i] = yi
    return y


def magnitudes(x):
    """|X[k]|, bins 0..N/2, of a frame or a batch of frames."""
    return np.sqrt(power_spectra(x))


class TestFftMagnitude:
    def test_dc_only(self):
        np.testing.assert_allclose(magnitudes(np.ones(8)), [8, 0, 0, 0, 0], atol=1e-12)

    def test_on_grid_cosine_single_peak(self):
        n = 16
        x = np.cos(2 * np.pi * 3 * np.arange(n) / n)
        bins = magnitudes(x)
        assert bins[3] == pytest.approx(n / 2, abs=1e-9)
        others = np.delete(bins, 3)
        assert np.max(others) < 1e-9

    def test_matches_naive_dft(self):
        rng = np.random.Generator(np.random.PCG64(1))
        for n in (8, 64, 256):
            x = rng.normal(size=n)
            np.testing.assert_allclose(magnitudes(x), naive_dft_magnitudes(x), atol=1e-9)

    def test_parseval(self):
        rng = np.random.Generator(np.random.PCG64(2))
        for _ in range(100):
            x = rng.normal(size=1024)
            bins = magnitudes(x)
            # reconstruct the full power spectrum by conjugate symmetry
            full = bins[0] ** 2 + bins[-1] ** 2 + 2 * np.sum(bins[1:-1] ** 2)
            time_energy = np.sum(x * x)
            assert abs(full / len(x) - time_energy) <= 1e-9 * time_energy

    def test_linearity_in_scale(self):
        rng = np.random.Generator(np.random.PCG64(3))
        x = rng.normal(size=128)
        base = magnitudes(x)
        for a in (-2.0, 0.5):
            np.testing.assert_allclose(magnitudes(a * x), abs(a) * base, atol=1e-10)

    def test_bin_count_invariant(self):
        assert magnitudes(np.zeros((3, 2048))).shape == (3, 1025)


class TestBinAverage:
    def test_all_ones(self):
        for L in (1, 2, 3, 9):
            np.testing.assert_allclose(_average_groups(np.ones(9), L), np.ones(L))

    def test_identity_when_L_equals_count(self):
        bins = np.arange(5, dtype=float)
        np.testing.assert_array_equal(_average_groups(bins, 5), bins)

    def test_hand_computed_groups(self):
        # 5 bins (N/2 + 1 of an 8-sample frame) in 2 groups, remainder first
        bins = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        np.testing.assert_allclose(_average_groups(bins, 2), [2.0, 4.5])

    def test_first_groups_take_remainder(self):
        bins = np.array([2.0, 4.0, 6.0, 8.0, 10.0])
        # sizes (2, 2, 1)
        np.testing.assert_allclose(_average_groups(bins, 3), [3.0, 7.0, 10.0])


def test_bin_average_four_bin_example():
    """The documented grouping: {1,2,3,4} with L=2 -> {1.5, 3.5}."""
    from mvcnn.spectral import _group_starts

    starts, sizes = _group_starts(4, 2)
    bins = np.array([1.0, 2.0, 3.0, 4.0])
    out = np.add.reduceat(bins, starts) / sizes
    np.testing.assert_allclose(out, [1.5, 3.5])


class TestSpectrumFeatures:
    def test_matches_per_frame_path(self):
        rng = np.random.Generator(np.random.PCG64(9))
        windowed = rng.normal(size=(5, 1024)) * hamming_coefficients(1024)
        batch = spectrum_features(windowed, feature_len=64)
        for row, frame in zip(batch, windowed):
            np.testing.assert_allclose(
                row, _average_groups(magnitudes(frame), 64), atol=1e-9
            )

    def test_empty_input(self):
        assert spectrum_features(np.empty((0, 64)), 32).shape == (0, 32)


class TestNormalizer:
    def test_identical_vectors_normalize_to_zero(self):
        feats = np.tile(np.array([1.0, 2.0, 3.0]), (8, 1))
        stats = fit_standardizer(log_features(feats))
        np.testing.assert_allclose(normalize(feats[0], stats), np.zeros(3))

    def test_zscore_definition(self):
        rng = np.random.Generator(np.random.PCG64(4))
        feats = rng.uniform(0.0, 5.0, size=(200, 16))
        stats = fit_standardizer(log_features(feats))
        z = normalize(feats, stats)
        np.testing.assert_allclose(z.mean(axis=0), np.zeros(16), atol=1e-9)
        np.testing.assert_allclose(z.std(axis=0), np.ones(16), atol=1e-6)

    def test_halves_give_the_one_pass_formula_bit_for_bit(self):
        rng = np.random.Generator(np.random.PCG64(5))
        feats = rng.uniform(0.0, 5.0, size=(50, 16))
        feats[:, 3] = 2.0  # a constant dimension meets the std floor
        # the formula written out in one pass, in place, as a reference
        mean = np.log1p(feats).mean(axis=0)
        std = np.maximum(np.log1p(feats).std(axis=0), 1e-8)
        want = np.log1p(feats)
        want -= mean
        want /= std
        logged = log_features(feats)
        stats = fit_standardizer(logged)
        np.testing.assert_array_equal(stats.mean, mean)
        np.testing.assert_array_equal(stats.std, std)
        np.testing.assert_array_equal(standardize(logged, stats), want)
        np.testing.assert_array_equal(standardize(logged[7], stats), want[7])
        # run_cv standardizes one clip's logged rows in every fold: never in place
        np.testing.assert_array_equal(logged, np.log1p(feats))
        np.testing.assert_array_equal(normalize(feats, fit_standardizer(log_features(feats))),
                                      want)


def steady_gain(freq_hz, sr, cutoff_hz=200.0):
    """Measured gain of the high-pass on a unit sine at freq_hz: the
    amplitude of the filtered sine's freq_hz component over its second
    half-second, which holds whole cycles, after the transient has decayed."""
    t = np.arange(sr) / sr
    out = highpass_butterworth(AudioClip(np.sin(2 * np.pi * freq_hz * t), sr), cutoff_hz)
    steady, phase = out.samples[sr // 2 :], 2 * np.pi * freq_hz * t[sr // 2 :]
    sin_part = 2 * np.mean(steady * np.sin(phase))
    cos_part = 2 * np.mean(steady * np.cos(phase))
    return float(np.hypot(sin_part, cos_part))


class TestHighpass:
    def test_dc_rejection(self):
        sr = 24000
        clip = AudioClip(np.ones(sr), sr)
        out = highpass_butterworth(clip, 200.0)
        assert np.max(np.abs(out.samples[sr // 2 :])) < 1e-3

    def test_passband_tone_within_one_percent(self):
        sr = 24000
        t = np.arange(sr) / sr
        clip = AudioClip(0.5 * np.sin(2 * np.pi * 1000 * t), sr)
        out = highpass_butterworth(clip, 200.0)
        # measured gain at 1 kHz is essentially unity
        assert steady_gain(1000.0, sr) == pytest.approx(1.0, abs=0.01)
        steady = np.max(np.abs(out.samples[sr // 2 :]))
        assert steady == pytest.approx(0.5, rel=0.01)

    def test_cutoff_gain_is_half_power(self):
        assert steady_gain(200.0, 24000) == pytest.approx(1 / np.sqrt(2), rel=1e-9)

    @pytest.mark.parametrize("freq_hz", (50.0, 100.0, 400.0, 3000.0))
    def test_gain_is_the_warped_butterworth_magnitude(self, freq_hz):
        # a bilinear Butterworth high-pass of order N has
        # |H(f)| = 1 / sqrt(1 + (tan(pi fc / fs) / tan(pi f / fs)) ** (2 N)),
        # so the stopband slope pins the order to HIGHPASS_ORDER
        sr = 24000
        ratio = np.tan(np.pi * 200.0 / sr) / np.tan(np.pi * freq_hz / sr)
        want = 1.0 / np.sqrt(1.0 + ratio ** (2 * HIGHPASS_ORDER))
        assert steady_gain(freq_hz, sr) == pytest.approx(want, rel=1e-6)

    def test_invalid_cutoffs(self):
        clip = AudioClip(np.zeros(100), 24000)
        for bad in (0.0, -5.0, 12000.0, 13000.0):
            with pytest.raises(InvalidSetting, match=rf"cutoff {bad} Hz outside \(0, 12000.0\)"):
                highpass_butterworth(clip, bad)

    @pytest.mark.parametrize("sr", (1000, 8000, 24000, 44100))
    def test_block_filter_matches_per_sample_recurrence(self, sr):
        # block and group edges, partial last blocks and groups, and one 2 s
        # clip at 24 kHz
        rng = np.random.Generator(np.random.PCG64(sr + HIGHPASS_ORDER))
        sections = design_highpass(200.0, sr)
        L = HIGHPASS_BLOCK
        G = HIGHPASS_BLOCK * _GROUP_BLOCKS
        for n in (0, 1, L - 1, L, L + 1, 3 * L + 5, G - 1, G, G + 1, 3 * G + 2 * L + 7, 48000):
            x = rng.normal(size=n)
            got = highpass_butterworth(AudioClip(x, sr), 200.0).samples
            want = tdf2_reference(sections, x)
            assert got.shape == want.shape
            scale = np.max(np.abs(want), initial=0.0)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * scale)

    @pytest.mark.parametrize("cutoff", (50.0, 1000.0, 5000.0))
    def test_block_filter_matches_recurrence_at_other_cutoffs(self, cutoff):
        # the pole layout moves with the cutoff; one 2 s clip at 24 kHz
        sr = 24000
        x = np.random.Generator(np.random.PCG64(int(cutoff))).normal(size=48000)
        got = highpass_butterworth(AudioClip(x, sr), cutoff).samples
        want = tdf2_reference(design_highpass(cutoff, sr), x)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.max(np.abs(want)))

    @pytest.mark.parametrize("cutoff, sr", ((3990.0, 8000), (1.0, 48000)))
    def test_block_filter_at_extreme_cutoffs(self, cutoff, sr):
        # Poles near the unit circle (1 Hz at 48 kHz) or near z = -1 (3990 Hz
        # at 8 kHz) amplify rounding in a float64 per-sample loop: against a
        # long-double recurrence it is 4e-11 and 5e-13 of max|y| off, the
        # block scan 1.2e-14 and 6e-16 (test_block_filter_error_against_long_double).
        # Hence a looser bound than at 200 Hz.
        x = np.random.Generator(np.random.PCG64(3)).normal(size=48000)
        got = highpass_butterworth(AudioClip(x, sr), cutoff).samples
        want = tdf2_reference(design_highpass(cutoff, sr), x)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-7 * np.max(np.abs(want)))

    @pytest.mark.skipif(
        np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps,
        reason="np.longdouble is no wider than float64 on this platform",
    )
    @pytest.mark.parametrize(
        "cutoff, sr, bound",
        ((200.0, 24000, 1e-15), (3990.0, 8000, 4e-15), (1.0, 48000, 5e-14)),
    )
    def test_block_filter_error_against_long_double(self, cutoff, sr, bound):
        # measured at 1.7e-16, 6.4e-16 and 1.2e-14 of max|y|; the 128-sample
        # one-level scan with float64-built operators read 4.8e-15, 2.3e-12
        # and 4.2e-12
        x = np.random.Generator(np.random.PCG64(3)).normal(size=48000)
        got = highpass_butterworth(AudioClip(x, sr), cutoff).samples
        want = tdf2_reference(design_highpass(cutoff, sr), x, np.longdouble)
        error = np.max(np.abs(got - want)) / np.max(np.abs(want))
        assert error < bound

    def test_operators_are_shared_and_read_only(self):
        # one operator set per design serves every clip, so no caller may edit it
        ops = _highpass_operators(200.0, 24000)
        assert _highpass_operators(200.0, 24000) is ops
        assert len(ops) == 2
        for section in ops:
            for op in section:
                with pytest.raises(ValueError):
                    op.flat[0] = 1.0

    def test_linear_time_invariant(self):
        sr = 8000
        impulse = np.zeros(2000)
        impulse[0] = 1.0
        delayed = np.zeros(2000)
        delayed[300] = 1.0
        h0 = highpass_butterworth(AudioClip(impulse, sr), 200.0).samples
        h1 = highpass_butterworth(AudioClip(delayed, sr), 200.0).samples
        np.testing.assert_allclose(h1[300:], h0[:-300], atol=1e-12)

    def test_linearity(self):
        rng = np.random.Generator(np.random.PCG64(6))
        x = rng.normal(size=1500)
        y = rng.normal(size=1500)
        fx = highpass_butterworth(AudioClip(x, 8000), 200.0).samples
        fy = highpass_butterworth(AudioClip(y, 8000), 200.0).samples
        fxy = highpass_butterworth(AudioClip(2 * x - 3 * y, 8000), 200.0).samples
        np.testing.assert_allclose(fxy, 2 * fx - 3 * fy, atol=1e-9)


class TestNoise:
    def _clip(self, seconds=1.0, sr=24000):
        t = np.arange(int(seconds * sr)) / sr
        return AudioClip(0.4 * np.sin(2 * np.pi * 800 * t), sr)

    @pytest.mark.parametrize("target", [-6.0, 0.0, 6.0])
    def test_empirical_snr_averaged_over_seeds(self, target):
        clip = self._clip()
        n = len(clip.samples)
        measured = []
        for seed in range(10):
            noisy = add_noise_snr(clip, target, standard_normals(seed, np.empty(n)))
            noise = AudioClip(noisy.samples - clip.samples, clip.sample_rate)
            measured.append(measure_snr(clip, noise))
        assert np.mean(measured) == pytest.approx(target, abs=0.1)

    def test_deterministic_per_seed(self):
        clip = self._clip(0.2)
        n = len(clip.samples)
        a = add_noise_snr(clip, -6.0, standard_normals(123, np.empty(n)))
        b = add_noise_snr(clip, -6.0, standard_normals(123, np.empty(n)))
        np.testing.assert_array_equal(a.samples, b.samples)
        c = add_noise_snr(clip, -6.0, standard_normals(124, np.empty(n)))
        assert not np.array_equal(a.samples, c.samples)

    @pytest.mark.parametrize("seed", [0, 7, 1009, 2**40])
    @pytest.mark.parametrize("snr_db", [-6.0, -3.0, 0.0, 12.5])
    def test_noise_matches_normal_draw_bytes(self, seed, snr_db):
        # sigma * standard_normal is numpy's own rng.normal(0, sigma) formula
        clip = self._clip(0.3)
        sigma = np.sqrt(np.mean(clip.samples**2) / 10.0 ** (snr_db / 10.0))
        rng = np.random.Generator(np.random.PCG64(seed))
        want = clip.samples + rng.normal(0.0, sigma, len(clip.samples))
        normals = standard_normals(seed, np.empty(len(clip.samples)))
        got = add_noise_snr(clip, snr_db, normals).samples
        assert got.tobytes() == want.tobytes()

    def test_zero_power_rejected(self):
        with pytest.raises(ZeroPowerSignal):
            add_noise_snr(AudioClip(np.zeros(100), 24000), 0.0,
                          standard_normals(0, np.empty(100)))

    def test_measure_snr_equal_power(self):
        clip = self._clip(0.1)
        assert measure_snr(clip, clip) == pytest.approx(0.0, abs=1e-12)

    def test_measure_snr_half_amplitude(self):
        clip = self._clip(0.1)
        half = AudioClip(clip.samples / 2, clip.sample_rate)
        assert measure_snr(clip, half) == pytest.approx(20 * np.log10(2), abs=1e-9)

    def test_measure_snr_quadruple_power(self):
        clip = self._clip(0.1)
        doubled = AudioClip(clip.samples * 2, clip.sample_rate)
        assert measure_snr(clip, doubled) == pytest.approx(-10 * np.log10(4), abs=1e-9)

    def test_measure_snr_length_mismatch(self):
        clip = self._clip(0.1)
        with pytest.raises(LengthMismatch):
            measure_snr(clip, AudioClip(np.ones(10), clip.sample_rate))


def oracle_mfcc(values, sample_rate, n_filters, n_coeffs):
    """Brute-force MFCC: naive DFT, direct triangle sums, naive DCT loops."""
    n = len(values)
    power = naive_dft_magnitudes(values) ** 2
    mel_hi = 2595.0 * np.log10(1.0 + (sample_rate / 2) / 700.0)
    edges = 700.0 * (10.0 ** (np.linspace(0.0, mel_hi, n_filters + 2) / 2595.0) - 1.0)
    energies = np.zeros(n_filters)
    for i in range(n_filters):
        lo, mid, hi = edges[i], edges[i + 1], edges[i + 2]
        for k in range(n // 2 + 1):
            f = k * sample_rate / n
            if lo <= f <= mid:
                w = (f - lo) / (mid - lo)
            elif mid < f <= hi:
                w = (hi - f) / (hi - mid)
            else:
                w = 0.0
            energies[i] += w * power[k]
    logged = np.log(np.maximum(energies, 1e-10))
    out = np.zeros(n_coeffs)
    for c in range(n_coeffs):
        acc = 0.0
        for i in range(n_filters):
            acc += logged[i] * np.cos(np.pi * c * (2 * i + 1) / (2 * n_filters))
        scale = np.sqrt(1.0 / n_filters) if c == 0 else np.sqrt(2.0 / n_filters)
        out[c] = scale * acc
    return out


class TestMfcc:
    def test_zero_frame_constant_dct(self):
        coeffs = mfcc_features(np.zeros((1, 512)), 24000)[0]
        assert coeffs[0] == pytest.approx(np.sqrt(26) * np.log(1e-10), rel=1e-9)
        np.testing.assert_allclose(coeffs[1:], np.zeros(12), atol=1e-9)

    def test_matches_brute_force_oracle(self):
        rng = np.random.Generator(np.random.PCG64(8))
        for _ in range(20):
            x = rng.normal(size=256)
            got = mfcc_features(x[None], 24000)[0]
            want = oracle_mfcc(x, 24000, 26, 13)
            np.testing.assert_allclose(got, want, atol=1e-9)

    def test_filterbank_shape_and_coverage(self):
        fbank = mel_filterbank(26, 2048, 24000)
        assert fbank.shape == (26, 1025)
        assert np.all(fbank >= 0)
        # every filter has some mass
        assert np.all(fbank.sum(axis=1) > 0)

    @pytest.mark.parametrize(
        "n_fft, sample_rate, empty", [(128, 24000, 1), (1, 16000, 26), (256, 96000, 1)]
    )
    def test_filterbank_refuses_a_window_too_short_for_the_rate(
        self, n_fft, sample_rate, empty
    ):
        # an empty filter floors its energy, so its MFCC input is a constant
        message = (
            rf"^window {n_fft} at {sample_rate} Hz leaves {empty} mel filters of 26 "
            r"on no FFT bin$"
        )
        with pytest.raises(InvalidSetting, match=message):
            mel_filterbank(26, n_fft, sample_rate)

    @pytest.mark.parametrize("sample_rate", [8000, 16000, 24000, 48000, 96000, 192000])
    def test_filterbank_covers_every_window_choice(self, sample_rate):
        for n_fft in DEFAULT_GRIDS["window_size"]:
            assert mel_filterbank(26, n_fft, sample_rate).any(axis=1).all()

    def test_filterbank_is_shared_and_read_only(self):
        # one matrix per argument triple serves every clip, so no caller may edit it
        fbank = mel_filterbank(26, 2048, 24000)
        assert mel_filterbank(26, 2048, 24000) is fbank
        with pytest.raises(ValueError):
            fbank[0, 0] = 1.0

    def test_dct_matrix_orthonormal(self):
        mat = dct_matrix(26)
        np.testing.assert_allclose(mat @ mat.T, np.eye(26), atol=1e-12)

    def test_dct_matrix_is_shared_read_only_and_equals_a_fresh_build(self):
        mat = dct_matrix(26)
        assert dct_matrix(26) is mat
        with pytest.raises(ValueError):
            mat[0, 0] = 1.0
        fresh = dct_matrix.__wrapped__(26)
        np.testing.assert_array_equal(mat, fresh)
