import itertools
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from mvcnn.audio import WAV_MAX_SAMPLES, AudioClip, rms
from mvcnn import evaluation
from mvcnn.errors import EmptyDataset, InvalidSetting, InvalidSpec, ZeroPowerSignal
from mvcnn.evaluation import (
    FEATURE_KINDS,
    FREQ_JITTER,
    PERIOD_JITTER,
    ClipDataset,
    PipelineConfig,
    SweepSpec,
    SyntheticClips,
    SyntheticSpec,
    clip_features,
    clip_frame_features,
    compute_metrics,
    default_signatures,
    evaluate_split,
    fold_rows,
    generate_synthetic,
    kfold_split,
    load_manifest,
    make_method,
    prepare_fold,
    run_cv,
    run_sweep,
    save_dataset,
    stack_frames,
    stratified_fraction_split,
    tune_silence_threshold,
    write_results_csv,
)
from mvcnn.spectral import (
    add_noise_snr,
    fit_standardizer,
    highpass_butterworth,
    log_features,
    normalize,
    standard_normals,
)


# small, fast configurations for harness tests
def small_dataset(n_classes=3, clips_per_class=8, seed=0):
    return generate_synthetic(
        SyntheticSpec(
            n_classes=n_classes,
            clips_per_class=clips_per_class,
            clip_seconds=0.5,
            seed=seed,
        )
    )


SMALL_PIPE = PipelineConfig(window_len=2**11, feature_len=64)


class TestKfold:
    def test_uniform_sizes(self):
        labels = np.repeat(np.arange(10), 10)  # 100 samples
        folds = kfold_split(labels, 10, seed=0)
        assert [len(f) for f in folds] == [10] * 10

    def test_two_class_balance(self):
        labels = np.array([0] * 50 + [1] * 50)
        folds = kfold_split(labels, 10, seed=1)
        for fold in folds:
            assert np.sum(labels[fold] == 0) == 5
            assert np.sum(labels[fold] == 1) == 5

    def test_deterministic(self):
        labels = np.arange(40) % 4
        a = kfold_split(labels, 10, seed=7)
        b = kfold_split(labels, 10, seed=7)
        for fa, fb in zip(a, b):
            np.testing.assert_array_equal(fa, fb)
        c = kfold_split(labels, 10, seed=8)
        assert any(not np.array_equal(fa, fc) for fa, fc in zip(a, c))

    def test_disjoint_exhaustive_balanced(self):
        rng = np.random.Generator(np.random.PCG64(2))
        for trial in range(20):
            n = int(rng.integers(10, 80))
            labels = rng.integers(0, 4, n)
            k = int(rng.integers(2, min(n, 11)))
            folds = kfold_split(labels, k, seed=trial)
            merged = np.concatenate(folds)
            assert len(merged) == n
            assert len(np.unique(merged)) == n
            for cls in np.unique(labels):
                counts = [int(np.sum(labels[f] == cls)) for f in folds]
                assert max(counts) - min(counts) <= 1

    def test_too_few_samples(self):
        with pytest.raises(InvalidSetting, match="5 samples cannot fill 10 folds"):
            kfold_split(np.zeros(5), 10)

    @pytest.mark.parametrize("k, seed", [(0, 0), (1, 0), (2, -1)])
    def test_fold_count_and_seed_checked(self, k, seed):
        with pytest.raises(InvalidSetting):
            kfold_split(np.zeros(8), k, seed=seed)

    @staticmethod
    def dealt_folds(labels, k, seed):
        """Test-only oracle: each shuffled class dealt one sample at a time."""
        rng = np.random.Generator(np.random.PCG64(seed))
        folds = [[] for _ in range(k)]
        offset = 0
        for cls in np.unique(labels):
            idx = np.flatnonzero(labels == cls)
            rng.shuffle(idx)
            for j, i in enumerate(idx):
                folds[(j + offset) % k].append(int(i))
            offset = (offset + len(idx)) % k
        return [np.array(sorted(f), dtype=np.int64) for f in folds]

    def test_matches_the_one_sample_at_a_time_deal(self):
        rng = np.random.Generator(np.random.PCG64(23))
        for trial in range(200):
            n = int(rng.integers(2, 120))
            labels = rng.integers(0, int(rng.integers(1, 9)), n)
            k = int(rng.integers(2, n + 1))
            got = kfold_split(labels, k, seed=trial)
            want = self.dealt_folds(labels, k, trial)
            assert len(got) == k
            for g, w in zip(got, want):
                assert g.dtype == w.dtype
                np.testing.assert_array_equal(g, w)


class TestMetrics:
    def test_diagonal_is_perfect(self):
        cm = np.diag([5, 3, 7])
        m = compute_metrics(cm)
        assert m.accuracy == m.macro_precision == m.macro_recall == m.macro_f1 == 1.0

    def test_hand_computed_two_class(self):
        cm = np.array([[3, 2], [1, 4]])
        m = compute_metrics(cm)
        assert m.accuracy == pytest.approx(7 / 10)
        assert m.per_class_precision[0] == pytest.approx(3 / 4)
        assert m.per_class_recall[0] == pytest.approx(3 / 5)
        assert m.per_class_f1[0] == pytest.approx(2 / 3)

    def test_all_predictions_one_class(self):
        cm = np.array([[4, 0], [6, 0]])
        m = compute_metrics(cm)
        assert m.accuracy == pytest.approx(0.4)  # prevalence of class 0
        assert 1 in m.flagged_classes  # empty predicted column

    def test_label_permutation_permutes_per_class_metrics(self):
        counts = np.array([[5, 1, 0], [2, 6, 1], [0, 2, 7]])
        m = compute_metrics(counts)
        perm = [2, 0, 1]
        permuted = counts[np.ix_(perm, perm)]
        mp = compute_metrics(permuted)
        np.testing.assert_allclose(mp.per_class_precision, m.per_class_precision[perm])
        np.testing.assert_allclose(mp.per_class_recall, m.per_class_recall[perm])
        assert mp.macro_f1 == pytest.approx(m.macro_f1)
        assert mp.accuracy == pytest.approx(m.accuracy)

    def test_empty_matrix(self):
        with pytest.raises(EmptyDataset, match="confusion matrix has no observations"):
            compute_metrics(np.zeros((3, 3), dtype=np.int64))


class TestSynthetic:
    def test_deterministic(self):
        a = small_dataset(seed=5)
        b = small_dataset(seed=5)
        for ca, cb in zip(a.clips, b.clips):
            np.testing.assert_array_equal(ca.samples, cb.samples)

    def test_different_seed_differs(self):
        a = small_dataset(seed=5)
        b = small_dataset(seed=6)
        assert not np.array_equal(a.clips[0].samples, b.clips[0].samples)

    def test_envelope_scale_separates_features(self):
        # default classes 0 and 1: identical tones, envelope 20 ms vs 5 ms;
        # sideband structure must move the normalized features by more than 0.1
        ds = generate_synthetic(
            SyntheticSpec(n_classes=2, clips_per_class=4, clip_seconds=1.0, seed=1)
        )
        feats = clip_frame_features(ds, PipelineConfig())
        stats = fit_standardizer(log_features(np.vstack(feats)))
        for fa in feats[0]:
            for fb in feats[4]:
                gap = np.linalg.norm(normalize(fa, stats) - normalize(fb, stats))
                assert gap > 0.1

    def test_clips_survive_silence_removal(self):
        ds = small_dataset()
        pipe = PipelineConfig(window_len=2**11, feature_len=64)
        feats = clip_frame_features(ds, pipe)
        assert all(len(f) > 0 for f in feats)

    def test_high_pass_runs_ahead_of_silence_removal(self):
        clip = small_dataset().clips[0]
        got = clip_features(clip, replace(SMALL_PIPE, highpass_hz=200.0))
        want = clip_features(highpass_butterworth(clip, 200.0), SMALL_PIPE)
        np.testing.assert_array_equal(got, want)
        assert not np.array_equal(got, clip_features(clip, SMALL_PIPE))

    def test_unknown_feature_kind_raises_for_silent_clips(self):
        # silent clips yield no frames, so only the config check can catch it
        silent = ClipDataset([AudioClip(np.zeros(4000), 8000)] * 2, [0, 1], 2, ["a", "b"])
        with pytest.raises(InvalidSetting, match="feature_kind"):
            clip_frame_features(silent, replace(SMALL_PIPE, feature_kind="bogus"))

    @pytest.mark.parametrize(
        "change, message",
        [
            (dict(window_len=3000), "window_len must be a power of two, got 3000"),
            (dict(window_len=100), "window_len must be a power of two, got 100"),
            (dict(window_len=300), "window_len must be a power of two, got 300"),
            (dict(window_len=300, feature_kind="mfcc"),
             "window_len must be a power of two, got 300"),
            (dict(overlap=1.0), r"overlap must be in \[0, 1\), got 1.0"),
            (dict(overlap=-0.1), r"overlap must be in \[0, 1\), got -0.1"),
            (dict(overlap=1.5), r"overlap must be in \[0, 1\), got 1.5"),
            (dict(feature_len=1026), r"feature length 1026 outside \[1, 1025\]"),
            (dict(feature_len=0), r"feature length 0 outside \[1, 1025\]"),
            (dict(feature_len=-1), r"feature length -1 outside \[1, 1025\]"),
        ],
    )
    def test_config_refuses_what_every_clip_would(self, change, message):
        # 2048-sample windows give 1025 spectrum bins
        with pytest.raises(InvalidSetting, match=message):
            replace(SMALL_PIPE, **change)

    def test_every_accepted_config_gives_finite_features(self):
        # the feature kernels check nothing, so each corner the config
        # accepts must run clean on a clip that every window fits, except
        # MFCC windows too short for the sample rate, which the mel
        # filterbank refuses
        rng = np.random.Generator(np.random.PCG64(21))
        clip = AudioClip(0.3 * rng.standard_normal(3072), 16000)
        for window, overlap, widest, kind, highpass in itertools.product(
            (1, 2, 2048), (0.0, 0.999), (False, True), FEATURE_KINDS, (None, 200.0)
        ):
            pipe = PipelineConfig(
                window_len=window, overlap=overlap,
                feature_len=window // 2 + 1 if widest else 1,
                feature_kind=kind, highpass_hz=highpass,
            )
            if kind == "mfcc" and window < 2048:
                with pytest.raises(InvalidSetting, match=f"^window {window} at 16000 Hz"):
                    clip_features(clip, pipe)
                continue
            feats = clip_features(clip, pipe)
            hop = max(1, int(window * (1.0 - overlap)))
            assert feats.shape == ((3072 - window) // hop + 1, pipe.feature_dim), pipe
            assert feats.dtype == np.float64
            assert np.all(np.isfinite(feats)), pipe

    @pytest.mark.parametrize("snr_db", [4000.0, -4000.0, 3083.0, -3200.0, -3070.0,
                                        1000.5, -1000.5,
                                        float("inf"), float("-inf"), float("nan")])
    def test_config_refuses_snr_whose_power_ratio_is_not_a_normal_float(self, snr_db):
        # snr_db is bounded to [-1000, 1000] dB, a power ratio of 1e+-100:
        # -3070 dB is a normal-float ratio, but its noise overflows the
        # silence gate's mean of squares
        with pytest.raises(InvalidSetting, match=f"snr_db.*got {snr_db}"):
            replace(SMALL_PIPE, snr_db=snr_db)

    @pytest.mark.parametrize("snr_db", [-1000.0, -60.0, 0.0, 6, 1000.0])
    def test_config_keeps_every_snr_with_a_finite_noise_level(self, snr_db):
        clip = small_dataset().clips[0]
        assert replace(SMALL_PIPE, snr_db=snr_db).snr_db == snr_db
        normals = standard_normals(1, np.empty(len(clip.samples)))
        assert np.all(np.isfinite(add_noise_snr(clip, snr_db, normals).samples))

    def test_feature_len_is_free_for_mfcc(self):
        assert replace(SMALL_PIPE, feature_kind="mfcc", feature_len=9000).feature_dim == 13

    def test_noise_goes_in_before_the_high_pass(self):
        ds = small_dataset()
        pipe = replace(SMALL_PIPE, snr_db=0.0, noise_seed=3, highpass_hz=200.0)
        clip = ds.clips[1]
        normals = standard_normals(3 * 1_000_003 + 1, np.empty(len(clip.samples)))
        noisy = add_noise_snr(clip, 0.0, normals)
        want = clip_features(noisy, replace(pipe, snr_db=None))
        np.testing.assert_array_equal(clip_frame_features(ds, pipe)[1], want)

    def test_amplitude_bound(self):
        ds = small_dataset()
        for clip in ds.clips:
            assert np.max(np.abs(clip.samples)) <= 0.5 + 1e-12

    def test_invalid_specs(self):
        with pytest.raises(InvalidSpec):
            generate_synthetic(SyntheticSpec(n_classes=1))
        with pytest.raises(InvalidSpec, match="seed"):
            generate_synthetic(SyntheticSpec(seed=-1))

    @pytest.mark.parametrize(
        "overrides, match",
        [
            (dict(clip_seconds=float("nan")), "clip_seconds"),
            (dict(clip_seconds=float("inf")), "clip_seconds"),
            # finite alone, but its sample count is not
            (dict(clip_seconds=1e305), "clip_seconds must be finite"),
            # finite, but past what save_wav's u32 RIFF size can describe
            (dict(clip_seconds=1e300), "clip_seconds 1e\\+300 at 24000 Hz is longer than "
             "the 2147483629 samples one 16-bit mono WAV holds"),
            (dict(clip_seconds=(WAV_MAX_SAMPLES + 1) / 24000), "longer than the 2147483629"),
            (dict(clip_seconds=0.0), "too short"),
            (dict(clip_seconds=-1.0), "too short"),
            # 1e-5 s is a quarter of a sample at 24 kHz
            (dict(clip_seconds=1e-5), "too short"),
            (dict(sample_rate=0), "sample_rate must be positive"),
            (dict(sample_rate=-24000), "sample_rate must be positive"),
            (dict(amplitude=0.0), "amplitude"),
            (dict(amplitude=-0.5), "amplitude"),
            (dict(amplitude=1.5), "amplitude"),
            (dict(amplitude=float("nan")), "amplitude"),
            (dict(n_classes=1), "at least 2 classes"),
            (dict(clips_per_class=0), "1 clip per class"),
            (dict(seed=-1), "seed"),
            # class 13's upper default tone is 2.15 * (650 + 380 * 13) Hz > 12 kHz
            (dict(n_classes=14), "n_classes=14, but only 13 default classes fit "
             "below Nyquist at sample_rate 24000 with freq_jitter 0.01"),
            (dict(n_classes=5, sample_rate=8000), "only 0 default classes"),
            (dict(n_classes=2000), "n_classes=2000, but only 13 default classes"),
            # the envelope period 0.004 * 1.9 ** (i - 3) overflows at i = 1109,
            # long before class 1109's tones reach 2 MHz
            (dict(n_classes=1200, sample_rate=4_000_000),
             "n_classes=1200, but only 1109 default classes .* finite envelope period"),
        ],
        ids=["seconds-nan", "seconds-inf", "seconds-overflow", "seconds-past-wav",
             "seconds-one-sample-past-wav", "seconds-zero",
             "seconds-negative", "seconds-under-one-sample", "rate-zero",
             "rate-negative", "amplitude-zero", "amplitude-negative",
             "amplitude-above-one", "amplitude-nan", "one-class", "no-clips",
             "seed-negative", "default-classes-past-nyquist",
             "default-tones-past-nyquist", "default-classes-2000",
             "default-periods-overflow"],
    )
    def test_malformed_spec_rejected(self, overrides, match):
        spec = SyntheticSpec(**{**dict(n_classes=2, clips_per_class=1, clip_seconds=0.1),
                                **overrides})
        with pytest.raises(InvalidSpec, match=match) as eager:
            generate_synthetic(spec)
        # the lazy clips check the spec once, on construction, with the same words
        with pytest.raises(InvalidSpec) as lazy:
            SyntheticClips(spec)
        assert str(lazy.value) == str(eager.value)

    def test_clip_as_long_as_one_wav_holds_is_kept(self):
        # construction synthesizes nothing, so this allocates no 2**31 samples
        spec = SyntheticSpec(n_classes=2, clips_per_class=1,
                             clip_seconds=WAV_MAX_SAMPLES / 24000)
        assert SyntheticClips(spec).n_samples == WAV_MAX_SAMPLES
        assert 36 + 2 * WAV_MAX_SAMPLES <= 2**32 - 1 < 36 + 2 * (WAV_MAX_SAMPLES + 1)

    def test_huge_class_count_is_refused_in_small_memory(self):
        tracemalloc.start()
        try:
            with pytest.raises(InvalidSpec, match="only 13 default classes"):
                SyntheticClips(SyntheticSpec(n_classes=10**9))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000

    def test_default_signatures_stop_at_the_first_misfit(self):
        assert len(default_signatures(2000, lambda sig: True)) == 1109
        assert default_signatures(10**9, lambda sig: sig.tones_hz[1] < 4500) == (
            default_signatures(4, lambda sig: True))

    def test_default_dataset_matches_per_sample_formula(self):
        # the direct formula the phasor kernel replaced, one sin/cos per sample
        spec = SyntheticSpec()
        t = np.arange(int(round(spec.clip_seconds * spec.sample_rate))) / spec.sample_rate
        got = generate_synthetic(spec)
        for i, (clip, cls) in enumerate(zip(got.clips, got.labels)):
            sig = default_signatures(spec.n_classes, lambda sig: True)[cls]
            rng = np.random.Generator(
                np.random.PCG64([spec.seed, cls, i % spec.clips_per_class])
            )
            env_phase = rng.uniform()
            period = sig.envelope_period_s * (1.0 + rng.uniform(-PERIOD_JITTER, PERIOD_JITTER))
            envelope = 0.5 - 0.5 * np.cos(2 * np.pi * (t / period + env_phase))
            amps = rng.uniform(0.6, 1.0, len(sig.tones_hz))
            wave = np.zeros_like(t)
            for freq, amp in zip(sig.tones_hz, amps):
                jittered = freq * (1.0 + rng.uniform(-FREQ_JITTER, FREQ_JITTER))
                wave += amp * np.sin(2 * np.pi * jittered * t + rng.uniform(0, 2 * np.pi))
            want = envelope * wave * (spec.amplitude / amps.sum())
            assert np.max(np.abs(clip.samples - want)) <= 1e-10


class TestSyntheticClips:
    @pytest.mark.parametrize("seed", [0, 11])
    def test_items_are_the_eager_clips_bit_for_bit(self, seed):
        spec = SyntheticSpec(n_classes=3, clips_per_class=4, clip_seconds=0.3, seed=seed)
        eager = generate_synthetic(spec)
        lazy = SyntheticClips(spec)
        assert len(lazy) == len(eager) == 12
        np.testing.assert_array_equal(lazy.labels, eager.labels)
        assert lazy.label_names == eager.label_names
        for i, want in enumerate(eager.clips):
            got = lazy[i]
            assert got.sample_rate == want.sample_rate
            assert got.samples.tobytes() == want.samples.tobytes()
        # reading order does not matter: backwards, negative and iterated
        for i in reversed(range(len(lazy))):
            assert lazy[i - len(lazy)].samples.tobytes() == eager.clips[i].samples.tobytes()
        for got, want in zip(lazy, eager.clips):
            assert got.samples.tobytes() == want.samples.tobytes()

    def test_item_i_is_clip_i_mod_n_of_class_i_div_n(self):
        spec = SyntheticSpec(n_classes=3, clips_per_class=4, clip_seconds=0.2, seed=2)
        # clip (class 2, 1) does not depend on how many clips each class has
        wide = SyntheticClips(replace(spec, clips_per_class=9))
        assert SyntheticClips(spec)[2 * 4 + 1].samples.tobytes() == \
            wide[2 * 9 + 1].samples.tobytes()

    def test_out_of_range_index(self):
        lazy = SyntheticClips(SyntheticSpec(n_classes=2, clips_per_class=2,
                                            clip_seconds=0.1))
        for index in (4, -5):
            with pytest.raises(IndexError):
                lazy[index]
        assert len(list(lazy)) == 4

    def test_clips_are_not_cached(self):
        lazy = SyntheticClips(SyntheticSpec(n_classes=2, clips_per_class=1,
                                            clip_seconds=0.1))
        assert lazy[0] is not lazy[0]


class TestNoisyClipFeatures:
    """With an SNR set, clip_frame_features draws clip i+1's standard normals
    on one helper thread while it featurizes clip i; what it returns and
    raises must be what the one-clip-at-a-time chain gives."""

    SPEC = SyntheticSpec(n_classes=3, clips_per_class=3, clip_seconds=0.5, seed=4)

    @staticmethod
    def serial(dataset, pipeline):
        return [
            clip_features(
                add_noise_snr(clip, pipeline.snr_db, standard_normals(
                    (pipeline.noise_seed * 1_000_003 + i) & 0x7FFFFFFFFFFF,
                    np.empty(len(clip.samples)),
                )),
                pipeline,
            )
            for i, clip in enumerate(dataset.clips)
        ]

    def listed(self, insert_at=None, clip=None):
        """The corpus as a list, with clip put in at index insert_at."""
        ds = generate_synthetic(self.SPEC)
        clips, labels = list(ds.clips), list(ds.labels)
        if clip is not None:
            clips.insert(insert_at, clip)
            labels.insert(insert_at, 0)
        return ClipDataset(clips, np.array(labels), ds.n_classes, ds.label_names)

    def lazy(self):
        clips = SyntheticClips(self.SPEC)
        return ClipDataset(clips, clips.labels, self.SPEC.n_classes, clips.label_names)

    @pytest.mark.parametrize("highpass_hz", [None, 200.0])
    @pytest.mark.parametrize("feature_kind", FEATURE_KINDS)
    @pytest.mark.parametrize("corpus", ["listed", "lazy"])
    def test_features_equal_the_serial_chain_bit_for_bit(
        self, corpus, feature_kind, highpass_hz
    ):
        # the listed corpus holds a 1000-sample tone, shorter than one window
        short = AudioClip(0.3 * np.sin(0.2 * np.arange(1000)), 24000)
        ds = self.listed(4, short) if corpus == "listed" else self.lazy()
        pipe = replace(SMALL_PIPE, snr_db=-3.0, noise_seed=9,
                       feature_kind=feature_kind, highpass_hz=highpass_hz)
        got = clip_frame_features(ds, pipe)
        want = self.serial(ds, pipe)
        assert len(got) == len(want) == len(ds.labels)
        for g, w in zip(got, want):
            assert g.shape == w.shape and g.tobytes() == w.tobytes()
        assert (len(got[4]) == 0) == (corpus == "listed")
        assert all(len(f) for i, f in enumerate(got) if i != 4)

    def test_each_lazy_clip_is_read_once(self, monkeypatch):
        reads = []
        original = SyntheticClips.clip

        def spy(clips, cls, j):
            reads.append((cls, j))
            return original(clips, cls, j)

        monkeypatch.setattr(SyntheticClips, "clip", spy)
        clip_frame_features(self.lazy(), replace(SMALL_PIPE, snr_db=0.0))
        assert sorted(reads) == [(c, j) for c in range(3) for j in range(3)]

    @pytest.mark.parametrize("k", [0, 1, 5, 9])
    def test_zero_power_clip_raises_the_serial_error(self, k):
        ds = self.listed(k, AudioClip(np.zeros(6000), 24000))
        pipe = replace(SMALL_PIPE, snr_db=6.0)
        with pytest.raises(ZeroPowerSignal) as serial:
            self.serial(ds, pipe)
        with pytest.raises(ZeroPowerSignal) as piped:
            clip_frame_features(ds, pipe)
        assert str(piped.value) == str(serial.value)

    def test_helper_thread_ends_with_the_call(self):
        before = threading.active_count()
        clip_frame_features(self.lazy(), replace(SMALL_PIPE, snr_db=0.0))
        assert threading.active_count() == before
        ds = self.listed(2, AudioClip(np.zeros(6000), 24000))
        with pytest.raises(ZeroPowerSignal):
            clip_frame_features(ds, replace(SMALL_PIPE, snr_db=0.0))
        assert threading.active_count() == before


class TestPhasorSines:
    """`_sines` against sin(phase + step*k) evaluated in long double."""

    @pytest.mark.parametrize("n", [1, 255, 256, 257, 72_000])
    def test_matches_long_double_reference(self, n):
        rng = np.random.Generator(np.random.PCG64(n))
        nyquist_step = np.pi  # 2*pi*(fs/2)/fs
        steps = [1e-6, 2 * np.pi * 50.0 / 24000, *rng.uniform(0, nyquist_step, 4),
                 nyquist_step * (1 - 1e-6)]
        phases = [0.0, *rng.uniform(0, 2 * np.pi, 5), np.nextafter(2 * np.pi, 0)]
        k = np.arange(n, dtype=np.longdouble)
        for step, phase in zip(steps, phases):
            got = evaluation._sines(n, [step], [phase], [1.0])
            assert got.shape == (n,)
            want = np.sin(np.longdouble(phase) + np.longdouble(step) * k)
            assert np.max(np.abs(got - want)) <= 1e-10, (step, phase)

    @pytest.mark.parametrize("n", [1, 257, 72_000])
    def test_tones_sum_with_their_amplitudes(self, n):
        steps, phases, amps = [0.3, 1.1, 3.0], [0.2, 4.0, 6.1], [0.25, -0.5, 0.125]
        k = np.arange(n, dtype=np.longdouble)
        want = sum(np.longdouble(a) * np.sin(np.longdouble(p) + np.longdouble(s) * k)
                   for s, p, a in zip(steps, phases, amps))
        got = evaluation._sines(n, steps, phases, amps)
        assert got.shape == (n,)
        assert np.max(np.abs(got - want)) <= 1e-10


class _Memorizer:
    """Leakage canary: perfect on anything seen in fit, chance otherwise."""

    def __init__(self, n_classes):
        self.n_classes = n_classes
        self.bank = {}

    def fit(self, features, labels):
        self.bank = {
            hash(f.tobytes()): int(l) for f, l in zip(features, labels)
        }
        return self

    def predict(self, features):
        return np.array(
            [self.bank.get(hash(f.tobytes()), 0) for f in features], dtype=np.int64
        )


class TestRunCv:
    def test_deterministic(self):
        ds = small_dataset()
        kwargs = dict(method="knn_spectrum", k=4, seed=3, pipeline=SMALL_PIPE)
        a = run_cv(ds, **kwargs)
        b = run_cv(ds, **kwargs)
        np.testing.assert_array_equal(a.confusion, b.confusion)
        assert a.report.fold_metrics == b.report.fold_metrics

    def test_memorizer_fails_on_held_out_random_labels(self, monkeypatch):
        made = []
        monkeypatch.setattr(evaluation, "make_method",
                            lambda name, n, d, s: made.append(_Memorizer(n)) or made[-1])
        ds = small_dataset(n_classes=2, clips_per_class=10)
        rng = np.random.Generator(np.random.PCG64(4))
        shuffled = ClipDataset(
            ds.clips, rng.permutation(ds.labels), ds.n_classes, ds.label_names
        )
        res = run_cv(shuffled, "knn_spectrum", k=5, seed=0, pipeline=SMALL_PIPE)
        # memorizer has never seen the test frames: accuracy must sit
        # near chance, nowhere near its training-set perfection
        assert len(made) == 5
        assert res.report.accuracy < 0.85

    def test_memorizer_is_perfect_on_training_data(self):
        rng = np.random.Generator(np.random.PCG64(5))
        X = rng.normal(size=(20, 6))
        y = rng.integers(0, 2, 20)
        clf = _Memorizer(2).fit(X, y)
        np.testing.assert_array_equal(clf.predict(X), y)

    def test_knn_easy_task_sanity(self):
        # default synthetic set at +6 dB: KNN on spectra is accurate
        ds = generate_synthetic(SyntheticSpec(seed=0))
        res = run_cv(
            ds, "knn_spectrum", k=10, seed=0,
            pipeline=PipelineConfig(snr_db=6.0, noise_seed=0),
        )
        assert res.report.accuracy >= 0.9

    def test_pooled_accuracy_is_weighted_fold_mean(self):
        ds = small_dataset()
        res = run_cv(ds, "knn_spectrum", k=4, seed=1, pipeline=SMALL_PIPE)
        fold_sizes = [len(f) for f in kfold_split(ds.labels, 4, seed=1)]
        weighted = sum(
            size * acc for size, (acc, _, _, _) in zip(fold_sizes, res.report.fold_metrics)
        ) / sum(fold_sizes)
        assert abs(res.report.accuracy - weighted) < 1e-12

    def test_normalizer_fit_excludes_test_fold(self):
        ds = small_dataset()
        per_clip = clip_frame_features(ds, SMALL_PIPE)
        folds = kfold_split(ds.labels, 4, seed=0)
        test_idx = folds[0]
        train_idx = np.setdiff1d(np.arange(len(ds.labels)), test_idx)
        base = prepare_fold(per_clip, ds.labels, train_idx, test_idx, True)
        # corrupt a test clip's features: fitted statistics must not move
        mutated = [f.copy() for f in per_clip]
        mutated[test_idx[0]] = mutated[test_idx[0]] + 1e6
        poked = prepare_fold(mutated, ds.labels, train_idx, test_idx, True)
        np.testing.assert_array_equal(base.stats.mean, poked.stats.mean)
        np.testing.assert_array_equal(base.stats.std, poked.stats.std)

    def test_fold_without_training_frames_is_refused(self):
        # the KNN search and tune_k check nothing, so an empty training
        # set must stop here, before any classifier sees it
        per_clip = [np.zeros((0, 4)), np.zeros((0, 4)), np.ones((2, 4))]
        with pytest.raises(EmptyDataset, match="no training frames in fold"):
            prepare_fold(per_clip, np.array([0, 1, 0]), [0, 1], [2], True)

    def test_clip_without_frames_between_two_others(self):
        # the empty clip adds no frame and no label; its neighbours keep
        # their own labels, in clip order
        per_clip = [np.ones((2, 4)), np.zeros((0, 4)), np.full((1, 4), 2.0)]
        X, y = stack_frames(per_clip, np.array([5, 6, 7]))
        np.testing.assert_array_equal(X, [[1.0] * 4, [1.0] * 4, [2.0] * 4])
        np.testing.assert_array_equal(y, [5, 5, 7])
        fold = prepare_fold(per_clip, np.array([0, 1, 2]), [0, 1, 2], [1], False)
        np.testing.assert_array_equal(fold.train_features, X)
        np.testing.assert_array_equal(fold.train_labels, [0, 0, 2])
        assert fold.train_labels.dtype == np.int64
        assert [f.shape for f in fold.test_features] == [(0, 4)]

    def test_frame_level_toggle(self):
        ds = small_dataset()
        clip_res = run_cv(ds, "knn_spectrum", k=4, seed=0, pipeline=SMALL_PIPE)
        frame_res = run_cv(
            ds, "knn_spectrum", k=4, seed=0, pipeline=SMALL_PIPE, clip_level=False
        )
        assert clip_res.confusion.sum() == len(ds)
        assert frame_res.confusion.sum() == sum(
            len(f) for f in clip_frame_features(ds, SMALL_PIPE)
        )


class TestKnnClassifier:
    """tune_k checks nothing, so its one caller hands it only usable splits."""

    @pytest.fixture
    def tune_calls(self, monkeypatch):
        calls = []
        real = evaluation.tune_k

        def spy(train_f, train_y, val_f, val_y):
            calls.append((len(train_f), len(train_y), len(val_f), len(val_y)))
            return real(train_f, train_y, val_f, val_y)

        monkeypatch.setattr(evaluation, "tune_k", spy)
        return calls

    @pytest.mark.parametrize("n_rows, n_classes", [(1, 1), (7, 2), (12, 1)])
    def test_k_is_one_without_tuning_on_small_or_one_class_sets(
        self, tune_calls, n_rows, n_classes
    ):
        feats = np.arange(2.0 * n_rows).reshape(n_rows, 2)
        clf = evaluation.KnnClassifier(seed=0).fit(feats, np.arange(n_rows) % n_classes)
        assert tune_calls == []
        assert clf.k == 1

    def test_tuning_splits_are_nonempty_with_one_label_per_row(self, tune_calls):
        rng = np.random.Generator(np.random.PCG64(8))
        for n_rows in (8, 9, 13, 40):
            feats = rng.normal(size=(n_rows, 3))
            labels = np.arange(n_rows) % 2
            evaluation.KnnClassifier(seed=n_rows).fit(feats, labels)
            n_fit, fit_labels, n_val, val_labels = tune_calls[-1]
            assert n_fit == fit_labels >= 1 and n_val == val_labels >= 1
            assert n_fit + n_val == n_rows
        assert len(tune_calls) == 4


class TestSkippedClips:
    """Test clips without frames are counted, not silently dropped."""

    def _with_silent_clip(self):
        ds = small_dataset(clips_per_class=4)
        clips = list(ds.clips)
        clips[5] = AudioClip(np.zeros_like(clips[5].samples), clips[5].sample_rate)
        return ClipDataset(clips, ds.labels, ds.n_classes, ds.label_names)

    def test_run_cv_counts_the_silent_clip(self):
        ds = self._with_silent_clip()
        res = run_cv(ds, "knn_spectrum", k=4, seed=0, pipeline=SMALL_PIPE)
        assert res.skipped_clips == 1
        assert res.confusion.sum() == len(ds) - 1

    def test_nothing_skipped_without_silent_clips(self):
        res = run_cv(small_dataset(clips_per_class=4), "knn_spectrum", k=4, seed=0,
                     pipeline=SMALL_PIPE)
        assert res.skipped_clips == 0

    def test_sweep_rows_carry_their_runs_count(self):
        # each CV run scores the silent clip in exactly one fold
        ds = self._with_silent_clip()
        spec = SweepSpec("window_size", grid=(SMALL_PIPE.window_len,),
                         methods=("knn_spectrum",), seeds=(0, 1), k=4)
        rows = run_sweep(spec, ds, pipeline=SMALL_PIPE)
        assert len(rows) == 2 * 4
        assert all(r["skipped_clips"] == 1 for r in rows)

    def test_fraction_sweep_counts_each_split_holding_the_clip(self):
        ds = self._with_silent_clip()
        spec = SweepSpec("train_fraction", grid=(0.5,), methods=("knn_spectrum",),
                         seeds=(0,), k=4)
        rows = run_sweep(spec, ds, pipeline=SMALL_PIPE)
        want = sum(
            5 in stratified_fraction_split(ds.labels, 0.5, seed=rep)[1] for rep in range(4)
        )
        assert 0 < want < 4
        assert [r["skipped_clips"] for r in rows] == [want] * 4


def mixed_frame_dataset():
    """18 clips under SMALL_PIPE: 10 frames each, except three one-frame clips
    (cut to 2600 samples) and two silent ones that keep no frame."""
    ds = small_dataset(clips_per_class=6)
    clips = list(ds.clips)
    for i in (1, 8, 15):
        clips[i] = AudioClip(clips[i].samples[:2600], clips[i].sample_rate)
    for i in (4, 11):
        clips[i] = AudioClip(np.zeros(6000), clips[i].sample_rate)
    return ClipDataset(clips, ds.labels, ds.n_classes, ds.label_names)


class _CountingClassifier:
    """Predicts each frame's first feature mod 3 and records each predict call."""

    def __init__(self):
        self.calls = []

    def fit(self, features, labels):
        return self

    def predict(self, features):
        self.calls.append(len(features))
        return np.floor(np.abs(features[:, 0])).astype(np.int64) % 3


def per_clip_confusion(labels, test_idx, fold, classifier, n_classes, clip_level):
    """The scoring loop of one predict call per test clip, as a reference."""
    cm = np.zeros((n_classes, n_classes), dtype=np.int64)
    for clip_i, feats in zip(test_idx, fold.test_features):
        if len(feats):
            votes = np.bincount(classifier.predict(feats), minlength=n_classes)
            if clip_level:
                cm[labels[clip_i], np.argmax(votes)] += 1
            else:
                cm[labels[clip_i]] += votes
    return cm


class TestBatchedScoring:
    """evaluate_split scores a fold's test clips with one predict call."""

    def test_one_predict_per_fold(self, monkeypatch):
        made = []
        monkeypatch.setattr(evaluation, "make_method",
                            lambda *a, **kw: made.append(_CountingClassifier()) or made[-1])
        ds = mixed_frame_dataset()
        res = run_cv(ds, "knn_spectrum", k=3, seed=0, pipeline=SMALL_PIPE)
        frames = [len(f) for f in clip_frame_features(ds, SMALL_PIPE)]
        assert res.skipped_clips == 2
        assert len(made) == 3
        for clf, test_idx in zip(made, kfold_split(ds.labels, 3, seed=0)):
            assert clf.calls == [sum(frames[i] for i in test_idx)]
        # a fold whose test clips are all frameless calls no predict
        per_clip = [np.ones((3, 4)), np.zeros((0, 4)), np.zeros((0, 4))]
        fold = prepare_fold(per_clip, np.array([0, 1, 2]), [0], [1, 2], False)
        clf = _CountingClassifier()
        cm = evaluate_split(np.array([0, 1, 2]), [1, 2], fold, clf, 3)
        assert clf.calls == []
        np.testing.assert_array_equal(cm, np.zeros((3, 3), dtype=np.int64))

    @pytest.mark.parametrize("clip_level", [True, False])
    @pytest.mark.parametrize("method", ["knn_spectrum", "knn_mfcc", "multiview"])
    def test_batched_confusion_equals_per_clip_confusion(self, method, clip_level,
                                                         monkeypatch):
        ds = mixed_frame_dataset()
        pipe = evaluation.pipeline_for_method(method, SMALL_PIPE)
        per_clip = clip_frame_features(ds, pipe)
        params = {"iterations": 10} if method == "multiview" else {}
        assert {len(f) for f in per_clip} == {0, 1, 10}
        for f, test_idx in enumerate(kfold_split(ds.labels, 3, seed=1)):
            train_idx = np.setdiff1d(np.arange(len(ds)), test_idx)
            fold = prepare_fold(per_clip, ds.labels, train_idx, test_idx,
                                pipe.feature_kind == "spectrum")
            counted = make_method(method, 3, pipe.feature_dim, f, **params)
            calls = []
            monkeypatch.setattr(counted, "predict",
                                lambda x, real=counted.predict: calls.append(len(x)) or real(x))
            batched = evaluate_split(ds.labels, test_idx, fold, counted, 3, clip_level)
            assert calls == [sum(len(per_clip[i]) for i in test_idx)]
            clf = make_method(method, 3, pipe.feature_dim, f, **params)
            clf.fit(fold.train_features, fold.train_labels)
            want = per_clip_confusion(ds.labels, test_idx, fold, clf, 3, clip_level)
            np.testing.assert_array_equal(batched, want)

    def test_folds_equal_normalize_of_fit_normalizer_bit_for_bit(self, monkeypatch):
        # run_cv logs each clip once and standardizes per fold; prepare_fold
        # logs per call: both give normalize(x, stats) exactly, for stats
        # fit_standardizer(log_features(train))
        seen = []
        real = evaluation.evaluate_split
        monkeypatch.setattr(evaluation, "evaluate_split",
                            lambda labels, test_idx, fold, *a: seen.append(fold)
                            or real(labels, test_idx, fold, *a))
        ds = mixed_frame_dataset()
        per_clip = clip_frame_features(ds, SMALL_PIPE)
        run_cv(ds, "knn_spectrum", k=3, seed=2, pipeline=SMALL_PIPE)
        splits = kfold_split(ds.labels, 3, seed=2)
        assert len(seen) == len(splits)
        for fold, test_idx in zip(seen, splits):
            train_idx = np.setdiff1d(np.arange(len(ds)), test_idx)
            train_X = np.vstack([per_clip[i] for i in train_idx])
            stats = fit_standardizer(log_features(train_X))
            for got in (fold, prepare_fold(per_clip, ds.labels, train_idx, test_idx, True)):
                np.testing.assert_array_equal(got.stats.mean, stats.mean)
                np.testing.assert_array_equal(got.stats.std, stats.std)
                np.testing.assert_array_equal(got.train_features, normalize(train_X, stats))
                assert len(got.test_features) == len(test_idx)
                for feats, i in zip(got.test_features, test_idx):
                    np.testing.assert_array_equal(feats, normalize(per_clip[i], stats))


class TestSweep:
    def test_default_grids(self):
        assert SweepSpec("train_fraction").resolved_grid() == (
            0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9,
        )
        assert SweepSpec("window_size").resolved_grid() == (
            2048, 4096, 8192, 16384, 32768,
        )
        assert SweepSpec("snr").resolved_grid() == (-6.0, -3.0, 0.0, 3.0, 6.0)

    @staticmethod
    def spy_features(monkeypatch) -> list:
        """Record the pipeline of every clip_frame_features call."""
        calls = []
        extract = evaluation.clip_frame_features

        def spy(dataset, pipeline):
            calls.append(pipeline)
            return extract(dataset, pipeline)

        monkeypatch.setattr(evaluation, "clip_frame_features", spy)
        return calls

    @pytest.mark.parametrize(
        "spec, names",
        (
            (SweepSpec("snr", grid=(0.0,), methods=("knn_spectrum", "knn_bogus"), k=2),
             "method"),
            (SweepSpec("bogus_axis", grid=(0.0,), methods=("knn_spectrum",), k=2),
             "axis"),
            (SweepSpec("train_fraction", grid=(0.5,), methods=("knn_spectrum",), k=0),
             r"\bk\b"),
            (SweepSpec("snr", grid=(0.0,), methods=("knn_spectrum",), k=1), r"\bk\b"),
        ),
        ids=("method", "axis", "fraction-k", "cv-k"),
    )
    def test_bad_spec_rejected_before_features(self, monkeypatch, spec, names):
        def fail(*args, **kwargs):
            raise AssertionError("features extracted before the spec was checked")

        monkeypatch.setattr(evaluation, "clip_frame_features", fail)
        with pytest.raises(InvalidSetting, match=names):
            run_sweep(spec, small_dataset(), pipeline=SMALL_PIPE)

    @pytest.mark.parametrize("axis", ("train_fraction", "snr"))
    def test_negative_seed_named_as_given_before_features(self, monkeypatch, axis):
        # train_fraction derives split seeds seed * 1009 + rep, and the snr
        # axis passes the seed on as the noise seed; neither is what was given
        calls = self.spy_features(monkeypatch)
        spec = SweepSpec(axis, grid=(0.5,), methods=("knn_spectrum",), seeds=(0, -1), k=2)
        with pytest.raises(InvalidSetting, match=r"^seed must be >= 0, got -1$"):
            run_sweep(spec, small_dataset(), pipeline=SMALL_PIPE)
        assert calls == []

    @pytest.mark.parametrize(
        "axis, grid",
        (
            ("window_size", (2048, 3000)),
            ("dropout", (0.5, 1.5)),
            ("learning_rate", (0.001, -1.0)),
            ("snr", (0.0, 5000.0)),
            ("iterations", (2, -5)),
            ("train_fraction", (0.5, 1.5)),
        ),
    )
    def test_bad_last_grid_value_rejected_before_features(self, monkeypatch, axis, grid):
        # the first value is valid, so a sweep that checked each value only
        # when it reached it would extract features and train first
        calls = self.spy_features(monkeypatch)
        spec = SweepSpec(axis, grid=grid, methods=("multiview",), k=2)
        with pytest.raises(InvalidSetting):
            run_sweep(spec, small_dataset(n_classes=2, clips_per_class=3),
                      pipeline=SMALL_PIPE, iterations=2)
        assert calls == []

    def test_method_parameter_sweep_extracts_features_once(self, monkeypatch):
        calls = self.spy_features(monkeypatch)
        spec = SweepSpec("iterations", grid=(2, 3), methods=("multiview", "knn_spectrum"),
                         seeds=(0, 1), k=2)
        rows = run_sweep(spec, small_dataset(n_classes=2, clips_per_class=3),
                         pipeline=SMALL_PIPE, batch_size=4)
        assert calls == [SMALL_PIPE]
        assert len(rows) == 2 * 2 * 2 * 2

    def test_snr_sweep_extracts_once_per_value_seed_and_kind(self, monkeypatch):
        calls = self.spy_features(monkeypatch)
        spec = SweepSpec("snr", grid=(0.0, 6.0),
                         methods=("knn_spectrum", "knn_mfcc", "single_view_cnn"),
                         seeds=(0, 1), k=2)
        run_sweep(spec, small_dataset(n_classes=2, clips_per_class=3),
                  pipeline=SMALL_PIPE, iterations=2, batch_size=4)
        assert calls == [
            replace(SMALL_PIPE, snr_db=value, noise_seed=seed, feature_kind=kind)
            for value in spec.grid for seed in spec.seeds for kind in FEATURE_KINDS
        ]

    def test_run_cv_extracts_features_once(self, monkeypatch):
        calls = self.spy_features(monkeypatch)
        run_cv(small_dataset(), "knn_mfcc", k=3, pipeline=SMALL_PIPE)
        assert calls == [replace(SMALL_PIPE, feature_kind="mfcc")]

    @pytest.mark.parametrize("clip_level", (True, False))
    def test_rows_match_per_run_reference_when_a_pipeline_recurs(self, clip_level):
        # per (value, seed) the methods' pipelines run spectrum, mfcc, spectrum:
        # the spectrum pipeline comes up again after the mfcc one
        ds = small_dataset(n_classes=2, clips_per_class=4)
        params = dict(iterations=2, batch_size=4)
        spec = SweepSpec("snr", grid=(6.0, 0.0),
                         methods=("knn_spectrum", "knn_mfcc", "single_view_cnn"),
                         seeds=(1, 0), k=2)
        rows = run_sweep(spec, ds, pipeline=SMALL_PIPE, clip_level=clip_level, **params)
        expected = []
        for value in spec.grid:
            for method in spec.methods:
                for seed in spec.seeds:
                    pipe = replace(SMALL_PIPE, snr_db=value, noise_seed=seed)
                    result = run_cv(ds, method, spec.k, seed, pipe, clip_level, **params)
                    expected += fold_rows("snr", value, method, seed, result)
        expected.sort(key=lambda r: (r["value"], r["method"], r["fold"], r["seed"]))
        assert rows == expected

    def test_row_count_is_cartesian_product(self):
        ds = small_dataset()
        spec = SweepSpec(
            "snr", grid=(0.0, 6.0), methods=("knn_spectrum", "knn_mfcc"),
            seeds=(0, 1), k=3,
        )
        rows = run_sweep(spec, ds, pipeline=SMALL_PIPE)
        assert len(rows) == 2 * 2 * 3 * 2

    def test_train_fraction_axis_uses_fraction_splits(self):
        ds = small_dataset()
        spec = SweepSpec("train_fraction", grid=(0.5,), methods=("knn_spectrum",),
                         seeds=(0,), k=3)
        rows = run_sweep(spec, ds, pipeline=SMALL_PIPE)
        assert len(rows) == 3
        assert {r["fold"] for r in rows} == {0, 1, 2}

    @pytest.mark.parametrize("clip_level", (True, False))
    def test_train_fraction_rows_match_per_split_reference(self, clip_level):
        ds = small_dataset()
        params = dict(iterations=3, batch_size=8)
        spec = SweepSpec(
            "train_fraction", grid=(0.3, 0.6),
            methods=("knn_spectrum", "knn_mfcc", "single_view_cnn"), seeds=(0, 2), k=3,
        )
        rows = run_sweep(spec, ds, pipeline=SMALL_PIPE, clip_level=clip_level, **params)
        expected = []
        for method in spec.methods:
            kind = "mfcc" if method == "knn_mfcc" else "spectrum"
            pipe = replace(SMALL_PIPE, feature_kind=kind)
            per_clip = clip_frame_features(ds, pipe)
            for value in spec.grid:
                for seed in spec.seeds:
                    for rep in range(spec.k):
                        train_idx, test_idx = stratified_fraction_split(
                            ds.labels, value, seed=seed * 1009 + rep
                        )
                        fold = prepare_fold(
                            per_clip, ds.labels, train_idx, test_idx, kind == "spectrum"
                        )
                        clf = make_method(
                            method, ds.n_classes, pipe.feature_dim, seed * 101 + rep,
                            **params,
                        )
                        m = compute_metrics(evaluate_split(
                            ds.labels, test_idx, fold, clf, ds.n_classes, clip_level,
                        ))
                        expected.append({
                            "axis": "train_fraction", "value": value, "method": method,
                            "fold": rep, "seed": seed, "accuracy": m.accuracy,
                            "precision": m.macro_precision, "recall": m.macro_recall,
                            "f1": m.macro_f1, "skipped_clips": 0,
                        })
        expected.sort(key=lambda r: (r["value"], r["method"], r["fold"], r["seed"]))
        assert rows == expected

    def test_rows_sorted_and_complete(self):
        ds = small_dataset()
        spec = SweepSpec("window_size", grid=(2**11, 2**12),
                         methods=("knn_spectrum",), seeds=(0,), k=3)
        rows = run_sweep(spec, ds, pipeline=SMALL_PIPE)
        values = [r["value"] for r in rows]
        assert values == sorted(values)
        for r in rows:
            for key in ("accuracy", "precision", "recall", "f1"):
                assert 0.0 <= r[key] <= 1.0

    def test_csv_round_trip(self, tmp_path):
        ds = small_dataset()
        spec = SweepSpec("snr", grid=(6.0,), methods=("knn_spectrum",), seeds=(0,), k=3)
        rows = run_sweep(spec, ds, pipeline=SMALL_PIPE)
        path = tmp_path / "rows.csv"
        write_results_csv(path, rows, meta=("flags: --example",))
        text = path.read_text().splitlines()
        assert text[0] == "# flags: --example"
        assert text[1] == "axis,value,method,fold,seed,accuracy,precision,recall,f1"
        assert len(text) == 2 + len(rows)


class TestFractionSplit:
    def test_fraction_and_stratification(self):
        labels = np.array([0] * 20 + [1] * 20)
        train, test = stratified_fraction_split(labels, 0.3, seed=0)
        assert np.sum(labels[train] == 0) == 6
        assert np.sum(labels[train] == 1) == 6
        assert len(train) + len(test) == 40
        assert len(np.intersect1d(train, test)) == 0

    def test_every_class_in_both_sides(self):
        labels = np.array([0, 0, 1, 1, 2, 2])
        train, test = stratified_fraction_split(labels, 0.1, seed=1)
        assert set(labels[train]) == {0, 1, 2}
        assert set(labels[test]) == {0, 1, 2}

    def test_negative_seed(self):
        with pytest.raises(InvalidSetting, match="seed"):
            stratified_fraction_split(np.array([0, 0, 1, 1]), 0.5, seed=-1)


class TestTuneThreshold:
    def test_separable_windows_return_smallest_perfect(self):
        rng = np.random.Generator(np.random.PCG64(6))
        t = np.arange(1000) / 1000
        active = [rms(0.5 * np.sin(2 * np.pi * 50 * t + rng.uniform())) for _ in range(10)]
        levels = active + [0.0] * 10
        labels = [True] * 10 + [False] * 10
        assert tune_silence_threshold(levels, labels) == pytest.approx(0.01)

    def test_all_active_returns_zero(self):
        assert tune_silence_threshold(np.full(5, 0.4), np.ones(5, dtype=bool)) == 0.0

    def test_levels_on_a_threshold_count_as_active(self):
        # 0.07 >= 0.07 is active, so 0.07 separates the two windows
        assert tune_silence_threshold([0.07, 0.0699], [True, False]) == 0.07

    def test_empty(self):
        with pytest.raises(EmptyDataset):
            tune_silence_threshold([], [])


class TestDatasetIo:
    def test_save_load_round_trip(self, tmp_path):
        ds = small_dataset(n_classes=2, clips_per_class=3)
        manifest = save_dataset(ds, tmp_path / "corpus")
        back = load_manifest(manifest)
        assert len(back) == len(ds)
        assert back.n_classes == 2
        np.testing.assert_array_equal(back.labels, ds.labels)
        # 16-bit quantization bounds the reload error
        for ca, cb in zip(ds.clips, back.clips):
            assert np.max(np.abs(ca.samples - cb.samples)) <= 0.5 / 32768

    def test_missing_header_rejected(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("file,cls\nx.wav,frog\n")
        with pytest.raises(InvalidSpec):
            load_manifest(bad)

    def test_empty_manifest(self, tmp_path):
        bad = tmp_path / "empty.csv"
        bad.write_text("path,label\n")
        with pytest.raises(EmptyDataset):
            load_manifest(bad)

    def test_row_without_label(self, tmp_path):
        bad = tmp_path / "nolabel.csv"
        bad.write_text("path,label\nfoo.wav\n")
        with pytest.raises(InvalidSpec, match="line 2: row has no label"):
            load_manifest(bad)

    def test_missing_clip_names_its_line(self, tmp_path):
        bad = tmp_path / "missing.csv"
        bad.write_text("path,label\n\nfoo.wav,frog\n")
        with pytest.raises(InvalidSpec, match="line 3: cannot read clip 'foo.wav'"):
            load_manifest(bad)

    def test_not_utf8(self, tmp_path):
        bad = tmp_path / "latin1.csv"
        bad.write_bytes(b"path,label\nfoo.wav,gr\xfcn\n")
        with pytest.raises(InvalidSpec, match="UTF-8"):
            load_manifest(bad)
