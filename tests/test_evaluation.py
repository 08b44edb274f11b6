import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from mvcnn.audio import AudioClip
from mvcnn import evaluation
from mvcnn.errors import (
    EmptyDataset,
    EmptyMatrix,
    InvalidLength,
    InvalidOverlap,
    InvalidSetting,
    InvalidSpec,
    NonPowerOfTwo,
    TooFewSamples,
)
from mvcnn.evaluation import (
    ClassSignature,
    ClipDataset,
    ConfusionMatrix,
    PipelineConfig,
    SweepSpec,
    SyntheticClips,
    SyntheticSpec,
    clip_features,
    clip_frame_features,
    compute_metrics,
    default_signatures,
    evaluate_split,
    generate_synthetic,
    kfold_split,
    load_manifest,
    make_method,
    prepare_fold,
    run_cv,
    run_sweep,
    save_dataset,
    stratified_fraction_split,
    tune_silence_threshold,
    write_results_csv,
)
from mvcnn.spectral import (
    add_noise_snr,
    fit_normalizer,
    highpass_butterworth,
    normalize,
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
        with pytest.raises(TooFewSamples):
            kfold_split(np.zeros(5), 10)

    @pytest.mark.parametrize("k, seed", [(0, 0), (1, 0), (2, -1)])
    def test_fold_count_and_seed_checked(self, k, seed):
        with pytest.raises(InvalidSetting):
            kfold_split(np.zeros(8), k, seed=seed)


class TestMetrics:
    def test_diagonal_is_perfect(self):
        cm = ConfusionMatrix(np.diag([5, 3, 7]))
        m = compute_metrics(cm)
        assert m.accuracy == m.macro_precision == m.macro_recall == m.macro_f1 == 1.0

    def test_hand_computed_two_class(self):
        cm = ConfusionMatrix(np.array([[3, 2], [1, 4]]))
        m = compute_metrics(cm)
        assert m.accuracy == pytest.approx(7 / 10)
        assert m.per_class_precision[0] == pytest.approx(3 / 4)
        assert m.per_class_recall[0] == pytest.approx(3 / 5)
        assert m.per_class_f1[0] == pytest.approx(2 / 3)

    def test_all_predictions_one_class(self):
        cm = ConfusionMatrix(np.array([[4, 0], [6, 0]]))
        m = compute_metrics(cm)
        assert m.accuracy == pytest.approx(0.4)  # prevalence of class 0
        assert 1 in m.flagged_classes  # empty predicted column

    def test_label_permutation_permutes_per_class_metrics(self):
        counts = np.array([[5, 1, 0], [2, 6, 1], [0, 2, 7]])
        m = compute_metrics(ConfusionMatrix(counts))
        perm = [2, 0, 1]
        permuted = counts[np.ix_(perm, perm)]
        mp = compute_metrics(ConfusionMatrix(permuted))
        np.testing.assert_allclose(mp.per_class_precision, m.per_class_precision[perm])
        np.testing.assert_allclose(mp.per_class_recall, m.per_class_recall[perm])
        assert mp.macro_f1 == pytest.approx(m.macro_f1)
        assert mp.accuracy == pytest.approx(m.accuracy)

    def test_empty_matrix(self):
        with pytest.raises(EmptyMatrix):
            compute_metrics(ConfusionMatrix.zeros(3))


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
        # identical tones, envelope 5 ms vs 80 ms: sideband structure
        # must move the normalized features by more than 0.1
        sigs = (
            ClassSignature((1500.0, 3100.0), 0.005),
            ClassSignature((1500.0, 3100.0), 0.080),
        )
        ds = generate_synthetic(
            SyntheticSpec(n_classes=2, clips_per_class=4, clip_seconds=1.0,
                          signatures=sigs, seed=1)
        )
        feats = clip_frame_features(ds, PipelineConfig())
        stats = fit_normalizer(np.vstack(feats))
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
        got, _ = clip_features(clip, replace(SMALL_PIPE, highpass_hz=200.0))
        want, _ = clip_features(highpass_butterworth(clip, 200.0), SMALL_PIPE)
        np.testing.assert_array_equal(got, want)
        assert not np.array_equal(got, clip_features(clip, SMALL_PIPE)[0])

    def test_unknown_feature_kind_raises_for_silent_clips(self):
        # silent clips yield no frames, so only the config check can catch it
        silent = ClipDataset([AudioClip(np.zeros(4000), 8000)] * 2, [0, 1], 2, ["a", "b"])
        with pytest.raises(InvalidSetting, match="feature_kind"):
            clip_frame_features(silent, replace(SMALL_PIPE, feature_kind="bogus"))

    @pytest.mark.parametrize(
        "change, error",
        [
            (dict(window_len=3000), NonPowerOfTwo),
            (dict(overlap=1.0), InvalidOverlap),
            (dict(overlap=-0.1), InvalidOverlap),
            (dict(feature_len=1026), InvalidLength),
            (dict(feature_len=0), InvalidLength),
        ],
    )
    def test_config_refuses_what_every_clip_would(self, change, error):
        # 2048-sample windows give 1025 spectrum bins
        with pytest.raises(error):
            replace(SMALL_PIPE, **change)

    @pytest.mark.parametrize("snr_db", [4000.0, -4000.0, 3083.0, -3200.0,
                                        float("inf"), float("-inf"), float("nan")])
    def test_config_refuses_snr_whose_power_ratio_is_not_a_normal_float(self, snr_db):
        # 10**(snr/10) overflows above ~3082 dB and is subnormal or 0 below
        # ~-3076 dB; add_noise_snr divides the clip's power by it
        with pytest.raises(InvalidSetting, match=f"snr_db.*got {snr_db}"):
            replace(SMALL_PIPE, snr_db=snr_db)

    @pytest.mark.parametrize("snr_db", [-3000.0, -60.0, 0.0, 6, 3000.0])
    def test_config_keeps_every_snr_with_a_finite_noise_level(self, snr_db):
        clip = small_dataset().clips[0]
        assert replace(SMALL_PIPE, snr_db=snr_db).snr_db == snr_db
        assert np.all(np.isfinite(add_noise_snr(clip, snr_db, seed=1).samples))

    def test_feature_len_is_free_for_mfcc(self):
        assert replace(SMALL_PIPE, feature_kind="mfcc", feature_len=9000).feature_dim == 13

    def test_noise_goes_in_before_the_high_pass(self):
        ds = small_dataset()
        pipe = replace(SMALL_PIPE, snr_db=0.0, noise_seed=3, highpass_hz=200.0)
        noisy = add_noise_snr(ds.clips[1], 0.0, seed=3 * 1_000_003 + 1)
        want, _ = clip_features(noisy, replace(pipe, snr_db=None))
        np.testing.assert_array_equal(clip_frame_features(ds, pipe)[1], want)

    def test_amplitude_bound(self):
        ds = small_dataset()
        for clip in ds.clips:
            assert np.max(np.abs(clip.samples)) <= 0.5 + 1e-12

    def test_invalid_specs(self):
        with pytest.raises(InvalidSpec):
            generate_synthetic(SyntheticSpec(n_classes=1))
        with pytest.raises(InvalidSpec):
            generate_synthetic(
                SyntheticSpec(n_classes=2, signatures=(
                    ClassSignature((1000.0,), 0.01),
                    ClassSignature((1000.0,), 0.01),
                ))
            )
        with pytest.raises(InvalidSpec):
            generate_synthetic(
                SyntheticSpec(n_classes=2, signatures=(
                    ClassSignature((1000.0,), 0.01),
                    ClassSignature((13000.0,), 0.02),  # above Nyquist
                ))
            )
        with pytest.raises(InvalidSpec, match="seed"):
            generate_synthetic(SyntheticSpec(seed=-1))

    @pytest.mark.parametrize(
        "overrides, match",
        [
            (dict(clip_seconds=float("nan")), "clip_seconds"),
            (dict(clip_seconds=float("inf")), "clip_seconds"),
            (dict(freq_jitter=-0.01), "freq_jitter"),
            (dict(freq_jitter=1.0), "freq_jitter"),
            (dict(freq_jitter=float("nan")), "freq_jitter"),
            (dict(period_jitter=1.0), "period_jitter"),
            (dict(period_jitter=-0.5), "period_jitter"),
            (dict(signatures=(ClassSignature((1000.0,), float("nan")),
                              ClassSignature((2000.0,), 0.01))), "envelope period"),
            (dict(signatures=(ClassSignature((1000.0,), float("inf")),
                              ClassSignature((2000.0,), 0.01))), "envelope period"),
            # 11 990 Hz is below Nyquist, but not once jittered by 1%
            (dict(signatures=(ClassSignature((11990.0,), 0.01),
                              ClassSignature((2000.0,), 0.01))), "jitter"),
            (dict(signatures=(ClassSignature((float("nan"),), 0.01),
                              ClassSignature((2000.0,), 0.01))), "tones"),
            (dict(signatures=(ClassSignature((), 0.01),
                              ClassSignature((2000.0,), 0.01))), "one tone"),
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
        ids=["seconds-nan", "seconds-inf", "freq-jitter-negative", "freq-jitter-one",
             "freq-jitter-nan", "period-jitter-one", "period-jitter-negative",
             "period-nan", "period-inf", "jittered-tone-at-nyquist", "tone-nan",
             "no-tones", "default-classes-past-nyquist", "default-tones-past-nyquist",
             "default-classes-2000", "default-periods-overflow"],
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
        assert len(default_signatures(2000)) == 1109
        assert default_signatures(10**9, lambda sig: sig.tones_hz[1] < 4500) == (
            default_signatures(4))

    def test_default_dataset_matches_per_sample_formula(self):
        # the direct formula the phasor kernel replaced, one sin/cos per sample
        spec = SyntheticSpec()
        t = np.arange(int(round(spec.clip_seconds * spec.sample_rate))) / spec.sample_rate
        got = generate_synthetic(spec)
        for i, (clip, cls) in enumerate(zip(got.clips, got.labels)):
            sig = default_signatures(spec.n_classes)[cls]
            rng = np.random.Generator(
                np.random.PCG64([spec.seed, cls, i % spec.clips_per_class])
            )
            env_phase = rng.uniform()
            period = sig.envelope_period_s * (
                1.0 + rng.uniform(-spec.period_jitter, spec.period_jitter)
            )
            envelope = 0.5 - 0.5 * np.cos(2 * np.pi * (t / period + env_phase))
            amps = rng.uniform(0.6, 1.0, len(sig.tones_hz))
            wave = np.zeros_like(t)
            for freq, amp in zip(sig.tones_hz, amps):
                jittered = freq * (1.0 + rng.uniform(-spec.freq_jitter, spec.freq_jitter))
                wave += amp * np.sin(2 * np.pi * jittered * t + rng.uniform(0, 2 * np.pi))
            want = envelope * wave * (spec.amplitude / amps.sum())
            assert np.max(np.abs(clip.samples - want)) <= 1e-10


CUSTOM_SIGNATURES = (
    ClassSignature((900.0, 2500.0, 5200.0), 0.003),
    ClassSignature((1500.0,), 0.011),
    ClassSignature((700.0, 3300.0), 0.0007),
)


class TestSyntheticClips:
    @pytest.mark.parametrize("seed", [0, 11])
    @pytest.mark.parametrize("signatures", [None, CUSTOM_SIGNATURES],
                             ids=["default", "custom"])
    def test_items_are_the_eager_clips_bit_for_bit(self, signatures, seed):
        spec = SyntheticSpec(n_classes=3, clips_per_class=4, clip_seconds=0.3,
                             signatures=signatures, seed=seed)
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
        np.testing.assert_array_equal(a.confusion.counts, b.confusion.counts)
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
        # default synthetic set at +6 dB: k=1 KNN on spectra is accurate
        ds = generate_synthetic(SyntheticSpec(seed=0))
        res = run_cv(
            ds, "knn_spectrum", k=10, seed=0,
            pipeline=PipelineConfig(snr_db=6.0, noise_seed=0),
            k_candidates=(1,),
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

    def test_frame_level_toggle(self):
        ds = small_dataset()
        clip_res = run_cv(ds, "knn_spectrum", k=4, seed=0, pipeline=SMALL_PIPE)
        frame_res = run_cv(
            ds, "knn_spectrum", k=4, seed=0, pipeline=SMALL_PIPE, clip_level=False
        )
        assert clip_res.confusion.total == len(ds)
        assert frame_res.confusion.total == sum(
            len(f) for f in clip_frame_features(ds, SMALL_PIPE)
        )


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
        assert res.confusion.total == len(ds) - 1

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


class TestSweep:
    def test_default_grids(self):
        assert SweepSpec("train_fraction").resolved_grid() == (
            0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9,
        )
        assert SweepSpec("window_size").resolved_grid() == (
            2048, 4096, 8192, 16384, 32768,
        )
        assert SweepSpec("snr").resolved_grid() == (-6.0, -3.0, 0.0, 3.0, 6.0)

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
                            per_clip, ds.labels, test_idx, fold, clf, ds.n_classes,
                            clip_level,
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
        active = [
            (0.5 * np.sin(2 * np.pi * 50 * t + rng.uniform()), True)
            for _ in range(10)
        ]
        silent = [(np.zeros(1000), False) for _ in range(10)]
        assert tune_silence_threshold(active + silent) == pytest.approx(0.01)

    def test_all_active_returns_zero(self):
        windows = [(np.full(100, 0.4), True) for _ in range(5)]
        assert tune_silence_threshold(windows) == 0.0

    def test_empty(self):
        with pytest.raises(EmptyDataset):
            tune_silence_threshold([])


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
