"""Experiment harness: synthetic corpus, cross-validation, metrics, sweeps.

The synthetic generator stands in for field recordings: each class is a
set of tones amplitude-modulated by a periodic envelope whose period
sets the class's temporal scale, so classes differ in both tone
placement and sideband comb spacing. Evaluation is clip-level by
default (majority vote over a clip's frame predictions) with a
frame-level toggle.

Feature normalization statistics are always fitted on training folds
only; test features are transformed with the training-fold statistics.

`clip_features` is the one per-clip feature chain. Training, evaluation
and `prep` reach it through `clip_frame_features`, and the sensor node
(`wasn.node_process`) calls it directly.
"""

from __future__ import annotations

import csv
import itertools
import math
from collections.abc import Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .audio import (
    WAV_MAX_SAMPLES,
    AudioClip,
    SilenceConfig,
    hamming_coefficients,
    load_wav,
    remove_silence,
    save_wav,
    segment,
)
from .errors import EmptyDataset, InvalidSetting, InvalidSpec
from .knn import KnnModel, knn_classify_batch, tune_k
from .model import ModelConfig, TrainConfig, build, predict, train
from .spectral import (
    MFCC_COEFFS,
    add_scaled_noise,
    fit_standardizer,
    highpass_butterworth,
    log_features,
    mfcc_features,
    spectrum_features,
    standard_normals,
    standardize,
)

METHOD_NAMES = ("multiview", "single_view_cnn", "knn_spectrum", "knn_mfcc")


# --- synthetic corpus ---

@dataclass(frozen=True)
class ClassSignature:
    """Tones plus the amplitude-envelope period that sets the temporal scale."""

    tones_hz: tuple
    envelope_period_s: float


# Default classes share their tones and differ only in envelope period,
# i.e. in the spacing of the AM sidebands around each tone: ~2, ~9, ~31
# and ~43 feature bins at the default window/feature sizes. Separating
# the last two requires integrating spectral context wider than a
# short-filter stack can reach.
_BASE_SIGNATURES = (
    ClassSignature((1800.0, 4100.0), 0.020),
    ClassSignature((1800.0, 4100.0), 0.005),
    ClassSignature((1800.0, 4100.0), 0.0014),
    ClassSignature((1800.0, 4100.0), 0.0010),
)


def _default_classes():
    """Default signatures in class order while the envelope period
    0.004 * 1.9 ** (i - 3) is a finite float, up to i = 1108."""
    yield from _BASE_SIGNATURES
    for i in itertools.count(len(_BASE_SIGNATURES)):
        base = 650.0 + 380.0 * i
        try:
            yield ClassSignature((base, 2.15 * base), 0.004 * 1.9 ** (i - 3))
        except OverflowError:
            return


def default_signatures(n_classes: int, tones_fit) -> tuple:
    """The first n_classes default signatures, or fewer: the tuple ends before
    the first class whose tones fail tones_fit or whose period overflows.
    Tones and periods rise with the class index, so every later class would
    fail too, and no signature past the first misfit is built."""
    classes = itertools.islice(_default_classes(), n_classes)
    return tuple(itertools.takewhile(tones_fit, classes))


# Per-clip relative spread of the tone frequencies and the envelope period
FREQ_JITTER = 0.01
PERIOD_JITTER = 0.02


@dataclass(frozen=True)
class SyntheticSpec:
    n_classes: int = 4
    clips_per_class: int = 16
    clip_seconds: float = 3.0
    sample_rate: int = 24000
    amplitude: float = 0.5
    seed: int = 0


@dataclass
class ClipDataset:
    clips: Sequence  # a list, or SyntheticClips that synthesize on access
    labels: np.ndarray
    n_classes: int
    label_names: list

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=np.int64)

    def __len__(self):
        return len(self.clips)


# Length of the fine phasor table in `_sines`; a sample index k splits
# into k = _FINE * m + b with b < _FINE.
_FINE = 256


def _sines(n: int, steps, phases, amps) -> np.ndarray:
    """sum over t of amps[t] * sin(phases[t] + steps[t] * k), k = 0..n-1.

    Angle addition from two unit-phasor tables (Tierney, Rader & Gold, "A
    Digital Frequency Synthesizer", 1971): with k = _FINE * m + b,
    sin(c_m + f_b) = sin(c_m) cos(f_b) + cos(c_m) sin(f_b) for the coarse
    angle c_m = phase + _FINE*step*m and the fine angle f_b = step*b. Over
    all tones that sum is one [M, 2T] @ [2T, _FINE] product, so a clip
    costs ~2T(n/_FINE + _FINE) sin/cos evaluations instead of T*n.
    """
    steps, phases, amps = (np.asarray(v, dtype=np.float64)[:, None]
                           for v in (steps, phases, amps))
    fine = steps * np.arange(_FINE)
    coarse = phases + (_FINE * steps) * np.arange(-(-n // _FINE))
    weights = np.vstack([amps * np.sin(coarse), amps * np.cos(coarse)])
    table = np.vstack([np.cos(fine), np.sin(fine)])
    return (weights.T @ table).ravel()[:n]


class SyntheticClips(Sequence):
    """The clips of a synthetic corpus, each synthesized when it is read.

    Item i is clip i % clips_per_class of class i // clips_per_class. It
    draws its tone amplitudes, small frequency jitter and random phases
    from a seed derived from (spec.seed, class, clip), so every clip is
    reproducible and independent of which clips are read, or in what
    order. Nothing is cached: iterating holds one clip at a time.

    A clip is envelope * sum(amp * sin(2*pi*f*k/fs + phi)) with envelope
    0.5 - 0.5*cos(2*pi*(k/(period*fs) + env_phase)). Tones and envelope
    are built by `_sines` from two small phasor tables (angle addition), not
    by one sin/cos per sample. Against sin(phase + step*k) evaluated in
    long double with the same float64 step, each sinusoid is within 1e-10
    (~3e-11 worst seen over 72 000-sample tones up to Nyquist).

    Raises (on construction; reading a clip does not re-check the spec):
        InvalidSpec: more classes than the default signatures fit below
        Nyquist with their tones jittered by FREQ_JITTER, a non-positive
        or non-finite clip length, a clip longer than one WAV file holds
        (WAV_MAX_SAMPLES), a non-positive sample rate, an amplitude
        outside (0, 1], degenerate sizes, or a negative seed.
    """

    def __init__(self, spec: SyntheticSpec):
        if spec.seed < 0:
            raise InvalidSpec(f"seed must be >= 0, got {spec.seed}")
        if spec.n_classes < 2 or spec.clips_per_class < 1:
            raise InvalidSpec("need at least 2 classes and 1 clip per class")
        if spec.sample_rate <= 0:
            raise InvalidSpec(f"sample_rate must be positive, got {spec.sample_rate}")
        if not math.isfinite(spec.clip_seconds * spec.sample_rate):
            raise InvalidSpec(f"clip_seconds must be finite, got {spec.clip_seconds}")
        n_samples = int(round(spec.clip_seconds * spec.sample_rate))
        if n_samples < 1:
            raise InvalidSpec("clip_seconds too short for the sample rate")
        if n_samples > WAV_MAX_SAMPLES:
            raise InvalidSpec(
                f"clip_seconds {spec.clip_seconds} at {spec.sample_rate} Hz is longer "
                f"than the {WAV_MAX_SAMPLES} samples one 16-bit mono WAV holds"
            )
        if not 0.0 < spec.amplitude <= 1.0:
            raise InvalidSpec("amplitude must be in (0, 1]")
        nyquist = spec.sample_rate / 2

        def tones_fit(sig):
            return all(0 < f * (1.0 + FREQ_JITTER) < nyquist for f in sig.tones_hz)

        signatures = default_signatures(spec.n_classes, tones_fit)
        if len(signatures) < spec.n_classes:
            raise InvalidSpec(
                f"n_classes={spec.n_classes}, but only {len(signatures)} default classes "
                f"fit below Nyquist at sample_rate {spec.sample_rate} with freq_jitter "
                f"{FREQ_JITTER} and have a finite envelope period"
            )

        self.spec = spec
        self.signatures = signatures
        self.n_samples = n_samples
        self.labels = np.repeat(np.arange(spec.n_classes), spec.clips_per_class)
        self.label_names = [f"class{i}" for i in range(spec.n_classes)]

    def __len__(self):
        return self.spec.n_classes * self.spec.clips_per_class

    def __getitem__(self, index: int) -> AudioClip:
        if not -len(self) <= index < len(self):
            raise IndexError(f"clip {index} of {len(self)}")
        return self.clip(*divmod(index % len(self), self.spec.clips_per_class))

    def clip(self, cls: int, j: int) -> AudioClip:
        """Clip j of class cls. It checks nothing, so j may pass
        clips_per_class, which changes no clip."""
        spec = self.spec
        sig = self.signatures[cls]
        rad_per_sample = 2 * np.pi / spec.sample_rate
        rng = np.random.Generator(np.random.PCG64([spec.seed, cls, j]))
        env_phase = rng.uniform()
        period = sig.envelope_period_s * (1.0 + rng.uniform(-PERIOD_JITTER, PERIOD_JITTER))
        # 0.5 - 0.5*cos(x) == 0.5 + (-0.5)*sin(x + pi/2) bit for bit;
        # adding in place makes no clip-sized temporary
        envelope = _sines(
            self.n_samples, [rad_per_sample / period],
            [2 * np.pi * env_phase + np.pi / 2], [-0.5],
        )
        envelope += 0.5
        amps = rng.uniform(0.6, 1.0, len(sig.tones_hz))
        steps, phases = [], []
        for freq in sig.tones_hz:
            jittered = freq * (1.0 + rng.uniform(-FREQ_JITTER, FREQ_JITTER))
            steps.append(rad_per_sample * jittered)
            phases.append(rng.uniform(0, 2 * np.pi))
        wave = _sines(self.n_samples, steps, phases, amps * (spec.amplitude / amps.sum()))
        return AudioClip(envelope * wave, spec.sample_rate)

    def __iter__(self):
        # map keeps no reference to a clip once it is handed out
        return map(self.__getitem__, range(len(self)))


def generate_synthetic(spec: SyntheticSpec) -> ClipDataset:
    """Deterministically synthesize a labeled clip dataset, all clips in memory.

    The clips are those of `SyntheticClips(spec)`, in its order: class by
    class, clip by clip.

    Raises:
        InvalidSpec: as `SyntheticClips`.
    """
    clips = SyntheticClips(spec)
    return ClipDataset(list(clips), clips.labels, spec.n_classes, clips.label_names)


# --- folds ---

def kfold_split(labels, k: int = 10, seed: int = 0) -> list:
    """Stratified k-fold indices: per-class fold counts differ by at most 1.

    Shuffles each class independently and deals round-robin with a
    rotating offset so remainders spread across folds. Deterministic
    per seed.

    Raises:
        InvalidSetting: fewer than two folds, a negative seed, or fewer
        samples than folds.
    """
    labels = np.asarray(labels)
    if k < 2 or seed < 0:
        raise InvalidSetting(f"need k >= 2 folds and seed >= 0, got k={k}, seed={seed}")
    if len(labels) < k:
        raise InvalidSetting(f"{len(labels)} samples cannot fill {k} folds")
    rng = np.random.Generator(np.random.PCG64(seed))
    fold_of = np.empty(len(labels), dtype=np.int64)
    offset = 0
    for cls in np.unique(labels):
        idx = np.flatnonzero(labels == cls)
        rng.shuffle(idx)
        fold_of[idx] = (np.arange(len(idx)) + offset) % k
        offset = (offset + len(idx)) % k
    return [np.flatnonzero(fold_of == f) for f in range(k)]


def stratified_fraction_split(labels, train_fraction: float, seed: int = 0):
    """Per-class random split into (train_idx, test_idx).

    Each class contributes round(fraction * count) training samples,
    clamped so both sides stay nonempty.
    """
    labels = np.asarray(labels)
    if not 0.0 < train_fraction < 1.0:
        raise InvalidSetting("train_fraction must be in (0, 1)")
    if seed < 0:
        raise InvalidSetting(f"seed must be >= 0, got {seed}")
    rng = np.random.Generator(np.random.PCG64(seed))
    train, test = [], []
    for cls in np.unique(labels):
        idx = np.flatnonzero(labels == cls)
        rng.shuffle(idx)
        n_train = int(np.clip(round(train_fraction * len(idx)), 1, len(idx) - 1))
        train.extend(idx[:n_train])
        test.extend(idx[n_train:])
    return np.array(sorted(train)), np.array(sorted(test))


# --- metrics ---

@dataclass
class MetricsReport:
    accuracy: float
    macro_precision: float
    macro_recall: float
    macro_f1: float
    per_class_precision: np.ndarray
    per_class_recall: np.ndarray
    per_class_f1: np.ndarray
    flagged_classes: tuple = ()
    fold_metrics: list = field(default_factory=list)  # (acc, prec, rec, f1) rows

    def fold_mean(self) -> np.ndarray:
        return np.mean(np.asarray(self.fold_metrics), axis=0)

    def fold_std(self) -> np.ndarray:
        return np.std(np.asarray(self.fold_metrics), axis=0)


def compute_metrics(counts: np.ndarray) -> MetricsReport:
    """Accuracy plus macro precision/recall/F1 from an [H, H] confusion
    matrix of counts, rows true classes and columns predictions.

    Classes with an empty precision or recall denominator contribute 0
    to the macro average and are listed in flagged_classes.

    Raises:
        EmptyDataset: no counts at all.
    """
    total = counts.sum()
    if total == 0:
        raise EmptyDataset("confusion matrix has no observations")
    diag = np.diag(counts).astype(np.float64)
    col_sums = counts.sum(axis=0).astype(np.float64)
    row_sums = counts.sum(axis=1).astype(np.float64)
    n = counts.shape[0]
    precision = np.divide(diag, col_sums, out=np.zeros(n), where=col_sums > 0)
    recall = np.divide(diag, row_sums, out=np.zeros(n), where=row_sums > 0)
    both = precision + recall
    f1 = np.divide(2 * precision * recall, both, out=np.zeros(n), where=both > 0)
    flagged = np.flatnonzero((col_sums == 0) | (row_sums == 0))
    return MetricsReport(
        accuracy=float(diag.sum() / total),
        macro_precision=float(precision.mean()),
        macro_recall=float(recall.mean()),
        macro_f1=float(f1.mean()),
        per_class_precision=precision,
        per_class_recall=recall,
        per_class_f1=f1,
        flagged_classes=tuple(flagged.tolist()),
    )


# --- feature pipeline ---

FEATURE_KINDS = ("spectrum", "mfcc")


@dataclass(frozen=True)
class PipelineConfig:
    window_len: int = 2**14
    overlap: float = 0.5
    silence: SilenceConfig = SilenceConfig()
    feature_len: int = 512
    feature_kind: str = "spectrum"  # "spectrum" or "mfcc"
    snr_db: float | None = None
    noise_seed: int = 0
    highpass_hz: float | None = None  # Butterworth cutoff; None skips the filter

    def __post_init__(self):
        """Refuse at construction what `segment` and the bin averaging would
        refuse for every clip."""
        if self.feature_kind not in FEATURE_KINDS:
            raise InvalidSetting(
                f"feature_kind must be one of {FEATURE_KINDS}, got {self.feature_kind!r}"
            )
        if self.window_len < 1 or self.window_len & (self.window_len - 1):
            raise InvalidSetting(f"window_len must be a power of two, got {self.window_len}")
        if not 0.0 <= self.overlap < 1.0:
            raise InvalidSetting(f"overlap must be in [0, 1), got {self.overlap}")
        bins = self.window_len // 2 + 1
        if self.feature_kind == "spectrum" and not 1 <= self.feature_len <= bins:
            raise InvalidSetting(
                f"feature length {self.feature_len} outside [1, {bins}] spectrum bins"
            )
        # a power ratio within 1e+-100: for samples in [-1, 1], no square,
        # sum or FFT power of the noisy clip can overflow
        if self.snr_db is not None and not -1000 <= self.snr_db <= 1000:
            raise InvalidSetting(f"snr_db must be in [-1000, 1000] dB, got {self.snr_db}")

    @property
    def feature_dim(self) -> int:
        return self.feature_len if self.feature_kind == "spectrum" else MFCC_COEFFS


def clip_features(clip: AudioClip, pipeline: PipelineConfig) -> np.ndarray:
    """[n_frames, D] features of one clip: optional high-pass, silence
    removal, segmentation, Hamming window, then bin-averaged FFT
    magnitudes or MFCCs. No frames gives a [0, D] matrix."""
    if pipeline.highpass_hz is not None:
        clip = highpass_butterworth(clip, pipeline.highpass_hz)
    active = remove_silence(clip, pipeline.silence)
    frames = segment(active, pipeline.window_len, pipeline.overlap)
    windowed = frames * hamming_coefficients(pipeline.window_len)
    if pipeline.feature_kind == "spectrum":
        return spectrum_features(windowed, pipeline.feature_len)
    return mfcc_features(windowed, clip.sample_rate)


def clip_frame_features(dataset: ClipDataset, pipeline: PipelineConfig) -> list:
    """Per-clip [n_frames, D] feature matrices (pre-normalization): the
    optional SNR noise, deterministic per clip index, then clip_features.

    Clip i's features equal clip_features(add_noise_snr(clip_i, snr_db,
    seed_i)) bit for bit, but the two steps of add_noise_snr are split:
    one helper thread fills clip i's standard normals (a buffer allocated
    here) while this thread scales clip i-1's onto it and featurizes it.
    numpy releases the GIL during the fill. One draw is in flight at a
    time and each clip is read once, so at most two clips are held. Only
    `standard_normals` runs on the helper: every package function the
    benchmark's single-stack tracer wraps runs on the calling thread.
    """
    if pipeline.snr_db is None:
        return [clip_features(clip, pipeline) for clip in dataset.clips]

    def noisy_features(clip, normals):
        return clip_features(add_scaled_noise(clip, pipeline.snr_db, normals), pipeline)

    out = []
    with ThreadPoolExecutor(1) as helper:
        previous = None  # clip i-1 and the future filling its normals
        for i, clip in enumerate(dataset.clips):
            seed = (pipeline.noise_seed * 1_000_003 + i) & 0x7FFFFFFFFFFF
            normals = np.empty(len(clip.samples))
            if previous is not None:  # one draw in flight: clip i-1's ends first
                previous = previous[0], previous[1].result()
            drawing = helper.submit(standard_normals, seed, normals)
            if previous is not None:
                out.append(noisy_features(*previous))
            previous = clip, drawing
        if previous is not None:
            out.append(noisy_features(previous[0], previous[1].result()))
    return out


@dataclass
class FoldData:
    """Training matrix plus per-clip test features, normalized per fold."""

    train_features: np.ndarray
    train_labels: np.ndarray
    test_features: list  # per test clip
    stats: object  # NormStats or None for raw features


def stack_frames(per_clip, values):
    """Per-clip [n_i, D] frame matrices as one [sum n_i, D] matrix, and each
    clip's value repeated once per frame of that clip."""
    return np.vstack(per_clip), np.repeat(values, [len(f) for f in per_clip])


def prepare_fold(per_clip, labels, train_idx, test_idx, normalize_features: bool) -> FoldData:
    """Stack training frames and fit normalization on them alone."""
    if not any(len(per_clip[i]) for i in train_idx):
        raise EmptyDataset("no training frames in fold")
    train_X, train_y = stack_frames([per_clip[i] for i in train_idx],
                                    np.asarray(labels)[train_idx])
    train_y = train_y.astype(np.int64)
    test_feats = [per_clip[i] for i in test_idx]
    if normalize_features:
        return _standardized_fold(log_features(train_X), train_y,
                                  [log_features(f) for f in test_feats])
    return FoldData(train_X, train_y, test_feats, None)


def _standardized_fold(train_X, train_y, test_feats) -> FoldData:
    """A fold of log_features rows, standardized by statistics fitted on its
    training rows alone."""
    stats = fit_standardizer(train_X)
    return FoldData(standardize(train_X, stats), train_y,
                    [standardize(f, stats) for f in test_feats], stats)


# --- methods ---

class CnnClassifier:
    """Multi-view (or single-view) network behind the harness interface."""

    def __init__(self, model_cfg: ModelConfig, train_cfg: TrainConfig):
        self.model_cfg = model_cfg
        self.train_cfg = train_cfg
        self.model = None

    def fit(self, features, labels):
        self.model = build(self.model_cfg)
        train(self.model, features, labels, self.train_cfg)
        return self

    def predict(self, features):
        return predict(self.model, features)


class KnnClassifier:
    """KNN with k tuned on an inner stratified split of the training frames."""

    def __init__(self, seed: int = 0):
        self.seed = seed
        self.model = None
        self.k = None

    def fit(self, features, labels):
        labels = np.asarray(labels)
        if len(labels) >= 8 and len(np.unique(labels)) > 1:
            folds = kfold_split(labels, 4, seed=self.seed)
            val_idx = folds[0]
            fit_idx = np.setdiff1d(np.arange(len(labels)), val_idx)
            self.k = tune_k(
                features[fit_idx], labels[fit_idx],
                features[val_idx], labels[val_idx],
            )
        else:
            self.k = 1
        self.model = KnnModel(features, labels, self.k)
        return self

    def predict(self, features):
        return knn_classify_batch(self.model, features)


def make_method(
    name: str,
    n_classes: int,
    feature_dim: int,
    seed: int = 0,
    *,
    learning_rate: float = TrainConfig.learning_rate,
    iterations: int = TrainConfig.iterations,
    batch_size: int = TrainConfig.batch_size,
    keep_prob: float = ModelConfig.keep_prob,
):
    """Instantiate a classifier by method name with paper-default settings."""
    if name == "multiview" or name == "single_view_cnn":
        widths = ModelConfig.view_widths
        widths = widths if name == "multiview" else widths[:1]
        return CnnClassifier(
            ModelConfig(
                input_len=feature_dim, n_classes=n_classes, view_widths=widths,
                keep_prob=keep_prob, seed=seed,
            ),
            TrainConfig(learning_rate, iterations, batch_size, seed),
        )
    if name in ("knn_spectrum", "knn_mfcc"):
        return KnnClassifier(seed)
    raise InvalidSetting(f"unknown method {name!r}; expected one of {METHOD_NAMES}")


def pipeline_for_method(method: str, base: PipelineConfig) -> PipelineConfig:
    """MFCC methods swap the feature transform; everything else is shared."""
    kind = "mfcc" if method == "knn_mfcc" else "spectrum"
    return replace(base, feature_kind=kind)


# --- cross-validation ---

@dataclass
class CvResult:
    report: MetricsReport
    confusion: np.ndarray  # [H, H] int64 counts, rows true classes
    skipped_clips: int = 0  # test clips left unscored: no frames survived


def evaluate_split(labels, test_idx, fold: FoldData, classifier, n_classes: int,
                   clip_level: bool = True) -> np.ndarray:
    """Fit a classifier on a fold's training data and score its test clips
    with one predict over all their frames; a clip's votes are its frames'
    predictions. Returns the [H, H] int64 confusion counts, rows true classes."""
    classifier.fit(fold.train_features, fold.train_labels)
    cm = np.zeros((n_classes, n_classes), dtype=np.int64)
    scored = [(i, f) for i, f in zip(test_idx, fold.test_features) if len(f)]
    if not scored:
        return cm
    feats, clip_of_frame = stack_frames([f for _, f in scored], np.arange(len(scored)))
    votes = np.zeros((len(scored), n_classes), dtype=np.int64)
    np.add.at(votes, (clip_of_frame, classifier.predict(feats)), 1)
    truth = np.asarray(labels)[[i for i, _ in scored]]
    if clip_level:
        np.add.at(cm, (truth, np.argmax(votes, axis=1)), 1)
    else:
        np.add.at(cm, truth, votes)
    return cm


def run_cv(
    dataset: ClipDataset,
    method: str = "multiview",
    k: int = 10,
    seed: int = 0,
    pipeline: PipelineConfig = PipelineConfig(),
    clip_level: bool = True,
    **method_params,
) -> CvResult:
    """Stratified k-fold cross-validation of one method.

    Normalization statistics are fitted per fold on training frames
    only. Returns per-fold metrics plus the pooled confusion matrix.
    """
    splits = _cv_splits(dataset.labels, k, seed)
    pipe = pipeline_for_method(method, pipeline)
    per_clip = clip_frame_features(dataset, pipe)
    return _run_splits(dataset, per_clip, method, splits, seed, pipe, clip_level,
                       method_params)


def _cv_splits(labels, k: int, seed: int) -> list:
    """(train_idx, test_idx) per fold of kfold_split(labels, k, seed)."""
    all_idx = np.arange(len(labels))
    return [(np.setdiff1d(all_idx, test_idx), test_idx)
            for test_idx in kfold_split(labels, k, seed)]


def _run_splits(dataset, per_clip, method, splits, seed, pipe, clip_level,
                method_params) -> CvResult:
    """Fit and score one classifier per (train_idx, test_idx) split on
    per_clip, the clips' features under pipe (the method's pipeline).
    Split f seeds its classifier with seed * 101 + f; a test clip without
    frames cannot be scored, and each such clip in a split's test set
    counts once in `skipped_clips`.
    """
    labels = dataset.labels
    normalize_features = pipe.feature_kind == "spectrum"
    if normalize_features:  # log each clip once; each fold fits its own z-score
        per_clip = [log_features(f) for f in per_clip]
    pooled = np.zeros((dataset.n_classes, dataset.n_classes), dtype=np.int64)
    fold_metrics = []
    skipped = 0
    for f, (train_idx, test_idx) in enumerate(splits):
        skipped += sum(len(per_clip[i]) == 0 for i in test_idx)
        # stacks the (logged) rows and refuses a fold without training frames
        fold = prepare_fold(per_clip, labels, train_idx, test_idx, False)
        if normalize_features:
            fold = _standardized_fold(fold.train_features, fold.train_labels,
                                      fold.test_features)
        clf = make_method(
            method, dataset.n_classes, pipe.feature_dim, seed * 101 + f, **method_params
        )
        fold_cm = evaluate_split(labels, test_idx, fold, clf, dataset.n_classes, clip_level)
        m = compute_metrics(fold_cm)
        fold_metrics.append(
            (m.accuracy, m.macro_precision, m.macro_recall, m.macro_f1)
        )
        pooled += fold_cm
    report = compute_metrics(pooled)
    report.fold_metrics = fold_metrics
    return CvResult(report, pooled, skipped)


# --- parameter sweeps ---

DEFAULT_GRIDS = {
    "window_size": (2**11, 2**12, 2**13, 2**14, 2**15),
    "iterations": (10, 25, 50, 100, 200),
    "dropout": (0.5, 0.6, 0.7, 0.8, 0.9),
    "learning_rate": (1e-4, 5e-4, 1e-3, 5e-3, 1e-2),
    "train_fraction": tuple(round(0.1 * i, 1) for i in range(1, 10)),
    "snr": (-6.0, -3.0, 0.0, 3.0, 6.0),
}

RESULTS_HEADER = ("axis", "value", "method", "fold", "seed",
                  "accuracy", "precision", "recall", "f1")


@dataclass(frozen=True)
class SweepSpec:
    axis: str
    grid: tuple | None = None
    methods: tuple = ("multiview",)
    seeds: tuple = (0,)
    k: int = 10

    def resolved_grid(self) -> tuple:
        if self.axis not in DEFAULT_GRIDS:
            raise InvalidSetting(f"unknown sweep axis {self.axis!r}")
        return self.grid or DEFAULT_GRIDS[self.axis]


def _sweep_point(axis, value, pipeline, method_params, seed):
    """Apply one grid value to the pipeline or the method parameters."""
    if axis == "window_size":
        return replace(pipeline, window_len=int(value)), method_params
    if axis == "snr":
        return replace(pipeline, snr_db=float(value), noise_seed=seed), method_params
    if axis == "iterations":
        return pipeline, {**method_params, "iterations": int(value)}
    if axis == "dropout":
        return pipeline, {**method_params, "keep_prob": float(value)}
    if axis == "learning_rate":
        return pipeline, {**method_params, "learning_rate": float(value)}
    return pipeline, method_params  # train_fraction changes the splits instead


def run_sweep(
    spec: SweepSpec,
    dataset: ClipDataset,
    pipeline: PipelineConfig = PipelineConfig(),
    clip_level: bool = True,
    **method_params,
) -> list:
    """Grid x methods x seeds sweep; one row dict per (value, method, fold, seed).

    Every row also carries its run's `skipped_clips` (test clips without
    frames), the same on each fold row of one (value, method, seed) run.
    SNR values are injected into training and test clips alike (before
    feature extraction). The train_fraction axis replaces k-fold CV with
    k stratified train/test splits at the given fraction, indexed by the
    fold column. Rows come back sorted by (value, method, fold, seed).

    Each distinct method pipeline's features are extracted once, after every
    run is checked, and dropped before the next pipeline's are.

    Raises:
        InvalidSetting: unknown axis or method, k too small for the axis
            (train_fraction needs k >= 1 splits, CV axes k >= 2 folds), a
            negative seed, or a grid value or seed that the pipeline, a
            method's configs or the splits refuse, before any feature pass.
    """
    grid = spec.resolved_grid()
    min_k = 1 if spec.axis == "train_fraction" else 2
    if spec.k < min_k:
        raise InvalidSetting(f"k must be >= {min_k} on the {spec.axis} axis, got {spec.k}")
    if min(spec.seeds, default=0) < 0:
        raise InvalidSetting(f"seed must be >= 0, got {min(spec.seeds)}")
    runs = {}  # method pipeline -> its (value, method, seed, params, splits) runs
    for value in grid:
        for seed in spec.seeds:
            pipe, params = _sweep_point(spec.axis, value, pipeline, method_params, seed)
            if spec.axis == "train_fraction":
                splits = [stratified_fraction_split(dataset.labels, float(value),
                                                    seed=seed * 1009 + rep)
                          for rep in range(spec.k)]
            else:
                splits = _cv_splits(dataset.labels, spec.k, seed)
            for method in spec.methods:  # builds, so checks, each method's configs
                mpipe = pipeline_for_method(method, pipe)
                make_method(method, dataset.n_classes, mpipe.feature_dim, seed * 101, **params)
                runs.setdefault(mpipe, []).append((value, method, seed, params, splits))
    rows = []
    for pipe, pipe_runs in runs.items():
        per_clip = clip_frame_features(dataset, pipe)
        for value, method, seed, params, splits in pipe_runs:
            result = _run_splits(dataset, per_clip, method, splits, seed, pipe,
                                 clip_level, params)
            rows += fold_rows(spec.axis, value, method, seed, result)
        del per_clip  # one feature set at a time
    rows.sort(key=lambda r: (float(r["value"]), r["method"], r["fold"], r["seed"]))
    return rows


def fold_rows(axis, value, method, seed, result: CvResult) -> list:
    """One results row dict per fold of a run, each with the run's skipped_clips."""
    return [
        {
            "axis": axis, "value": value, "method": method, "fold": fold,
            "seed": seed, "accuracy": acc, "precision": prec, "recall": rec,
            "f1": f1, "skipped_clips": result.skipped_clips,
        }
        for fold, (acc, prec, rec, f1) in enumerate(result.report.fold_metrics)
    ]


def write_results_csv(path, rows, meta=()) -> None:
    """Write sweep/CV rows with '#'-prefixed metadata lines up top."""
    with open(path, "w", newline="") as fh:
        for line in meta:
            fh.write(f"# {line}\n")
        writer = csv.writer(fh)
        writer.writerow(RESULTS_HEADER)
        for r in rows:
            writer.writerow([
                r["axis"], f"{r['value']:g}", r["method"], r["fold"], r["seed"],
                f"{r['accuracy']:.6f}", f"{r['precision']:.6f}",
                f"{r['recall']:.6f}", f"{r['f1']:.6f}",
            ])


# --- silence threshold tuning ---

def tune_silence_threshold(levels, active) -> float:
    """Exhaustive threshold search over {0, 0.01, ..., 0.5}.

    levels holds each labeled window's RMS (`audio.window_rms`) and
    active its label, one per level; a window is predicted active when
    its level is >= the threshold. Returns the threshold with the best
    window-level accuracy, ties resolving to the smallest value.

    Raises:
        EmptyDataset: no labeled windows.
    """
    levels = np.asarray(levels, dtype=np.float64)
    truth = np.asarray(active, dtype=bool)
    if not len(levels):
        raise EmptyDataset("no labeled windows to tune on")
    rhos = np.arange(51) / 100.0
    acc = np.mean((levels >= rhos[:, None]) == truth, axis=1)
    return float(rhos[np.argmax(acc)])  # first max = smallest threshold


# --- dataset I/O ---

def load_manifest(path) -> ClipDataset:
    """Load a `path,label` CSV manifest; relative paths resolve beside it.

    String labels are mapped to ids in sorted order.

    Raises:
        EmptyDataset: manifest has no rows.
        InvalidSpec: not UTF-8 CSV, no path,label header, a row without
            a label, or a row whose clip cannot be read.
    """
    path = Path(path)
    entries = []
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = csv.reader(fh)
            header = next(rows, None)
            if header is None or [c.strip() for c in header[:2]] != ["path", "label"]:
                raise InvalidSpec(f"{path}: manifest must have a path,label header")
            for fields in rows:
                if not fields:
                    continue
                where = f"{path}: line {rows.line_num}"
                if len(fields) < 2:
                    raise InvalidSpec(f"{where}: row has no label")
                if "\0" in fields[0]:
                    raise InvalidSpec(f"{where}: NUL byte in clip path")
                entries.append((fields[0].strip(), fields[1].strip(), where))
    except (UnicodeDecodeError, csv.Error) as exc:
        raise InvalidSpec(f"{path}: not a UTF-8 CSV manifest ({exc})") from None
    if not entries:
        raise EmptyDataset(f"{path}: empty manifest")
    names = sorted({label for _, label, _ in entries})
    ids = {name: i for i, name in enumerate(names)}
    clips = []
    labels = []
    for rel, label, where in entries:
        clip_path = Path(rel)
        if not clip_path.is_absolute():
            clip_path = path.parent / clip_path
        try:
            clips.append(load_wav(clip_path))
        except OSError as exc:
            raise InvalidSpec(f"{where}: cannot read clip {rel!r}: {exc.strerror}") from None
        labels.append(ids[label])
    return ClipDataset(clips, np.array(labels), len(names), names)


def save_dataset(dataset: ClipDataset, out_dir) -> Path:
    """Write clips as WAVs plus a manifest.csv; returns the manifest path."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = out_dir / "manifest.csv"
    with open(manifest, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["path", "label"])
        for i, (clip, label) in enumerate(zip(dataset.clips, dataset.labels)):
            name = f"clip_{i:04d}_{dataset.label_names[label]}.wav"
            save_wav(out_dir / name, clip)
            writer.writerow([name, dataset.label_names[label]])
    return manifest
