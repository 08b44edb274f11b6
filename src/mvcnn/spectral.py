"""Frequency-domain feature extraction and noise tooling.

FFT magnitude spectra, bin-averaged feature vectors, log/z-score
normalization, a Butterworth high-pass for wind rejection, MFCCs for
the baseline classifiers, and SNR-controlled Gaussian noise injection.

Frames must have a power-of-two length. Every transform goes through
power_spectra, which runs numpy's real FFT over a whole frame batch.

The high-pass runs each biquad as a block state-space recurrence: within
a block of HIGHPASS_BLOCK samples a section is a few matmuls with
operators built once per design, and only the 2-vector section state
steps from block to block (Blelloch, "Prefix Sums and Their
Applications", 1990; Martin & Cundy, arXiv:1709.04057).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .audio import AudioClip, Frame, hamming_coefficients
from .errors import (
    BadMagic,
    EmptyTrainingSet,
    InvalidCounts,
    InvalidCutoff,
    InvalidLength,
    InvalidSetting,
    LengthMismatch,
    NonPowerOfTwo,
    ZeroPowerSignal,
)

NORM_MAGIC = b"NRM1"
STD_FLOOR = 1e-8
LOG_FLOOR = 1e-10
MFCC_FILTERS = 26
MFCC_COEFFS = 13
HIGHPASS_BLOCK = 128


@dataclass(frozen=True)
class Spectrum:
    """Magnitudes of FFT bins 0..N/2 of a real frame of length N."""

    bins: np.ndarray
    source_len: int
    sample_rate: int

    def __post_init__(self):
        object.__setattr__(self, "bins", np.asarray(self.bins, dtype=np.float64))
        if len(self.bins) != self.source_len // 2 + 1:
            raise InvalidSetting("bin count must be source_len/2 + 1")


# --- FFT ---

def _check_power_of_two(n: int):
    if n < 1 or n & (n - 1):
        raise NonPowerOfTwo(f"frame length {n} is not a power of two")


def power_spectra(frames: np.ndarray) -> np.ndarray:
    """Half-spectrum |X[k]|^2, bins 0..N/2, of a [..., N] batch of frames.

    Raises:
        NonPowerOfTwo: frame length N is not a power of two.
    """
    _check_power_of_two(frames.shape[-1])
    half = np.fft.rfft(frames)
    return half.real**2 + half.imag**2


def fft_magnitude(frame: Frame, sample_rate: int = 24000) -> Spectrum:
    """Magnitude spectrum of a (windowed) frame, bins 0..N/2 inclusive.

    Raises:
        NonPowerOfTwo: frame length is not a power of two.
    """
    return Spectrum(np.sqrt(power_spectra(frame.values)), len(frame.values), sample_rate)


# --- feature vectors ---

def _group_starts(count: int, L: int) -> tuple[np.ndarray, np.ndarray]:
    base, rem = divmod(count, L)
    sizes = np.full(L, base, dtype=np.intp)
    sizes[:rem] += 1
    starts = np.concatenate([[0], np.cumsum(sizes)[:-1]])
    return starts, sizes


def _average_groups(values: np.ndarray, L: int) -> np.ndarray:
    """Average the last axis over L contiguous, near-equal bin groups."""
    count = values.shape[-1]
    if not 1 <= L <= count:
        raise InvalidLength(f"feature length {L} outside [1, {count}] spectrum bins")
    starts, sizes = _group_starts(count, L)
    return np.add.reduceat(values, starts, axis=-1) / sizes


def bin_average(spec: Spectrum, L: int) -> np.ndarray:
    """Compress a spectrum to L values by averaging contiguous bin groups.

    Bins are split into L groups as equal as possible (the first
    count mod L groups get one extra bin); the output is each group's mean.

    Raises:
        InvalidLength: L outside [1, bin count].
    """
    return _average_groups(spec.bins, L)


def spectrum_features(frames: list[Frame], feature_len: int = 512) -> np.ndarray:
    """Hamming-window, FFT and bin-average a list of frames in one batch.

    Returns a [n_frames, feature_len] array of non-negative magnitudes
    (pre-normalization). All frames must share one power-of-two length.
    """
    if not frames:
        return np.empty((0, feature_len))
    n = len(frames[0].values)
    mat = np.stack([f.values for f in frames]) * hamming_coefficients(n)
    return _average_groups(np.sqrt(power_spectra(mat)), feature_len)


# --- normalization ---

@dataclass(frozen=True)
class NormStats:
    """Per-dimension mean/std of log(1+x), fit on a training set."""

    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mean", np.asarray(self.mean, dtype=np.float64))
        object.__setattr__(self, "std", np.asarray(self.std, dtype=np.float64))
        if self.mean.shape != self.std.shape:
            raise LengthMismatch("mean and std must have equal length")

    def to_bytes(self) -> bytes:
        return (
            NORM_MAGIC
            + struct.pack("<I", len(self.mean))
            + self.mean.astype("<f8").tobytes()
            + self.std.astype("<f8").tobytes()
        )

    @classmethod
    def from_bytes(cls, blob: bytes) -> "NormStats":
        if blob[:4] != NORM_MAGIC:
            raise BadMagic("not a NRM1 block")
        if len(blob) < 8:
            raise LengthMismatch("NRM1 block shorter than its header")
        (length,) = struct.unpack_from("<I", blob, 4)
        need = 8 + 16 * length
        if len(blob) < need:
            raise LengthMismatch("NRM1 block shorter than declared")
        mean = np.frombuffer(blob, dtype="<f8", count=length, offset=8)
        std = np.frombuffer(blob, dtype="<f8", count=length, offset=8 + 8 * length)
        return cls(mean.copy(), std.copy())

    @classmethod
    def identity(cls, length: int) -> "NormStats":
        return cls(np.zeros(length), np.ones(length))


def fit_normalizer(training_features: np.ndarray) -> NormStats:
    """Fit per-dimension mean/std of log(1+x) over a [n, L] feature matrix.

    Std is floored at 1e-8 so constant dimensions normalize to zero.

    Raises:
        EmptyTrainingSet: no rows to fit on.
    """
    feats = np.asarray(training_features, dtype=np.float64)
    if feats.ndim != 2 or feats.shape[0] == 0:
        raise EmptyTrainingSet("need a nonempty [n, L] feature matrix")
    logged = np.log1p(feats)
    mean = logged.mean(axis=0)
    std = np.maximum(logged.std(axis=0), STD_FLOOR)
    return NormStats(mean, std)


def normalize(features: np.ndarray, stats: NormStats) -> np.ndarray:
    """Apply (log(1+x) - mean) / std per dimension. Accepts [L] or [n, L]."""
    feats = np.asarray(features, dtype=np.float64)
    if feats.shape[-1] != len(stats.mean):
        raise LengthMismatch(
            f"feature length {feats.shape[-1]} != stats length {len(stats.mean)}"
        )
    return (np.log1p(feats) - stats.mean) / stats.std


# --- Butterworth high-pass ---

def design_highpass(cutoff_hz: float, sample_rate: int, order: int = 4) -> np.ndarray:
    """Design an even-order Butterworth high-pass as cascaded biquads.

    Analog prototype poles are frequency-warped to the bilinear-transform
    cutoff and mapped pairwise to second-order sections. Returns an
    [order/2, 6] array of (b0, b1, b2, a0, a1, a2) rows with a0 = 1.

    Raises:
        InvalidCutoff: cutoff outside (0, Nyquist).
        InvalidSetting: order is not a positive even integer.
    """
    if not 0 < cutoff_hz < sample_rate / 2:
        raise InvalidCutoff(
            f"cutoff {cutoff_hz} Hz outside (0, {sample_rate / 2}) at fs={sample_rate}"
        )
    if order < 2 or order % 2:
        raise InvalidSetting(f"order must be a positive even integer, got {order}")

    warped = np.tan(np.pi * cutoff_hz / sample_rate)
    sections = np.empty((order // 2, 6))
    for i in range(order // 2):
        # low-pass prototype pole in the upper-left quadrant, then s -> w/s
        angle = np.pi * (2 * (i + 1) + order - 1) / (2 * order)
        pole_hp = warped / np.exp(1j * angle)
        b1 = -2.0 * pole_hp.real
        b0 = abs(pole_hp) ** 2
        a0 = 1.0 + b1 + b0
        sections[i] = [
            1.0 / a0,
            -2.0 / a0,
            1.0 / a0,
            1.0,
            (2.0 * b0 - 2.0) / a0,
            (1.0 - b1 + b0) / a0,
        ]
    return sections


def sos_response(sections: np.ndarray, freq_hz: float, sample_rate: int) -> complex:
    """Frequency response of a biquad cascade at a single frequency."""
    z = np.exp(-2j * np.pi * freq_hz / sample_rate)
    resp = 1.0 + 0j
    for b0, b1, b2, _, a1, a2 in sections:
        resp *= (b0 + b1 * z + b2 * z * z) / (1.0 + a1 * z + a2 * z * z)
    return resp


def _section_operators(section: np.ndarray) -> tuple[np.ndarray, ...]:
    """Block operators of one biquad as a 2-state system over HIGHPASS_BLOCK samples.

    Transposed direct form II is s' = A s + B x, y = b0 x + s[0] with
    A = [[-a1, 1], [-a2, 0]] and B = [b1 - a1 b0, b2 - a2 b0]. Returns
    (toeplitz, state_out, end_state, carry): the [L, L] lower-triangular
    impulse response (row i holds h[i - j]), the [L, 2] rows c A^i that map
    a block's start state to its outputs, the [L, 2] rows (A^(L-1-j) B)^T
    that map its inputs to its end state, and A^L.
    """
    b0, b1, b2, _, a1, a2 = section
    a = np.array([[-a1, 1.0], [-a2, 0.0]])
    powers = np.empty((HIGHPASS_BLOCK + 1, 2, 2))
    powers[0] = np.eye(2)
    for i in range(HIGHPASS_BLOCK):
        powers[i + 1] = a @ powers[i]
    impulse_states = powers[:-1] @ np.array([b1 - a1 * b0, b2 - a2 * b0])
    # h[0] = b0, h[k] = c A^(k-1) B; row i of the windows reversed is h[i - j]
    padded = np.concatenate([np.zeros(HIGHPASS_BLOCK - 1), [b0], impulse_states[:-1, 0]])
    toeplitz = np.lib.stride_tricks.sliding_window_view(padded, HIGHPASS_BLOCK)[:, ::-1]
    ops = (toeplitz, powers[:-1, 0, :], impulse_states[::-1], powers[-1])
    ops = tuple(np.ascontiguousarray(op) for op in ops)
    for op in ops:
        op.flags.writeable = False
    return ops


@lru_cache(maxsize=8)
def _highpass_operators(cutoff_hz: float, sample_rate: int, order: int) -> tuple:
    """Per-section block operators of one Butterworth design, built once per
    argument triple because highpass_butterworth runs on every node clip."""
    return tuple(
        _section_operators(section)
        for section in design_highpass(cutoff_hz, sample_rate, order)
    )


def _sosfilt(operators: tuple, x: np.ndarray) -> np.ndarray:
    """Apply a biquad cascade (transposed direct form II, zero initial state).

    Each section runs block by block: the signal is zero-padded to
    [n_blocks, HIGHPASS_BLOCK], one matmul gives every block's zero-state
    outputs and one its zero-state end state, a loop over blocks carries
    the 2-vector state with A^L, and a last matmul adds each block's
    carried-in state to its outputs. Sums run in another order than the
    per-sample recurrence, so the two differ in rounding: against a
    long-double recurrence on 48 000 samples of noise, both are within
    ~5e-15 of max|y| at 200 Hz; at 1 Hz and 48 kHz the block form is within
    4e-12 and the loop 4e-11; a 3990 Hz cutoff at 8 kHz costs the block
    form 2e-12 against 5e-13 for the loop.
    """
    n = len(x)
    n_blocks = -(-n // HIGHPASS_BLOCK)
    y = np.zeros(n_blocks * HIGHPASS_BLOCK)
    y[:n] = x
    y = y.reshape(n_blocks, HIGHPASS_BLOCK)
    for toeplitz, state_out, end_state, carry in operators:
        (p00, p01), (p10, p11) = carry.tolist()
        s0 = s1 = 0.0
        starts = []
        for e0, e1 in (y @ end_state).tolist():
            starts.append((s0, s1))
            s0, s1 = p00 * s0 + p01 * s1 + e0, p10 * s0 + p11 * s1 + e1
        y = y @ toeplitz.T + np.reshape(starts, (-1, 2)) @ state_out.T
    return y.reshape(-1)[:n]


def highpass_butterworth(
    clip: AudioClip, cutoff_hz: float = 200.0, order: int = 4
) -> AudioClip:
    """High-pass filter a clip through cascaded Butterworth biquads."""
    operators = _highpass_operators(cutoff_hz, clip.sample_rate, order)
    return AudioClip(_sosfilt(operators, clip.samples), clip.sample_rate)


# --- noise injection ---

def add_noise_snr(clip: AudioClip, snr_db: float, seed: int) -> AudioClip:
    """Add i.i.d. Gaussian noise scaled to a target SNR in dB.

    Noise variance is P_signal / 10^(snr_db/10) with P_signal the mean
    squared sample. Deterministic per seed. The output is not re-clipped
    to [-1, 1].

    Raises:
        ZeroPowerSignal: the clip has no signal power.
    """
    power = float(np.mean(clip.samples**2))
    if power == 0.0:
        raise ZeroPowerSignal("cannot set an SNR against a zero-power signal")
    sigma = np.sqrt(power / 10.0 ** (snr_db / 10.0))
    rng = np.random.Generator(np.random.PCG64(seed))
    noise = sigma * rng.standard_normal(len(clip.samples))
    return AudioClip(clip.samples + noise, clip.sample_rate)


def measure_snr(signal: AudioClip, noise: AudioClip) -> float:
    """10*log10 of signal power over noise power.

    Raises:
        LengthMismatch: clips differ in length.
        ZeroPowerSignal: either clip has zero power.
    """
    if len(signal.samples) != len(noise.samples):
        raise LengthMismatch("signal and noise must have equal length")
    p_sig = float(np.mean(signal.samples**2))
    p_noise = float(np.mean(noise.samples**2))
    if p_sig == 0.0 or p_noise == 0.0:
        raise ZeroPowerSignal("SNR undefined for zero-power input")
    return 10.0 * np.log10(p_sig / p_noise)


# --- MFCC ---

def mel_scale(freq_hz):
    return 2595.0 * np.log10(1.0 + np.asarray(freq_hz) / 700.0)


def inverse_mel(mel):
    return 700.0 * (10.0 ** (np.asarray(mel) / 2595.0) - 1.0)


@lru_cache(maxsize=8)
def mel_filterbank(n_filters: int, n_fft: int, sample_rate: int) -> np.ndarray:
    """Triangular mel filters over bins 0..n_fft/2, spanning 0 Hz..Nyquist.

    Returns a read-only [n_filters, n_fft/2 + 1] weight matrix, built once
    per argument triple because mfcc_features asks for it for every clip.
    Filter i rises from mel point i to i+1 and falls to i+2, evaluated at
    exact bin frequencies (no integer-bin snapping).
    """
    edges_hz = inverse_mel(np.linspace(0.0, mel_scale(sample_rate / 2), n_filters + 2))
    bin_freqs = np.arange(n_fft // 2 + 1) * sample_rate / n_fft
    lower = edges_hz[:-2, None]
    center = edges_hz[1:-1, None]
    upper = edges_hz[2:, None]
    rising = (bin_freqs - lower) / (center - lower)
    falling = (upper - bin_freqs) / (upper - center)
    fbank = np.clip(np.minimum(rising, falling), 0.0, None)
    fbank.flags.writeable = False
    return fbank


def dct_matrix(n: int) -> np.ndarray:
    """Orthonormal DCT-II matrix, rows indexed by coefficient."""
    i = np.arange(n)
    mat = np.cos(np.pi * np.outer(i, 2 * i + 1) / (2 * n)) * np.sqrt(2.0 / n)
    mat[0] /= np.sqrt(2.0)
    return mat


def mfcc(
    frame: Frame,
    sample_rate: int = 24000,
    n_filters: int = MFCC_FILTERS,
    n_coeffs: int = MFCC_COEFFS,
) -> np.ndarray:
    """Mel-frequency cepstral coefficients of a Hamming-windowed frame.

    Power spectrum -> triangular mel filterbank -> log (floored at
    1e-10) -> orthonormal DCT-II, first n_coeffs coefficients.

    Raises:
        NonPowerOfTwo: frame length unsuitable for the FFT.
        InvalidCounts: n_coeffs exceeds n_filters.
    """
    return mfcc_features(
        frame.values[None, :], sample_rate, n_filters, n_coeffs
    )[0]


def mfcc_features(
    frames: np.ndarray,
    sample_rate: int = 24000,
    n_filters: int = MFCC_FILTERS,
    n_coeffs: int = MFCC_COEFFS,
) -> np.ndarray:
    """Batched MFCC over a [n_frames, N] matrix of windowed frames."""
    if n_coeffs > n_filters:
        raise InvalidCounts(f"n_coeffs {n_coeffs} > n_filters {n_filters}")
    frames = np.asarray(frames, dtype=np.float64)
    power = power_spectra(frames)
    fbank = mel_filterbank(n_filters, frames.shape[-1], sample_rate)
    energies = np.maximum(power @ fbank.T, LOG_FLOOR)
    return np.log(energies) @ dct_matrix(n_filters)[:n_coeffs].T
