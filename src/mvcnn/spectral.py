"""Frequency-domain feature extraction and noise tooling.

FFT magnitude spectra, bin-averaged feature vectors, log/z-score
normalization, a Butterworth high-pass for wind rejection, MFCCs for
the baseline classifiers, and SNR-controlled Gaussian noise injection.
Each step is one function. Statistics are fit_standardizer of
log_features rows and normalize applies them; noise is add_noise_snr of
the normals that standard_normals(seed, ...) fills, so a caller may
draw them ahead.

Frames arrive as one Hamming-windowed [n, N] matrix with N a power of
two. Every transform goes through power_spectra, which runs numpy's real
FFT over the whole batch.

The frame kernels (power_spectra, the bin averaging, spectrum_features
and mfcc_features) and the normalization halves do not check their
arguments. Values are checked where they enter: `PipelineConfig` refuses
a window length that is not a power of two and a feature length outside
[1, N/2 + 1], `evaluation.py` hands the kernels only frames of that
window length, and the statistics' callers fit them on a nonempty set
and normalise only rows of their length.

The high-pass runs each biquad as a two-level block scan of its
state-space recurrence (Blelloch, "Prefix Sums and Their Applications",
1990; Martin & Cundy, arXiv:1709.04057). Within a block of
HIGHPASS_BLOCK samples a section is a few matmuls; the block-to-block
recurrence of the 2-vector state is the same kind of scan over groups of
blocks, so only a short loop over groups runs in Python. The operators
of both levels are built once per design in long double, in state
coordinates where rounding them barely moves the poles, and rounded once
to float64: against a long-double per-sample recurrence the filter is
within 1.2e-14 of max|y| even at 1 Hz / 48 kHz.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .audio import AudioClip
from .errors import InvalidSetting, LengthMismatch, ZeroPowerSignal

STD_FLOOR = 1e-8
LOG_FLOOR = 1e-10
MFCC_FILTERS = 26
MFCC_COEFFS = 13
HIGHPASS_BLOCK = 32
# Butterworth order of the wind-rejection high-pass: two biquad sections
HIGHPASS_ORDER = 4
# blocks per group of the high-pass scan's second level
_GROUP_BLOCKS = 32


# --- FFT ---

def power_spectra(frames: np.ndarray) -> np.ndarray:
    """Half-spectrum |X[k]|^2, bins 0..N/2, of a [..., N] batch of frames.

    The real and imaginary parts are squared in place in the FFT's own
    output, then summed into the one array returned.
    """
    half = np.fft.rfft(frames)
    parts = half.view(half.real.dtype)
    np.square(parts, out=parts)
    return np.add(parts[..., 0::2], parts[..., 1::2])


# --- feature vectors ---

@lru_cache(maxsize=8)
def _group_starts(count: int, L: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (starts, sizes) of the L bin groups, built once per
    (count, L) because every clip's frames are averaged with them."""
    base, rem = divmod(count, L)
    sizes = np.full(L, base, dtype=np.intp)
    sizes[:rem] += 1
    starts = np.concatenate([[0], np.cumsum(sizes)[:-1]])
    starts.flags.writeable = sizes.flags.writeable = False
    return starts, sizes


def _average_groups(values: np.ndarray, L: int) -> np.ndarray:
    """Compress the last axis to L values by averaging contiguous bin groups.

    Bins are split into L groups as equal as possible (the first
    count mod L groups get one extra bin); the output is each group's mean.
    L is in [1, bin count].
    """
    starts, sizes = _group_starts(values.shape[-1], L)
    sums = np.add.reduceat(values, starts, axis=-1)
    sums /= sizes
    return sums


def spectrum_features(frames: np.ndarray, feature_len: int) -> np.ndarray:
    """FFT magnitudes of a [n_frames, N] matrix of windowed frames, bin-averaged.

    Returns a [n_frames, feature_len] array of non-negative magnitudes
    (pre-normalization). The root is taken in place in the power spectra.
    """
    magnitudes = power_spectra(frames)
    np.sqrt(magnitudes, out=magnitudes)
    return _average_groups(magnitudes, feature_len)


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

    @classmethod
    def identity(cls, length: int) -> "NormStats":
        return cls(np.zeros(length), np.ones(length))


def log_features(features: np.ndarray) -> np.ndarray:
    """log(1+x) of [L] or [n, L] raw features: normalization's first half."""
    return np.log1p(np.asarray(features, dtype=np.float64))


def fit_standardizer(logged: np.ndarray) -> NormStats:
    """Per-dimension mean/std over a nonempty [n, L] matrix of log_features
    rows. Std is floored at STD_FLOOR so constant dimensions map to zero."""
    return NormStats(logged.mean(axis=0), np.maximum(logged.std(axis=0), STD_FLOOR))


def standardize(logged: np.ndarray, stats: NormStats) -> np.ndarray:
    """(logged - mean) / std per dimension: normalization's second half."""
    out = logged - stats.mean
    out /= stats.std
    return out


def normalize(features: np.ndarray, stats: NormStats) -> np.ndarray:
    """Apply (log(1+x) - mean) / std per dimension to [L] or [n, L] rows of
    the statistics' length."""
    return standardize(log_features(features), stats)


# --- Butterworth high-pass ---

def design_highpass(cutoff_hz: float, sample_rate: int) -> np.ndarray:
    """Design a HIGHPASS_ORDER Butterworth high-pass as cascaded biquads.

    Analog prototype poles are frequency-warped to the bilinear-transform
    cutoff and mapped pairwise to second-order sections. Returns an
    [HIGHPASS_ORDER/2, 6] array of (b0, b1, b2, a0, a1, a2) rows with a0 = 1.

    Raises:
        InvalidSetting: cutoff outside (0, Nyquist).
    """
    if not 0 < cutoff_hz < sample_rate / 2:
        raise InvalidSetting(
            f"cutoff {cutoff_hz} Hz outside (0, {sample_rate / 2}) at fs={sample_rate}"
        )

    order = HIGHPASS_ORDER
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


def _scan_operators(m, b, c, d, length: int) -> tuple[np.ndarray, ...]:
    """Block operators of z' = M z + B v, out = C z + D v over `length` steps.

    For a block of input rows v_0 .. v_(L-1), in right-multiply form:
    zero_state maps the concatenated inputs to the concatenated zero-state
    outputs (entry ((j, a), (i, b)) holds (C M^(i-1-j) B)[b, a] for j < i
    and D[b, a] for j = i), end_state maps them to the block's end state
    (rows (M^(L-1-j) B)^T), start maps a start state to the outputs (rows
    of (C M^i)^T), and carry is M^L. Computed in the dtype of the inputs.
    """
    powers = [np.eye(2, dtype=m.dtype)]
    for _ in range(length):
        powers.append(m @ powers[-1])
    powers = np.array(powers)
    k_out, m_in = d.shape
    kernel = np.concatenate([d[None], c @ powers[: length - 1] @ b])
    lag = np.arange(length)[None, :] - np.arange(length)[:, None]
    zero = np.where((lag >= 0)[:, :, None, None], kernel[np.maximum(lag, 0)], 0)
    zero_state = zero.transpose(0, 3, 1, 2).reshape(length * m_in, length * k_out)
    end_state = (powers[length - 1 :: -1] @ b).transpose(0, 2, 1).reshape(-1, 2)
    start = (c @ powers[:length]).transpose(2, 0, 1).reshape(2, length * k_out)
    return zero_state, end_state, start, powers[length]


def _section_operators(section: np.ndarray) -> tuple[np.ndarray, ...]:
    """Two-level block operators of one biquad, read-only float64 arrays.

    Transposed direct form II is s' = A s + B x, y = b0 x + s[0] with
    A = [[-a1, 1], [-a2, 0]] and B = [b1 - a1 b0, b2 - a2 b0]. The state is
    carried as u = (s[0], s[1] - a1/2 s[0]), where A becomes
    [[-a1/2, 1], [a1^2/4 - a2, -a1/2]]: its powers keep two equal diagonal
    entries, and the product of the off-diagonal pair holds the small
    spread of the poles, which rounding each entry barely moves. In the s
    coordinates, A^1024 at 1 Hz / 48 kHz has four entries near 1000 whose
    products cancel to a determinant below 1; operators built there read
    7.8e-12 of max|y| against a long-double recurrence, these 1.2e-14.
    y = b0 x + u[0] still.

    Returns (impulse, end_state, state_out, group_zero, group_end,
    group_start, group_carry): the _scan_operators of the section over
    HIGHPASS_BLOCK samples (impulse is the [L, L] Toeplitz matrix of h),
    then those of the block-to-block recurrence u[k+1] = P u[k] + e[k],
    P = A^HIGHPASS_BLOCK in u coordinates, over _GROUP_BLOCKS blocks. All
    are built in np.longdouble and rounded once.
    """
    ld = np.longdouble
    b0, b1, b2, _, a1, a2 = np.asarray(section, dtype=ld)
    a = np.array([[-a1 / 2, 1], [a1 * a1 / 4 - a2, -a1 / 2]])
    b = np.array([[b1 - a1 * b0], [b2 - a2 * b0 - a1 / 2 * (b1 - a1 * b0)]])
    impulse, end_state, state_out, carry = _scan_operators(
        a, b, np.array([[1, 0]], dtype=ld), np.array([[b0]]), HIGHPASS_BLOCK
    )
    eye = np.eye(2, dtype=ld)
    group = _scan_operators(carry, eye, eye, np.zeros((2, 2), dtype=ld), _GROUP_BLOCKS)
    ops = tuple(np.array(op, dtype=np.float64) for op in (impulse, end_state, state_out, *group))
    for op in ops:
        op.flags.writeable = False
    return ops


@lru_cache(maxsize=8)
def _highpass_operators(cutoff_hz: float, sample_rate: int) -> tuple:
    """Per-section block operators of one Butterworth design, built once per
    argument pair because highpass_butterworth runs on every node clip."""
    return tuple(
        _section_operators(section) for section in design_highpass(cutoff_hz, sample_rate)
    )


def _sosfilt(operators: tuple, x: np.ndarray) -> np.ndarray:
    """Apply a biquad cascade (transposed direct form II, zero initial state).

    Each section is a two-level block scan over the signal laid out as
    [n_blocks, HIGHPASS_BLOCK] (zero-padded): one matmul gives every
    block's zero-state end state e[k]; the block-to-block recurrence
    u[k+1] = P u[k] + e[k] is solved by two matmuls per group of
    _GROUP_BLOCKS blocks and a loop over groups that carries the 2-vector
    state with P^_GROUP_BLOCKS (47 steps for 2 s at 24 kHz); then one
    matmul gives the zero-state outputs and one adds each block's
    carried-in state. Two signal-length buffers serve every section in
    turn. Against a long-double per-sample recurrence on 48 000 samples of
    noise, the error is 2e-16 of max|y| at 200 Hz / 24 kHz, 6e-16 at
    3990 Hz / 8 kHz and 1.2e-14 at 1 Hz / 48 kHz, where a float64
    per-sample loop is 4e-11 off.
    """
    n = len(x)
    blocks = -(-n // HIGHPASS_BLOCK)
    groups = -(-blocks // _GROUP_BLOCKS)
    cur = np.zeros(blocks * HIGHPASS_BLOCK)
    cur[:n] = x
    nxt = np.empty_like(cur)
    # zero rows past the last block pad the recurrence to whole groups
    ends = np.zeros((groups * _GROUP_BLOCKS, 2))
    for impulse, end_state, state_out, group_zero, group_end, group_start, carry in operators:
        rows, out = cur.reshape(blocks, HIGHPASS_BLOCK), nxt.reshape(blocks, HIGHPASS_BLOCK)
        np.matmul(rows, end_state, out=ends[:blocks])
        by_group = ends.reshape(groups, 2 * _GROUP_BLOCKS)
        starts = by_group @ group_zero
        (p00, p01), (p10, p11) = carry.tolist()
        s0 = s1 = 0.0
        carried = []
        for e0, e1 in (by_group @ group_end).tolist():
            carried.append((s0, s1))
            s0, s1 = p00 * s0 + p01 * s1 + e0, p10 * s0 + p11 * s1 + e1
        starts += np.reshape(carried, (-1, 2)) @ group_start
        np.matmul(rows, impulse, out=out)
        # the input rows are spent: they take each block's carried-in part
        np.matmul(starts.reshape(-1, 2)[:blocks], state_out, out=rows)
        out += rows
        cur, nxt = nxt, cur
    return cur[:n]


def highpass_butterworth(clip: AudioClip, cutoff_hz: float) -> AudioClip:
    """High-pass filter a clip through cascaded Butterworth biquads."""
    operators = _highpass_operators(cutoff_hz, clip.sample_rate)
    return AudioClip(_sosfilt(operators, clip.samples), clip.sample_rate)


# --- noise injection ---

def standard_normals(seed: int, out: np.ndarray) -> np.ndarray:
    """Fill the float64 buffer out with i.i.d. standard normals from
    Generator(PCG64(seed)) and return it. numpy releases the GIL while it
    fills, and nothing is allocated beside the generator."""
    return np.random.Generator(np.random.PCG64(seed)).standard_normal(out=out)


def add_noise_snr(clip: AudioClip, snr_db: float, normals: np.ndarray) -> AudioClip:
    """The clip plus i.i.d. Gaussian noise scaled to a target SNR in dB.

    normals holds one standard normal per sample, as
    `standard_normals(seed, np.empty(n))` fills it; it is scaled in place
    and becomes the returned clip's samples. Noise variance is
    P_signal / 10^(snr_db/10) with P_signal the mean squared sample, so
    the bits equal clip.samples + rng.normal(0, sigma, n) for
    rng = Generator(PCG64(seed)). The output is not re-clipped to [-1, 1].

    Raises:
        ZeroPowerSignal: the clip has no signal power.
    """
    power = float(np.mean(clip.samples**2))
    if power == 0.0:
        raise ZeroPowerSignal("cannot set an SNR against a zero-power signal")
    normals *= np.sqrt(power / 10.0 ** (snr_db / 10.0))
    normals += clip.samples
    return AudioClip(normals, clip.sample_rate)


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

    Raises:
        InvalidSetting: a filter covers no bin, so n_fft is too short for
        the sample rate and the filter's MFCC input would be a constant.
    """
    edges_hz = inverse_mel(np.linspace(0.0, mel_scale(sample_rate / 2), n_filters + 2))
    bin_freqs = np.arange(n_fft // 2 + 1) * sample_rate / n_fft
    lower = edges_hz[:-2, None]
    center = edges_hz[1:-1, None]
    upper = edges_hz[2:, None]
    rising = (bin_freqs - lower) / (center - lower)
    falling = (upper - bin_freqs) / (upper - center)
    fbank = np.clip(np.minimum(rising, falling), 0.0, None)
    empty = int(np.sum(~fbank.any(axis=1)))
    if empty:
        raise InvalidSetting(f"window {n_fft} at {sample_rate} Hz leaves {empty} mel "
                             f"filters of {n_filters} on no FFT bin")
    fbank.flags.writeable = False
    return fbank


@lru_cache(maxsize=8)
def dct_matrix(n: int) -> np.ndarray:
    """Orthonormal DCT-II matrix, rows indexed by coefficient; read-only and
    built once per size, because mfcc_features asks for it for every clip."""
    i = np.arange(n)
    mat = np.cos(np.pi * np.outer(i, 2 * i + 1) / (2 * n)) * np.sqrt(2.0 / n)
    mat[0] /= np.sqrt(2.0)
    mat.flags.writeable = False
    return mat


def mfcc_features(frames: np.ndarray, sample_rate: int) -> np.ndarray:
    """Mel-frequency cepstral coefficients of a [n_frames, N] matrix of
    windowed frames.

    Power spectrum -> MFCC_FILTERS triangular mel filters -> log (floored
    at 1e-10) -> orthonormal DCT-II, first MFCC_COEFFS coefficients.
    """
    frames = np.asarray(frames, dtype=np.float64)
    power = power_spectra(frames)
    fbank = mel_filterbank(MFCC_FILTERS, frames.shape[-1], sample_rate)
    energies = np.maximum(power @ fbank.T, LOG_FLOOR)
    return np.log(energies) @ dct_matrix(MFCC_FILTERS)[:MFCC_COEFFS].T
