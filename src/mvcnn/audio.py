"""Audio ingestion and node-side time-domain preprocessing.

Covers WAV loading, RMS-threshold silence removal, sliding-window
segmentation into a read-only frame matrix and the Hamming window. All
functions are pure: they never mutate their inputs.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InvalidSetting, MalformedWav

DEFAULT_SAMPLE_RATE = 24000

# The most samples one 16-bit mono WAV holds: save_wav's u32 RIFF size
# field counts 36 header bytes and two bytes per sample.
WAV_MAX_SAMPLES = (2**32 - 1 - 36) // 2


@dataclass(frozen=True)
class AudioClip:
    """A mono audio signal with its sample rate.

    Samples are dimensionless normalized PCM, nominally in [-1, 1].
    Noise injection may push samples outside that range; downstream
    processing does not care.
    """

    samples: np.ndarray
    sample_rate: int = DEFAULT_SAMPLE_RATE

    def __post_init__(self):
        if self.sample_rate <= 0:
            raise InvalidSetting(f"sample_rate must be positive, got {self.sample_rate}")
        object.__setattr__(
            self, "samples", np.asarray(self.samples, dtype=np.float64)
        )

    def __len__(self):
        return len(self.samples)


@dataclass(frozen=True)
class SilenceConfig:
    """Threshold and analysis window for silence removal.

    threshold is an RMS level in [0, 0.5]; windows whose RMS falls
    strictly below it are dropped. window_seconds is positive and finite.
    """

    threshold: float = 0.03
    window_seconds: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.threshold <= 0.5:
            raise InvalidSetting(f"threshold must be in [0, 0.5], got {self.threshold}")
        if not 0 < self.window_seconds < math.inf:
            raise InvalidSetting(
                f"window_seconds must be positive and finite, got {self.window_seconds}"
            )


def load_wav(path) -> AudioClip:
    """Load a RIFF/WAVE file as an AudioClip.

    Only 16-bit little-endian mono PCM is accepted. Samples are scaled
    by 1/32768 into [-1, 1).

    Raises:
        MalformedWav: broken RIFF structure, truncated chunks, or
        non-PCM, non-16-bit or multi-channel audio.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < 12:
        raise MalformedWav(f"{path}: file too short for a RIFF header")
    if data[0:4] != b"RIFF" or data[8:12] != b"WAVE":
        raise MalformedWav(f"{path}: missing RIFF/WAVE signature")

    fmt = None
    pcm = None
    pos = 12
    while pos + 8 <= len(data):
        chunk_id = data[pos : pos + 4]
        (chunk_len,) = struct.unpack_from("<I", data, pos + 4)
        body = data[pos + 8 : pos + 8 + chunk_len]
        if chunk_id == b"fmt ":
            if chunk_len < 16 or len(body) < 16:
                raise MalformedWav(f"{path}: fmt chunk truncated")
            fmt = struct.unpack_from("<HHIIHH", body, 0)
        elif chunk_id == b"data":
            if len(body) < chunk_len:
                raise MalformedWav(f"{path}: data chunk truncated")
            pcm = body
        # chunks are word-aligned
        pos += 8 + chunk_len + (chunk_len & 1)

    if fmt is None or pcm is None:
        raise MalformedWav(f"{path}: missing fmt or data chunk")

    audio_format, n_channels, sample_rate, _, _, bits = fmt
    if audio_format != 1:
        raise MalformedWav(f"{path}: not PCM (format tag {audio_format})")
    if n_channels != 1:
        raise MalformedWav(f"{path}: expected mono, got {n_channels} channels")
    if bits != 16:
        raise MalformedWav(f"{path}: expected 16-bit samples, got {bits}")

    raw = np.frombuffer(pcm[: len(pcm) - len(pcm) % 2], dtype="<i2")
    return AudioClip(raw.astype(np.float64) / 32768.0, sample_rate)


def save_wav(path, clip: AudioClip) -> None:
    """Write a clip as 16-bit mono PCM, clipping samples to [-1, 1)."""
    scaled = np.clip(clip.samples, -1.0, 32767.0 / 32768.0)
    pcm = np.round(scaled * 32768.0).astype("<i2").tobytes()
    header = struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF",
        36 + len(pcm),
        b"WAVE",
        b"fmt ",
        16,
        1,  # PCM
        1,  # mono
        clip.sample_rate,
        clip.sample_rate * 2,
        2,
        16,
        b"data",
        len(pcm),
    )
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(pcm)


def rms(values) -> float:
    """Root mean square of a nonempty sequence; `window_rms`, the one
    caller, passes only a clip's nonempty tail."""
    arr = np.asarray(values, dtype=np.float64)
    return float(np.sqrt(np.mean(arr * arr)))


def window_rms(clip: AudioClip, cfg: SilenceConfig):
    """(levels, win): the RMS of each consecutive window of win samples.

    win is cfg.window_seconds of samples, capped at the clip length, so a
    window longer than the clip makes the whole clip one window. A
    trailing partial window is judged by its own RMS. An empty clip has
    no windows.

    Raises:
        InvalidSetting: the window rounds to no sample.
    """
    samples = clip.samples
    win = int(round(min(cfg.window_seconds * clip.sample_rate, max(len(samples), 1))))
    if win <= 0:
        raise InvalidSetting("silence window shorter than one sample")
    full = len(samples) - len(samples) % win
    levels = np.sqrt(np.mean(np.square(samples[:full].reshape(-1, win)), axis=1))
    if full < len(samples):
        levels = np.append(levels, rms(samples[full:]))
    return levels, win


def remove_silence(clip: AudioClip, cfg: SilenceConfig) -> AudioClip:
    """Drop the `window_rms` windows whose RMS is below cfg.threshold.

    Surviving windows are concatenated in order. Returns the clip itself
    when every window survives, and may return an empty clip.
    """
    levels, win = window_rms(clip, cfg)
    passed = levels >= cfg.threshold
    if passed.all():
        return clip
    keep = np.repeat(passed, win)[: len(clip.samples)]
    return AudioClip(clip.samples[keep], clip.sample_rate)


def hop_length(window_len: int, overlap_fraction: float) -> int:
    """Samples between the starts of consecutive frames: window_len *
    (1 - overlap_fraction) rounded down, at least 1."""
    return max(1, int(window_len * (1.0 - overlap_fraction)))


def segment(clip: AudioClip, window_len: int, overlap_fraction: float) -> np.ndarray:
    """Cut a clip into sliding windows of raw (un-windowed) samples.

    Returns a read-only [n_frames, window_len] view of the clip's samples
    whose row i starts at sample i * hop_length(window_len,
    overlap_fraction). A clip shorter than one window gives a
    [0, window_len] view.

    The arguments are not checked here: `PipelineConfig`, whose fields
    its one caller passes, refuses a window_len that is not a power of
    two and an overlap outside [0, 1) when it is built.
    """
    samples = clip.samples
    hop = hop_length(window_len, overlap_fraction)
    n_frames = max(0, (len(samples) - window_len) // hop + 1)
    (step,) = samples.strides
    return np.lib.stride_tricks.as_strided(
        samples, (n_frames, window_len), (hop * step, step), writeable=False
    )


@lru_cache(maxsize=8)
def hamming_coefficients(n: int) -> np.ndarray:
    """Periodic Hamming window: w[k] = 0.54 - 0.46*cos(2*pi*k/n).

    Returns a read-only array, built once per n because every clip's
    frames are windowed with it.
    """
    k = np.arange(n)
    window = 0.54 - 0.46 * np.cos(2.0 * np.pi * k / n)
    window.flags.writeable = False
    return window
