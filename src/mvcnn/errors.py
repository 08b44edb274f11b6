"""Exception types raised across the package.

Everything derives from MvcnnError so callers can catch the whole family;
the CLI maps MvcnnError to exit code 1.
"""


class MvcnnError(Exception):
    """Base class for all package errors."""


class InvalidSetting(MvcnnError, ValueError):
    """A setting is out of range or not one of the known choices."""


# --- audio ingestion / framing ---

class MalformedWav(MvcnnError):
    """WAV file has a broken or truncated RIFF structure."""


class UnsupportedFormat(MvcnnError):
    """WAV file is not 16-bit mono PCM."""


class InvalidOverlap(MvcnnError):
    """Segmentation overlap fraction outside [0, 1)."""


# --- spectral features ---

class NonPowerOfTwo(MvcnnError, ValueError):
    """Frame or window length must be a power of two."""


class InvalidLength(MvcnnError):
    """Requested feature length is not in [1, bin count]."""


class LengthMismatch(MvcnnError):
    """Two sequences that must agree in length do not."""


class InvalidCutoff(MvcnnError):
    """Filter cutoff outside (0, Nyquist)."""


class ZeroPowerSignal(MvcnnError):
    """Signal power is zero, so SNR is undefined."""


# --- tensor / network ---

class InvalidConfig(MvcnnError):
    """Model configuration cannot produce a valid architecture."""


class EmptyDataset(MvcnnError):
    """Training or evaluation dataset is empty."""


class LabelOutOfRange(MvcnnError):
    """A label falls outside 0..n_classes-1."""


class BadMagic(MvcnnError):
    """Serialized blob does not start with the expected magic bytes."""


class VersionMismatch(MvcnnError):
    """Serialized blob carries an unsupported format version."""


# --- evaluation harness ---

class TooFewSamples(MvcnnError):
    """Dataset smaller than the number of cross-validation folds."""


class EmptyMatrix(MvcnnError):
    """Confusion matrix has no counts."""


class InvalidSpec(MvcnnError):
    """Synthetic dataset specification is inconsistent."""


# --- simulator / protocol ---

class CrcMismatch(MvcnnError):
    """Frame checksum does not match its contents."""


class Truncated(MvcnnError):
    """Byte frame is shorter than its declared layout."""


class TrailingBytes(MvcnnError, ValueError):
    """Byte frame is longer than its declared layout."""


class InvalidScenario(MvcnnError):
    """Simulation scenario is inconsistent or unparseable."""
