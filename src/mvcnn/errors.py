"""Exception types raised across the package.

Everything derives from MvcnnError so callers can catch the whole family;
the CLI maps MvcnnError to exit code 1. Each input boundary raises one
class per kind of fault, and its message says which check failed: a
setting out of range is InvalidSetting, a bad WAV file MalformedWav, a
bad model file or frame header BadMagic, whatever the field.
"""


class MvcnnError(Exception):
    """Base class for all package errors."""


class InvalidSetting(MvcnnError, ValueError):
    """A setting is out of range or not one of the known choices."""


# --- audio ingestion ---

class MalformedWav(MvcnnError):
    """WAV file is truncated, broken, or not 16-bit mono PCM."""


# --- spectral features ---

class LengthMismatch(MvcnnError):
    """Two sequences that must agree in length do not."""


class ZeroPowerSignal(MvcnnError):
    """Signal power is zero, so SNR is undefined."""


# --- tensor / network ---

class EmptyDataset(MvcnnError):
    """Training or evaluation data, or a confusion matrix, holds nothing."""


class LabelOutOfRange(MvcnnError):
    """A label falls outside 0..n_classes-1."""


class BadMagic(MvcnnError):
    """Serialized blob has a wrong magic, version or header field."""


# --- evaluation harness ---

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
