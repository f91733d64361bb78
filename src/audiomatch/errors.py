"""Exception types raised across the audiomatch package."""


class AudioMatchError(Exception):
    """Base class for all audiomatch errors."""


class InvalidValue(AudioMatchError, ValueError):
    """A value or setting lies outside what the operation accepts; also a ValueError."""


class UnsupportedFormat(AudioMatchError):
    """File container or codec is not a supported PCM/float WAV."""


class CorruptFile(AudioMatchError):
    """Truncated or malformed WAV header/data."""


class IoError(AudioMatchError):
    """Disk or permission failure while reading or writing."""


class TooShort(AudioMatchError):
    """Clip is shorter than the minimum the operation requires."""


class DimensionMismatch(AudioMatchError):
    """Vector or matrix dimensions do not agree."""


class DegenerateBatch(AudioMatchError):
    """Training batch is empty or sequences are too short to split."""


class DuplicateId(AudioMatchError):
    """Two gallery entries share the same id."""


class EmptyIndex(AudioMatchError):
    """Operation requires a non-empty gallery index."""


class ShapeMismatch(AudioMatchError):
    """Spectrogram shapes do not agree."""


class CrossfadeTooLong(AudioMatchError):
    """Requested crossfade does not fit the audio around the cut."""


class CutOutOfRange(AudioMatchError):
    """Cut point falls outside the clip."""


class NoPositives(AudioMatchError):
    """A query has no positive labels."""


class MissingId(AudioMatchError):
    """A labeled id is absent from the index or feature set."""
