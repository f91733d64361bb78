"""Read, write, and segment audio as canonical 48 kHz mono clips.

Every downstream stage (features, retrieval, transitions) consumes the
canonical form produced by :func:`load_audio`: finite mono float samples
in [-1, 1] at 48 kHz.  Input must be RIFF/WAV holding 16- or 24-bit
integer PCM or 32-bit IEEE float, 1-8 channels, at any rate; compressed
formats are out of scope and callers pre-convert.  Output is always
16-bit PCM mono at 48 kHz.

Multi-channel input is mixed down by arithmetic mean.  Non-48 kHz input
is resampled with a polyphase windowed-sinc filter (Kaiser beta 8.6,
roughly 87 dB stopband).
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from math import gcd
from pathlib import Path

import numpy as np
from scipy.signal import resample_poly

from .errors import CorruptFile, IoError, TooShort, UnsupportedFormat

CANONICAL_RATE = 48000

_FORMAT_PCM = 0x0001
_FORMAT_IEEE_FLOAT = 0x0003
_FORMAT_EXTENSIBLE = 0xFFFE

_RESAMPLE_WINDOW = ("kaiser", 8.6)


@dataclass(frozen=True)
class AudioClip:
    """Immutable mono sample buffer with provenance metadata.

    Attributes:
        samples: 1-D float64 array of amplitudes in [-1, 1] (read-only).
        sample_rate: Sampling rate in Hz; 48000 after ingest.
        source_id: Opaque identifier of the originating file.
        offset_s: Seconds from the start of the source.
    """

    samples: np.ndarray
    sample_rate: int
    source_id: str = ""
    offset_s: float = 0.0

    def __post_init__(self) -> None:
        samples = np.asarray(self.samples, dtype=np.float64)
        if samples.ndim != 1:
            raise ValueError("samples must be 1-D")
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")
        if not np.all(np.isfinite(samples)):
            raise ValueError("samples must be finite")
        samples = samples.copy()
        samples.flags.writeable = False
        object.__setattr__(self, "samples", samples)

    def __len__(self) -> int:
        return len(self.samples)

    @property
    def duration_s(self) -> float:
        return len(self.samples) / self.sample_rate

    def slice(self, start: int, stop: int, offset_s: float | None = None) -> "AudioClip":
        """Return a sub-clip of samples[start:stop] with adjusted offset."""
        if offset_s is None:
            offset_s = self.offset_s + start / self.sample_rate
        return AudioClip(self.samples[start:stop], self.sample_rate, self.source_id, offset_s)


def _read_exact(buf: bytes, pos: int, count: int, what: str) -> bytes:
    if pos + count > len(buf):
        raise CorruptFile(f"truncated WAV: expected {count} bytes for {what}")
    return buf[pos : pos + count]


def _parse_wav(raw: bytes) -> tuple[np.ndarray, int]:
    """Parse RIFF/WAVE bytes into a (samples, rate) pair.

    Returns float64 samples shaped (frames, channels), unscaled beyond
    the normalization of each sample format to [-1, 1].
    """
    if len(raw) < 12 or raw[:4] != b"RIFF" or raw[8:12] != b"WAVE":
        raise CorruptFile("not a RIFF/WAVE file")

    fmt = None
    data = None
    pos = 12
    while pos + 8 <= len(raw):
        chunk_id = raw[pos : pos + 4]
        (chunk_size,) = struct.unpack_from("<I", raw, pos + 4)
        body_pos = pos + 8
        if chunk_id == b"fmt ":
            fmt = _read_exact(raw, body_pos, min(chunk_size, 40), "fmt chunk")
            if chunk_size < 16:
                raise CorruptFile("fmt chunk too small")
        elif chunk_id == b"data":
            data = _read_exact(raw, body_pos, chunk_size, "data chunk")
        # Chunks are word-aligned: odd sizes carry a pad byte.
        pos = body_pos + chunk_size + (chunk_size & 1)

    if fmt is None or data is None:
        raise CorruptFile("missing fmt or data chunk")

    audio_format, channels, rate, _, block_align, bits = struct.unpack_from("<HHIIHH", fmt, 0)
    if audio_format == _FORMAT_EXTENSIBLE:
        if len(fmt) < 26:
            raise CorruptFile("truncated WAVE_FORMAT_EXTENSIBLE fmt chunk")
        (audio_format,) = struct.unpack_from("<H", fmt, 24)

    if channels < 1 or channels > 8:
        raise UnsupportedFormat(f"unsupported channel count {channels}")
    if rate <= 0:
        raise CorruptFile("non-positive sample rate")

    if audio_format == _FORMAT_PCM and bits == 16:
        frame_bytes = 2 * channels
        usable = len(data) - len(data) % frame_bytes
        ints = np.frombuffer(data[:usable], dtype="<i2")
        samples = ints.astype(np.float64) / 32768.0
    elif audio_format == _FORMAT_PCM and bits == 24:
        frame_bytes = 3 * channels
        usable = len(data) - len(data) % frame_bytes
        b = np.frombuffer(data[:usable], dtype=np.uint8).reshape(-1, 3).astype(np.int32)
        ints = b[:, 0] | (b[:, 1] << 8) | (b[:, 2] << 16)
        ints -= (ints & 0x800000) << 1  # sign-extend
        samples = ints.astype(np.float64) / 8388608.0
    elif audio_format == _FORMAT_IEEE_FLOAT and bits == 32:
        frame_bytes = 4 * channels
        usable = len(data) - len(data) % frame_bytes
        samples = np.frombuffer(data[:usable], dtype="<f4").astype(np.float64)
    elif audio_format in (_FORMAT_PCM, _FORMAT_IEEE_FLOAT):
        raise UnsupportedFormat(f"unsupported bit depth {bits} for format {audio_format}")
    else:
        raise UnsupportedFormat(f"unsupported WAV format code 0x{audio_format:04x}")

    if block_align and block_align != frame_bytes:
        raise CorruptFile(f"block align {block_align} does not match frame size {frame_bytes}")
    if len(data) % frame_bytes:
        raise CorruptFile("data chunk is not a whole number of frames")
    if not np.all(np.isfinite(samples)):
        raise CorruptFile("non-finite samples in float WAV data")
    return samples.reshape(-1, channels), rate


def resample_to_canonical(samples: np.ndarray, rate: int) -> np.ndarray:
    """Polyphase windowed-sinc resample of a mono buffer to 48 kHz."""
    if rate == CANONICAL_RATE:
        return np.asarray(samples, dtype=np.float64)
    g = gcd(CANONICAL_RATE, rate)
    return resample_poly(
        np.asarray(samples, dtype=np.float64),
        CANONICAL_RATE // g,
        rate // g,
        window=_RESAMPLE_WINDOW,
    )


def load_audio(path: str | Path) -> AudioClip:
    """Load a WAV file as a canonical 48 kHz mono clip.

    Multi-channel input is averaged to mono, non-48 kHz input is
    resampled, and the result is clipped to [-1, 1].

    Raises:
        UnsupportedFormat: Wrong container, codec, or bit depth.
        CorruptFile: Truncated or malformed header/data.
        IoError: The file cannot be read.
    """
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc

    frames, rate = _parse_wav(raw)
    mono = frames.mean(axis=1)
    mono = resample_to_canonical(mono, rate)
    mono = np.clip(mono, -1.0, 1.0)
    return AudioClip(mono, CANONICAL_RATE, source_id=path.stem, offset_s=0.0)


def write_atomic(path: str | Path, data: bytes) -> None:
    """Write ``data`` to a temporary file beside ``path``, then rename it over ``path``.

    A failure (OSError) removes the temporary file and leaves ``path`` as it was.
    """
    path = Path(path)
    temporary = path.with_name(f".{path.name}.{os.urandom(4).hex()}.tmp")
    try:
        with open(temporary, "xb") as handle:
            handle.write(data)
        os.replace(temporary, path)
    except BaseException:
        temporary.unlink(missing_ok=True)
        raise


def write_audio(clip: AudioClip, path: str | Path) -> None:
    """Write a clip as 16-bit PCM mono WAV at the clip's sample rate.

    Quantization is symmetric (scale 32768 with clamp to int16 range),
    so load-after-write differs from the original by at most 2**-15 per
    sample.

    Raises:
        IoError: The file cannot be written.
    """
    path = Path(path)
    scaled = np.clip(np.rint(np.clip(clip.samples, -1.0, 1.0) * 32768.0), -32768, 32767)
    pcm = scaled.astype("<i2").tobytes()

    rate = clip.sample_rate
    header = b"".join(
        [
            b"RIFF",
            struct.pack("<I", 36 + len(pcm)),
            b"WAVE",
            b"fmt ",
            struct.pack("<IHHIIHH", 16, _FORMAT_PCM, 1, rate, rate * 2, 2, 16),
            b"data",
            struct.pack("<I", len(pcm)),
        ]
    )
    try:
        path.write_bytes(header + pcm)
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def segment(clip: AudioClip, frame_s: float = 1.0) -> list[AudioClip]:
    """Cut a clip into consecutive non-overlapping frames of frame_s seconds.

    Returns floor(duration / frame_s) frames; the trailing remainder is
    dropped.  Each frame keeps the source_id and carries its absolute
    offset within the source.

    Raises:
        TooShort: The clip holds less than one full frame.
    """
    if frame_s <= 0:
        raise ValueError("frame_s must be positive")
    frame_len = int(round(frame_s * clip.sample_rate))
    if len(clip) < frame_len:
        raise TooShort(
            f"clip of {len(clip)} samples is shorter than one {frame_len}-sample frame"
        )
    count = len(clip) // frame_len
    return [
        clip.slice(i * frame_len, (i + 1) * frame_len, offset_s=clip.offset_s + i * frame_s)
        for i in range(count)
    ]
