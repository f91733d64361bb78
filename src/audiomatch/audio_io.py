"""Read, write, and segment audio as canonical 48 kHz mono clips.

Every downstream stage (features, retrieval, transitions) consumes the
canonical form produced by :func:`load_audio`: finite mono float samples
in [-1, 1] at 48 kHz, cut by :func:`segment` into 1-second frames of
FRAME_LENGTH samples.  These two constants are the only definition of
the rate and the frame; no other module carries either.  Input must be
RIFF/WAV holding 16- or 24-bit integer PCM or 32-bit IEEE float, 1-8
channels, at 1-768 kHz; compressed formats are out of scope and callers
pre-convert.  Output is always 16-bit PCM mono at 48 kHz.

Multi-channel input is mixed down by arithmetic mean.  Non-48 kHz input
is resampled with a polyphase windowed-sinc filter (Kaiser beta 8.6,
roughly 87 dB stopband) whose length grows with the reduced ratio
48000/g : rate/g (g their gcd), so a rate is accepted only when both
terms are at most 1000: 44.1 kHz (160:147) and the common rates pass,
47999 Hz does not.  The filter and its alignment are those of
``scipy.signal.resample_poly``, run with numpy alone as one matrix
product per chunk of output rows.  Samples agree with resample_poly's to
within 1e-14, so a 16-bit sample written from one can differ only where
x·32768 lies within 3.3e-10 of a half-integer.

Decode and encode are single-pass: samples are read from the file's
bytes in place, scaled to float64 in one operation per format, and
written back into the one buffer that becomes the file.  Clipping and
finiteness checks run only where values can leave [-1, 1] or be
non-finite: float input is checked for finiteness and, like resampled
input, clipped; integer PCM at 48 kHz, and any mean of it, already lies
in [-1, 1).  The module also holds the file helpers every command
shares: atomic writes and the JSON-lines reader of manifests and labels.
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import dataclass
from functools import lru_cache
from math import gcd
from pathlib import Path

import numpy as np

from .errors import (
    AudioMatchError, CorruptFile, InvalidValue, IoError, TooShort, UnsupportedFormat,
)

CANONICAL_RATE = 48000
FRAME_LENGTH = CANONICAL_RATE  # samples in one 1-second frame

_FORMAT_PCM = 0x0001
_FORMAT_IEEE_FLOAT = 0x0003
_FORMAT_EXTENSIBLE = 0xFFFE

# Source rates load_audio accepts, and the largest term of the reduced ratio
# 48000/g : rate/g it resamples by: the filter has 20 taps per unit of the larger
# term, so this bounds its size and the work per sample.
_MIN_RATE, _MAX_RATE = 1000, 768000
_MAX_RATIO_TERM = 1000

# The resampler's Kaiser window (about 87 dB of stopband), the fewest outputs one
# GEMM row holds, and the bytes of input windows one GEMM copies.
_KAISER_BETA = 8.6
_ROW_OUTPUTS = 32
_CHUNK_BYTES = 1 << 20

# Bytes per sample of each supported (format code, bits per sample).
_SAMPLE_BYTES = {(_FORMAT_PCM, 16): 2, (_FORMAT_PCM, 24): 3, (_FORMAT_IEEE_FLOAT, 32): 4}


@dataclass(frozen=True)
class AudioClip:
    """Immutable 48 kHz mono sample buffer with provenance metadata.

    Samples are kept as a read-only float64 view, copied only to change
    dtype: a float64 input shares its memory with the clip, so a caller
    that writes to that array afterwards changes the clip too.

    Attributes:
        samples: 1-D finite float64 array of amplitudes (read-only).
        sample_rate: Always CANONICAL_RATE; any other value raises
            InvalidValue, a ValueError.
        source_id: Opaque identifier of the originating file.
        offset_s: Seconds from the start of the source.
    """

    samples: np.ndarray
    sample_rate: int
    source_id: str = ""
    offset_s: float = 0.0

    def __post_init__(self) -> None:
        if self.sample_rate != CANONICAL_RATE:
            raise InvalidValue(f"sample_rate must be {CANONICAL_RATE}, got {self.sample_rate}")
        samples = np.asarray(self.samples, dtype=np.float64).view()
        if samples.ndim != 1:
            raise InvalidValue("samples must be 1-D")
        if not np.all(np.isfinite(samples)):
            raise InvalidValue("samples must be finite")
        samples.flags.writeable = False
        object.__setattr__(self, "samples", samples)

    def __len__(self) -> int:
        return len(self.samples)

    @classmethod
    def _trusted(cls, samples: np.ndarray, source_id: str, offset_s: float) -> "AudioClip":
        """A clip of ``samples``, built without the constructor's checks.

        Only for samples this module knows to be a 1-D finite float64
        array: a slice of a clip, or a buffer ``load_audio`` decoded.
        The array is made read-only in place.
        """
        samples.flags.writeable = False
        clip = object.__new__(cls)
        clip.__dict__.update(
            samples=samples, sample_rate=CANONICAL_RATE, source_id=source_id, offset_s=offset_s
        )
        return clip

    def slice(self, start: int, stop: int) -> "AudioClip":
        """Sub-clip of samples[start:stop], a view of these, offset ``start`` samples further."""
        return AudioClip._trusted(
            self.samples[start:stop], self.source_id, self.offset_s + start / CANONICAL_RATE
        )


def _require(raw: bytes, pos: int, count: int, what: str) -> None:
    if pos + count > len(raw):
        raise CorruptFile(f"truncated WAV: expected {count} bytes for {what}")


def _check_rate(rate: int) -> None:
    if not _MIN_RATE <= rate <= _MAX_RATE:
        raise UnsupportedFormat(
            f"unsupported sample rate {rate} Hz: accepted rates are {_MIN_RATE}-{_MAX_RATE} Hz"
        )
    g = gcd(CANONICAL_RATE, rate)
    if max(CANONICAL_RATE // g, rate // g) > _MAX_RATIO_TERM:
        raise UnsupportedFormat(
            f"unsupported sample rate {rate} Hz: resampling to {CANONICAL_RATE} Hz needs the "
            f"ratio {CANONICAL_RATE // g}:{rate // g}, whose terms may not exceed {_MAX_RATIO_TERM}"
        )


def _parse_wav(raw: bytes) -> tuple[np.ndarray, int, bool]:
    """Parse RIFF/WAVE bytes into a (samples, rate, is_float) triple.

    Returns float64 samples shaped (frames, channels), unscaled beyond
    the normalization of each sample format to [-1, 1], and whether the
    data was IEEE float, whose finite values may lie outside [-1, 1].
    The data chunk is decoded from ``raw`` in place, never copied.
    """
    if len(raw) < 12 or raw[:4] != b"RIFF" or raw[8:12] != b"WAVE":
        raise CorruptFile("not a RIFF/WAVE file")

    fmt = None
    data_pos = data_size = None
    pos = 12
    while pos + 8 <= len(raw):
        chunk_id = raw[pos : pos + 4]
        (chunk_size,) = struct.unpack_from("<I", raw, pos + 4)
        body_pos = pos + 8
        if chunk_id == b"fmt ":
            _require(raw, body_pos, min(chunk_size, 40), "fmt chunk")
            fmt = raw[body_pos : body_pos + min(chunk_size, 40)]
            if chunk_size < 16:
                raise CorruptFile("fmt chunk too small")
        elif chunk_id == b"data":
            _require(raw, body_pos, chunk_size, "data chunk")
            data_pos, data_size = body_pos, chunk_size
        # Chunks are word-aligned: odd sizes carry a pad byte.
        pos = body_pos + chunk_size + (chunk_size & 1)

    if fmt is None or data_pos is None:
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
    _check_rate(rate)

    sample_bytes = _SAMPLE_BYTES.get((audio_format, bits))
    if sample_bytes is None:
        if audio_format in (_FORMAT_PCM, _FORMAT_IEEE_FLOAT):
            raise UnsupportedFormat(f"unsupported bit depth {bits} for format {audio_format}")
        raise UnsupportedFormat(f"unsupported WAV format code 0x{audio_format:04x}")
    frame_bytes = sample_bytes * channels
    if block_align and block_align != frame_bytes:
        raise CorruptFile(f"block align {block_align} does not match frame size {frame_bytes}")
    if data_size % frame_bytes:
        raise CorruptFile("data chunk is not a whole number of frames")

    # The scales are powers of two, so each product equals the integer divided by full scale.
    count = data_size // sample_bytes
    if sample_bytes == 2:
        ints = np.frombuffer(raw, dtype="<i2", count=count, offset=data_pos)
        samples = np.multiply(ints, 2.0**-15, dtype=np.float64)
    elif sample_bytes == 3:
        # Sample i is the top three bytes of the little-endian int32 that starts one
        # byte before it (for the first, the last byte of the chunk's size field): an
        # overlapping stride-3 view, whose arithmetic shift right by 8 drops the byte
        # below and sign-extends.
        words = np.ndarray((count,), dtype="<i4", buffer=raw, offset=data_pos - 1, strides=(3,))
        samples = np.multiply(words >> 8, 2.0**-23, dtype=np.float64)
    else:
        floats = np.frombuffer(raw, dtype="<f4", count=count, offset=data_pos)
        if not np.isfinite(floats).all():
            raise CorruptFile("non-finite samples in float WAV data")
        samples = floats.astype(np.float64)
    return samples.reshape(-1, channels), rate, sample_bytes == 4


@lru_cache(maxsize=4)
def _polyphase_matrix(up: int, down: int) -> tuple[np.ndarray, int, int]:
    """The resampling filter for ``up``:``down`` as one GEMM row: (matrix, first, stride).

    The filter is resample_poly's: 20·max(up, down) + 1 taps of a sinc cut off at
    1/max(up, down) of Nyquist, Kaiser-windowed, scaled to unit DC gain and then by
    ``up``, centred so that output o is the sum over j of h[o·down + half − j·up]·x[j].
    Row k of outputs, k·width ... k·width + width − 1 for a width of whole periods
    of ``up`` outputs, equals the ``span`` input samples from first + k·stride on
    (zero outside the input) times the (span, width) matrix.  The matrix reaches
    about 8 MB for ratio terms near 1000, so only a few are cached.
    """
    max_rate = max(up, down)
    half = 10 * max_rate
    cutoff = 1.0 / max_rate
    h = cutoff * np.sinc(cutoff * np.arange(-half, half + 1, dtype=np.float64))
    h *= np.kaiser(2 * half + 1, _KAISER_BETA)
    h /= np.sum(h)
    h *= up
    # Integer decimation keeps one output per row: numpy's matmul then sums each
    # row's overlapping window itself, in input order like resample_poly, so where
    # np.kaiser gives scipy's window bits (96 and 192 kHz) it gives resample_poly's.
    # Other ratios fill a row with at least _ROW_OUTPUTS outputs and use BLAS; their
    # span is a multiple of 32, for which OpenBLAS splits a long inner dimension,
    # and so rounds, the same way at any thread count.
    periods, multiple = (1, 1) if up == 1 else (-(-_ROW_OUTPUTS // up), 32)
    first = -(half // up)
    span = ((periods * up - 1) * down + half) // up - first + 1
    span = -(-span // multiple) * multiple
    taps = np.arange(periods * up) * down + half - (first + np.arange(span)[:, None]) * up
    matrix = np.where((taps >= 0) & (taps <= 2 * half), h[np.clip(taps, 0, 2 * half)], 0.0)
    matrix.flags.writeable = False
    return matrix, first, periods * down


def resample_to_canonical(samples: np.ndarray, rate: int) -> np.ndarray:
    """Polyphase windowed-sinc resample of a mono buffer to 48 kHz.

    Matches ``scipy.signal.resample_poly(samples, up, down, window=("kaiser", 8.6))``
    for the reduced ratio up:down = 48000/g : rate/g, in length, alignment and zero
    padding, to within 1e-14 per sample for input in [-1, 1]: the sums run in
    another order.  The bits do not depend on the BLAS thread count.  Each chunk of
    output rows is one matrix product, over input windows of about _CHUNK_BYTES
    whatever the length and ratio, so memory beyond the output stays near that.
    """
    samples = np.asarray(samples, dtype=np.float64)
    if rate == CANONICAL_RATE:
        return samples
    g = gcd(CANONICAL_RATE, rate)
    up, down = CANONICAL_RATE // g, rate // g
    matrix, first, stride = _polyphase_matrix(up, down)
    span, width = matrix.shape
    n = len(samples)
    n_out = -(-n * up // down)
    out = np.empty((-(-n_out // width), width))
    chunk = max(1, _CHUNK_BYTES // (8 * span))
    for start in range(0, len(out), chunk):
        stop = min(start + chunk, len(out))
        lo, hi = first + start * stride, first + (stop - 1) * stride + span
        part = samples[max(lo, 0) : hi]
        if lo < 0 or hi > n:  # the first and last rows reach past the input: zeros
            padded = np.zeros(hi - lo)
            padded[max(-lo, 0) : max(-lo, 0) + len(part)] = part
            part = padded
        windows = np.lib.stride_tricks.sliding_window_view(part, span)[::stride]
        np.matmul(windows, matrix, out=out[start:stop])
    return out.reshape(-1)[:n_out]


def _mixdown(frames: np.ndarray, is_float: bool) -> np.ndarray:
    """The mean over channels of (frames, channels) samples, bit for bit ``mean(axis=1)``."""
    channels = frames.shape[1]
    if channels == 1:
        return frames[:, 0]
    if is_float:
        return frames.mean(axis=1)
    # Integer PCM: a sum of at most 8 samples of 24 bits is exact in float64 in any
    # order, so adding the channel columns and dividing once is numpy's mean.
    mono = frames[:, 0] + frames[:, 1]
    for channel in range(2, channels):
        mono += frames[:, channel]
    mono /= channels
    return mono


def load_audio(path: str | Path) -> AudioClip:
    """Load a WAV file as a canonical 48 kHz mono clip.

    Multi-channel input is averaged to mono and non-48 kHz input is
    resampled.  Float or resampled input is then clipped to [-1, 1] in
    place; integer PCM at 48 kHz needs no clip.

    Raises:
        UnsupportedFormat: Wrong container, codec, or bit depth, or a
            sample rate outside the accepted range or ratio.
        CorruptFile: Truncated or malformed header/data.
        IoError: The file cannot be read.
    """
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc

    frames, rate, is_float = _parse_wav(raw)
    # The bytes, and a multichannel array once mixed down, are freed before resampling.
    del raw
    mono = _mixdown(frames, is_float)
    del frames
    mono = resample_to_canonical(mono, rate)
    if is_float or rate != CANONICAL_RATE:
        np.clip(mono, -1.0, 1.0, out=mono)
    # Finite by construction: _parse_wav rejects non-finite float data, and means and
    # the resampling filter of finite float32-range values stay finite.
    return AudioClip._trusted(mono, path.stem, 0.0)


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


# What each kind of JSON-lines field accepts: the exact types (a JSON true is no
# number) and, when not None, the values.
_FIELD_KINDS = {
    "a string": ((str,), None),
    "a number": ((int, float), None),
    "a 0 or 1": ((int,), (0, 1)),
}
_JSON_DECODER = json.JSONDecoder()


def read_json_lines(
    path: str | Path, fields: dict[str, str], what: str = "manifest", unique: tuple[str, ...] = ()
) -> list[dict]:
    """The rows of a JSON-lines file, a frame manifest or labels, each an object holding ``fields``.

    ``fields`` maps each key a row needs to its kind: "a string", "a
    number" or "a 0 or 1".  Blank lines are skipped but counted.  An
    unreadable file raises IoError.  One that is not UTF-8 or is empty,
    the first row that is not JSON, not an object or lacks a key of its
    kind, and, when ``unique`` names keys of ``fields``, the first row
    repeating an earlier row's values of them, raise AudioMatchError
    naming ``what``, the file and the 1-based line.  Each line is read
    as ``json.loads`` reads it.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise IoError(f"cannot read {what} {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise AudioMatchError(f"{what} {path} is not UTF-8: {exc}") from None
    checks = [(key, kind, *_FIELD_KINDS[kind]) for key, kind in fields.items()]
    rows = []
    line_of: dict[tuple, int] = {}
    for number, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        # One scan reads a line that is exactly one value; json.loads reads any other
        # line (surrounding whitespace, a BOM, extra data) and gives its error text.
        try:
            row, end = _JSON_DECODER.raw_decode(line)
        except json.JSONDecodeError:
            end = None
        if end != len(line):
            try:
                row = json.loads(line)
            except json.JSONDecodeError as exc:
                raise AudioMatchError(f"{what} {path} line {number} is not JSON: {exc}") from None
        if type(row) is not dict:
            raise AudioMatchError(f"{what} {path} line {number} is not a JSON object")
        for key, kind, types, values in checks:
            value = row.get(key)
            if type(value) not in types or values is not None and value not in values:
                raise AudioMatchError(f"{what} {path} line {number} needs {kind} {key!r}")
        if unique:
            first = line_of.setdefault(tuple(row[key] for key in unique), number)
            if first != number:
                keys = " and ".join(unique)
                raise AudioMatchError(
                    f"{what} {path} line {number} repeats the {keys} of line {first}"
                )
        rows.append(row)
    if not rows:
        raise AudioMatchError(f"{what} {path} is empty")
    return rows


def write_audio(clip: AudioClip, path: str | Path) -> None:
    """Write a clip as 16-bit PCM mono 48 kHz WAV, whole or not at all.

    Quantization is symmetric (scale 32768 with clamp to int16 range),
    so load-after-write differs from the original by at most 2**-15 per
    sample.

    Raises:
        IoError: The file cannot be written; an older file at ``path`` is kept.
    """
    pcm_bytes = 2 * len(clip)
    wav = bytearray(44 + pcm_bytes)
    struct.pack_into(
        "<4sI4s4sIHHIIHH4sI", wav, 0, b"RIFF", 36 + pcm_bytes, b"WAVE", b"fmt ",
        16, _FORMAT_PCM, 1, CANONICAL_RATE, 2 * CANONICAL_RATE, 2, 16, b"data", pcm_bytes,
    )
    # np.clip(np.rint(x * 32768), -32768, 32767) in one buffer, cast into the file's bytes.
    scaled = np.multiply(clip.samples, 32768.0)
    np.rint(scaled, out=scaled)
    np.minimum(scaled, 32767.0, out=scaled)
    np.maximum(scaled, -32768.0, out=scaled)
    np.copyto(np.frombuffer(wav, dtype="<i2", offset=44), scaled, casting="unsafe")
    try:
        write_atomic(path, wav)
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def segment(clip: AudioClip) -> list[AudioClip]:
    """Cut a clip into consecutive non-overlapping 1-second frames of FRAME_LENGTH samples.

    Returns floor(duration) frames; the trailing remainder is dropped.
    Each frame is a view of the clip, keeps its source_id and carries
    its absolute offset within the source, a whole number of seconds
    past the clip's.

    Raises:
        TooShort: The clip holds less than one full frame.
    """
    if len(clip) < FRAME_LENGTH:
        raise TooShort(
            f"clip of {len(clip)} samples is shorter than one {FRAME_LENGTH}-sample frame"
        )
    starts = range(0, len(clip) - FRAME_LENGTH + 1, FRAME_LENGTH)
    return [clip.slice(start, start + FRAME_LENGTH) for start in starts]
