"""The benchmark's own readers and writers for WAV and AMCF files.

They follow the file formats described in the README and share no code
with audiomatch, so input generation does not depend on the writers
under test and the output checks do not trust the readers under test.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

_PCM = 1


def wav_bytes(samples: np.ndarray, rate: int, bits: int) -> bytes:
    """Integer PCM WAV of float samples in [-1, 1], shaped (frames,) or (frames, channels).

    16-bit quantization matches audiomatch's writer (scale 32768, clamp),
    so a 16-bit file written here is byte-identical to one it writes.
    """
    frames = np.asarray(samples, dtype=np.float64)
    if frames.ndim == 1:
        frames = frames[:, None]
    channels = frames.shape[1]
    scale = float(1 << (bits - 1))
    ints = np.clip(np.rint(np.clip(frames, -1.0, 1.0) * scale), -scale, scale - 1)
    if bits == 16:
        pcm = ints.astype("<i2").tobytes()
    elif bits == 24:
        pcm = ints.astype("<i4").view(np.uint8).reshape(-1, 4)[:, :3].tobytes()
    else:
        raise ValueError(f"unsupported bit depth {bits}")
    block = channels * bits // 8
    return b"".join(
        [
            b"RIFF",
            struct.pack("<I", 36 + len(pcm)),
            b"WAVE",
            b"fmt ",
            struct.pack("<IHHIIHH", 16, _PCM, channels, rate, rate * block, block, bits),
            b"data",
            struct.pack("<I", len(pcm)),
            pcm,
        ]
    )


def wav_frames(path: str | Path) -> int:
    """Sample frames in a WAV file's data chunk, read from its header."""
    raw = Path(path).read_bytes()
    if raw[:4] != b"RIFF" or raw[8:12] != b"WAVE":
        raise ValueError(f"{path} is not a RIFF/WAVE file")
    pos, block, size = 12, None, None
    while pos + 8 <= len(raw):
        chunk, length = raw[pos : pos + 4], struct.unpack_from("<I", raw, pos + 4)[0]
        if chunk == b"fmt ":
            block = struct.unpack_from("<H", raw, pos + 20)[0]
        elif chunk == b"data":
            size = length
        pos += 8 + length + (length & 1)
    if not block or size is None:
        raise ValueError(f"{path} lacks a fmt or data chunk")
    return size // block


def write_amcf(
    path: str | Path, ids: list[str], sources: list[str], offsets: np.ndarray, matrix: np.ndarray
) -> None:
    """Write an AMCF v1 feature file: header, then per row id, source, f32 offset, f32 vector."""
    count, d = matrix.shape
    rows = np.ascontiguousarray(matrix, dtype="<f4")
    parts = [b"AMCF", struct.pack("<IIQ", 1, d, count)]
    for row in range(count):
        id_bytes = ids[row].encode("utf-8")
        source_bytes = sources[row].encode("utf-8")
        parts.append(struct.pack("<H", len(id_bytes)) + id_bytes)
        parts.append(struct.pack("<H", len(source_bytes)) + source_bytes)
        parts.append(struct.pack("<f", offsets[row]))
        parts.append(rows[row].tobytes())
    Path(path).write_bytes(b"".join(parts))


def read_amcf(path: str | Path) -> tuple[list[str], list[str], np.ndarray, np.ndarray]:
    """Read an AMCF v1 file as (ids, sources, f32 offsets, (count, d) f32 matrix)."""
    raw = Path(path).read_bytes()
    if raw[:4] != b"AMCF":
        raise ValueError(f"{path} is not an AMCF file")
    version, d, count = struct.unpack_from("<IIQ", raw, 4)
    if version != 1:
        raise ValueError(f"{path} has AMCF version {version}")
    ids, sources = [], []
    offsets = np.empty(count, dtype=np.float32)
    matrix = np.empty((count, d), dtype=np.float32)
    pos = 20
    for row in range(count):
        (n,) = struct.unpack_from("<H", raw, pos)
        ids.append(raw[pos + 2 : pos + 2 + n].decode("utf-8"))
        pos += 2 + n
        (n,) = struct.unpack_from("<H", raw, pos)
        sources.append(raw[pos + 2 : pos + 2 + n].decode("utf-8"))
        pos += 2 + n
        (offsets[row],) = struct.unpack_from("<f", raw, pos)
        matrix[row] = np.frombuffer(raw, dtype="<f4", count=d, offset=pos + 4)
        pos += 4 + 4 * d
    if pos != len(raw):
        raise ValueError(f"{path} has {len(raw) - pos} trailing bytes")
    return ids, sources, offsets, matrix
