"""Immutable feature gallery with exact top-k inner-product search.

The gallery is id, source and offset columns plus one (n, d) float32
matrix of vectors, scanned exhaustively per query (no approximate
structures).  A query scores every row with one float32 matrix-vector
product, then rescores in float64 only the rows whose float32 score
lies within a proven rounding bound of the k-th best; every other row
ranks below k of those.  The float64 scores, and the ties broken by
ascending id, are exactly those of a float64 scan of every row, at any
BLAS thread count.

Feature files are little-endian binary: magic "AMCF", u32 version,
u32 d, u64 count, then per entry a u16-length-prefixed UTF-8 id, a
u16-length-prefixed UTF-8 source id, an f32 offset in seconds, and d
f32 vector components.  :func:`read_features` reads a file once, into
one buffer of its size, and moves each row's components forward into
the (n, d) matrix at the buffer's start, which becomes the gallery's
vectors: reading costs about one file of memory, not two.
:func:`write_features` fills one buffer of the file's exact size.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable

import numpy as np

from .audio_io import write_atomic
from .dsp import FeatureKind, flatten, mel_spectrogram, mfcc
from .embedding import ProjectionHead, embed
from .errors import DimensionMismatch, DuplicateId, EmptyIndex, InvalidValue, IoError

_FEATURE_MAGIC = b"AMCF"
_FEATURE_VERSION = 1
_HEADER = struct.Struct("<4sIIQ")  # magic, version, d, count
_U32 = 2.0**-24  # unit roundoff of float32
_U64 = 2.0**-53  # unit roundoff of float64
_TINY32 = 2.0**-149  # smallest float32 subnormal, twice any underflow error

# Frames featurized per block: enough to batch the head GEMM, few enough
# that a block's samples and power spectra stay near 12 MB.
CHUNK_FRAMES = 16


def _gamma(n: int, u: float) -> float:
    """Higham's gamma_n = nu / (1 - nu), the relative error bound of an n-term dot product.

    Beyond nu = 1/3 it returns inf, a trivial bound, so a finite gamma is at most 1/2.
    """
    return n * u / (1 - n * u) if 3 * n * u < 1 else np.inf


def _score_error_bound(d: int, norm_bound: float, z_norm: float) -> float:
    """Bound on |float32 score - float64 einsum score| for any row of a query.

    ``norm_bound`` bounds every row's L2 norm and ``z_norm`` is the
    query's.  Higham, *Accuracy and Stability of Numerical Algorithms*,
    section 3.1, with sum |x_j z_j| <= ||x|| ||z||, bounds the three errors:
    rounding the query to float32 (u32), the float32 accumulation
    (gamma_d at u32, on the rounded query) and the float64 rescore's own
    rounding (gamma_d at u64).  The absolute term covers float32 underflow
    in the rounded query and in the products.  The factor 2 absorbs the
    float64 rounding in the norms, in this bound and in ``kth - 2B``, each
    below 2**-28 of the bound.
    """
    relative = (1 + _U32) * _gamma(d, _U32) + _U32 + _gamma(d, _U64)
    absolute = _TINY32 * (d + np.sqrt(d) * norm_bound)
    return 2 * (relative * norm_bound * z_norm + absolute)


def normalize(vectors: np.ndarray) -> np.ndarray:
    """L2-normalize along the last axis; an all-zero vector maps to the first basis vector."""
    vectors = np.asarray(vectors, dtype=np.float64)
    # Row-by-row BLAS dots, the same sums as np.linalg.norm of each vector.
    norms = np.sqrt((vectors[..., None, :] @ vectors[..., :, None])[..., 0, 0])
    zero = norms == 0.0
    out = vectors / np.where(zero, 1.0, norms)[..., None]
    out[zero, 0] = 1.0
    return out


def frame_id(source_id: str, offset_s: float) -> str:
    """Canonical id of a 1-second frame within its source."""
    return f"{source_id}@{offset_s:.3f}"


@dataclass(frozen=True, eq=False, repr=False)
class Gallery:
    """Feature rows stored as columns.

    Row i is frame ``ids[i]`` of source ``source_ids[i]``, starting
    ``offsets[i]`` seconds into it, with unit vector ``vectors[i]``.
    Offsets are kept as a read-only float64 view and vectors as a
    read-only (n, d) float32 one, copied only to change dtype.  Raises
    DimensionMismatch unless every column has n rows.
    """

    ids: tuple[str, ...]
    source_ids: tuple[str, ...]
    offsets: np.ndarray
    vectors: np.ndarray

    def __post_init__(self) -> None:
        try:
            vectors = np.asarray(self.vectors, dtype=np.float32).view()
        except ValueError as exc:  # rows of mixed length
            raise DimensionMismatch(f"vectors do not form one matrix: {exc}") from exc
        offsets = np.asarray(self.offsets, dtype=np.float64).view()
        ids, source_ids = tuple(self.ids), tuple(self.source_ids)
        n = len(vectors) if vectors.ndim == 2 else -1
        if not len(ids) == len(source_ids) == n or offsets.shape != (n,):
            raise DimensionMismatch(
                f"need (n, d) vectors and n-long columns, got vectors {vectors.shape}, "
                f"{len(ids)} ids, {len(source_ids)} source ids, offsets {offsets.shape}"
            )
        vectors.flags.writeable = offsets.flags.writeable = False
        for name, value in zip(("ids", "source_ids", "offsets", "vectors"),
                               (ids, source_ids, offsets, vectors)):
            object.__setattr__(self, name, value)

    def __len__(self) -> int:
        return len(self.ids)


@dataclass(frozen=True)
class MatchCandidate:
    """One retrieval result; scores are non-increasing with rank."""

    query_id: str
    gallery_id: str
    score: float
    rank: int


@dataclass(frozen=True, eq=False, repr=False)
class GalleryIndex(Gallery):
    """Immutable gallery supporting exact top-k MIPS, built by :func:`build_index`.

    It adds ``source_codes`` (each row's source number), ``id_ranks`` (each
    row's place in ascending id order), the id -> row map ``row_of`` and
    ``norm_bound``, an upper bound on every row's L2 norm.
    """

    source_codes: np.ndarray
    code_of_source: dict[str, int]
    id_ranks: np.ndarray
    row_of: dict[str, int]
    norm_bound: float

    @property
    def d(self) -> int:
        return self.vectors.shape[1]

    def __contains__(self, entry_id: str) -> bool:
        return entry_id in self.row_of

    def vector(self, entry_id: str) -> np.ndarray:
        return self.vectors[self.row_of[entry_id]]

    def source_of(self, entry_id: str) -> str:
        return self.source_ids[self.row_of[entry_id]]

    def query(
        self,
        z_q: np.ndarray,
        k: int,
        exclude_source: str | None = None,
        query_id: str = "",
    ) -> list[MatchCandidate]:
        """Exact top-k entries by inner product, descending.

        Scores are those of a float64 ``einsum`` over each row; ties
        break by ascending id.  Entries whose source matches
        ``exclude_source`` are skipped.  Returns min(k, eligible)
        candidates.

        Raises:
            DimensionMismatch: Query dimension differs from the index.
            InvalidValue: k < 1 or a non-finite query component.
            EmptyIndex: No eligible entries remain after exclusion.
        """
        z_q = np.asarray(z_q, dtype=np.float64)
        if z_q.shape != (self.d,):
            raise DimensionMismatch(f"query has shape {z_q.shape}, index dimension is {self.d}")
        if k < 1:
            raise InvalidValue("k must be >= 1")
        if not np.isfinite(z_q).all():
            raise InvalidValue("query vector is not finite")

        if exclude_source is None:
            rows = np.arange(len(self.ids))
        else:
            # Codes are >= 0, so a source absent from the gallery excludes nothing.
            code = self.code_of_source.get(exclude_source, -1)
            rows = np.flatnonzero(self.source_codes != code)
        if rows.size == 0:
            raise EmptyIndex("no eligible gallery entries for this query")

        if k < rows.size:
            # A row outside [kth - 2B, inf) scores, in float64, strictly
            # below the k rows at or above kth, so it cannot place.  Float32
            # overflow leaves every eligible row in the band.
            with np.errstate(over="ignore", invalid="ignore"):
                scores = (self.vectors @ z_q.astype(np.float32))[rows]
            kth = np.float64(np.partition(scores, rows.size - k)[rows.size - k])
            floor = kth - 2 * _score_error_bound(self.d, self.norm_bound, np.linalg.norm(z_q))
            if np.isfinite(floor) and np.isfinite(scores).all():
                rows = rows[scores >= floor]
        top, top_scores = self._rank(rows, z_q, k)
        return [
            MatchCandidate(query_id=query_id, gallery_id=self.ids[row], score=float(score), rank=rank)
            for rank, (row, score) in enumerate(zip(top, top_scores), start=1)
        ]

    def _rank(self, rows: np.ndarray, z_q: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        """The k best of ``rows`` by float64 score, ties by ascending id, with their scores."""
        # einsum upcasts the f32 rows blockwise and accumulates in f64; each
        # row's score has the same bits whichever rows are gathered with it.
        scores = np.einsum("ij,j->i", self.vectors[rows], z_q, dtype=np.float64)
        top = np.lexsort((self.id_ranks[rows], -scores))[:k]
        return rows[top], scores[top]


def _finite_squared_norms(gallery: Gallery, error: type[Exception]) -> np.ndarray:
    """Each row's float32 squared norm; ``error`` names the first row where it is not finite."""
    squared_norms = np.einsum("ij,ij->i", gallery.vectors, gallery.vectors)
    bad = ~np.isfinite(squared_norms)
    if bad.any():
        raise error(
            f"gallery row {gallery.ids[int(np.argmax(bad))]!r} is not finite "
            "or its squared norm overflows float32"
        )
    return squared_norms


def build_index(gallery: Gallery) -> GalleryIndex:
    """Build an immutable index over a gallery's rows, in row order.

    Raises:
        EmptyIndex: No rows.
        DuplicateId: Repeated entry id.
        InvalidValue: A row is not finite or its squared norm overflows float32.
    """
    if not len(gallery):
        raise EmptyIndex("cannot build an index from zero vectors")
    ids = gallery.ids
    squared_norms = _finite_squared_norms(gallery, InvalidValue)
    # The float32 sum of d squares is at least (1 - gamma_d) times the true
    # one, less underflow; 1 / (1 - gamma) <= 1 + 2 gamma for gamma <= 1/2.
    d = gallery.vectors.shape[1]
    norm_bound = np.sqrt((float(squared_norms.max()) + d * _TINY32) * (1 + 2 * _gamma(d, _U32)))
    row_of = {entry_id: row for row, entry_id in enumerate(ids)}
    if len(row_of) != len(ids):
        duplicate = next(entry_id for row, entry_id in enumerate(ids) if row_of[entry_id] != row)
        raise DuplicateId(f"duplicate gallery id {duplicate!r}")
    # Sources are numbered with exact str equality: numpy's fixed-width
    # strings would drop trailing NULs and merge distinct sources.
    code_of = {source: code for code, source in enumerate(dict.fromkeys(gallery.source_ids))}
    source_codes = np.array([code_of[source] for source in gallery.source_ids], dtype=np.intp)
    # Ids are ranked in Python's exact str order for the same reason.
    id_ranks = np.argsort(sorted(range(len(ids)), key=ids.__getitem__))
    return GalleryIndex(
        ids, gallery.source_ids, gallery.offsets, gallery.vectors,
        source_codes, code_of, id_ranks, row_of, float(norm_bound),
    )


def base_features(frames: np.ndarray, kind: FeatureKind = FeatureKind.MEL) -> np.ndarray:
    """Flattened mel or MFCC spectrograms of an (m, n) block of 48 kHz frames, (m, d_base)."""
    return flatten(mel_spectrogram(frames) if kind is FeatureKind.MEL else mfcc(frames)).values


def featurize_clip(
    frames: np.ndarray,
    head: ProjectionHead | None = None,
    kind: FeatureKind = FeatureKind.MEL,
) -> np.ndarray:
    """Unit float32 feature vectors of an (m, n) block of 48 kHz frames, shape (m, d).

    Without a head each flattened base feature is L2-normalized directly
    (the non-learned baseline); with a head, it passes through the
    projection instead.
    """
    base = base_features(frames, kind)
    vectors = embed(head, base) if head is not None else normalize(base)
    return vectors.astype(np.float32)


def _detached(result: np.ndarray, block: np.ndarray) -> np.ndarray:
    """``result``, copied if it may share memory with ``block``, which is about to be refilled."""
    return np.array(result) if np.may_share_memory(result, block) else result


def map_blocks(
    function: Callable[[np.ndarray], np.ndarray], frames: Iterable[np.ndarray]
) -> np.ndarray:
    """``function`` of consecutive frames stacked CHUNK_FRAMES at a time, its rows concatenated.

    Each frame is copied into its row of one (CHUNK_FRAMES, n) buffer,
    made on the first frame with its length and dtype, as the iterable
    yields it; ``function`` gets the filled rows, and the next block
    reuses the buffer.  So a lazy iterable holds one block of samples
    plus the frame it is yielding, not a list of frames and their stack:
    the benchmark's ingest (2000 frames) peaks at 75.3 MB RSS against
    85.7 MB for stacking (medians of 10 paired runs, 2-core VM).
    A result that shares memory with the buffer is copied before the
    buffer is refilled.  Raises InvalidValue for no frames or frames of
    unequal shape.
    """
    block = None
    parts = []
    m = 0
    for frame in frames:
        if block is None:
            frame = np.asarray(frame)
            block = np.empty((CHUNK_FRAMES, *frame.shape), dtype=frame.dtype)
        elif np.shape(frame) != block.shape[1:]:  # numpy would broadcast a 1-sample frame
            raise InvalidValue(f"frames differ in shape: {np.shape(frame)} after {block.shape[1:]}")
        block[m] = frame
        del frame  # the block holds its samples now
        m += 1
        if m == CHUNK_FRAMES:
            parts.append(_detached(function(block), block))
            m = 0
    if block is None:
        raise InvalidValue("no frames to map")
    if m:
        parts.append(_detached(function(block[:m]), block))
    return np.concatenate(parts)


def write_features(path: str | Path, gallery: Gallery) -> None:
    """Write a gallery as an AMCF v1 feature file, whole or not at all.

    The file is assembled in one buffer of its exact size.  An id or
    source id over 65535 UTF-8 bytes, an offset that is not a finite
    float32, or a row that :func:`build_index` would reject (not finite,
    or its squared norm overflows float32) raises IoError before any
    byte is written.
    """
    if not len(gallery):
        raise EmptyIndex("refusing to write an empty feature file")
    _finite_squared_norms(gallery, IoError)
    ids = [entry_id.encode("utf-8") for entry_id in gallery.ids]
    sources = [source_id.encode("utf-8") for source_id in gallery.source_ids]
    texts_fit = max(map(len, ids + sources)) <= 0xFFFF
    if not texts_fit or not (np.abs(gallery.offsets) <= np.finfo(np.float32).max).all():
        raise IoError("feature files hold ids of at most 65535 UTF-8 bytes and f32 offsets")
    n, d = gallery.vectors.shape
    row_bytes = 4 * d
    vectors = np.ascontiguousarray(gallery.vectors, dtype="<f4")
    vectors = memoryview(vectors.reshape(-1).view(np.uint8))
    offsets = memoryview(gallery.offsets.astype("<f4").view(np.uint8))
    size = _HEADER.size + sum(map(len, ids + sources)) + n * (8 + row_bytes)
    buffer = np.empty(size, dtype=np.uint8)
    out = memoryview(buffer)
    _HEADER.pack_into(out, 0, _FEATURE_MAGIC, _FEATURE_VERSION, d, n)
    pos = _HEADER.size
    for row, (id_bytes, source_bytes) in enumerate(zip(ids, sources)):
        for text in (id_bytes, source_bytes):
            out[pos : pos + 2] = len(text).to_bytes(2, "little")
            out[pos + 2 : pos + 2 + len(text)] = text
            pos += 2 + len(text)
        out[pos : pos + 4] = offsets[4 * row : 4 * row + 4]
        out[pos + 4 : pos + 4 + row_bytes] = vectors[row * row_bytes : (row + 1) * row_bytes]
        pos += 4 + row_bytes
    try:
        write_atomic(path, buffer)
    except OSError as exc:
        raise IoError(f"cannot write feature file {path}: {exc}") from exc


def read_features(path: str | Path) -> Gallery:
    """Read an AMCF v1 feature file back into a gallery.

    The file is read once, into one buffer of its size; bytes past the
    size its fstat gave (a pipe's, or those of a file that grew) are read
    to the end and appended.  Each row's vector is then moved forward to its place in the (n, d) matrix at
    the buffer's start, which becomes ``Gallery.vectors``.  A row's
    target never reaches an unread byte, so one forward pass is safe.

    Raises:
        IoError: The file cannot be read, or is not a whole AMCF v1 file.
    """
    try:
        with open(path, "rb") as handle:
            buffer = np.empty(os.fstat(handle.fileno()).st_size, dtype=np.uint8)
            size = handle.readinto(buffer)
            # A pipe reports size 0, and a file may grow after the fstat.
            rest = handle.read()
    except OSError as exc:
        raise IoError(f"cannot read feature file {path}: {exc}") from exc
    if rest:
        buffer = np.concatenate((buffer[:size], np.frombuffer(rest, dtype=np.uint8)))
        size = len(buffer)
    raw = memoryview(buffer)[:size]
    if size < _HEADER.size or raw[:4] != _FEATURE_MAGIC:
        raise IoError(f"{path} is not a feature file")
    _, version, d, count = _HEADER.unpack_from(raw)
    if version != _FEATURE_VERSION:
        raise IoError(f"unsupported feature file version {version}")
    pos = _HEADER.size
    # Every row holds at least two lengths, an offset and d components.
    if count * (8 + 4 * d) > size - pos:
        raise IoError(f"feature file {path} is too short for its {count} rows of dimension {d}")

    ids: list[str] = []
    source_ids: list[str] = []
    offsets = np.empty(count, dtype="<f4")
    offset_bytes = memoryview(offsets.view(np.uint8))
    row_bytes = 4 * d
    try:
        for row in range(count):
            # Indexing past the end raises IndexError.  A slice past the end
            # comes back short, so the copy after it raises ValueError.
            length = raw[pos] | raw[pos + 1] << 8
            ids.append(str(raw[pos + 2 : pos + 2 + length], "utf-8"))
            pos += 2 + length
            length = raw[pos] | raw[pos + 1] << 8
            source_ids.append(str(raw[pos + 2 : pos + 2 + length], "utf-8"))
            pos += 2 + length
            offset_bytes[4 * row : 4 * row + 4] = raw[pos : pos + 4]
            pos += 4
            # A memoryview assignment is a memmove: a row may overlap its target.
            raw[row * row_bytes : (row + 1) * row_bytes] = raw[pos : pos + row_bytes]
            pos += row_bytes
    except (IndexError, ValueError) as exc:  # UnicodeDecodeError is a ValueError
        raise IoError(f"truncated or corrupt feature file {path}") from exc
    if pos != size:
        raise IoError(f"feature file {path} has {size - pos} trailing bytes")
    return Gallery(
        ids=tuple(ids),
        source_ids=tuple(source_ids),
        offsets=offsets.astype(np.float64),
        vectors=buffer[: count * row_bytes].view("<f4").reshape(count, d),
    )
