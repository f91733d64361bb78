"""Immutable feature gallery with exact top-k inner-product search.

The gallery is id, source and offset columns plus one (n, d) float32
matrix of unit-norm vectors, scanned exhaustively per query (no
approximate structures); scores accumulate in float64 and ties break
by ascending id so results are deterministic.

Feature files are little-endian binary: magic "AMCF", u32 version,
u32 d, u64 count, then per entry a u16-length-prefixed UTF-8 id, a
u16-length-prefixed UTF-8 source id, an f32 offset in seconds, and d
f32 vector components.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .audio_io import AudioClip, write_atomic
from .dsp import (
    DEFAULT_MEL_BINS,
    DEFAULT_N_MFCC,
    BaseFeature,
    FeatureKind,
    flatten,
    mel_spectrogram,
    mfcc,
)
from .embedding import ProjectionHead, embed
from .errors import DimensionMismatch, DuplicateId, EmptyIndex, IoError

_FEATURE_MAGIC = b"AMCF"
_FEATURE_VERSION = 1


def normalize(vector: np.ndarray) -> np.ndarray:
    """L2-normalize; an all-zero vector maps to the first basis vector."""
    vector = np.asarray(vector, dtype=np.float64)
    norm = float(np.linalg.norm(vector))
    if norm == 0.0:
        out = np.zeros_like(vector)
        out[0] = 1.0
        return out
    return vector / norm


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
    row's place in ascending id order) and the id -> row map ``row_of``.
    """

    source_codes: np.ndarray
    code_of_source: dict[str, int]
    id_ranks: np.ndarray
    row_of: dict[str, int]

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

        Ties break by ascending id.  Entries whose source matches
        ``exclude_source`` are skipped.  Returns min(k, eligible)
        candidates.

        Raises:
            DimensionMismatch: Query dimension differs from the index.
            EmptyIndex: No eligible entries remain after exclusion.
        """
        z_q = np.asarray(z_q, dtype=np.float64)
        if z_q.shape != (self.d,):
            raise DimensionMismatch(f"query has shape {z_q.shape}, index dimension is {self.d}")
        if k < 1:
            raise ValueError("k must be >= 1")

        # einsum upcasts the f32 rows blockwise and accumulates in f64
        # without materializing a float64 copy of the whole matrix.
        scores = np.einsum("ij,j->i", self.vectors, z_q, dtype=np.float64)
        if exclude_source is None:
            eligible = np.arange(len(self.ids))
        else:
            # Codes are >= 0, so a source absent from the gallery excludes nothing.
            code = self.code_of_source.get(exclude_source, -1)
            eligible = np.flatnonzero(self.source_codes != code)
        if eligible.size == 0:
            raise EmptyIndex("no eligible gallery entries for this query")

        order = np.lexsort((self.id_ranks[eligible], -scores[eligible]))
        top = eligible[order[:k]]
        return [
            MatchCandidate(
                query_id=query_id,
                gallery_id=self.ids[row],
                score=float(scores[row]),
                rank=rank,
            )
            for rank, row in enumerate(top, start=1)
        ]


def build_index(gallery: Gallery) -> GalleryIndex:
    """Build an immutable index over a gallery's rows, in row order.

    Raises:
        EmptyIndex: No rows.
        DuplicateId: Repeated entry id.
    """
    if not len(gallery):
        raise EmptyIndex("cannot build an index from zero vectors")
    ids = gallery.ids
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
        source_codes, code_of, id_ranks, row_of,
    )


def base_feature(
    clip: AudioClip,
    kind: FeatureKind = FeatureKind.MEL,
    *,
    mel_bins: int = DEFAULT_MEL_BINS,
    n_mfcc: int = DEFAULT_N_MFCC,
) -> BaseFeature:
    """Flattened mel or MFCC spectrogram of one frame, the head's input."""
    if kind is FeatureKind.MEL:
        spec = mel_spectrogram(clip, mel_bins)
    else:
        spec = mfcc(clip, n_mfcc, mel_bins)
    return flatten(spec)


def featurize_clip(
    clip: AudioClip,
    head: ProjectionHead | None = None,
    kind: FeatureKind = FeatureKind.MEL,
    *,
    mel_bins: int = DEFAULT_MEL_BINS,
    n_mfcc: int = DEFAULT_N_MFCC,
) -> np.ndarray:
    """Unit float32 feature vector of one frame.

    Without a head the flattened base feature is L2-normalized directly
    (the non-learned baseline); with a head, it passes through the
    projection instead.
    """
    base = base_feature(clip, kind, mel_bins=mel_bins, n_mfcc=n_mfcc)
    vector = embed(head, base) if head is not None else normalize(base.values)
    return vector.astype(np.float32)


def batch_featurize(
    clips: Sequence[AudioClip],
    head: ProjectionHead | None = None,
    kind: FeatureKind = FeatureKind.MEL,
    *,
    mel_bins: int = DEFAULT_MEL_BINS,
    n_mfcc: int = DEFAULT_N_MFCC,
) -> Gallery:
    """Deterministic clip -> feature -> unit-vector pipeline.

    Row ids follow :func:`frame_id` over each clip's source and offset.
    """
    vectors = [featurize_clip(clip, head, kind, mel_bins=mel_bins, n_mfcc=n_mfcc) for clip in clips]
    return Gallery(
        ids=tuple(frame_id(clip.source_id, clip.offset_s) for clip in clips),
        source_ids=tuple(clip.source_id for clip in clips),
        offsets=np.array([clip.offset_s for clip in clips], dtype=np.float64),
        vectors=np.stack(vectors) if vectors else np.empty((0, 0), dtype=np.float32),
    )


def write_features(path: str | Path, gallery: Gallery) -> None:
    """Write a gallery as an AMCF v1 feature file, whole or not at all.

    An id or source id over 65535 UTF-8 bytes, or an offset that is not
    a finite float32, raises IoError before any byte is written.
    """
    if not len(gallery):
        raise EmptyIndex("refusing to write an empty feature file")
    ids = [entry_id.encode("utf-8") for entry_id in gallery.ids]
    sources = [source_id.encode("utf-8") for source_id in gallery.source_ids]
    texts_fit = max(map(len, ids + sources)) <= 0xFFFF
    if not texts_fit or not (np.abs(gallery.offsets) <= np.finfo(np.float32).max).all():
        raise IoError("feature files hold ids of at most 65535 UTF-8 bytes and f32 offsets")
    vectors = gallery.vectors.astype("<f4", copy=False)
    n, d = vectors.shape
    parts = [_FEATURE_MAGIC, struct.pack("<IIQ", _FEATURE_VERSION, d, n)]
    for id_bytes, source_bytes, offset, vector in zip(
        ids, sources, gallery.offsets.astype("<f4"), vectors
    ):
        parts += (
            struct.pack("<H", len(id_bytes)),
            id_bytes,
            struct.pack("<H", len(source_bytes)),
            source_bytes,
            offset.tobytes(),
            vector.tobytes(),
        )
    try:
        write_atomic(path, b"".join(parts))
    except OSError as exc:
        raise IoError(f"cannot write feature file {path}: {exc}") from exc


def read_features(path: str | Path) -> Gallery:
    """Read an AMCF v1 feature file back into a gallery."""
    try:
        raw = memoryview(Path(path).read_bytes())
    except OSError as exc:
        raise IoError(f"cannot read feature file {path}: {exc}") from exc
    if len(raw) < 20 or raw[:4] != _FEATURE_MAGIC:
        raise IoError(f"{path} is not a feature file")
    version, d, count = struct.unpack_from("<IIQ", raw, 4)
    if version != _FEATURE_VERSION:
        raise IoError(f"unsupported feature file version {version}")
    pos = 4 + struct.calcsize("<IIQ")
    # Every row holds at least two lengths, an offset and d components.
    if count * (8 + 4 * d) > len(raw) - pos:
        raise IoError(f"feature file {path} is too short for its {count} rows of dimension {d}")

    ids: list[str] = []
    source_ids: list[str] = []
    offsets = np.empty(count, dtype="<f4")
    vectors = np.empty((count, d), dtype="<f4")
    offset_bytes = memoryview(offsets.view(np.uint8))
    vector_bytes = memoryview(vectors.reshape(-1).view(np.uint8))
    row_bytes = 4 * d
    try:
        for row in range(count):
            for column in (ids, source_ids):
                (length,) = struct.unpack_from("<H", raw, pos)
                column.append(str(raw[pos + 2 : pos + 2 + length], "utf-8"))
                pos += 2 + length
            offset_bytes[4 * row : 4 * row + 4] = raw[pos : pos + 4]
            pos += 4
            vector_bytes[row * row_bytes : (row + 1) * row_bytes] = raw[pos : pos + row_bytes]
            pos += row_bytes
    except (struct.error, UnicodeDecodeError, ValueError) as exc:
        raise IoError(f"truncated or corrupt feature file {path}") from exc
    if pos != len(raw):
        raise IoError(f"feature file {path} has {len(raw) - pos} trailing bytes")
    return Gallery(
        ids=tuple(ids),
        source_ids=tuple(source_ids),
        offsets=offsets.astype(np.float64),
        vectors=vectors.astype(np.float32, copy=False),
    )
