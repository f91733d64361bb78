"""Immutable feature gallery with exact top-k inner-product search.

The gallery is id, source and offset columns plus one (n, d) float32
matrix of vectors, scanned exhaustively per query (no approximate
structures).  A query scores every row with one float32 matrix-vector
product, then rescores in float64 only the rows whose float32 score
lies within a proven rounding bound of the k-th best; every other row
ranks below k of those.  The float64 scores, and the ties broken by
ascending id, are exactly those of a float64 scan of every row, at any
BLAS thread count.

A :class:`Gallery`, its :class:`GalleryIndex` and a :class:`FeatureFile`
share one set of id lookups: ``len``, ``in``, ``row_of`` and
``source_of``.  They bisect one stable argsort of the ids, an intp per
row made once, on first use, and the index ranks ids by its inverse: no
dict keyed by id is held.  Reading decodes each distinct source id once,
so the rows of one source share one str.  An index is made of a
gallery's four columns alone and derives the rest from its rows.

Feature files are little-endian binary: magic "AMCF", u32 version,
u32 d, u64 count, then per entry a u16-length-prefixed UTF-8 id, a
u16-length-prefixed UTF-8 source id, an f32 offset in seconds, and d
f32 vector components.  :func:`read_features` reads a file once, into
one buffer of its size, and moves each row's components forward into
the (n, d) matrix at the buffer's start, which becomes the gallery's
vectors: reading costs about one file of memory, not two.
:func:`write_features` fills one buffer of the file's exact size.

:func:`open_features` serves a query without holding the file.  A first
pass over a regular file reads only what precedes each vector: it checks
the file's layout, decodes the id, source and offset columns, and finds
each row's place (:class:`FeatureFile`).  A query then reads the vectors
in spans of whole rows of about SPAN_BYTES, straight into one matrix,
indexes and queries each span with :func:`build_index`, and merges the
spans' exact top-k by (-score, id), which is the file's exact top-k with
the same score bits.  Memory is one span plus the columns, whatever the
file's size.  A file of at most one span, or a pipe, is read whole.
"""

from __future__ import annotations

import ctypes
import os
import stat
import struct
import threading
from array import array
from bisect import bisect_left
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from functools import cache, cached_property
from pathlib import Path
from typing import Callable, Sequence

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

# Bytes of rows a streamed query reads at a time (FeatureFile.query).  Chosen
# by measurement on the 2000x2880 audition gallery (2-core VM).  Below 4 MB,
# glibc's dynamic mmap threshold stays low, so each request maps its 0.4-2 MB
# audio buffers afresh: at 1 MB a warm request took 2280 minor faults and ran
# 20-24% slower.  Each span costs a read, an index and a query: against the
# whole-file read, a request's gallery work took a median 1.5 ms more at
# 4 MB, 0.85 at 6 MB, 0.7 at 8 MB and 0.6 at 12 MB (200 requests interleaved
# with the whole-file read's).
SPAN_BYTES = 8 << 20
# The first pass over a file reads the _HEAD_BYTES before each vector, more
# only where a row's texts are longer: on the audition gallery its 2000 preads
# took 0.9-1.9 ms, and reading the whole file from the page cache 3.6-3.9 ms.
# One preadv reads _IOV_ROWS rows into two buffers each (IOV_MAX is 1024).
_HEAD_BYTES = 256
_IOV_ROWS = 512

# Rows per head GEMM: featurization projects, or normalizes, its base
# features CHUNK_FRAMES rows at a time.
CHUNK_FRAMES = 16
# Frames whose samples each featurizing thread holds, and whose spectrograms
# it makes, at a time.  A frame's samples are 0.4 MB and so is its float64
# power spectrum, where a whole block's would be 6.1 MB each.  A larger group
# only gave the mel GEMM rows for a second BLAS thread, which a featurize
# pass no longer runs (_one_blas_thread), and each thread holds its own.
SPECTROGRAM_FRAMES = 1


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


class _Rows:
    """``len``, ``in``, ``row_of`` and ``source_of`` of id and source columns.

    An id is found by bisecting ``_id_order``, the rows in ascending id
    order: one intp per row, where a dict of ids would cost about 100 bytes.
    """

    ids: tuple[str, ...]
    source_ids: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.ids)

    @cached_property
    def _id_order(self) -> np.ndarray:
        """Rows by ascending id, made on first use.

        Raises EmptyIndex for no ids, and DuplicateId for a repeated one,
        naming the repeat whose first row comes first.
        """
        if not self.ids:
            raise EmptyIndex("cannot build an index from zero vectors")
        # Python's exact str order: numpy's fixed-width strings would drop
        # trailing NULs.  A stable sort keeps repeats in row order.
        ids = np.array(self.ids, dtype=object)
        order = np.argsort(ids, kind="stable")
        ids = ids[order]
        repeats = order[:-1][ids[1:] == ids[:-1]]
        if repeats.size:
            raise DuplicateId(f"duplicate gallery id {self.ids[repeats.min()]!r}")
        return order

    def row_of(self, entry_id: str) -> int:
        """The id's row.  Raises KeyError for an absent id, or one that is not a str."""
        order = self._id_order
        if not isinstance(entry_id, str):  # bisect would raise TypeError comparing it
            raise KeyError(entry_id)
        at = bisect_left(order, entry_id, key=self.ids.__getitem__)
        if at == len(order) or self.ids[order[at]] != entry_id:
            raise KeyError(entry_id)
        return int(order[at])

    def __contains__(self, entry_id: str) -> bool:
        try:
            self.row_of(entry_id)
        except KeyError:
            return False
        return True

    def source_of(self, entry_id: str) -> str:
        return self.source_ids[self.row_of(entry_id)]


@dataclass(frozen=True, eq=False, repr=False)
class Gallery(_Rows):
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

    @property
    def d(self) -> int:
        return self.vectors.shape[1]

    def vector(self, entry_id: str) -> np.ndarray:
        return self.vectors[self.row_of(entry_id)]


@dataclass(frozen=True)
class MatchCandidate:
    """One retrieval result; scores are non-increasing with rank."""

    query_id: str
    gallery_id: str
    score: float
    rank: int


@dataclass(frozen=True, eq=False, repr=False)
class GalleryIndex(Gallery):
    """Immutable gallery supporting exact top-k MIPS over its rows, in row order.

    From the four columns it derives ``norm_bound``, an upper bound on
    every row's L2 norm, ``source_codes`` (each row's number in
    ``code_of_source``) and ``id_ranks`` (each row's place in ascending id
    order, made from the id order that ``row_of`` bisects).

    Raises:
        InvalidValue: A row is not finite or its squared norm overflows float32.
        EmptyIndex: No rows.
        DuplicateId: Repeated entry id.
    """

    norm_bound: float = field(init=False)
    source_codes: np.ndarray = field(init=False)
    code_of_source: dict[str, int] = field(init=False)
    id_ranks: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        super().__post_init__()
        squared_norms = _finite_squared_norms(self.ids, self.vectors, InvalidValue)
        # The float32 sum of d squares is at least (1 - gamma_d) times the true
        # one, less underflow; 1 / (1 - gamma) <= 1 + 2 gamma for gamma <= 1/2.
        # With no rows the bound goes unused: the id order raises EmptyIndex.
        d, max_square = self.d, float(squared_norms.max(initial=0.0))
        norm_bound = np.sqrt((max_square + d * _TINY32) * (1 + 2 * _gamma(d, _U32)))
        # Sources are numbered with exact str equality: numpy's fixed-width
        # strings would drop trailing NULs and merge distinct sources.
        code_of = {source: code for code, source in enumerate(dict.fromkeys(self.source_ids))}
        source_codes = np.array([code_of[source] for source in self.source_ids], dtype=np.intp)
        order = self._id_order  # raises for no rows or a repeated id
        id_ranks = np.empty_like(order)
        id_ranks[order] = np.arange(len(order))
        self.__dict__.update(norm_bound=float(norm_bound), source_codes=source_codes,
                             code_of_source=code_of, id_ranks=id_ranks)  # frozen fields

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

        # Codes are >= 0, so None or a source absent from the gallery excludes nothing.
        rows = np.flatnonzero(self.source_codes != self.code_of_source.get(exclude_source, -1))
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


def _finite_squared_norms(
    ids: tuple[str, ...], vectors: np.ndarray, error: type[Exception]
) -> np.ndarray:
    """Each row's float32 squared norm; ``error`` names the first row where it is not finite."""
    squared_norms = np.einsum("ij,ij->i", vectors, vectors)
    bad = ~np.isfinite(squared_norms)
    if bad.any():
        raise error(
            f"gallery row {ids[int(np.argmax(bad))]!r} is not finite "
            "or its squared norm overflows float32"
        )
    return squared_norms


def build_index(gallery: Gallery) -> GalleryIndex:
    """An immutable index over a gallery's rows, in row order; raises what GalleryIndex raises."""
    return GalleryIndex(gallery.ids, gallery.source_ids, gallery.offsets, gallery.vectors)


@cache
def _blas_thread_functions() -> tuple[Callable[[], int], Callable[[int], None]] | None:
    """``get_num_threads`` and ``set_num_threads`` of numpy's own OpenBLAS, or None.

    Found with ctypes, on first use, in the library the numpy wheel ships and
    has already loaded (dlopen of its path gives that copy).  A numpy built
    against another BLAS has none.
    """
    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas*")):
        try:
            library = ctypes.CDLL(str(path))
        except OSError:
            continue
        for suffix in ("64_", ""):  # the ILP64 and the LP64 builds
            get = getattr(library, f"scipy_openblas_get_num_threads{suffix}", None)
            set_ = getattr(library, f"scipy_openblas_set_num_threads{suffix}", None)
            if get and set_:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


_BLAS_THREADS_LOCK = threading.Lock()


@contextmanager
def _one_blas_thread():
    """Hold numpy's OpenBLAS at one thread, where it can be, and restore its count after.

    A pass holds the lock throughout, so passes on other threads wait and
    none restores a count another set.  Without the thread functions BLAS
    is left alone.
    """
    functions = _blas_thread_functions()
    if functions is None:
        yield
        return
    get, set_ = functions
    with _BLAS_THREADS_LOCK:
        threads = get()
        set_(1)
        try:
            yield
        finally:
            set_(threads)


def _workers() -> int:
    """Threads a featurize pass runs on: one per core of the process's affinity mask.

    One where BLAS cannot be held at one thread: an idle OpenBLAS thread
    spins on the core a second Python thread would use.
    """
    return len(os.sched_getaffinity(0)) if _blas_thread_functions() else 1


def _feature_rows(
    frames: Sequence[np.ndarray], kind: FeatureKind,
    finish: Callable[[np.ndarray], np.ndarray], dtype: type,
) -> np.ndarray:
    """``finish`` of each CHUNK_FRAMES-row block of base features, in one (n, d) result.

    The first block runs alone on the calling thread and makes the result,
    with ``dtype``; the calling thread and ``_workers() - 1`` more then take
    the other blocks in order, each thread through buffers of its own, and
    each block writes its rows of the result.  A block reads each of its
    frames once, in order, as ``frames[i]``, into its row of a group buffer
    of SPECTROGRAM_FRAMES frames; each group's flattened spectrograms go
    into a base buffer of CHUNK_FRAMES rows, and the block's rows through
    ``finish``.  After a failure no block is started, and the earliest
    failing block's error is raised.  BLAS runs on one thread for the
    whole pass (:func:`_one_blas_thread`).  Raises InvalidValue for no
    frames, or a frame not 1-D or not of the first one's shape.
    """
    n = len(frames)
    if not n:
        raise InvalidValue("no frames to featurize")
    spectrogram = mel_spectrogram if kind is FeatureKind.MEL else mfcc
    chunk, group_frames = CHUNK_FRAMES, min(SPECTROGRAM_FRAMES, CHUNK_FRAMES)
    starts, lock = iter(range(0, n, chunk)), threading.Lock()
    failed: dict[int, BaseException] = {}
    shape = result = None

    def take() -> int | None:
        """The next block's first row, or None once every block is taken or one failed."""
        with lock:
            return None if failed else next(starts, None)

    def run(most: int = n) -> None:
        """Featurize up to ``most`` of the blocks ``take`` hands this thread."""
        nonlocal shape, result
        group = base = None
        for _ in range(most):
            if (start := take()) is None:
                return
            stop = min(start + chunk, n)
            try:
                for i in range(start, stop):
                    in_group = (i - start) % group_frames
                    frame = frames[i]
                    if shape is None:
                        if np.ndim(frame) != 1:
                            raise InvalidValue(
                                f"a frame is one row of samples, got shape {np.shape(frame)}")
                        shape = np.shape(frame)
                    elif np.shape(frame) != shape:  # numpy would broadcast a 1-sample frame
                        raise InvalidValue(f"frames differ in shape: {np.shape(frame)} after {shape}")
                    if group is None:
                        group = np.empty((min(group_frames, n), *shape))
                    group[in_group] = frame
                    del frame  # the group holds its samples now
                    if in_group == group_frames - 1 or i == stop - 1:
                        rows = flatten(spectrogram(group[: in_group + 1])).values
                        if base is None:
                            base = np.empty((min(chunk, n), rows.shape[1]))
                        base[i - start - in_group : i - start + 1] = rows
                        del rows  # not held through the next group's spectrogram
                vectors = finish(base[: stop - start])
                if result is None:
                    result = np.empty((n, vectors.shape[1]), dtype)
                result[start:stop] = vectors
                del vectors
            except BaseException as exc:
                with lock:
                    failed[start] = exc
                return

    with _one_blas_thread():
        run(1)  # the first block makes the result and finds the frames' shape
        pool = [threading.Thread(target=run)
                for _ in range(0 if failed else min(_workers(), -(-n // chunk)) - 1)]
        try:
            for thread in pool:
                thread.start()
            run()
        finally:
            for thread in pool:
                if thread.ident is not None:  # started
                    thread.join()
    if failed:
        raise failed[min(failed)]
    return result


def base_features(frames: Sequence[np.ndarray], kind: FeatureKind = FeatureKind.MEL) -> np.ndarray:
    """Flattened mel or MFCC spectrograms of n equal-length 48 kHz frames, (n, d_base) float64.

    ``frames`` is any sequence with a length, an (n, samples) array among
    them.  A 1-second frame's row has the same bits as from the frame alone.
    """
    return _feature_rows(frames, kind, lambda rows: rows, np.float64)


def featurize_clip(
    frames: Sequence[np.ndarray],
    head: ProjectionHead | None = None,
    kind: FeatureKind = FeatureKind.MEL,
) -> np.ndarray:
    """Unit float32 feature vectors of n equal-length 48 kHz frames, shape (n, d).

    ``frames`` is as for :func:`base_features`.  Without a head each base
    feature is L2-normalized directly (the non-learned baseline); with a
    head, it passes through the projection instead, a GEMM per CHUNK_FRAMES rows.
    """
    finish = normalize if head is None else lambda rows: embed(head, rows)
    return _feature_rows(frames, kind, finish, np.float32)


def write_features(path: str | Path, gallery: Gallery) -> None:
    """Write a gallery as an AMCF v1 feature file, whole or not at all.

    The file is assembled in one buffer of its exact size.  Before any
    byte is written, a repeated id raises DuplicateId, and an id or source
    id over 65535 UTF-8 bytes, an offset that is not a finite float32, or
    a row that :func:`build_index` would reject (not finite, or its
    squared norm overflows float32) raises IoError.
    """
    if not len(gallery):
        raise EmptyIndex("refusing to write an empty feature file")
    gallery._id_order  # raises for a repeated id
    _finite_squared_norms(gallery.ids, gallery.vectors, IoError)
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
    write_atomic(path, buffer)


def _check_header(header: bytes, size: int, path: str | Path) -> tuple[int, int]:
    """(d, count) of an AMCF v1 file of ``size`` bytes; IoError unless they can hold count rows."""
    if size < _HEADER.size or header[:4] != _FEATURE_MAGIC:
        raise IoError(f"{path} is not a feature file")
    _, version, d, count = _HEADER.unpack_from(header)
    if version != _FEATURE_VERSION:
        raise IoError(f"unsupported feature file version {version}")
    # Every row holds at least two lengths, an offset and d components.
    if count * (8 + 4 * d) > size - _HEADER.size:
        raise IoError(f"feature file {path} is too short for its {count} rows of dimension {d}")
    return d, count


class _Texts(dict):
    """UTF-8 bytes -> str, each decoded once, so the rows of one source share its str."""

    def __missing__(self, text: bytes) -> str:
        self[text] = decoded = text.decode()
        return decoded


def read_features(path: str | Path, span: FeatureFile | None = None) -> Gallery:
    """Read an AMCF v1 feature file, or the vectors of a span of its rows, into a gallery.

    The file is read once, into one buffer of its size; bytes past the
    size its fstat gave (a pipe's, or those of a file that grew) are read
    to the end and appended.  Each row's vector is then moved forward to
    its place in the (n, d) matrix at the buffer's start, which becomes
    ``Gallery.vectors``.  A row's target never reaches an unread byte, so
    one forward pass is safe.

    With ``span``, rows of ``path`` that :func:`open_features` located
    (a :class:`FeatureFile`), only their vectors are read, each straight
    into its row of the matrix (one ``preadv`` per _IOV_ROWS rows), and
    the other columns are the span's.

    Raises:
        IoError: The file cannot be read, is not a whole AMCF v1 file, or
            changed since ``span`` was located.
    """
    if span is not None:
        return _read_span(path, span)
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
    d, count = _check_header(raw[: _HEADER.size], size, path)
    pos = _HEADER.size

    ids: list[str] = []
    source_ids: list[str] = []
    sources = _Texts()
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
            source_ids.append(sources[raw[pos + 2 : pos + 2 + length].tobytes()])
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


def _version(status: os.stat_result) -> tuple[int, int, int, int]:
    """What identifies a file's contents: its device, inode, size and modification time."""
    return status.st_dev, status.st_ino, status.st_size, status.st_mtime_ns


def _read_span(path: str | Path, span: FeatureFile) -> Gallery:
    """The span's rows, with their vectors read from ``path`` straight into one matrix."""
    vectors = np.empty((len(span), span.d), dtype="<f4")
    # Each row's id, source and offset bytes are read into one scratch buffer and
    # dropped; its vector into its row of the matrix.
    heads = (np.diff(span.starts) - 4 * span.d).tolist()
    scratch = memoryview(bytearray(max(heads)))
    prefixes = {head: scratch[:head] for head in set(heads)}
    parts = [scratch] * (2 * len(heads))
    parts[::2] = [prefixes[head] for head in heads]
    parts[1::2] = vectors.view(np.uint8)  # one buffer per row
    starts = span.starts.tolist()
    try:
        with open(path, "rb", buffering=0) as handle:
            if _version(os.fstat(handle.fileno())) != span.version:
                raise IoError(f"feature file {path} changed while it was read")
            for first in range(0, len(heads), _IOV_ROWS):
                last = min(first + _IOV_ROWS, len(heads))
                done = os.preadv(handle.fileno(), parts[2 * first : 2 * last], starts[first])
                if done != starts[last] - starts[first]:
                    raise IoError(f"truncated or corrupt feature file {path}")
    except OSError as exc:
        raise IoError(f"cannot read feature file {path}: {exc}") from exc
    return Gallery(span.ids, span.source_ids, span.offsets, vectors)


@dataclass(frozen=True, eq=False, repr=False)
class FeatureFile(_Rows):
    """Rows of a seekable AMCF v1 file, located but with their vectors left on disk.

    Made by :func:`open_features`: the id, source and offset columns,
    ``starts`` (each row's byte position in the file, then the end of the
    last row) and the ``version`` of the file they were read from.  It has
    a gallery's lookups, :meth:`vector` read from the file, and the exact
    :meth:`query` of a :class:`GalleryIndex`, which reads the vectors in
    spans of whole rows of about SPAN_BYTES.
    """

    path: str | Path
    d: int
    ids: tuple[str, ...]
    source_ids: tuple[str, ...]
    offsets: np.ndarray
    starts: np.ndarray
    version: tuple[int, int, int, int]

    def _span(self, first: int, last: int) -> FeatureFile:
        """Rows first .. last - 1."""
        return replace(
            self, ids=self.ids[first:last], source_ids=self.source_ids[first:last],
            offsets=self.offsets[first:last], starts=self.starts[first : last + 1],
        )

    def vector(self, entry_id: str) -> np.ndarray:
        """The row's float32 vector, read from the file.

        Raises:
            InvalidValue: The row is not finite or its squared norm
                overflows float32, as :func:`build_index` would raise.
        """
        row = self.row_of(entry_id)
        vector = read_features(self.path, span=self._span(row, row + 1)).vectors
        _finite_squared_norms((entry_id,), vector, InvalidValue)
        return vector[0]

    def query(
        self,
        z_q: np.ndarray,
        k: int,
        exclude_source: str | None = None,
        query_id: str = "",
    ) -> list[MatchCandidate]:
        """:meth:`GalleryIndex.query` over every row, read one span at a time.

        Each span of about SPAN_BYTES is read, indexed and queried on its
        own, and freed before the next is read.  Merging the exact top-k
        of every span by (-score, id) gives the exact top-k of the file,
        with the same score bits.  Raises what ``build_index`` and
        ``GalleryIndex.query`` raise, and EmptyIndex when no span holds an
        eligible row.
        """
        starts = self.starts
        cuts = np.searchsorted(starts, np.arange(starts[0], starts[-1], SPAN_BYTES))
        bounds = np.unique(np.append(cuts, len(self))).tolist()
        found: list[MatchCandidate] = []
        for first, last in zip(bounds, bounds[1:]):
            index = build_index(read_features(self.path, span=self._span(first, last)))
            try:
                found += index.query(z_q, k, exclude_source=exclude_source, query_id=query_id)
            except EmptyIndex as exc:  # every row of this span is excluded
                empty = exc.with_traceback(None)  # its frames would hold the index
            del index  # so the next span's matrix takes its place
            found = sorted(found, key=lambda c: (-c.score, c.gallery_id))[:k]
        if not found:
            raise empty
        return [replace(candidate, rank=rank) for rank, candidate in enumerate(found, start=1)]


def _scan(path: str | Path) -> FeatureFile:
    """Locate every row of a regular AMCF v1 file, reading only what precedes each vector.

    Each row takes one ``pread`` of _HEAD_BYTES, and one more for texts
    that do not fit.  Raises what :func:`read_features` raises for the
    file's layout, and what :func:`build_index` raises for its ids
    (EmptyIndex, DuplicateId).
    """
    try:
        with open(path, "rb", buffering=0) as handle:
            fd = handle.fileno()
            version = _version(os.fstat(fd))
            size = version[2]
            d, count = _check_header(os.pread(fd, _HEADER.size, 0), size, path)
            row_bytes = 4 * d
            ids: list[str] = []
            source_ids: list[str] = []
            sources = _Texts()
            offsets = bytearray()
            starts = array("q")
            # Local names: this loop runs once per row.
            pread, add_start = os.pread, starts.append
            add_id, add_source = ids.append, source_ids.append
            pos = _HEADER.size
            for _ in range(count):
                add_start(pos)
                # Past the end a read comes back short: an index raises IndexError,
                # or the row takes ``pos`` past ``size``.
                head = pread(fd, _HEAD_BYTES, pos)
                id_end = 2 + (head[0] | head[1] << 8)
                if id_end + 2 > len(head):
                    head = pread(fd, id_end + 2, pos)
                end = id_end + 6 + (head[id_end] | head[id_end + 1] << 8)
                if end > len(head):
                    head = pread(fd, end, pos)
                add_id(head[2:id_end].decode())
                add_source(sources[head[id_end + 2 : end - 4]])
                offsets += head[end - 4 : end]
                pos += end + row_bytes
    except OSError as exc:
        raise IoError(f"cannot read feature file {path}: {exc}") from exc
    except (IndexError, ValueError) as exc:  # UnicodeDecodeError is a ValueError
        raise IoError(f"truncated or corrupt feature file {path}") from exc
    if pos > size:
        raise IoError(f"truncated or corrupt feature file {path}")
    if pos != size:
        raise IoError(f"feature file {path} has {size - pos} trailing bytes")
    starts.append(pos)
    features = FeatureFile(
        path, d, tuple(ids), tuple(source_ids),
        np.frombuffer(offsets, dtype="<f4").astype(np.float64),
        np.frombuffer(starts, dtype=np.int64), version,
    )
    features._id_order  # raises for no rows or a repeated id
    return features


def open_features(path: str | Path) -> FeatureFile | GalleryIndex:
    """A feature file ready to query: located in place if larger than a span, else read whole.

    A regular file of over SPAN_BYTES is checked by one pass over what
    precedes each vector (:class:`FeatureFile`), and each query then
    reads about SPAN_BYTES of vectors at a time, so memory stays near one
    span whatever the file's size.  Any other file is read whole and
    indexed, as :func:`read_features` and :func:`build_index` do: one of
    at most a span would be held as a span anyway, without the first
    pass, and a pipe cannot be read twice.
    """
    try:
        status = os.stat(path)
        streamed = stat.S_ISREG(status.st_mode) and status.st_size > SPAN_BYTES
    except OSError:
        streamed = False  # read_features raises the error
    return _scan(path) if streamed else build_index(read_features(path))
