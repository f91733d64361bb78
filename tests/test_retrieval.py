"""Gallery index exactness, feature files, and the featurize pipeline."""

import errno
import gc
import hashlib
import os
import struct
import subprocess
import sys
import threading
import time
import tracemalloc
import weakref
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import audiomatch

from audiomatch import (
    AudioClip,
    FeatureFile,
    Gallery,
    GalleryIndex,
    ProjectionHead,
    build_index,
    embed,
    featurize_clip,
    frame_id,
    normalize,
    open_features,
    read_features,
    retrieval,
    write_audio,
    write_features,
)
from audiomatch.dsp import FeatureKind, PADDED_BINS, flatten, mel_spectrogram, mfcc
from audiomatch.retrieval import _score_error_bound
from audiomatch.synthetic import tone_family_set
from audiomatch.errors import (
    AudioMatchError, DimensionMismatch, DuplicateId, EmptyIndex, InvalidValue, IoError,
)


def unit_rows(rng, n, d):
    rows = rng.normal(size=(n, d)).astype(np.float32)
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def gallery_from(rows, ids=None, sources="src", offsets=None):
    """Gallery over ``rows``: ids v00000, v00001, ..., one source, offsets 0, 1, ..."""
    n = len(rows)
    return Gallery(
        ids=[f"v{i:05d}" for i in range(n)] if ids is None else ids,
        source_ids=[sources] * n if isinstance(sources, str) else sources,
        offsets=np.arange(n, dtype=np.float64) if offsets is None else offsets,
        vectors=rows,
    )


def parse_amcf(raw):
    """Independent AMCF v1 parser, one struct read per field, row by row.

    Returns ids, source ids, the f32 offset bytes, the f32 vector bytes
    and (n, d); a file that is not whole AMCF v1 raises ValueError or
    struct.error.
    """
    magic, version, d, n = struct.unpack_from("<4sIIQ", raw, 0)
    if magic != b"AMCF" or version != 1:
        raise ValueError("not AMCF v1")
    pos = 20
    ids, sources, offsets, vectors = [], [], [], []
    for _ in range(n):
        for column in (ids, sources):
            (length,) = struct.unpack_from("<H", raw, pos)
            text = raw[pos + 2 : pos + 2 + length]
            if len(text) != length:
                raise ValueError("truncated text")
            column.append(text.decode("utf-8"))
            pos += 2 + length
        (offset,) = struct.unpack_from("<4s", raw, pos)
        (vector,) = struct.unpack_from(f"<{4 * d}s", raw, pos + 4)
        offsets.append(offset)
        vectors.append(vector)
        pos += 4 + 4 * d
    if pos != len(raw):
        raise ValueError("trailing bytes")
    return tuple(ids), tuple(sources), b"".join(offsets), b"".join(vectors), (n, d)


def assert_reads_as_oracle(gallery, raw):
    assert isinstance(gallery, Gallery)
    ids, sources, offsets, vectors, shape = parse_amcf(raw)
    assert gallery.ids == ids and gallery.source_ids == sources
    assert gallery.offsets.astype("<f4").tobytes() == offsets
    assert gallery.vectors.shape == shape and gallery.vectors.tobytes() == vectors
    assert gallery.vectors.dtype == np.float32 and gallery.vectors.flags.c_contiguous
    assert not gallery.vectors.flags.writeable


def golden_gallery():
    """A fixed gallery with empty, NUL, non-ASCII and 306-byte texts and fractional offsets."""
    n, d = 5, 7
    vectors = (np.arange(n * d, dtype=np.float32) * np.float32(0.37) % 3 - 1.5).reshape(n, d)
    return Gallery(
        ids=["", "a", "é\0x", "frame-" + "y" * 300, "日本@1.500"],
        source_ids=["s", "", "src\0", "s", "ü"],
        offsets=[0.0, 1.0, 2.5, 1e-3, 12345.678],
        vectors=vectors,
    )


# sha256 of golden_gallery() as written by the row-by-row writer this one replaced.
_GOLDEN_SHA256 = "17a1b7a23916ecfa3b85401643981f9c73dd80bc1749e863ea15756edcda17f7"


@pytest.fixture(scope="module")
def three_row_file(tmp_path_factory):
    """A valid 3-row AMCF file (d = 4): its bytes, the places of its u32 d, u64 count and
    u16 lengths, and a scratch path to write mutants to."""
    directory = tmp_path_factory.mktemp("amcf")
    path = directory / "three.amcf"
    # Texts long enough that a cut in the last row passes the header's size check.
    ids, sources = ["a", "bé" * 10, ""], ["s" * 30, "", "t\0"]
    rows = unit_rows(np.random.default_rng(7), 3, 4)
    write_features(path, gallery_from(rows, ids=ids, sources=sources))
    fields, pos = [8, 12], 20
    for texts in zip(ids, sources):
        for text in texts:
            fields.append(pos)
            pos += 2 + len(text.encode())
        pos += 4 + 16
    return path.read_bytes(), fields, directory / "mutant.amcf"


def oracle_ranking(gallery, z_q, k, exclude_source=None):
    """Independent full scan: python sort over (-score, id)."""
    scored = []
    for entry_id, source_id, vector in zip(gallery.ids, gallery.source_ids, gallery.vectors):
        if exclude_source is not None and source_id == exclude_source:
            continue
        score = float(np.dot(np.asarray(vector, dtype=np.float64), z_q))
        scored.append((-score, entry_id))
    scored.sort()
    return [entry_id for _, entry_id in scored[:k]]


def einsum_top(gallery, z_q, k, exclude_source=None):
    """Independent full scan: float64 einsum over every row, python sort over (-score, id)."""
    scores = np.einsum("ij,j->i", gallery.vectors, z_q, dtype=np.float64)
    rows = [row for row, source in enumerate(gallery.source_ids) if source != exclude_source]
    rows.sort(key=lambda row: (-scores[row], gallery.ids[row]))
    return [gallery.ids[row] for row in rows[:k]], scores[rows[:k]]


def assert_matches_einsum_scan(index, gallery, z_q, k, exclude_source=None):
    got = index.query(z_q, k, exclude_source=exclude_source)
    want_ids, want_scores = einsum_top(gallery, z_q, k, exclude_source)
    assert [c.gallery_id for c in got] == want_ids
    got_scores = np.array([c.score for c in got], dtype=np.float64)
    assert np.array_equal(got_scores.view(np.int64), want_scores.view(np.int64))


class TestBuildIndex:
    def test_single_vector(self, rng):
        index = build_index(gallery_from(unit_rows(rng, 1, 8)))
        assert len(index) == 1

    def test_duplicate_id(self, rng):
        gallery = gallery_from(unit_rows(rng, 2, 8), ids=["same", "same"], sources=["a", "b"])
        with pytest.raises(DuplicateId):
            build_index(gallery)

    def test_dimension_mismatch(self, rng):
        with pytest.raises(DimensionMismatch):
            build_index(
                gallery_from(
                    [unit_rows(rng, 1, 8)[0], unit_rows(rng, 1, 9)[0]], ids=["a", "b"], sources="s"
                )
            )

    def test_gallery_checks_its_columns(self, rng):
        with pytest.raises(DimensionMismatch):
            gallery_from(unit_rows(rng, 1, 8)[0])  # one vector, not a matrix
        with pytest.raises(DimensionMismatch):
            gallery_from(unit_rows(rng, 3, 8), ids=["a", "b"])
        with pytest.raises(DimensionMismatch):
            gallery_from(unit_rows(rng, 3, 8), offsets=np.zeros(2))

    def test_empty(self):
        with pytest.raises(EmptyIndex):
            build_index(gallery_from(np.empty((0, 8), dtype=np.float32)))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 3e19])
    def test_rejects_non_finite_row_naming_the_first(self, rng, value):
        # 3e19 is finite, but its square overflows float32.
        rows = unit_rows(rng, 6, 8)
        rows[2, 5] = rows[4, 0] = value
        with pytest.raises(ValueError, match="'v00002'"):
            build_index(gallery_from(rows))

    def test_a_bad_row_is_found_before_a_repeated_id(self, rng):
        rows = unit_rows(rng, 3, 8)
        rows[2, 0] = np.nan
        with pytest.raises(InvalidValue, match="^gallery row 'c' is not finite"):
            build_index(gallery_from(rows, ids=["a", "a", "c"]))

    def test_takes_the_four_columns_and_derives_the_rest(self, rng):
        gallery = gallery_from(unit_rows(rng, 4, 8), sources=["s", "t", "s", "u"])
        columns = (gallery.ids, gallery.source_ids, gallery.offsets, gallery.vectors)
        index = GalleryIndex(*columns)
        assert index.code_of_source == {"s": 0, "t": 1, "u": 2}
        assert index.source_codes.tolist() == [0, 1, 0, 2]
        assert index.norm_bound == build_index(gallery).norm_bound > 1.0
        with pytest.raises(TypeError):
            GalleryIndex(*columns, np.zeros(4, dtype=np.intp))
        with pytest.raises(TypeError):
            GalleryIndex(*columns, norm_bound=1.0)

    def test_lossless_readback(self, rng):
        rows = unit_rows(rng, 500, 32)
        index = build_index(gallery_from(rows))
        for i, row in enumerate(rows):
            assert np.array_equal(index.vector(f"v{i:05d}"), row)


class TestQuery:
    def test_self_similarity_is_rank_one(self, rng):
        gallery = gallery_from(unit_rows(rng, 50, 16))
        index = build_index(gallery)
        result = index.query(gallery.vectors[7].astype(np.float64), k=3)
        assert result[0].gallery_id == gallery.ids[7]
        assert result[0].score == pytest.approx(1.0, abs=1e-6)
        assert result[0].rank == 1

    def test_orthogonal_gallery_tie_break_by_id(self):
        basis = np.eye(3, dtype=np.float32)
        index = build_index(
            gallery_from(basis, ids=["e1", "e2", "e3"], sources=["s1", "s2", "s3"])
        )
        result = index.query(np.array([0.0, 1.0, 0.0]), k=3)
        assert [c.gallery_id for c in result] == ["e2", "e1", "e3"]
        assert result[0].score == pytest.approx(1.0)
        assert result[1].score == pytest.approx(0.0)

    def test_matches_full_scan_oracle(self, rng):
        gallery = gallery_from(unit_rows(rng, 1000, 24))
        index = build_index(gallery)
        for _ in range(20):
            z_q = normalize(rng.normal(size=24))
            got = [c.gallery_id for c in index.query(z_q, k=10)]
            assert got == oracle_ranking(gallery, z_q, 10)

    def test_duplicate_vectors_tie_break(self, rng):
        row = unit_rows(rng, 1, 8)[0]
        gallery = gallery_from(
            np.stack([row] * 3), ids=["id3", "id1", "id2"], sources=["s3", "s1", "s2"]
        )
        index = build_index(gallery)
        got = [c.gallery_id for c in index.query(row.astype(np.float64), k=3)]
        assert got == ["id1", "id2", "id3"]

    @pytest.mark.parametrize("ids", [["a\0", "a"], ["a", "a\0"]])
    def test_tie_break_uses_exact_id_order(self, rng, ids):
        # numpy's fixed-width strings drop trailing NULs; as str, "a" < "a\0".
        row = unit_rows(rng, 1, 8)[0]
        index = build_index(gallery_from(np.stack([row] * 2), ids=ids))
        got = [c.gallery_id for c in index.query(row.astype(np.float64), k=2)]
        assert got == ["a", "a\0"]

    def test_exclude_source_removes_exactly_that_source(self, rng):
        rows = unit_rows(rng, 30, 8)
        gallery = gallery_from(
            rows,
            ids=[f"v{i}" for i in range(30)],
            sources=["self" if i % 3 == 0 else "other" for i in range(30)],
        )
        index = build_index(gallery)
        z_q = normalize(rng.normal(size=8))
        got = [c.gallery_id for c in index.query(z_q, k=30, exclude_source="self")]
        assert got == oracle_ranking(gallery, z_q, 30, exclude_source="self")
        assert all(int(gid[1:]) % 3 != 0 for gid in got)

    def test_exclude_source_matches_exact_source_names(self, rng):
        # "a" and "a\0" are distinct sources; a source absent from the
        # gallery excludes nothing.
        gallery = gallery_from(unit_rows(rng, 4, 8), sources=["a", "a\0", "b", "a"])
        index = build_index(gallery)
        z_q = normalize(rng.normal(size=8))
        for source in ("a", "a\0", "b", "absent"):
            got = [c.gallery_id for c in index.query(z_q, k=4, exclude_source=source)]
            assert got == oracle_ranking(gallery, z_q, 4, exclude_source=source)
        assert len(index.query(z_q, k=4, exclude_source="absent")) == 4

    def test_all_excluded_raises(self, rng):
        index = build_index(gallery_from(unit_rows(rng, 5, 8), sources="only"))
        with pytest.raises(EmptyIndex):
            index.query(normalize(rng.normal(size=8)), k=1, exclude_source="only")

    def test_k_larger_than_gallery(self, rng):
        index = build_index(gallery_from(unit_rows(rng, 4, 8)))
        assert len(index.query(normalize(rng.normal(size=8)), k=100)) == 4

    def test_adding_entry_preserves_relative_order(self, rng):
        rows = unit_rows(rng, 40, 12)
        gallery = gallery_from(rows)
        z_q = normalize(rng.normal(size=12))
        before = [c.gallery_id for c in build_index(gallery).query(z_q, k=10)]
        grown = gallery_from(
            np.vstack([rows, unit_rows(rng, 1, 12)]),
            ids=[*gallery.ids, "zzz_new"],
            sources=[*gallery.source_ids, "new"],
        )
        after = [c.gallery_id for c in build_index(grown).query(z_q, k=10)]
        surviving = [gid for gid in after if gid != "zzz_new"]
        assert surviving == [gid for gid in before if gid in surviving]

    def test_dimension_mismatch(self, rng):
        index = build_index(gallery_from(unit_rows(rng, 5, 8)))
        with pytest.raises(DimensionMismatch):
            index.query(np.zeros(9), k=1)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_query_raises(self, rng, value):
        index = build_index(gallery_from(unit_rows(rng, 5, 8)))
        z_q = normalize(rng.normal(size=8))
        z_q[3] = value
        with pytest.raises(ValueError, match="not finite"):
            index.query(z_q, k=1)

    def test_scores_non_increasing(self, rng):
        index = build_index(gallery_from(unit_rows(rng, 100, 16)))
        result = index.query(normalize(rng.normal(size=16)), k=100)
        scores = [c.score for c in result]
        assert all(a >= b for a, b in zip(scores, scores[1:]))
        assert [c.rank for c in result] == list(range(1, 101))


class TestExactSearch:
    """The float32 scan with a float64 rescore against a float64 scan of every row."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_matches_einsum_scan(self, data):
        n = data.draw(st.integers(1, 40), label="n")
        d = data.draw(st.integers(1, 24), label="d")
        scale = 10.0 ** data.draw(st.integers(-20, 12), label="scale exponent")
        elements = st.floats(-1e3, 1e3, width=32)
        rows = data.draw(arrays(np.float32, (n, d), elements=elements), label="rows") * scale
        for target, original in data.draw(
            st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=n),
            label="copies",
        ):
            rows[target] = rows[original]
        ids = data.draw(st.lists(st.text(max_size=3), min_size=n, max_size=n, unique=True))
        sources = data.draw(st.lists(st.sampled_from("abc"), min_size=n, max_size=n))
        gallery = gallery_from(rows, ids=ids, sources=sources)
        index = build_index(gallery)

        if data.draw(st.booleans(), label="query is a row"):
            z_q = rows[data.draw(st.integers(0, n - 1))].astype(np.float64)
        else:
            z_q = data.draw(arrays(np.float64, d, elements=st.floats(-1e3, 1e3)), label="z_q")
        exclude = data.draw(st.sampled_from([None, "a", "b", "c", "absent"]), label="exclude")
        k = data.draw(st.integers(1, n + 3), label="k")
        if all(source == exclude for source in sources):
            with pytest.raises(EmptyIndex):
                index.query(z_q, k, exclude_source=exclude)
        else:
            assert_matches_einsum_scan(index, gallery, z_q, k, exclude)

    def test_near_ties_below_float32_resolution(self, rng):
        # Per query, 300 rows projected to score 0.5 before rounding to
        # float32: their float64 scores differ by less than a float32 ulp,
        # and float32 accumulation error reorders them, so that some of the
        # true top 5 score strictly below the float32 5th best.
        d, m, k = 512, 300, 5
        misordered = 0
        for _ in range(4):
            z_q = unit_rows(rng, 1, d)[0].astype(np.float64)
            spread = rng.normal(size=(m, d)) / np.sqrt(d)
            near = spread - np.outer(spread @ z_q - 0.5, z_q)
            rows = np.vstack([near, rng.normal(size=(200, d)) / np.sqrt(d)]).astype(np.float32)
            gallery = gallery_from(rows)
            index = build_index(gallery)

            want_ids, want_scores = einsum_top(gallery, z_q, k)
            assert np.ptp(want_scores) < np.spacing(np.float32(0.5))
            f32_scores = rows @ z_q.astype(np.float32)
            f32_kth = np.sort(f32_scores)[-k]
            misordered += (f32_scores[[int(gid[1:]) for gid in want_ids]] < f32_kth).any()
            assert_matches_einsum_scan(index, gallery, z_q, k)
        assert misordered

    def test_error_bound_covers_a_sequential_float32_sum(self):
        # Summed in row order, each 2**-25 added to 1 rounds away: a float32
        # error of 511 * 2**-25, far above the query's own rounding (u32).
        d = 512
        row = np.full(d, 2.0**-25, dtype=np.float32)
        row[0] = 1.0
        index = build_index(gallery_from(row[None, :]))
        z_q = np.ones(d)
        sequential = np.add.accumulate(row * z_q.astype(np.float32), dtype=np.float32)[-1]
        exact = np.einsum("j,j->", row, z_q, dtype=np.float64)
        error = abs(float(sequential) - exact)
        assert error == 511 * 2.0**-25
        assert error <= _score_error_bound(d, index.norm_bound, np.linalg.norm(z_q)) / 2

    @pytest.mark.parametrize("query_scale", [1e25, 1e39])
    def test_float32_overflow_ranks_every_row(self, rng, query_scale):
        # Scores near 1e40 overflow float32 (and a 1e39 query component does
        # itself), but not the float64 rescore.
        rows = unit_rows(rng, 50, 8) * np.float32(1e15)
        rows[10:20] = rows[0]
        gallery = gallery_from(rows)
        index = build_index(gallery)
        z_q = normalize(rng.normal(size=8)) * query_scale
        with np.errstate(over="ignore", invalid="ignore"):
            assert not np.isfinite(rows @ z_q.astype(np.float32)).all()
        assert_matches_einsum_scan(index, gallery, z_q, 5)

    @pytest.mark.parametrize("d", [7, 512, 900, 1000, 2880])
    def test_scores_are_bit_equal_to_full_scan(self, rng, d):
        n = 600
        rows = rng.normal(size=(n, d)) * rng.uniform(0.5, 2.0, size=(n, 1))
        rows[rng.choice(n, 40, replace=False)] = rows[rng.choice(n, 40)]  # exact copies
        sources = [f"s{i % 7}" for i in range(n)]
        gallery = gallery_from(rows.astype(np.float32), sources=sources)
        index = build_index(gallery)
        for _ in range(10):
            row = int(rng.integers(n))
            z_q = gallery.vectors[row].astype(np.float64) + rng.normal(scale=1e-3, size=d)
            assert_matches_einsum_scan(index, gallery, z_q, 10, exclude_source=sources[row])

    def test_same_bits_at_any_blas_thread_count(self):
        code = (
            "import numpy as np\n"
            "from audiomatch import Gallery, build_index\n"
            "rng = np.random.default_rng(7)\n"
            "rows = rng.normal(size=(40000, 96)).astype(np.float32)\n"
            "rows[rng.choice(40000, 400)] = rows[rng.choice(40000, 400)]\n"
            "sources = [f's{i // 100}' for i in range(40000)]\n"
            "index = build_index(Gallery([f'v{i:05d}' for i in range(40000)], sources,\n"
            "                            np.zeros(40000), rows))\n"
            "for row in rng.choice(40000, 12):\n"
            "    hits = index.query(rows[row].astype(np.float64), 10, sources[row])\n"
            "    print(' '.join(f'{c.gallery_id}={c.score.hex()}' for c in hits))\n"
        )
        env = dict(os.environ)
        src = str(Path(audiomatch.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        outputs = []
        for threads in ("1", "2"):
            env["OPENBLAS_NUM_THREADS"] = env["OMP_NUM_THREADS"] = threads
            result = subprocess.run(
                [sys.executable, "-c", code], env=env, capture_output=True, text=True,
                check=True, timeout=120,
            )
            outputs.append(result.stdout)
        assert outputs[0] == outputs[1]
        assert len(outputs[0].splitlines()) == 12


class TestFeatureFile:
    def test_round_trip_bit_exact(self, tmp_path, rng):
        rows = unit_rows(rng, 20, 64).astype(np.float32)
        gallery = gallery_from(
            rows,
            ids=[f"clip-{i}@{i}.000" for i in range(20)],
            sources=[f"clip-{i}" for i in range(20)],
        )
        path = tmp_path / "gallery.amcf"
        write_features(path, gallery)
        loaded = read_features(path)
        assert len(loaded) == len(gallery)
        assert loaded.ids == gallery.ids
        assert loaded.source_ids == gallery.source_ids
        assert np.array_equal(loaded.offsets, gallery.offsets.astype(np.float32))
        assert np.array_equal(loaded.vectors, rows)

        path2 = tmp_path / "again.amcf"
        write_features(path2, loaded)
        assert path.read_bytes() == path2.read_bytes()

    def test_rejects_garbage_and_truncation(self, tmp_path, rng):
        path = tmp_path / "g.amcf"
        write_features(path, gallery_from(unit_rows(rng, 3, 8), ids=["a", "b", "c"]))
        good = path.read_bytes()
        corrupt = {
            "bad": b"nope",
            "trunc": good[:-5],
            "version": good[:4] + struct.pack("<I", 2) + good[8:],
            "utf8": good.replace(b"\x01\x00a", b"\x01\x00\xff"),
            "trailing": good + b"\x00",
        }
        for name, data in corrupt.items():
            (tmp_path / f"{name}.amcf").write_bytes(data)
            with pytest.raises(IoError):
                read_features(tmp_path / f"{name}.amcf")

    @pytest.mark.parametrize("d", [1, 7, 512])
    @pytest.mark.parametrize(
        "ids",
        [
            ["", "\0", "x", "\0\0"],  # write_features refuses a repeated id
            ["a\0b", "\0", "é", "日本語@1.000", "\U0001f3b5\0"],
            ["x", "y" * 300, "é" * 150, "z", "w" * 300, "v"],
        ],
        ids=["empty", "nul-non-ascii", "1-and-300-bytes"],
    )
    def test_reads_as_an_independent_parser(self, tmp_path, rng, ids, d):
        sources = [text[::-1] + "\0" * (i % 2) for i, text in enumerate(ids)]
        offsets = np.arange(len(ids)) * 0.25 + 1e-3
        rows = unit_rows(rng, len(ids), d)
        gallery = gallery_from(rows, ids=ids, sources=sources, offsets=offsets)
        path = tmp_path / "g.amcf"
        write_features(path, gallery)
        loaded = read_features(path)
        assert_reads_as_oracle(loaded, path.read_bytes())
        assert loaded.vectors.tobytes() == gallery.vectors.tobytes()

    def test_read_peak_memory_is_about_one_file(self, tmp_path, rng):
        path = tmp_path / "g.amcf"
        write_features(path, gallery_from(unit_rows(rng, 2000, 512)))
        tracemalloc.start()
        try:
            loaded = read_features(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(loaded) == 2000
        assert peak < 1.2 * path.stat().st_size

    @pytest.mark.parametrize("appended", [b"", b"\0junk"], ids=["whole", "trailing"])
    def test_reads_past_a_stale_size(self, tmp_path, rng, monkeypatch, appended):
        # The file grew after its size was taken: fstat reports 10 bytes too few.
        path = tmp_path / "g.amcf"
        write_features(path, gallery_from(unit_rows(rng, 3, 8)))
        good = path.read_bytes()
        path.write_bytes(good + appended)
        monkeypatch.setattr(os, "fstat", lambda fd: SimpleNamespace(st_size=len(good) - 10))
        if appended:
            with pytest.raises(IoError, match="5 trailing bytes"):
                read_features(path)
        else:
            assert_reads_as_oracle(read_features(path), good)

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_reads_a_pipe(self, tmp_path, rng):
        path = tmp_path / "g.amcf"
        write_features(path, gallery_from(unit_rows(rng, 3, 8)))
        good = path.read_bytes()  # smaller than a pipe's buffer, so the writer never blocks
        pipe = tmp_path / "pipe"
        os.mkfifo(pipe)
        writer = threading.Thread(target=pipe.write_bytes, args=(good,))
        writer.start()
        try:
            assert_reads_as_oracle(read_features(pipe), good)
        finally:
            writer.join(timeout=10)

    def test_writer_bytes_match_golden_digest(self, tmp_path):
        gallery = golden_gallery()
        path = tmp_path / "golden.amcf"
        write_features(path, gallery)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == _GOLDEN_SHA256
        # A column-major matrix is written as the same rows.
        columns = Gallery(gallery.ids, gallery.source_ids, gallery.offsets,
                          np.asfortranarray(gallery.vectors))
        write_features(path, columns)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == _GOLDEN_SHA256

    def test_every_prefix_raises_io_error(self, three_row_file):
        good, _, path = three_row_file
        for cut in range(len(good)):
            path.write_bytes(good[:cut])
            with pytest.raises(IoError):
                read_features(path)
        path.write_bytes(good)
        assert_reads_as_oracle(read_features(path), good)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_mutated_file_reads_or_raises_io_error(self, three_row_file, data):
        good, fields, path = three_row_file
        whole = st.just(len(good))  # each mutation is skipped about half the time
        raw = bytearray(good[: data.draw(st.one_of(whole, st.integers(0, len(good))), label="cut")])
        for _ in range(data.draw(st.integers(0, 2), label="overwrites")):
            start = data.draw(st.one_of(st.integers(0, len(raw)), st.sampled_from(fields)))
            patch = data.draw(st.binary(min_size=1, max_size=12), label="patch")
            raw[start : start + len(patch)] = patch
        raw += data.draw(st.one_of(st.just(b""), st.binary(max_size=8)), label="appended")
        path.write_bytes(raw)
        try:  # any exception but IoError escapes and fails the test
            gallery = read_features(path)
        except IoError:
            gallery = None
        try:
            oracle = parse_amcf(bytes(raw))
        except (struct.error, ValueError):
            oracle = None
        assert (gallery is None) == (oracle is None)
        if gallery is not None:
            assert_reads_as_oracle(gallery, bytes(raw))

    def test_huge_header_count_fails_before_allocating(self, tmp_path):
        path = tmp_path / "huge.amcf"
        path.write_bytes(b"AMCF" + struct.pack("<IIQ", 1, 512, 2**40))
        tracemalloc.start()
        try:
            with pytest.raises(IoError):
                read_features(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("column", ["ids", "sources"])
    def test_overlong_text_raises_before_writing(self, tmp_path, rng, column):
        long_text = "x" * 70_000
        texts = {"ids": ["a", "b"], "sources": ["s", "s"]}
        texts[column] = ["a", long_text]
        path = tmp_path / "long.amcf"
        with pytest.raises(IoError):
            write_features(path, gallery_from(unit_rows(rng, 2, 8), **texts))
        assert not path.exists()

    @pytest.mark.parametrize("offset", [1e39, np.inf, np.nan])
    def test_offset_outside_float32_raises_before_writing(self, tmp_path, rng, offset):
        path = tmp_path / "offset.amcf"
        with pytest.raises(IoError):
            write_features(path, gallery_from(unit_rows(rng, 2, 8), offsets=[0.0, offset]))
        assert not path.exists()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 3e19])
    def test_non_finite_row_raises_before_writing(self, tmp_path, rng, bad):
        # 3e19 is a finite float32 whose square overflows: build_index rejects it too.
        rows = unit_rows(rng, 3, 8)
        rows[1, 4] = bad
        path = tmp_path / "bad.amcf"
        with pytest.raises(IoError, match="row 'v00001' is not finite"):
            write_features(path, gallery_from(rows))
        assert not path.exists()
        with pytest.raises(ValueError, match="row 'v00001' is not finite"):
            build_index(gallery_from(rows))

    @pytest.mark.parametrize("writer", ["features", "checkpoint", "audio", "labels"])
    def test_failed_write_keeps_existing_file(self, tmp_path, rng, monkeypatch, writer):
        # tone_family_set writes its WAVs, then labels.jsonl beside them.
        path = tmp_path / ("labels.jsonl" if writer == "labels" else "out.bin")
        path.write_bytes(b"an older file")
        real_replace = os.replace

        def refuse(src, dst):
            if Path(dst) == path:
                raise OSError("no space left on device")
            return real_replace(src, dst)

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(IoError) as raised:
            if writer == "features":
                write_features(path, gallery_from(unit_rows(rng, 2, 8)))
            elif writer == "checkpoint":
                ProjectionHead.initialize(4, d=3).save(path)
            elif writer == "audio":
                write_audio(AudioClip(np.zeros(10), 48000), path)
            else:
                tone_family_set(tmp_path, n_families=1, clip_seconds=1.0)
        assert str(raised.value) == f"cannot write {path}: no space left on device"
        assert path.read_bytes() == b"an older file"
        assert [p.name for p in tmp_path.iterdir() if p.suffix != ".wav"] == [path.name]

    def test_refuses_empty(self, tmp_path):
        with pytest.raises(EmptyIndex):
            write_features(tmp_path / "empty.amcf", gallery_from(np.empty((0, 8))))

    def test_repeated_id_raises_before_writing(self, tmp_path, rng):
        # Neither read could use such a file: build_index and open_features reject it.
        path = tmp_path / "repeated.amcf"
        with pytest.raises(DuplicateId, match="duplicate gallery id 'v'"):
            write_features(path, gallery_from(unit_rows(rng, 3, 8), ids=["v", "w", "v"]))
        assert not path.exists()


def amcf_bytes(ids, sources, offsets, rows):
    """AMCF v1 bytes written field by field, with no check of the rows."""
    rows = np.asarray(rows, dtype="<f4")
    body = b"".join(
        struct.pack("<H", len(i.encode())) + i.encode() + struct.pack("<H", len(s.encode()))
        + s.encode() + struct.pack("<f", offset) + row.tobytes()
        for i, s, offset, row in zip(ids, sources, offsets, rows)
    )
    return b"AMCF" + struct.pack("<IIQ", 1, rows.shape[1], len(rows)) + body


def ranked(index, z_q, k, exclude_source):
    """The query's ids, score bits, sources and offsets, or the error it raised."""
    try:
        candidates = index.query(z_q, k, exclude_source=exclude_source, query_id="q")
    except AudioMatchError as exc:
        return type(exc), str(exc)
    return [
        (c.rank, c.gallery_id, c.query_id, struct.pack("<d", c.score),
         index.source_of(c.gallery_id), float(index.offsets[index.row_of(c.gallery_id)]))
        for c in candidates
    ]


def streamed(path, z_q, k, exclude_source, span_bytes, head_bytes=retrieval._HEAD_BYTES):
    """:func:`ranked` for ``open_features(path).query`` in spans of ``span_bytes``,
    its first pass reading ``head_bytes`` before each vector."""
    with mock.patch.object(retrieval, "SPAN_BYTES", span_bytes), \
            mock.patch.object(retrieval, "_HEAD_BYTES", head_bytes):
        try:
            features = open_features(path)
        except AudioMatchError as exc:
            return type(exc), str(exc)
        # A file of at most one span is read whole.
        assert isinstance(features, FeatureFile) == (path.stat().st_size > span_bytes)
        return ranked(features, z_q, k, exclude_source)


def whole(path, z_q, k, exclude_source):
    """:func:`ranked` for the whole file read and indexed."""
    try:
        index = build_index(read_features(path))
    except AudioMatchError as exc:
        return type(exc), str(exc)
    return ranked(index, z_q, k, exclude_source)


@pytest.fixture(scope="module")
def amcf_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("streamed")


class TestLookups:
    """A Gallery, its GalleryIndex and a FeatureFile share one implementation of each lookup."""

    def test_one_implementation(self):
        for name in ("__len__", "_id_order", "__contains__", "row_of", "source_of"):
            assert vars(retrieval._Rows)[name] is getattr(Gallery, name)
            assert getattr(Gallery, name) is getattr(GalleryIndex, name)
            assert getattr(Gallery, name) is getattr(FeatureFile, name)
        for name in ("d", "vector"):
            assert vars(Gallery)[name] is getattr(GalleryIndex, name)

    def test_same_answers_for_the_same_rows(self, tmp_path, rng, monkeypatch):
        monkeypatch.setattr(retrieval, "SPAN_BYTES", 1)  # open_features streams any file
        ids, sources = ["b", "a", "é", "a\0", "", "z"], ["s", "t", "s", "u", "t", "s"]
        rows = unit_rows(rng, len(ids), 8)
        path = tmp_path / "g.amcf"
        write_features(path, gallery_from(rows, ids=ids, sources=sources))
        views = [read_features(path), build_index(read_features(path)), open_features(path)]
        assert [type(view) for view in views] == [Gallery, GalleryIndex, FeatureFile]
        for view in views:
            assert len(view) == len(ids) and view.d == 8
            for row, entry_id in enumerate(ids):
                assert view.row_of(entry_id) == row
                assert entry_id in view and view.source_of(entry_id) == sources[row]
                assert view.vector(entry_id).tobytes() == rows[row].tobytes()
                assert view.offsets[view.row_of(entry_id)] == row
            assert "absent" not in view and "a\0\0" not in view
            assert None not in view and 5 not in view and b"a" not in view
            for lookup in (view.row_of, view.source_of):
                with pytest.raises(KeyError):
                    lookup("absent")

    @pytest.mark.parametrize("ids, error, message", [
        ([], EmptyIndex, "cannot build an index from zero vectors"),
        (["x", "y", "x", "y"], DuplicateId, "duplicate gallery id 'x'"),
    ])
    def test_same_errors(self, tmp_path, monkeypatch, ids, error, message):
        monkeypatch.setattr(retrieval, "SPAN_BYTES", 1)
        path = tmp_path / "bad.amcf"
        path.write_bytes(amcf_bytes(ids, ["s"] * len(ids), range(len(ids)), np.eye(len(ids), 4)))
        gallery = read_features(path)
        for lookup in (lambda: gallery.row_of("x"), lambda: "x" in gallery,
                       lambda: gallery.source_of("x"), lambda: build_index(gallery),
                       lambda: open_features(path)):
            with pytest.raises(error) as raised:
                lookup()
            assert str(raised.value) == message


def lookups_or_error(view, probes):
    """Each probe's (row, in, source) or KeyError, or the error the lookups raise."""
    answers = []
    for entry_id in probes:
        try:
            answers.append((view.row_of(entry_id), entry_id in view, view.source_of(entry_id)))
        except KeyError:
            answers.append((KeyError, entry_id in view))
        except AudioMatchError as exc:
            return type(exc), str(exc)
    return answers


def dict_model(ids, sources, probes):
    """:func:`lookups_or_error` from a dict of ids, with the error a dict-based lookup raised."""
    if not ids:
        return EmptyIndex, "cannot build an index from zero vectors"
    row_of = {entry_id: row for row, entry_id in enumerate(ids)}
    if len(row_of) != len(ids):
        duplicate = next(i for row, i in enumerate(ids) if row_of[i] != row)
        return DuplicateId, f"duplicate gallery id {duplicate!r}"
    return [(row_of[i], True, sources[row_of[i]]) if i in row_of else (KeyError, False)
            for i in probes]


class TestIdOrder:
    """row_of bisects one stable argsort of the ids: a dict's answers at a row's cost of one intp."""

    texts = st.text(alphabet=st.sampled_from("ab\0é日"), max_size=3)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_answers_and_errors_equal_a_dict(self, data):
        ids = data.draw(st.lists(self.texts, max_size=12), label="ids")
        if ids and data.draw(st.booleans(), label="repeat some"):
            ids += data.draw(st.lists(st.sampled_from(ids), min_size=1, max_size=4), label="repeats")
            ids = data.draw(st.permutations(ids), label="order")
        sources = [f"s{len(entry_id)}" for entry_id in ids]
        probes = ids + data.draw(st.lists(self.texts, max_size=6), label="probes") + ["x"]
        gallery = Gallery(ids, sources, np.zeros(len(ids)), np.ones((len(ids), 2)))
        expected = dict_model(ids, sources, probes)
        assert lookups_or_error(gallery, probes) == expected
        if isinstance(expected, tuple):
            with pytest.raises(expected[0]) as raised:
                build_index(gallery)
            assert str(raised.value) == expected[1]
        else:
            index = build_index(gallery)
            assert lookups_or_error(index, probes) == expected
            assert index.id_ranks.dtype == np.intp
            assert index.id_ranks.tolist() == np.argsort(
                sorted(range(len(ids)), key=ids.__getitem__)).tolist()

    def test_rows_of_one_source_share_one_str(self, tmp_path, rng, monkeypatch):
        monkeypatch.setattr(retrieval, "SPAN_BYTES", 1)  # open_features streams any file
        sources = ["a", "bb", "a", "a\0", "bb", "é", "a"]
        ids = [f"{source}@{row}" for row, source in enumerate(sources)]
        path = tmp_path / "g.amcf"
        write_features(path, gallery_from(unit_rows(rng, len(ids), 4), ids=ids, sources=sources))
        for view in (read_features(path), open_features(path)):
            assert list(view.source_ids) == sources
            first = {}
            for source in view.source_ids:
                assert first.setdefault(source, source) is source
            assert len(first) == 4

    def test_bytes_per_row(self, tmp_path):
        # 20k rows of d=8, 10 frames per source.  With an id -> row dict, a
        # str per row's source and a second sort for id_ranks, the index held
        # 267 bytes per row and peaked at 272.
        n, d = 20_000, 8
        rows = np.zeros((n, d), dtype=np.float32)
        rows[:, 0] = 1
        sources = [f"s{row // 10:05d}" for row in range(n)]
        path = tmp_path / "g.amcf"
        write_features(path, Gallery([f"{source}@{row % 10}.000" for row, source in
                                      enumerate(sources)], sources, np.arange(n) % 10, rows))
        del rows, sources
        build_index(read_features(path)).source_of("s00000@0.000")  # first-call caches
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            index = build_index(read_features(path))
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(index) == n
        assert (held - before) / n < 220
        assert (peak - before) / n < 220


class TestStreamedQuery:
    """open_features on a regular file: one pass over the ids, then spans of vectors."""

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_equals_the_whole_file_query(self, amcf_dir, data):
        n = data.draw(st.integers(1, 30), label="n")
        d = data.draw(st.one_of(st.integers(1, 12), st.sampled_from([511, 900])), label="d")
        scale = 10.0 ** data.draw(st.integers(-20, 12), label="scale exponent")
        elements = st.floats(-1e3, 1e3, width=32)
        rows = data.draw(arrays(np.float32, (n, d), elements=elements), label="rows") * scale
        for target, original in data.draw(
            st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=n),
            label="copies",
        ):
            rows[target] = rows[original]
        # Texts of up to 900 bytes, past what the first pass reads before a vector.
        texts = st.builds(
            lambda text, repeat: text * repeat,
            st.text(alphabet=st.sampled_from("ab\0é日"), max_size=3), st.sampled_from([1, 100]),
        )
        ids = data.draw(st.lists(texts, min_size=n, max_size=n, unique=True), label="ids")
        names = ["a", "a\0", "é", "é" * 150]
        sources = data.draw(st.lists(st.sampled_from(names), min_size=n, max_size=n))
        offsets = data.draw(st.lists(st.floats(0, 1e4, width=32), min_size=n, max_size=n))
        if data.draw(st.booleans(), label="query is a row"):
            z_q = rows[data.draw(st.integers(0, n - 1))].astype(np.float64)
        else:
            z_q = data.draw(arrays(np.float64, d, elements=st.floats(-1e3, 1e3)), label="z_q")
        z_q = z_q * data.draw(st.sampled_from([1.0, 1e25]), label="query scale")
        if data.draw(st.integers(0, 9), label="bad row") == 0:  # NaN or a squared-norm overflow
            rows[data.draw(st.integers(0, n - 1))] = data.draw(st.sampled_from([np.nan, 3e19]))
        path = amcf_dir / "g.amcf"
        path.write_bytes(amcf_bytes(ids, sources, offsets, rows))
        k = data.draw(st.integers(1, n + 3), label="k")
        head_bytes = data.draw(st.sampled_from([2, 9, retrieval._HEAD_BYTES]), label="head bytes")
        row_bytes = len(path.read_bytes()) // n
        for exclude in (None, data.draw(st.sampled_from([*names, "absent"]))):
            expected = whole(path, z_q, k, exclude)
            for span_bytes in (1, 3 * row_bytes, 1 << 30):  # a row, a few rows, the file
                assert streamed(path, z_q, k, exclude, span_bytes, head_bytes) == expected

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_a_mutated_file_fails_as_the_whole_file_read_does(self, three_row_file, data):
        good, fields, path = three_row_file
        whole_file = st.just(len(good))  # each mutation is skipped about half the time
        raw = bytearray(good[: data.draw(st.one_of(whole_file, st.integers(0, len(good))))])
        for _ in range(data.draw(st.integers(0, 2), label="overwrites")):
            start = data.draw(st.one_of(st.integers(0, len(raw)), st.sampled_from(fields)))
            patch = data.draw(st.binary(min_size=1, max_size=12), label="patch")
            raw[start : start + len(patch)] = patch
        raw += data.draw(st.one_of(st.just(b""), st.binary(max_size=8)), label="appended")
        path.write_bytes(raw)
        z_q = np.ones(4)
        expected = whole(path, z_q, 3, None)
        # The fixture's texts fit in 256 bytes: 2 and 7 make the first pass read again.
        head_bytes = data.draw(st.sampled_from([2, 7, retrieval._HEAD_BYTES]), label="head bytes")
        for span_bytes in (1, 1 << 30):
            assert streamed(path, z_q, 3, None, span_bytes, head_bytes) == expected

    def test_texts_at_the_edge_of_the_first_read(self, tmp_path):
        # A row's bytes before its vector are 8 plus its texts.  These end at
        # _HEAD_BYTES and one past it, and the id's source length does too.
        edge = retrieval._HEAD_BYTES
        lengths = [(10, edge - 18), (10, edge - 17), (edge - 4, 1), (edge - 3, 1), (edge - 5, 0)]
        ids = [chr(ord("a") + row) * id_bytes for row, (id_bytes, _) in enumerate(lengths)]
        sources = ["s" * source_bytes for _, source_bytes in lengths]
        rows = np.arange(1.0, 1.0 + 3 * len(ids)).reshape(-1, 3)
        path = tmp_path / "edge.amcf"
        path.write_bytes(amcf_bytes(ids, sources, range(len(ids)), rows))
        for z_q in (np.ones(3), -np.ones(3)):
            assert streamed(path, z_q, 9, None, 1) == whole(path, z_q, 9, None)

    def test_spans_cover_every_row_once(self, tmp_path, rng, monkeypatch):
        # 20 rows of 2 sources read in spans of about 3 rows: every row is read,
        # ranked and reported as the whole-file query reports it.
        path = tmp_path / "g.amcf"
        sources = ["s", "t"] * 10
        write_features(path, gallery_from(unit_rows(rng, 20, 16), sources=sources))
        monkeypatch.setattr(retrieval, "SPAN_BYTES", 3 * 100)
        reads = []
        read = retrieval.read_features

        def counted(*args, **kwargs):
            reads.append(len(kwargs["span"]))
            return read(*args, **kwargs)

        features = open_features(path)
        monkeypatch.setattr(retrieval, "read_features", counted)
        z_q = features.vector("v00003").astype(np.float64)
        assert ranked(features, z_q, 25, None) == whole(path, z_q, 25, None)
        assert reads[0] == 1 and sum(reads[1:]) == 20 and max(reads[1:]) <= 4

    @pytest.mark.parametrize("exclude_source", [None, "s"])
    def test_holds_one_span_at_a_time(self, tmp_path, rng, monkeypatch, exclude_source):
        # Spans of about 3 of 20 rows; the first 7 rows are source "s", so with it
        # excluded the first spans raise EmptyIndex inside the query.
        path = tmp_path / "g.amcf"
        write_features(path, gallery_from(unit_rows(rng, 20, 16), sources=["s"] * 7 + ["t"] * 13))
        monkeypatch.setattr(retrieval, "SPAN_BYTES", 3 * 100)
        features = open_features(path)
        read = retrieval.read_features
        matrices, alive = [], []

        def tracked(*args, **kwargs):
            alive.append(any(matrix() is not None for matrix in matrices))
            gallery = read(*args, **kwargs)
            matrices.append(weakref.ref(gallery.vectors.base))  # the matrix it views
            return gallery

        monkeypatch.setattr(retrieval, "read_features", tracked)
        features.query(np.ones(16), 5, exclude_source=exclude_source)
        assert len(alive) > 3 and not any(alive)

    def test_a_file_replaced_between_passes_fails(self, tmp_path, rng, monkeypatch):
        monkeypatch.setattr(retrieval, "SPAN_BYTES", 1)
        path = tmp_path / "g.amcf"
        write_features(path, gallery_from(unit_rows(rng, 3, 8)))
        features = open_features(path)
        write_features(path, gallery_from(unit_rows(rng, 3, 8)))  # a new file, renamed in
        with pytest.raises(IoError, match="changed while it was read"):
            features.query(np.ones(8), 2)

    def test_a_failed_read_in_the_first_pass_is_an_io_error(self, tmp_path, rng, monkeypatch):
        monkeypatch.setattr(retrieval, "SPAN_BYTES", 1)
        path = tmp_path / "g.amcf"
        write_features(path, gallery_from(unit_rows(rng, 3, 8)))

        def fail(*args):
            raise OSError(errno.EIO, os.strerror(errno.EIO))

        monkeypatch.setattr(os, "pread", fail)
        with pytest.raises(IoError) as raised:
            open_features(path)
        assert str(raised.value) == f"cannot read feature file {path}: [Errno 5] {os.strerror(5)}"

    @pytest.mark.parametrize("fault", ["error", "short"])
    def test_a_failed_span_read_is_an_io_error(self, tmp_path, rng, monkeypatch, fault):
        monkeypatch.setattr(retrieval, "SPAN_BYTES", 1)
        path = tmp_path / "g.amcf"
        write_features(path, gallery_from(unit_rows(rng, 3, 8)))
        features = open_features(path)
        preadv = os.preadv

        def faulty(fd, buffers, offset):
            if fault == "error":
                raise OSError(errno.EIO, os.strerror(errno.EIO))
            return preadv(fd, buffers, offset) - 1  # as if the file had shrunk

        monkeypatch.setattr(os, "preadv", faulty)
        with pytest.raises(IoError) as raised:
            features.query(np.ones(8), 2)
        assert str(raised.value) == (
            f"cannot read feature file {path}: [Errno 5] {os.strerror(5)}" if fault == "error"
            else f"truncated or corrupt feature file {path}"
        )

    @pytest.mark.parametrize("value", [np.nan, 3e19])
    def test_a_bad_query_row_fails_as_build_index_does(self, tmp_path, value, monkeypatch):
        monkeypatch.setattr(retrieval, "SPAN_BYTES", 1)
        rows = np.eye(3, 4, dtype=np.float32)
        rows[1, 2] = value
        path = tmp_path / "bad.amcf"
        path.write_bytes(amcf_bytes(["x", "y", "z"], ["s", "t", "u"], [0, 0, 0], rows))
        with pytest.raises(InvalidValue) as expected:
            build_index(read_features(path))
        with pytest.raises(InvalidValue) as got:
            open_features(path).vector("y")
        assert str(got.value) == str(expected.value)

    def test_memory_is_one_span_plus_the_id_column(self, tmp_path, rng, monkeypatch):
        # The whole-file read holds the file: 8.3 and 33 MB here.  Beside one span
        # and the columns a query holds the span's index and the scan's lists.
        monkeypatch.setattr(retrieval, "SPAN_BYTES", 2 << 20)  # both files span several
        peaks, columns = [], []
        for n in (4000, 16000):
            path = tmp_path / f"g{n}.amcf"
            write_features(path, gallery_from(unit_rows(rng, n, 512)))
            tracemalloc.start()
            try:
                features = open_features(path)
                columns.append(tracemalloc.get_traced_memory()[0])
                features.query(features.vector("v00001").astype(np.float64), 10)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            del features
        for peak, held in zip(peaks, columns):
            assert peak < 2 * held + retrieval.SPAN_BYTES + (2 << 20)
        assert peaks[1] - peaks[0] < 2 * (columns[1] - columns[0]) + (512 << 10)


class LazyFrames:
    """``n`` frames, each made by ``make(index)`` when indexed; ``drawn`` logs the indices."""

    def __init__(self, n, make):
        self.n, self.make, self.drawn = n, make, []

    def __len__(self):
        return self.n

    def __getitem__(self, index):
        self.drawn.append(index)
        return self.make(index)


class TestBatchFeaturize:
    """A block of frames through featurize_clip."""

    def test_deterministic(self, tone_clip):
        samples = tone_clip().samples
        first, second = featurize_clip(np.stack([samples, samples]))
        assert np.array_equal(first, second)

    def test_silence_vs_tone_distinguishable(self, tone_clip):
        vectors = featurize_clip(np.stack([np.zeros(48000), tone_clip(freq=440.0).samples]))
        cosine = float(np.dot(*vectors.astype(np.float64)))
        assert cosine < 0.99

    def test_steady_tone_cuts_match(self, tone_clip):
        long_tone = tone_clip(freq=440.0, seconds=3.0).samples
        vectors = featurize_clip(long_tone[:96000].reshape(2, 48000)).astype(np.float64)
        cosine = float(np.dot(vectors[0], vectors[1]))
        assert cosine > 0.99

    def test_head_changes_vectors(self, tone_clip):
        block = tone_clip().samples[None]
        without = featurize_clip(block)[0]
        head = ProjectionHead.initialize(len(without), d=32, seed=0)
        with_head = featurize_clip(block, head=head)[0]
        assert with_head.shape == (32,)
        assert not np.array_equal(without[:32], with_head)

    def test_mfcc_kind(self, tone_clip):
        vector = featurize_clip(tone_clip().samples[None], kind=FeatureKind.MFCC)[0]
        assert vector.shape == (20 * 45,)
        assert np.linalg.norm(vector) == pytest.approx(1.0, abs=1e-6)

    def test_clips_must_share_length(self, tone_clip):
        frames = [tone_clip().samples, tone_clip(seconds=1.5).samples]
        with pytest.raises(ValueError):
            featurize_clip(frames)

    def test_normalize_rows_equal_one_vector_at_a_time(self, rng):
        # Oracle: each vector divided by np.linalg.norm of it alone, bit for bit.
        rows = rng.normal(size=(16, 2880)) * rng.uniform(0.1, 50.0, size=(16, 1))
        rows[3] = 0.0
        expected = [row / np.linalg.norm(row) if row.any() else np.eye(1, 2880)[0] for row in rows]
        assert np.array_equal(normalize(rows), expected)
        assert np.array_equal(normalize(rows[5]), expected[5])

    def test_ids_follow_frame_convention(self):
        assert frame_id("movie", 3.0) == "movie@3.000"


class TestBaseFeatures:
    """base_features against flatten of the whole block's spectrogram, and its peak memory."""

    @pytest.mark.parametrize("m", [1, 3, 4, 5, 16, 17])
    @pytest.mark.parametrize("kind, spectrogram",
                             [(FeatureKind.MEL, mel_spectrogram), (FeatureKind.MFCC, mfcc)])
    def test_equals_the_whole_block_bit_for_bit(self, rng, m, kind, spectrogram):
        # With groups of 4, m of 1 and 3 fill no group, 4 and 16 end on a
        # group boundary, and 5 and 17 leave a one-frame group.
        frames = rng.uniform(-0.5, 0.5, size=(m, 48000)) * rng.uniform(0.01, 1.0, size=(m, 1))
        got = retrieval.base_features(frames, kind)
        expected = flatten(spectrogram(frames)).values
        assert got.shape == expected.shape == (m, (64 if kind is FeatureKind.MEL else 20) * 45)
        assert got.dtype == expected.dtype
        assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("kind", list(FeatureKind))
    @pytest.mark.parametrize("head", [None, "head"])
    def test_a_block_of_no_frames_is_an_invalid_value(self, kind, head):
        head = ProjectionHead.initialize(flatten(mel_spectrogram(np.zeros((1, 48000)))).values.shape[1]
                                         if kind is FeatureKind.MEL else 20 * 45, 4) if head else None
        for call in (lambda: retrieval.base_features(np.zeros((0, 48000)), kind),
                     lambda: featurize_clip(np.zeros((0, 48000)), head, kind)):
            with pytest.raises(InvalidValue, match="no frames to featurize"):
                call()

    @pytest.mark.parametrize("group", [1, 3, 16, 32])
    def test_any_group_size_gives_the_same_bits(self, rng, monkeypatch, group):
        frames = rng.uniform(-0.5, 0.5, size=(17, 48000))
        expected = retrieval.base_features(frames)
        monkeypatch.setattr(retrieval, "SPECTROGRAM_FRAMES", group)
        assert retrieval.base_features(frames).tobytes() == expected.tobytes()

    @staticmethod
    def peaks_above_the_result(monkeypatch, kind, workers):
        """featurize_clip's bound on ``workers`` threads and its peaks beyond the result.

        Over a lazy sequence, each thread holds one group of samples, its
        spectra and one block of base features, the same at 64 frames as at
        256 (24.6 and 98.3 MB of samples).
        """
        monkeypatch.setattr(retrieval, "_workers", lambda: workers)
        group, d_base = retrieval.SPECTROGRAM_FRAMES, (64 if kind is FeatureKind.MEL else 20) * 45
        bound = workers * (
            group * 48000 * 8  # the group's samples
            + group * 45 * PADDED_BINS * 8  # its power spectrum
            + 45 * (2048 * 8 + PADDED_BINS * 16)  # one frame's windows and complex spectrum
            + retrieval.CHUNK_FRAMES * d_base * 8  # the block's base features
        ) + (384 << 10)

        def make(index):
            return np.random.default_rng(index).uniform(-0.5, 0.5, 48000)

        peaks = []
        for head in (None, ProjectionHead.initialize(d_base, d=512, seed=0)):
            featurize_clip(LazyFrames(1, make), head, kind)  # first-call caches
            above = []
            for n in (64, 256):
                tracemalloc.start()
                try:
                    result = featurize_clip(LazyFrames(n, make), head, kind)
                    above.append(tracemalloc.get_traced_memory()[1] - result.nbytes)
                finally:
                    tracemalloc.stop()
            peaks.append(above)
        return bound, peaks

    @pytest.mark.parametrize("kind", list(FeatureKind))
    def test_block_peak_memory_is_below_one_block_power_spectrum(self, monkeypatch, kind):
        # The whole block's (16, 45, 1056) float64 power spectrum alone is 6.08 MB.
        block_power = retrieval.CHUNK_FRAMES * 45 * PADDED_BINS * 8
        assert block_power == 6_082_560
        bound, peaks = self.peaks_above_the_result(monkeypatch, kind, workers=1)
        assert bound < block_power
        for above in peaks:
            assert max(above) < bound
            assert abs(above[1] - above[0]) < 64 << 10

    @pytest.mark.parametrize("kind", list(FeatureKind))
    def test_two_workers_peak_below_one_block_power_spectrum(self, monkeypatch, kind):
        bound, peaks = self.peaks_above_the_result(monkeypatch, kind, workers=2)
        assert bound < retrieval.CHUNK_FRAMES * 45 * PADDED_BINS * 8
        for above in peaks:
            assert max(above) < bound
            # A thread's Hann multiply over the strided window view holds
            # 128 KiB of ufunc buffers; whether both threads hold them at the
            # peak varies from run to run.  A frame held on would be 375 KiB.
            assert abs(above[1] - above[0]) < (64 << 10) + (128 << 10)


_BLAS_FUNCTIONS = retrieval._blas_thread_functions()
_needs_blas_functions = pytest.mark.skipif(
    _BLAS_FUNCTIONS is None, reason="numpy's BLAS thread functions were not found")

# Run in a child process: the float64 embeddings featurize_clip's head makes of
# 40 random one-second frames (MFCC, d_base 900, into d 250), as sorted digests,
# since threads finish their blocks in any order.
_HEAD_DIGESTS = """
import hashlib
import numpy as np
from audiomatch import ProjectionHead, embedding, retrieval
from audiomatch.dsp import FeatureKind
digests = []
def capturing(head, rows):
    z = embedding.embed(head, rows)
    digests.append(hashlib.sha256(z.tobytes()).hexdigest())
    return z
retrieval.embed = capturing
frames = np.random.default_rng(7).uniform(-0.5, 0.5, (40, 48000))
head = ProjectionHead.initialize(900, d=250, seed=3)
retrieval.featurize_clip(frames, head, FeatureKind.MFCC)
print(sorted(digests))
"""


class TestBlasThreads:
    """A featurize pass runs BLAS on one thread and restores the count after."""

    def test_numpy_openblas_has_its_thread_functions(self):
        # Else CI's 1- and 2-thread jobs would test only the one-worker pass.
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        if blas["name"] == "scipy-openblas":
            assert _BLAS_FUNCTIONS is not None
            assert retrieval._workers() == len(os.sched_getaffinity(0))

    @_needs_blas_functions
    def test_count_is_one_in_a_pass_and_restored_after(self, monkeypatch):
        get, set_ = _BLAS_FUNCTIONS
        before = get()
        seen = []
        spectrogram = retrieval.mel_spectrogram

        def recording(group):
            seen.append(get())
            return spectrogram(group)

        def failing(group):
            raise InvalidValue("no spectrogram")

        monkeypatch.setattr(retrieval, "_workers", lambda: 2)
        try:
            set_(2)
            monkeypatch.setattr(retrieval, "mel_spectrogram", recording)
            featurize_clip(np.zeros((40, 48000)))
            assert set(seen) == {1}
            assert get() == 2
            monkeypatch.setattr(retrieval, "mel_spectrogram", failing)
            with pytest.raises(InvalidValue, match="no spectrogram"):
                featurize_clip(np.zeros((40, 48000)))
            assert get() == 2
        finally:
            set_(before)

    @_needs_blas_functions
    def test_head_output_is_the_same_bits_at_one_and_two_threads(self):
        # Run serially at 2 BLAS threads, this head's float64 output differed
        # from 1 thread's: the shape is one of the exceptions a head GEMM has.
        src = str(Path(audiomatch.__file__).resolve().parents[1])
        outputs = set()
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
            done = subprocess.run([sys.executable, "-c", _HEAD_DIGESTS], env=env, check=True,
                                  capture_output=True, text=True, timeout=300)
            outputs.add(done.stdout)
        assert len(outputs) == 1


class TestMapBlocks:
    """featurize_clip and base_features map frames a block at a time: the stacked-block oracle."""

    @staticmethod
    def stacked(frames, chunk, finish=lambda rows: rows):
        # Each block of frames stacked, its spectrograms made whole, and its
        # flattened rows normalized or projected whole; the blocks concatenated.
        blocks = [np.stack(frames[i : i + chunk]) for i in range(0, len(frames), chunk)]
        return np.concatenate([finish(flatten(mel_spectrogram(block)).values) for block in blocks])

    @pytest.mark.parametrize("chunk", [1, 5, 16])
    def test_blocks_match_stacked_frames(self, rng, monkeypatch, chunk):
        # 37 frames leave a partial last block for each chunk size but 1, and
        # a partial last group for each group size but 1.  The frames are
        # 1-second ones: with 45 time steps a frame, its mel rows have the
        # same bits in any group (see TestBaseFeatures).  One thread runs
        # every block.
        monkeypatch.setattr(retrieval, "_workers", lambda: 1)
        monkeypatch.setattr(retrieval, "CHUNK_FRAMES", chunk)
        frames = list(rng.uniform(-0.5, 0.5, size=(37, 48000)))
        head = ProjectionHead.initialize(2880, d=8, seed=1)
        expected = {
            "base": self.stacked(frames, chunk),
            "plain": self.stacked(frames, chunk, normalize).astype(np.float32),
            "head": self.stacked(frames, chunk, lambda rows: embed(head, rows)).astype(np.float32),
        }
        spectrogram = retrieval.mel_spectrogram
        for group in (1, 3, 4):
            monkeypatch.setattr(retrieval, "SPECTROGRAM_FRAMES", group)
            # Groups restart at each block boundary.  Each is made as soon as
            # its last frame is drawn: (its frames, frames drawn by then).
            made = []
            for block in range(0, 37, chunk):
                block_end = min(block + chunk, 37)
                for start in range(block, block_end, group):
                    end = min(start + group, block_end)
                    made.append((end - start, end))
            for name, function in (("base", retrieval.base_features),
                                   ("plain", featurize_clip),
                                   ("head", lambda frames: featurize_clip(frames, head))):
                lazy, calls = LazyFrames(37, frames.__getitem__), []

                def recording(samples):
                    calls.append((len(samples), len(lazy.drawn)))
                    return spectrogram(samples)

                monkeypatch.setattr(retrieval, "mel_spectrogram", recording)
                got = function(lazy)
                monkeypatch.setattr(retrieval, "mel_spectrogram", spectrogram)
                assert got.dtype == expected[name].dtype
                assert got.tobytes() == expected[name].tobytes()
                assert lazy.drawn == list(range(37))  # each frame once, in order
                assert calls == made

    @pytest.mark.parametrize("chunk", [1, 5, 16])
    def test_two_workers_match_stacked_frames(self, rng, monkeypatch, chunk):
        # Two threads take the blocks: each frame is drawn once, each block's
        # frames in order, and each block's rows land in their place.
        monkeypatch.setattr(retrieval, "_workers", lambda: 2)
        monkeypatch.setattr(retrieval, "CHUNK_FRAMES", chunk)
        frames = list(rng.uniform(-0.5, 0.5, size=(37, 48000)))
        head = ProjectionHead.initialize(2880, d=8, seed=1)
        for group in (1, 3):
            monkeypatch.setattr(retrieval, "SPECTROGRAM_FRAMES", group)
            for function, finish in ((retrieval.base_features, lambda rows: rows),
                                     (featurize_clip, normalize),
                                     (lambda frames: featurize_clip(frames, head),
                                      lambda rows: embed(head, rows))):
                lazy = LazyFrames(37, frames.__getitem__)
                got = function(lazy)
                expected = self.stacked(frames, chunk, finish).astype(got.dtype)
                assert got.tobytes() == expected.tobytes()
                assert sorted(lazy.drawn) == list(range(37))
                for block in range(0, 37, chunk):
                    in_block = [i for i in lazy.drawn if block <= i < block + chunk]
                    assert in_block == list(range(block, min(block + chunk, 37)))

    def test_more_threads_than_cores_draw_each_frame_once(self, rng, monkeypatch):
        # 8 threads over 64 one-frame blocks, switching as often as they can.
        monkeypatch.setattr(retrieval, "CHUNK_FRAMES", 1)
        frames = rng.uniform(-0.5, 0.5, size=(64, 48000))
        expected = self.stacked(list(frames), 1, normalize).astype(np.float32)
        monkeypatch.setattr(retrieval, "_workers", lambda: 8)
        threads, interval = threading.active_count(), sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            lazy = LazyFrames(64, frames.__getitem__)
            got = featurize_clip(lazy)
        finally:
            sys.setswitchinterval(interval)
        assert sorted(lazy.drawn) == list(range(64))
        assert got.tobytes() == expected.tobytes()
        assert threading.active_count() == threads  # every pool thread was joined

    @pytest.mark.parametrize("workers", [1, 2])
    def test_result_and_frames_are_freed_without_the_cycle_collector(self, monkeypatch, workers):
        # A reference cycle through the pass's closures would hold both (4 MB
        # of result and every manifest row, for the CLI) until a collection.
        monkeypatch.setattr(retrieval, "_workers", lambda: workers)
        lazy = LazyFrames(40, lambda index: np.full(48000, 0.01 * index))
        gc.disable()
        try:
            result = featurize_clip(lazy)
            refs = weakref.ref(result), weakref.ref(lazy)
            del result, lazy
            assert [ref() for ref in refs] == [None, None]
        finally:
            gc.enable()

    def test_a_failure_starts_no_later_block(self, monkeypatch):
        # One-frame blocks; frame 5 fails.  Blocks 0-5 are taken in order, so
        # block 6 is the most another thread can have started before the
        # failure (its frame is slow, so that it is still running then).
        monkeypatch.setattr(retrieval, "CHUNK_FRAMES", 1)

        def make(index):
            if index == 5:
                raise IoError("frame 5 is unreadable")
            if index == 6:
                time.sleep(0.2)
            return np.full(48000, 0.01 * index)

        for workers in (1, 2):
            monkeypatch.setattr(retrieval, "_workers", lambda: workers)
            lazy = LazyFrames(40, make)
            with pytest.raises(IoError, match="frame 5 is unreadable"):
                featurize_clip(lazy)
            assert sorted(lazy.drawn)[:6] == list(range(6))
            assert len(lazy.drawn) == len(set(lazy.drawn)) <= 7
            assert max(lazy.drawn) <= 6
            if workers == 1:
                assert lazy.drawn == list(range(6))

    def test_the_earliest_failing_block_raises(self, monkeypatch):
        # Blocks 1 and 2 both fail, each on a thread of its own; block 2's
        # frame fails first, but block 1's error is the one raised.
        monkeypatch.setattr(retrieval, "CHUNK_FRAMES", 2)
        monkeypatch.setattr(retrieval, "_workers", lambda: 2)
        block_2_failed = threading.Event()

        def make(index):
            if index == 2:
                assert block_2_failed.wait(10)
                raise IoError("block 1 failed")
            if index == 4:
                block_2_failed.set()
                raise IoError("block 2 failed")
            return np.zeros(48000)

        lazy = LazyFrames(8, make)
        with pytest.raises(IoError, match="block 1 failed"):
            featurize_clip(lazy)
        assert sorted(lazy.drawn) == [0, 1, 2, 4]

    def test_float32_frames_give_what_stacking_gave(self, rng):
        frames = list(rng.uniform(-0.5, 0.5, size=(20, 48000)).astype(np.float32))
        got = retrieval.base_features(frames)
        expected = self.stacked(frames, 16)
        assert got.dtype == expected.dtype == np.float64
        assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("position", [1, 15, 16, 17, 39])
    @pytest.mark.parametrize("length", [1, 299, 301])
    def test_a_frame_of_another_length_raises(self, rng, monkeypatch, position, length):
        # A 1-sample frame is the case numpy would broadcast into a whole row.
        # Each frame's shape is checked as it is drawn, whatever the
        # spectrogram: this stand-in passes 300-sample frames.
        monkeypatch.setattr(retrieval, "mel_spectrogram", lambda group: group[:, None, :])
        frames = list(rng.normal(size=(40, 300)))
        frames[position] = rng.normal(size=length)
        assert retrieval.base_features(frames[:position]).tobytes() == np.stack(
            frames[:position]).tobytes()
        with pytest.raises(InvalidValue, match=f"frames differ in shape: \\({length},\\)"):
            featurize_clip(frames)

    def test_frames_of_another_rank_raise(self):
        # The first frame is one analysis window long, so its spectrogram,
        # made before the second frame is drawn, does not fail first.
        for frames in ([np.zeros(2048), np.zeros((1, 2048))], [np.zeros(2048), 0.0]):
            with pytest.raises(InvalidValue, match="frames differ in shape"):
                featurize_clip(frames)
        # An (n,) array is n frames of one sample each, not one frame.
        for frames in ([np.zeros((1, 3))], [0.0], np.zeros(48000)):
            with pytest.raises(InvalidValue, match="a frame is one row of samples"):
                retrieval.base_features(frames)

    def test_no_frames_raise(self):
        for frames in ([], np.zeros((0, 48000)), LazyFrames(0, None)):
            with pytest.raises(InvalidValue, match="no frames"):
                featurize_clip(frames)
