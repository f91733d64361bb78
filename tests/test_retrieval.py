"""Gallery index exactness, feature files, and the featurize pipeline."""

import hashlib
import os
import struct
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import audiomatch

from audiomatch import (
    AudioClip,
    Gallery,
    ProjectionHead,
    build_index,
    featurize_clip,
    frame_id,
    map_blocks,
    normalize,
    read_features,
    write_audio,
    write_features,
)
from audiomatch.dsp import FeatureKind
from audiomatch.retrieval import _score_error_bound
from audiomatch.errors import DimensionMismatch, DuplicateId, EmptyIndex, InvalidValue, IoError


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
            ["", "", "x", ""],
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

    @pytest.mark.parametrize("writer", ["features", "checkpoint", "audio"])
    def test_failed_write_keeps_existing_file(self, tmp_path, rng, monkeypatch, writer):
        path = tmp_path / "out.bin"
        path.write_bytes(b"an older file")

        def refuse(src, dst):
            raise OSError("no space left on device")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(IoError):
            if writer == "features":
                write_features(path, gallery_from(unit_rows(rng, 2, 8)))
            elif writer == "checkpoint":
                ProjectionHead.initialize(4, d=3).save(path)
            else:
                write_audio(AudioClip(np.zeros(10), 48000), path)
        assert path.read_bytes() == b"an older file"
        assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]

    def test_refuses_empty(self, tmp_path):
        with pytest.raises(EmptyIndex):
            write_features(tmp_path / "empty.amcf", gallery_from(np.empty((0, 8))))


class TestBatchFeaturize:
    """A block of frames through featurize_clip, and frames drawn by map_blocks."""

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
            map_blocks(featurize_clip, frames)

    def test_normalize_rows_equal_one_vector_at_a_time(self, rng):
        # Oracle: each vector divided by np.linalg.norm of it alone, bit for bit.
        rows = rng.normal(size=(16, 2880)) * rng.uniform(0.1, 50.0, size=(16, 1))
        rows[3] = 0.0
        expected = [row / np.linalg.norm(row) if row.any() else np.eye(1, 2880)[0] for row in rows]
        assert np.array_equal(normalize(rows), expected)
        assert np.array_equal(normalize(rows[5]), expected[5])

    def test_ids_follow_frame_convention(self):
        assert frame_id("movie", 3.0) == "movie@3.000"


class TestMapBlocks:
    """map_blocks against its oracle: ``function`` of np.stack of each block, concatenated."""

    @staticmethod
    def stacked(function, frames, chunk):
        return np.concatenate([function(np.stack(frames[i : i + chunk]))
                               for i in range(0, len(frames), chunk)])

    @pytest.mark.parametrize("chunk", [1, 5, 16])
    def test_blocks_match_stacked_frames(self, rng, monkeypatch, chunk):
        # 37 frames leave a partial last block for each chunk size but 1.
        monkeypatch.setattr(audiomatch.retrieval, "CHUNK_FRAMES", chunk)
        frames = list(rng.normal(size=(37, 300)))
        drawn, calls = [], []

        def function(block):
            calls.append((len(block), len(drawn)))
            return block @ np.arange(300.0)[:, None] + block[:, :1] ** 2

        def lazy():
            for frame in frames:
                drawn.append(frame)
                yield frame

        got = map_blocks(function, lazy())
        # Each block is mapped as soon as its last frame is drawn, not later.
        ends = list(range(chunk, 37, chunk)) + [37]
        assert calls == [(end - start, end) for start, end in zip([0] + ends, ends)]
        assert np.array_equal(got, self.stacked(function, frames, chunk))

    @pytest.mark.parametrize("view", [lambda b: b, lambda b: b[:, :4], lambda b: b[::-1, 1::2]])
    def test_a_result_viewing_the_block_keeps_its_rows(self, rng, view):
        frames = list(rng.normal(size=(40, 10)))
        got = map_blocks(view, iter(frames))
        assert np.array_equal(got, self.stacked(view, frames, 16))

    def test_float32_frames_give_what_stacking_gave(self, rng):
        frames = list(rng.normal(size=(20, 2048)).astype(np.float32))
        function = lambda b: b * np.float32(3.0) + b[:, ::-1]  # noqa: E731
        got = map_blocks(function, iter(frames))
        expected = self.stacked(function, frames, 16)
        assert got.dtype == expected.dtype == np.float32
        assert np.array_equal(got, expected)

    @pytest.mark.parametrize("position", [1, 15, 16, 17, 39])
    @pytest.mark.parametrize("length", [1, 299, 301])
    def test_a_frame_of_another_length_raises(self, rng, position, length):
        # A 1-sample frame is the case numpy would broadcast into a whole row.
        frames = list(rng.normal(size=(40, 300)))
        frames[position] = rng.normal(size=length)
        with pytest.raises(InvalidValue, match=f"frames differ in shape: \\({length},\\)"):
            map_blocks(np.asarray, iter(frames))

    def test_frames_of_another_rank_raise(self):
        for frames in ([np.zeros(3), np.zeros((1, 3))], [np.zeros(3), 0.0]):
            with pytest.raises(InvalidValue):
                map_blocks(np.asarray, frames)

    def test_no_frames_raise(self):
        with pytest.raises(InvalidValue, match="no frames"):
            map_blocks(np.asarray, iter([]))
