"""Gallery index exactness, feature files, and the featurize pipeline."""

import os
import struct
import tracemalloc

import numpy as np
import pytest

from audiomatch import (
    AudioClip,
    Gallery,
    ProjectionHead,
    batch_featurize,
    build_index,
    frame_id,
    normalize,
    read_features,
    write_features,
)
from audiomatch.dsp import FeatureKind
from audiomatch.errors import DimensionMismatch, DuplicateId, EmptyIndex, IoError


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

    def test_scores_non_increasing(self, rng):
        index = build_index(gallery_from(unit_rows(rng, 100, 16)))
        result = index.query(normalize(rng.normal(size=16)), k=100)
        scores = [c.score for c in result]
        assert all(a >= b for a, b in zip(scores, scores[1:]))
        assert [c.rank for c in result] == list(range(1, 101))


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

    @pytest.mark.parametrize("writer", ["features", "checkpoint"])
    def test_failed_write_keeps_existing_file(self, tmp_path, rng, monkeypatch, writer):
        path = tmp_path / "out.bin"
        path.write_bytes(b"an older file")

        def refuse(src, dst):
            raise OSError("no space left on device")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(IoError):
            if writer == "features":
                write_features(path, gallery_from(unit_rows(rng, 2, 8)))
            else:
                ProjectionHead.initialize(4, d=3).save(path)
        assert path.read_bytes() == b"an older file"
        assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]

    def test_refuses_empty(self, tmp_path):
        with pytest.raises(EmptyIndex):
            write_features(tmp_path / "empty.amcf", gallery_from(np.empty((0, 8))))


class TestBatchFeaturize:
    def test_deterministic(self, tone_clip):
        clips = [tone_clip(source_id="a"), tone_clip(source_id="a")]
        first, second = batch_featurize(clips).vectors
        assert np.array_equal(first, second)

    def test_silence_vs_tone_distinguishable(self, tone_clip):
        silence = AudioClip(np.zeros(48000), 48000, "quiet")
        tone = tone_clip(freq=440.0)
        vectors = batch_featurize([silence, tone]).vectors.astype(np.float64)
        cosine = float(np.dot(vectors[0], vectors[1]))
        assert cosine < 0.99

    def test_steady_tone_cuts_match(self, tone_clip):
        long_tone = tone_clip(freq=440.0, seconds=3.0)
        first = AudioClip(long_tone.samples[:48000], 48000, "t", 0.0)
        second = AudioClip(long_tone.samples[48000:96000], 48000, "t", 1.0)
        vectors = batch_featurize([first, second]).vectors.astype(np.float64)
        cosine = float(np.dot(vectors[0], vectors[1]))
        assert cosine > 0.99

    def test_head_changes_vectors(self, tone_clip):
        clip = tone_clip()
        without = batch_featurize([clip]).vectors[0]
        head = ProjectionHead.initialize(len(without) and 2880, d=32, seed=0)
        with_head = batch_featurize([clip], head=head).vectors[0]
        assert with_head.shape == (32,)
        assert not np.array_equal(without[:32], with_head)

    def test_mfcc_kind(self, tone_clip):
        vector = batch_featurize([tone_clip()], kind=FeatureKind.MFCC).vectors[0]
        assert vector.shape == (20 * 45,)
        assert np.linalg.norm(vector) == pytest.approx(1.0, abs=1e-6)

    def test_no_clips_give_an_empty_gallery(self):
        assert len(batch_featurize([])) == 0

    def test_ids_follow_frame_convention(self, tone_clip):
        clip = tone_clip(source_id="movie", offset_s=3.0)
        gallery = batch_featurize([clip])
        assert gallery.ids[0] == frame_id("movie", 3.0) == "movie@3.000"
