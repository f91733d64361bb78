"""Retrieval metrics and labeled-set evaluation."""

import json
import re

import numpy as np
import pytest

from audiomatch import (
    Gallery,
    LabeledSet,
    average_precision,
    build_index,
    evaluate,
    hit_rate_at_k,
    precision_at_k,
)
from audiomatch.errors import AudioMatchError, IoError, MissingId, NoPositives
from audiomatch.evaluation import rank_labeled


class TestAveragePrecision:
    def test_perfect_ranking(self):
        assert average_precision(["a", "b", "c", "d"], {"a", "b"}) == 1.0

    def test_ranks_two_and_four(self):
        # (1/2 + 2/4) / 2
        assert average_precision(["x", "a", "y", "b"], {"a", "b"}) == 0.5

    def test_no_positives_raises(self):
        with pytest.raises(NoPositives):
            average_precision(["a", "b"], set())

    def test_missing_positives_count_against(self):
        # one positive found at rank 1, one never retrieved
        assert average_precision(["a", "x"], {"a", "zzz"}) == 0.5

    def test_bounds_and_extremes(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 30))
            ids = [f"i{j}" for j in range(n)]
            n_pos = int(rng.integers(1, n))
            positives = set(rng.choice(ids, size=n_pos, replace=False))
            ap = average_precision(ids, positives)
            assert 0.0 <= ap <= 1.0
            front_loaded = sorted(ids, key=lambda i: i not in positives)
            assert average_precision(front_loaded, positives) == 1.0

    def test_one_iff_positives_first(self, rng):
        ids = [f"i{j}" for j in range(10)]
        positives = {"i3", "i7"}
        ranked = ["i3", "i0", "i7"] + [i for i in ids if i not in ("i3", "i0", "i7")]
        assert average_precision(ranked, positives) < 1.0


class TestHitRate:
    def test_hit_at_one(self):
        assert hit_rate_at_k(["p", "x"], {"p"}, 1) == 1

    def test_first_positive_beyond_k(self):
        assert hit_rate_at_k(["x", "y", "p"], {"p"}, 2) == 0

    def test_k_covers_whole_list(self):
        assert hit_rate_at_k(["x", "y", "p"], {"p"}, 50) == 1

    def test_non_decreasing_in_k(self, rng):
        ids = [f"i{j}" for j in range(20)]
        positives = set(rng.choice(ids, size=4, replace=False))
        ranked = list(rng.permutation(ids))
        hits = [hit_rate_at_k(ranked, positives, k) for k in range(1, 21)]
        assert hits == sorted(hits)


class TestPrecisionAtK:
    def test_all_positive_top_five(self):
        ranked = ["a", "b", "c", "d", "e", "x"]
        assert precision_at_k(ranked, set("abcde"), 5) == 1.0

    def test_one_in_ten(self):
        ranked = ["p"] + [f"x{i}" for i in range(9)]
        assert precision_at_k(ranked, {"p"}, 10) == 0.1

    def test_matches_set_intersection_oracle(self, rng):
        for _ in range(50):
            ids = [f"i{j}" for j in range(25)]
            positives = set(rng.choice(ids, size=int(rng.integers(1, 10)), replace=False))
            ranked = list(rng.permutation(ids))
            k = int(rng.integers(1, 25))
            oracle = len(set(ranked[:k]) & positives) / k
            assert precision_at_k(ranked, positives, k) == oracle


class TestMetricProperties:
    def test_invariant_to_relabeling(self, rng):
        ids = [f"i{j}" for j in range(15)]
        positives = set(rng.choice(ids, size=5, replace=False))
        ranked = list(rng.permutation(ids))
        mapping = {i: f"renamed_{i}" for i in ids}
        renamed = [mapping[i] for i in ranked]
        renamed_pos = {mapping[i] for i in positives}
        assert average_precision(ranked, positives) == average_precision(renamed, renamed_pos)
        for k in (1, 3, 8):
            assert hit_rate_at_k(ranked, positives, k) == hit_rate_at_k(renamed, renamed_pos, k)
            assert precision_at_k(ranked, positives, k) == precision_at_k(renamed, renamed_pos, k)

    def test_random_baseline_mean_ap(self, rng):
        # Expected AP of a uniformly random ranking with 10 relevant among
        # 123 exceeds the 10/123 positive rate; precomputed by Monte Carlo
        # it sits near 0.115.  A light 2000-trial check here; the full 10k
        # run lives in the acceptance suite.
        ids = [f"i{j}" for j in range(123)]
        positives = set(ids[:10])
        aps = [
            average_precision(list(rng.permutation(ids)), positives) for _ in range(2000)
        ]
        assert np.mean(aps) == pytest.approx(0.1147, abs=0.01)


def make_index_and_features(rng, ids, query_vectors=None):
    d = 8
    vectors = []
    for gid in ids:
        vec = rng.normal(size=d).astype(np.float32)
        vec /= np.linalg.norm(vec)
        vectors.append(vec)
    gallery = Gallery(ids, [f"src_{gid}" for gid in ids], np.arange(len(ids)), vectors)
    index = build_index(gallery)
    features = {gid: np.asarray(vec, dtype=np.float64) for gid, vec in zip(ids, vectors)}
    if query_vectors:
        features.update(query_vectors)
    return index, features


class TestEvaluate:
    def test_all_positive_gives_ones(self, rng):
        ids = [f"g{i}" for i in range(6)]
        index, features = make_index_and_features(rng, ids)
        features["q"] = features[ids[0]]
        labeled = LabeledSet.from_rows(
            [{"query_id": "q", "gallery_id": gid, "relevance": 1} for gid in ids]
        )
        report = evaluate(index, labeled, features, ks=(1, 2, 5))
        assert report["aggregate"]["r_map"] == 1.0
        assert report["aggregate"]["hr"] == {"1": 1.0, "2": 1.0, "5": 1.0}
        assert report["aggregate"]["p"]["1"] == 1.0

    def test_ranking_respects_similarity(self, rng):
        basis = np.eye(4, dtype=np.float32)
        ids = [f"g{i}" for i in range(4)]
        index = build_index(Gallery(ids, [f"s{i}" for i in range(4)], np.zeros(4), basis))
        features = {"q": np.array([0.0, 1.0, 0.0, 0.0])}
        labeled = LabeledSet.from_rows(
            [
                {"query_id": "q", "gallery_id": "g0", "relevance": 0},
                {"query_id": "q", "gallery_id": "g1", "relevance": 1},
                {"query_id": "q", "gallery_id": "g2", "relevance": 0},
            ]
        )
        report = evaluate(index, labeled, features, ks=(1,))
        assert report["aggregate"]["r_map"] == 1.0
        assert report["per_query"][0]["hr@1"] == 1

    def test_query_without_positives_is_left_out_of_the_means(self, rng):
        ids = [f"g{i}" for i in range(4)]
        index, features = make_index_and_features(rng, ids)
        features["q"], features["r"] = features["g0"], features["g1"]
        rows = [{"query_id": "q", "gallery_id": g, "relevance": int(g == "g0")} for g in ids]
        rows += [{"query_id": "r", "gallery_id": g, "relevance": 0} for g in ids]
        report = evaluate(index, LabeledSet.from_rows(rows), features, ks=(1, 2))
        assert report["per_query"][1] == {
            "query_id": "r", "n_labeled": 4, "ap": None,
            "hr@1": None, "p@1": None, "hr@2": None, "p@2": None,
        }
        assert report["aggregate"] == {
            "r_map": 1.0, "hr": {"1": 1.0, "2": 1.0}, "p": {"1": 1.0, "2": 0.5}, "n_queries": 2,
        }

    @pytest.mark.parametrize("ids", [["a\0", "a"], ["a", "a\0"]])
    def test_ties_break_by_exact_id_order(self, ids):
        # numpy's fixed-width strings drop trailing NULs; as str, "a" < "a\0".
        vectors = np.ones((2, 4), dtype=np.float32) / 2
        index = build_index(Gallery(ids, ["s0", "s1"], np.zeros(2), vectors))
        ranked = rank_labeled(index, np.full(4, 0.5), ids)
        assert ranked == ["a", "a\0"]
        assert ranked == [c.gallery_id for c in index.query(np.full(4, 0.5), k=2)]

    def test_missing_gallery_id(self, rng):
        ids = [f"g{i}" for i in range(3)]
        index, features = make_index_and_features(rng, ids)
        features["q"] = features[ids[0]]
        labeled = LabeledSet.from_rows(
            [{"query_id": "q", "gallery_id": "absent", "relevance": 1}]
        )
        with pytest.raises(MissingId):
            evaluate(index, labeled, features)

    def test_missing_query_feature(self, rng):
        ids = [f"g{i}" for i in range(3)]
        index, features = make_index_and_features(rng, ids)
        labeled = LabeledSet.from_rows(
            [{"query_id": "ghost", "gallery_id": ids[0], "relevance": 1}]
        )
        with pytest.raises(MissingId):
            evaluate(index, labeled, features)

    def test_seeded_shuffle_baseline_reproduces_monte_carlo(self, rng):
        # Random unit query vectors play the role of a shuffled ranking.
        ids = [f"g{i:03d}" for i in range(123)]
        index, features = make_index_and_features(rng, ids)
        rows = []
        n_queries = 60
        for q in range(n_queries):
            qid = f"q{q}"
            vec = rng.normal(size=8)
            features[qid] = vec / np.linalg.norm(vec)
            positives = rng.choice(ids, size=10, replace=False)
            for gid in ids:
                rows.append(
                    {
                        "query_id": qid,
                        "gallery_id": gid,
                        "relevance": int(gid in positives),
                    }
                )
        report = evaluate(index, LabeledSet.from_rows(rows), features, ks=(1,))
        assert report["aggregate"]["r_map"] == pytest.approx(0.1147, abs=0.05)


class TestLabeledSetIo:
    def test_round_trip(self, tmp_path):
        rows = [
            {"query_id": "q1", "gallery_id": "g1", "relevance": 1},
            {"query_id": "q1", "gallery_id": "g2", "relevance": 0},
            {"query_id": "q2", "gallery_id": "g1", "relevance": 1},
        ]
        path = tmp_path / "labels.jsonl"
        path.write_text("".join(json.dumps(row) + "\n" for row in rows))
        assert LabeledSet.load(path) == LabeledSet.from_rows(rows)
        assert LabeledSet.load(path).relevance == {"q1": {"g1": 1, "g2": 0}, "q2": {"g1": 1}}

    @pytest.mark.parametrize(
        "row, error",
        [
            ({"query_id": "q", "gallery_id": "g", "relevance": 2}, "needs a 0 or 1 'relevance'"),
            ({"query_id": "q", "gallery_id": "g", "relevance": True}, "needs a 0 or 1"),
            ({"query_id": "q", "gallery_id": "g", "relevance": 1.0}, "needs a 0 or 1"),
            ({"query_id": "q", "gallery_id": "g", "relevance": "1"}, "needs a 0 or 1"),
            ({"query_id": 7, "gallery_id": "g", "relevance": 1}, "needs a string 'query_id'"),
            ({"gallery_id": "g", "relevance": 1}, "needs a string 'query_id'"),
            ("just text", "is not a JSON object"),
        ],
        ids=["two", "true", "float", "text", "int-query", "no-query", "string"],
    )
    def test_load_names_file_and_line(self, tmp_path, row, error):
        path = tmp_path / "labels.jsonl"
        good = {"query_id": "q", "gallery_id": "h", "relevance": 0}
        path.write_text(json.dumps(good) + "\n\n" + json.dumps(row) + "\n")
        expected = f"^labels {re.escape(str(path))} line 3 {re.escape(error)}"
        with pytest.raises(AudioMatchError, match=expected):
            LabeledSet.load(path)

    def test_load_names_the_line_repeating_a_pair(self, tmp_path):
        path = tmp_path / "labels.jsonl"
        rows = [
            {"query_id": "q", "gallery_id": "g", "relevance": 1},
            {"query_id": "q", "gallery_id": "h", "relevance": 0},
            {"query_id": "r", "gallery_id": "g", "relevance": 1},
            {"query_id": "q", "gallery_id": "g", "relevance": 0},
        ]
        lines = [json.dumps(row) for row in rows]
        path.write_text("\n".join(lines[:3] + ["", lines[3]]))
        expected = (
            f"^labels {re.escape(str(path))} line 5 repeats the query_id and gallery_id of line 1$"
        )
        with pytest.raises(AudioMatchError, match=expected):
            LabeledSet.load(path)

    def test_load_rejects_empty_binary_and_missing_files(self, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("\n")
        with pytest.raises(AudioMatchError, match="is empty"):
            LabeledSet.load(empty)
        binary = tmp_path / "binary.jsonl"
        binary.write_bytes(b"\x80\x81\n")
        with pytest.raises(AudioMatchError, match="is not UTF-8"):
            LabeledSet.load(binary)
        with pytest.raises(IoError, match="cannot read labels"):
            LabeledSet.load(tmp_path / "missing.jsonl")

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            LabeledSet.from_rows([{"query_id": "q", "gallery_id": "g", "relevance": 2}])

    def test_rejects_duplicate_labels(self):
        with pytest.raises(ValueError):
            LabeledSet.from_rows(
                [
                    {"query_id": "q", "gallery_id": "g", "relevance": 1},
                    {"query_id": "q", "gallery_id": "g", "relevance": 0},
                ]
            )
