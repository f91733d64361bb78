"""Retrieval metrics over labeled query/gallery manifests.

Each query carries a binary-labeled candidate set; evaluation ranks
exactly that labeled set by inner product with the query vector (ties
by ascending id) and averages average precision, hit-rate@K, and
precision@K over queries.  Metrics are pure functions of the
rank/relevance structure.

Labels are JSON lines {query_id, gallery_id, relevance}, read by
:func:`audio_io.read_json_lines`: ids are strings, relevance is 0 or 1
and no (query_id, gallery_id) pair appears twice.  Reports are JSON
with per-query rows and an aggregate block.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .audio_io import read_json_lines
from .errors import InvalidValue, MissingId, NoPositives
from .retrieval import GalleryIndex


@dataclass(frozen=True)
class LabeledSet:
    """Binary relevance labels of every query's candidate set: query id -> {gallery id: 0 or 1}."""

    relevance: dict[str, dict[str, int]]

    def __post_init__(self) -> None:
        for query_id, labels in self.relevance.items():
            if not labels:
                raise InvalidValue(f"query {query_id!r} has no labeled items")
            bad = {r for r in labels.values() if r not in (0, 1)}
            if bad:
                raise InvalidValue(f"non-binary relevance values {bad} for query {query_id!r}")

    @classmethod
    def from_rows(cls, rows: Sequence[Mapping]) -> "LabeledSet":
        by_query: dict[str, dict[str, int]] = {}
        for row in rows:
            labels = by_query.setdefault(str(row["query_id"]), {})
            gallery_id = str(row["gallery_id"])
            if gallery_id in labels:
                raise InvalidValue(
                    f"duplicate label for query {row['query_id']!r}, gallery {gallery_id!r}"
                )
            labels[gallery_id] = int(row["relevance"])
        return cls(by_query)

    @classmethod
    def load(cls, path: str | Path) -> "LabeledSet":
        """Labels from a JSON-lines file; a bad or repeated row raises AudioMatchError naming it."""
        fields = {"query_id": "a string", "gallery_id": "a string", "relevance": "a 0 or 1"}
        unique = ("query_id", "gallery_id")
        return cls.from_rows(read_json_lines(path, fields, "labels", unique))


def average_precision(ranked_ids: Sequence[str], positives: set[str]) -> float:
    """Mean of precision-at-rank over the ranks holding positives.

    Positives absent from the ranking contribute zero terms; the sum is
    still divided by the full positive count.

    Raises:
        NoPositives: The positive set is empty.
    """
    if not positives:
        raise NoPositives("average precision needs at least one positive")
    if not ranked_ids:
        raise InvalidValue("ranking is empty")
    hits = 0
    precision_sum = 0.0
    for rank, item in enumerate(ranked_ids, start=1):
        if item in positives:
            hits += 1
            precision_sum += hits / rank
    return precision_sum / len(positives)


def hit_rate_at_k(ranked_ids: Sequence[str], positives: set[str], k: int) -> int:
    """1 iff any positive appears in the first k items."""
    if k < 1:
        raise InvalidValue("k must be >= 1")
    return int(any(item in positives for item in ranked_ids[:k]))


def precision_at_k(ranked_ids: Sequence[str], positives: set[str], k: int) -> float:
    """Fraction of the first k items that are positive."""
    if k < 1:
        raise InvalidValue("k must be >= 1")
    return sum(1 for item in ranked_ids[:k] if item in positives) / k


def rank_labeled(
    index: GalleryIndex, query_vector: np.ndarray, labeled_ids: Sequence[str]
) -> list[str]:
    """Rank a query's labeled gallery ids by inner product, ties by id, as ``index.query`` does."""
    rows = np.array([index.row_of(gid) for gid in labeled_ids], dtype=np.intp)
    ranked, _ = index._rank(rows, np.asarray(query_vector, dtype=np.float64), len(rows))
    return [index.ids[row] for row in ranked]


def evaluate(
    index: GalleryIndex,
    labeled: LabeledSet,
    features: Mapping[str, np.ndarray],
    ks: Sequence[int] = (1, 2, 5, 10),
) -> dict:
    """Score every labeled query against its own candidate set.

    Returns ``{"per_query": [...], "aggregate": {...}}``: one row per query
    with its AP, hit-rate@K and precision@K (None without a positive), and
    the means of those over the queries that have them.

    Args:
        index: Gallery holding vectors for every labeled gallery id.
        labeled: Binary-labeled candidate sets per query.
        features: query_id -> unit query vector.
        ks: Cutoffs for hit-rate@K and precision@K.

    Raises:
        MissingId: A labeled gallery id is absent from the index, or a
            query id is absent from ``features``.
    """
    per_query: list[dict] = []
    for query_id, relevance in labeled.relevance.items():
        if query_id not in features:
            raise MissingId(f"no feature vector for query {query_id!r}")
        missing = [gid for gid in relevance if gid not in index]
        if missing:
            raise MissingId(
                f"labeled gallery ids missing from index for query {query_id!r}: "
                f"{missing[:3]}..."
            )
        labeled_ids = sorted(relevance)
        ranked = rank_labeled(index, features[query_id], labeled_ids)
        positives = {gid for gid, rel in relevance.items() if rel == 1}

        row: dict = {"query_id": query_id, "n_labeled": len(labeled_ids)}
        row["ap"] = average_precision(ranked, positives) if positives else None
        for k in ks:
            row[f"hr@{k}"] = hit_rate_at_k(ranked, positives, k) if positives else None
            row[f"p@{k}"] = precision_at_k(ranked, positives, k) if positives else None
        per_query.append(row)

    def mean(key: str) -> float | None:
        """Mean of a metric over the queries that have it (those with a positive)."""
        values = [row[key] for row in per_query if row[key] is not None]
        return float(np.mean(values)) if values else None

    aggregate = {
        "r_map": mean("ap"),
        "hr": {str(k): mean(f"hr@{k}") for k in ks},
        "p": {str(k): mean(f"p@{k}") for k in ks},
        "n_queries": len(labeled.relevance),
    }
    return {"per_query": per_query, "aggregate": aggregate}
