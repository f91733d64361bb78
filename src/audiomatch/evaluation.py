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

from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .audio_io import read_json_lines
from .errors import MissingId, NoPositives
from .retrieval import GalleryIndex


@dataclass(frozen=True)
class QueryLabels:
    """Binary relevance labels of one query's candidate set."""

    query_id: str
    relevance: dict[str, int]

    def __post_init__(self) -> None:
        if not self.relevance:
            raise ValueError(f"query {self.query_id!r} has no labeled items")
        bad = {r for r in self.relevance.values() if r not in (0, 1)}
        if bad:
            raise ValueError(f"non-binary relevance values {bad} for query {self.query_id!r}")

    @property
    def positives(self) -> set[str]:
        return {gid for gid, rel in self.relevance.items() if rel == 1}


@dataclass(frozen=True)
class LabeledSet:
    """All labeled queries of an evaluation run."""

    queries: tuple[QueryLabels, ...]

    @classmethod
    def from_rows(cls, rows: Sequence[Mapping]) -> "LabeledSet":
        by_query: dict[str, dict[str, int]] = {}
        for row in rows:
            labels = by_query.setdefault(str(row["query_id"]), {})
            gallery_id = str(row["gallery_id"])
            if gallery_id in labels:
                raise ValueError(
                    f"duplicate label for query {row['query_id']!r}, gallery {gallery_id!r}"
                )
            labels[gallery_id] = int(row["relevance"])
        return cls(tuple(QueryLabels(qid, labels) for qid, labels in by_query.items()))

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
        raise ValueError("ranking is empty")
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
        raise ValueError("k must be >= 1")
    return int(any(item in positives for item in ranked_ids[:k]))


def precision_at_k(ranked_ids: Sequence[str], positives: set[str], k: int) -> float:
    """Fraction of the first k items that are positive."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return sum(1 for item in ranked_ids[:k] if item in positives) / k


@dataclass
class EvalReport:
    """Per-query and aggregate retrieval metrics."""

    per_query: list[dict] = field(default_factory=list)
    aggregate: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"per_query": self.per_query, "aggregate": self.aggregate}


def rank_labeled(
    index: GalleryIndex, query_vector: np.ndarray, labeled_ids: Sequence[str]
) -> list[str]:
    """Rank a query's labeled gallery ids by inner product, ties by id, as ``index.query`` does."""
    rows = np.array([index.row_of[gid] for gid in labeled_ids], dtype=np.intp)
    ranked, _ = index._rank(rows, np.asarray(query_vector, dtype=np.float64), len(rows))
    return [index.ids[row] for row in ranked]


def evaluate(
    index: GalleryIndex,
    labeled: LabeledSet,
    features: Mapping[str, np.ndarray],
    ks: Sequence[int] = (1, 2, 5, 10),
) -> EvalReport:
    """Score every labeled query against its own candidate set.

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
    ap_values: list[float] = []
    hr_values: dict[int, list[int]] = {k: [] for k in ks}
    p_values: dict[int, list[float]] = {k: [] for k in ks}

    for query in labeled.queries:
        if query.query_id not in features:
            raise MissingId(f"no feature vector for query {query.query_id!r}")
        missing = [gid for gid in query.relevance if gid not in index]
        if missing:
            raise MissingId(
                f"labeled gallery ids missing from index for query {query.query_id!r}: "
                f"{missing[:3]}..."
            )
        labeled_ids = sorted(query.relevance)
        ranked = rank_labeled(index, features[query.query_id], labeled_ids)
        positives = query.positives

        row: dict = {"query_id": query.query_id, "n_labeled": len(labeled_ids)}
        row["ap"] = average_precision(ranked, positives) if positives else None
        if positives:
            ap_values.append(row["ap"])
        for k in ks:
            hr = hit_rate_at_k(ranked, positives, k) if positives else None
            pk = precision_at_k(ranked, positives, k) if positives else None
            row[f"hr@{k}"] = hr
            row[f"p@{k}"] = pk
            if positives:
                hr_values[k].append(hr)
                p_values[k].append(pk)
        per_query.append(row)

    aggregate = {
        "r_map": float(np.mean(ap_values)) if ap_values else None,
        "hr": {str(k): float(np.mean(hr_values[k])) if hr_values[k] else None for k in ks},
        "p": {str(k): float(np.mean(p_values[k])) if p_values[k] else None for k in ks},
        "n_queries": len(labeled.queries),
    }
    return EvalReport(per_query=per_query, aggregate=aggregate)
