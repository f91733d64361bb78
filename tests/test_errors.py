"""Every value check outside the codecs raises the typed InvalidValue, still a ValueError."""

import numpy as np
import pytest

from audiomatch import (
    Gallery,
    LabeledSet,
    ProjectionHead,
    QueryLabels,
    TrainConfig,
    average_precision,
    build_index,
    hit_rate_at_k,
    map_blocks,
    precision_at_k,
    split_and_contrast_loss,
    train,
)
from audiomatch.errors import AudioMatchError, InvalidValue


def _index():
    vectors = np.eye(3, 4, dtype=np.float32)
    return build_index(Gallery(["a", "b", "c"], ["s", "s", "t"], np.zeros(3), vectors))


def _train_with_a_config_changed_after_its_check():
    config = TrainConfig(epochs=1)
    config.tau = 0.0  # a dataclass field can change after __post_init__ checked it
    train(ProjectionHead.initialize(4, d=2, seed=0), np.ones((2, 2, 4)), config)


def _loss_with_tau(tau):
    head = ProjectionHead.initialize(4, d=2, seed=0)
    split_and_contrast_loss(head.weight, head.bias, np.ones((2, 2, 4)), 1, tau=tau)


RAISE_SITES = {
    "QueryLabels without labels": (lambda: QueryLabels("q", {}), "has no labeled items"),
    "QueryLabels with a relevance of 2": (
        lambda: QueryLabels("q", {"g": 2}), "non-binary relevance"),
    "LabeledSet with a repeated pair": (
        lambda: LabeledSet.from_rows([{"query_id": "q", "gallery_id": "g", "relevance": 1}] * 2),
        "duplicate label"),
    "average_precision of an empty ranking": (
        lambda: average_precision([], {"g"}), "ranking is empty"),
    "hit_rate_at_k with k 0": (lambda: hit_rate_at_k(["g"], {"g"}, 0), "k must be >= 1"),
    "precision_at_k with k 0": (lambda: precision_at_k(["g"], {"g"}, 0), "k must be >= 1"),
    "query with k 0": (lambda: _index().query(np.ones(4), 0), "k must be >= 1"),
    "query with a NaN": (
        lambda: _index().query(np.array([1.0, np.nan, 0.0, 0.0]), 1), "not finite"),
    "build_index with an infinite row": (
        lambda: build_index(Gallery(["a"], ["s"], [0.0], [[np.inf, 0.0]])), "'a' is not finite"),
    "map_blocks with frames of two lengths": (
        lambda: map_blocks(np.asarray, [np.zeros(4), np.zeros(5)]), "frames differ in shape"),
    "map_blocks with no frames": (lambda: map_blocks(np.asarray, []), "no frames"),
    "split_and_contrast_loss with tau 0": (lambda: _loss_with_tau(0.0), "tau must be positive"),
    "TrainConfig with a NaN tau": (
        lambda: TrainConfig(tau=float("nan")), "tau must be finite and > 0"),
    "train with a config changed after its check": (
        _train_with_a_config_changed_after_its_check, "tau must be finite and > 0"),
}


@pytest.mark.parametrize("site", RAISE_SITES)
def test_raise_site_is_typed(site):
    call, message = RAISE_SITES[site]
    with pytest.raises(InvalidValue, match=message) as raised:
        call()
    assert isinstance(raised.value, AudioMatchError) and isinstance(raised.value, ValueError)

