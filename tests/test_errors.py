"""Every value check outside the codecs raises the typed InvalidValue, still a ValueError."""

from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from audiomatch import (
    AudioClip,
    Gallery,
    LabeledSet,
    ProjectionHead,
    Strategy,
    TrainConfig,
    TransitionPlan,
    average_precision,
    build_index,
    featurize_clip,
    hit_rate_at_k,
    precision_at_k,
    render,
    split_and_contrast_loss,
)
from audiomatch.errors import AudioMatchError, InvalidValue


def _index():
    vectors = np.eye(3, 4, dtype=np.float32)
    return build_index(Gallery(["a", "b", "c"], ["s", "s", "t"], np.zeros(3), vectors))


def _loss_with_tau(tau):
    head = ProjectionHead.initialize(4, d=2, seed=0)
    split_and_contrast_loss(head.weight, head.bias, np.ones((2, 2, 4)), 1, tau=tau)


RAISE_SITES = {
    "LabeledSet without labels": (lambda: LabeledSet({"q": {}}), "has no labeled items"),
    "LabeledSet with a relevance of 2": (
        lambda: LabeledSet({"q": {"g": 2}}), "non-binary relevance"),
    "LabeledSet with a repeated pair": (
        lambda: LabeledSet.from_rows([{"query_id": "q", "gallery_id": "g", "relevance": 1}] * 2),
        "duplicate label"),
    "AudioClip with 2-D samples": (
        lambda: AudioClip(np.zeros((2, 4)), 48000), "samples must be 1-D"),
    "render with a negative crossfade": (
        lambda: render(AudioClip(np.zeros(4), 48000), AudioClip(np.zeros(4), 48000),
                       TransitionPlan(Strategy.FIXED_CROSSFADE, 2, 2, -0.1)),
        "crossfade_s must be >= 0"),
    "average_precision of an empty ranking": (
        lambda: average_precision([], {"g"}), "ranking is empty"),
    "hit_rate_at_k with k 0": (lambda: hit_rate_at_k(["g"], {"g"}, 0), "k must be >= 1"),
    "precision_at_k with k 0": (lambda: precision_at_k(["g"], {"g"}, 0), "k must be >= 1"),
    "query with k 0": (lambda: _index().query(np.ones(4), 0), "k must be >= 1"),
    "query with a NaN": (
        lambda: _index().query(np.array([1.0, np.nan, 0.0, 0.0]), 1), "not finite"),
    "build_index with an infinite row": (
        lambda: build_index(Gallery(["a"], ["s"], [0.0], [[np.inf, 0.0]])), "'a' is not finite"),
    "featurize_clip with frames of two lengths": (
        lambda: featurize_clip([np.zeros(2048), np.zeros(2049)]), "frames differ in shape"),
    "featurize_clip with no frames": (lambda: featurize_clip([]), "no frames"),
    "split_and_contrast_loss with tau 0": (lambda: _loss_with_tau(0.0), "tau must be positive"),
    "TrainConfig with a NaN tau": (
        lambda: TrainConfig(tau=float("nan")), "tau must be finite and > 0"),
}


@pytest.mark.parametrize("site", RAISE_SITES)
def test_raise_site_is_typed(site):
    call, message = RAISE_SITES[site]
    with pytest.raises(InvalidValue, match=message) as raised:
        call()
    assert isinstance(raised.value, AudioMatchError) and isinstance(raised.value, ValueError)



def test_train_config_is_frozen():
    # Checked once, when made: a setting cannot change after the check.
    config = TrainConfig(epochs=1)
    with pytest.raises(FrozenInstanceError):
        config.tau = 0.0
    assert config.tau == TrainConfig().tau
