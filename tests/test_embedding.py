"""Projection head, contrastive loss, gradients, and training."""

import math
import struct

import numpy as np
import pytest

from audiomatch import (
    ProjectionHead,
    TrainConfig,
    embed,
    gradient_check,
    split_and_contrast_loss,
    train,
)
from audiomatch.dsp import BaseFeature, FeatureKind
from audiomatch.errors import DegenerateBatch, DimensionMismatch
from audiomatch.synthetic import drift_corpus_features


def brute_force_loss(weight, bias, features, split, tau):
    """Direct double-sum reference: pure-Python loops, no vectorization,
    no log-sum-exp.  Embeds each frame independently through (weight, bias)."""
    n_seq, n_frames, _ = features.shape

    def unit(vec):
        pre = weight.T @ vec + bias
        norm = math.sqrt(float(pre @ pre))
        if norm == 0.0:
            out = np.zeros(weight.shape[1])
            out[0] = 1.0
            return out
        return pre / norm

    z = [[unit(features[s, f]) for f in range(n_frames)] for s in range(n_seq)]
    numerator = 0.0
    for s in range(n_seq):
        numerator += math.exp(float(z[s][split - 1] @ z[s][split]) / tau)
    denominator = 0.0
    for s_left in range(n_seq):
        for f_left in range(split):
            for s_right in range(n_seq):
                for f_right in range(split, n_frames):
                    denominator += math.exp(
                        float(z[s_left][f_left] @ z[s_right][f_right]) / tau
                    )
    return -math.log(numerator / denominator)


def random_batch(rng, n_seq=None, n_frames=None, d_base=None):
    n_seq = n_seq or int(rng.integers(1, 5))
    n_frames = n_frames or int(rng.integers(2, 7))
    d_base = d_base or int(rng.integers(4, 13))
    features = rng.normal(size=(n_seq, n_frames, d_base))
    split = int(rng.integers(1, n_frames))
    return features, split


def reference_train(head, features, config):
    """Out-of-place Adam over the same seeded batch order and split draws as train()."""
    rng = np.random.default_rng(config.seed)
    weight, bias = head.weight.copy(), head.bias.copy()
    m_w, v_w = np.zeros_like(weight), np.zeros_like(weight)
    m_b, v_b = np.zeros_like(bias), np.zeros_like(bias)
    history, step = [], 0
    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(len(features))
        for batch_index, start in enumerate(range(0, len(features), config.batch_size)):
            chosen = order[start : start + config.batch_size]
            split = int(rng.integers(1, features.shape[1]))
            loss, grad_w, grad_b = split_and_contrast_loss(
                weight, bias, features[chosen], split, config.tau
            )
            history.append({"epoch": epoch, "batch": batch_index, "loss": loss})
            step += 1
            for param, grad, m, v in ((weight, grad_w, m_w, v_w), (bias, grad_b, m_b, v_b)):
                m *= config.beta1
                m += (1.0 - config.beta1) * grad
                v *= config.beta2
                v += (1.0 - config.beta2) * grad**2
                m_hat = m / (1.0 - config.beta1**step)
                v_hat = v / (1.0 - config.beta2**step)
                param -= config.learning_rate * m_hat / (np.sqrt(v_hat) + config.eps)
    return weight, bias, history


class TestEmbed:
    def test_identity_head_normalizes(self):
        head = ProjectionHead(weight=np.eye(4), bias=np.zeros(4))
        base = BaseFeature(values=np.array([3.0, 4.0, 0.0, 0.0]), kind=FeatureKind.MEL)
        assert np.allclose(embed(head, base), [0.6, 0.8, 0.0, 0.0])

    def test_unit_norm(self, rng):
        head = ProjectionHead.initialize(10, d=6, seed=3)
        for _ in range(20):
            base = BaseFeature(values=rng.normal(size=10), kind=FeatureKind.MEL)
            assert np.linalg.norm(embed(head, base)) == pytest.approx(1.0, abs=1e-6)

    def test_positive_scaling_invariance_with_zero_bias(self, rng):
        weight = rng.normal(size=(8, 5))
        head = ProjectionHead(weight=weight, bias=np.zeros(5))
        base = BaseFeature(values=rng.normal(size=8), kind=FeatureKind.MEL)
        scaled = BaseFeature(values=base.values * 7.3, kind=FeatureKind.MEL)
        assert np.allclose(embed(head, base), embed(head, scaled), atol=1e-12)

    def test_zero_vector_maps_to_first_basis_vector(self):
        head = ProjectionHead(weight=np.zeros((4, 3)), bias=np.zeros(3))
        base = BaseFeature(values=np.zeros(4), kind=FeatureKind.MEL)
        assert np.array_equal(embed(head, base), [1.0, 0.0, 0.0])

    def test_dimension_mismatch(self):
        head = ProjectionHead.initialize(5, d=4, seed=0)
        base = BaseFeature(values=np.zeros(6), kind=FeatureKind.MEL)
        with pytest.raises(DimensionMismatch):
            embed(head, base)


class TestSplitAndContrastLoss:
    def test_single_pair_batch_is_exactly_zero(self, rng):
        head = ProjectionHead.initialize(6, d=4, seed=1)
        features, split = random_batch(rng, n_seq=1, n_frames=2, d_base=6)
        loss, grad_weight, grad_bias = split_and_contrast_loss(
            head.weight, head.bias, features, split
        )
        assert loss == 0.0
        assert np.sqrt(np.sum(grad_weight**2) + np.sum(grad_bias**2)) < 1e-8

    def test_loss_is_non_negative(self, rng):
        # The positive terms are a subset of the denominator terms.
        for _ in range(30):
            head = ProjectionHead.initialize(8, d=5, seed=int(rng.integers(1000)))
            loss, _, _ = split_and_contrast_loss(
                head.weight, head.bias, *random_batch(rng, d_base=8)
            )
            assert loss >= 0.0

    def test_matches_brute_force_reference(self, rng):
        for _ in range(25):
            features, split = random_batch(rng)
            head = ProjectionHead.initialize(
                features.shape[2], d=int(rng.integers(3, 17)),
                seed=int(rng.integers(1000)),
            )
            tau = float(rng.uniform(0.05, 1.0))
            loss, _, _ = split_and_contrast_loss(head.weight, head.bias, features, split, tau)
            reference = brute_force_loss(head.weight, head.bias, features, split, tau)
            assert loss == pytest.approx(reference, rel=1e-8)

    def test_loss_vanishes_for_well_separated_embeddings(self):
        # Identity head, sequences on orthogonal axes: every positive
        # pair has similarity 1 and every cross pair 0, so with a small
        # temperature the positive terms dominate the denominator.
        n_seq = 4
        features = np.zeros((n_seq, 2, n_seq))
        for s in range(n_seq):
            features[s, :, s] = 5.0
        loss, _, _ = split_and_contrast_loss(np.eye(n_seq), np.zeros(n_seq), features, 1, tau=0.02)
        assert 0.0 <= loss < 1e-6

    def test_sequence_permutation_invariance(self, rng):
        features, split = random_batch(rng, n_seq=4, n_frames=5, d_base=7)
        head = ProjectionHead.initialize(7, d=6, seed=9)
        loss, _, _ = split_and_contrast_loss(head.weight, head.bias, features, split)
        loss_perm, _, _ = split_and_contrast_loss(
            head.weight, head.bias, features[[2, 0, 3, 1]], split
        )
        assert loss_perm == pytest.approx(loss, rel=1e-12)

    def test_degenerate_batches_rejected(self, rng):
        head = ProjectionHead.initialize(3, d=4, seed=0)
        for shape, split in (((0, 4, 3), 1), ((2, 1, 3), 1), ((2, 4, 3), 4), ((2, 4, 3), 0),
                             ((4, 3), 1)):
            with pytest.raises(DegenerateBatch):
                split_and_contrast_loss(head.weight, head.bias, rng.normal(size=shape), split)

    def test_dimension_mismatch(self, rng):
        head = ProjectionHead.initialize(5, d=4, seed=0)
        with pytest.raises(DimensionMismatch):
            split_and_contrast_loss(head.weight, head.bias, *random_batch(rng, d_base=6))
        features, split = random_batch(rng, d_base=5)
        for weight, bias in ((head.weight, np.zeros(3)), (head.weight[0], head.bias),
                             (np.zeros((5, 0)), np.zeros(0))):
            with pytest.raises(DimensionMismatch):
                split_and_contrast_loss(weight, bias, features, split)

    def test_tau_must_be_positive(self, rng):
        head = ProjectionHead.initialize(6, d=4, seed=0)
        with pytest.raises(ValueError):
            split_and_contrast_loss(head.weight, head.bias, *random_batch(rng, d_base=6), tau=0.0)


class TestGradients:
    def test_analytic_matches_finite_differences(self, rng):
        for trial in range(5):
            features, split = random_batch(rng)
            head = ProjectionHead.initialize(
                features.shape[2], d=int(rng.integers(3, 13)), seed=trial
            )
            worst = gradient_check(head.weight, head.bias, features, split, samples=40, seed=trial)
            assert worst < 1e-4

    def test_corrupted_gradient_is_detected(self, rng):
        # Doubling the largest analytic entry must blow past the tolerance
        # when compared against the central difference at that entry.
        features, split = random_batch(rng, n_seq=3, n_frames=4, d_base=8)
        head = ProjectionHead.initialize(8, d=6, seed=4)
        _, grad_weight, _ = split_and_contrast_loss(head.weight, head.bias, features, split)
        flat_index = int(np.argmax(np.abs(grad_weight)))
        corrupted = 2.0 * grad_weight.flat[flat_index]

        h = 1e-5
        weight = head.weight.copy()
        original = weight.flat[flat_index]
        weight.flat[flat_index] = original + h
        plus, _, _ = split_and_contrast_loss(weight, head.bias, features, split)
        weight.flat[flat_index] = original - h
        minus, _, _ = split_and_contrast_loss(weight, head.bias, features, split)
        numeric = (plus - minus) / (2 * h)
        rel = abs(corrupted - numeric) / max(abs(corrupted), abs(numeric))
        assert rel > 1e-2

    def test_zero_gradient_at_constant_loss(self, rng):
        features, split = random_batch(rng, n_seq=1, n_frames=2, d_base=5)
        head = ProjectionHead.initialize(5, d=4, seed=7)
        _, grad_weight, grad_bias = split_and_contrast_loss(head.weight, head.bias, features, split)
        assert np.sqrt(np.sum(grad_weight**2) + np.sum(grad_bias**2)) < 1e-8


class TestTrain:
    def test_zero_learning_rate_is_identity(self, rng):
        corpus = rng.normal(size=(6, 4, 10))
        head = ProjectionHead.initialize(10, d=8, seed=2)
        result = train(head, corpus, TrainConfig(epochs=3, learning_rate=0.0, batch_size=2))
        assert np.array_equal(result.head.weight, head.weight)
        assert np.array_equal(result.head.bias, head.bias)

    def test_same_seed_bit_identical(self, rng):
        corpus = rng.normal(size=(8, 5, 12))
        head = ProjectionHead.initialize(12, d=6, seed=5)
        config = TrainConfig(epochs=4, batch_size=3, seed=11)
        a = train(head, corpus, config)
        b = train(head, corpus, config)
        assert np.array_equal(a.head.weight, b.head.weight)
        assert np.array_equal(a.head.bias, b.head.bias)
        assert a.history == b.history

    def test_loss_decreases_on_learnable_corpus(self):
        features = drift_corpus_features(12, 6, seed=3)
        head = ProjectionHead.initialize(features.shape[2], d=64, seed=0)
        result = train(
            head, features, TrainConfig(epochs=6, learning_rate=1e-3, batch_size=3, seed=0)
        )
        means = result.epoch_means()
        assert len(means) == 6
        assert means[-1] < means[0]

    def test_history_rows_are_complete(self, rng):
        corpus = rng.normal(size=(4, 3, 6))
        head = ProjectionHead.initialize(6, d=4, seed=1)
        result = train(head, corpus, TrainConfig(epochs=2, batch_size=2, seed=0))
        assert len(result.history) == 2 * 2
        assert all({"epoch", "batch", "loss"} <= set(row) for row in result.history)

    def test_empty_corpus_rejected(self):
        head = ProjectionHead.initialize(6, d=4, seed=1)
        with pytest.raises(DegenerateBatch):
            train(head, [], TrainConfig(epochs=1))

    def test_short_sequences_rejected(self, rng):
        head = ProjectionHead.initialize(6, d=4, seed=1)
        with pytest.raises(DegenerateBatch):
            train(head, rng.normal(size=(3, 1, 6)), TrainConfig(epochs=1))

    def test_ragged_sequences_rejected(self, rng):
        head = ProjectionHead.initialize(6, d=4, seed=1)
        for ragged in ([rng.normal(size=(3, 6)), rng.normal(size=(4, 6))],
                       [rng.normal(size=(3, 6)), rng.normal(size=(3, 5))]):
            with pytest.raises(DegenerateBatch):
                train(head, ragged, TrainConfig(epochs=1))

    def test_list_of_sequences_equals_array(self, rng):
        corpus = rng.normal(size=(5, 4, 6))
        head = ProjectionHead.initialize(6, d=4, seed=1)
        config = TrainConfig(epochs=2, batch_size=2, learning_rate=1e-2)
        a, b = train(head, corpus, config), train(head, list(corpus), config)
        assert np.array_equal(a.head.weight, b.head.weight) and a.history == b.history

    @pytest.mark.parametrize(
        "config",
        [
            TrainConfig(epochs=3, batch_size=3, seed=4),
            TrainConfig(epochs=3, learning_rate=3e-2, batch_size=2, tau=0.3, seed=7,
                        beta1=0.5, beta2=0.9, eps=1e-4),
        ],
    )
    def test_matches_out_of_place_adam_bit_for_bit(self, rng, config):
        features = rng.normal(size=(7, 4, 6))
        head = ProjectionHead.initialize(6, d=5, seed=3)
        result = train(head, features, config)
        weight, bias, history = reference_train(head, features, config)
        assert np.array_equal(result.head.weight, weight)
        assert np.array_equal(result.head.bias, bias)
        assert result.history == history

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_corpus_raises_degenerate_batch(self, rng):
        corpus = rng.normal(size=(6, 4, 6))
        corpus[4, 2, 1] = np.inf
        head = ProjectionHead.initialize(6, d=4, seed=1)
        with pytest.raises(DegenerateBatch, match="epoch 1"):
            train(head, corpus, TrainConfig(epochs=2, batch_size=2))

    @pytest.mark.parametrize(
        "setting",
        [
            {"epochs": 0}, {"batch_size": 0}, {"batch_size": -1},
            {"learning_rate": -1e-3}, {"learning_rate": math.nan}, {"learning_rate": math.inf},
            {"tau": 0.0}, {"tau": math.nan}, {"tau": math.inf},
            {"beta1": 1.0}, {"beta1": -0.1}, {"beta2": 1.0}, {"beta2": math.nan},
            {"eps": 0.0}, {"eps": math.nan},
        ],
    )
    def test_degenerate_settings_rejected(self, rng, setting):
        head = ProjectionHead.initialize(6, d=4, seed=1)
        with pytest.raises(ValueError):
            train(head, rng.normal(size=(4, 3, 6)), TrainConfig(**setting))


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        head = ProjectionHead.initialize(10, d=7, seed=8)
        path = tmp_path / "head.ssch"
        head.save(path)
        loaded = ProjectionHead.load(path)
        assert loaded.d_base == 10 and loaded.d == 7
        # Storage is f32, so compare after one quantization.
        assert np.array_equal(loaded.weight, head.weight.astype(np.float32).astype(np.float64))

        path2 = tmp_path / "head2.ssch"
        loaded.save(path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_rejects_garbage(self, tmp_path):
        bad = tmp_path / "bad.ssch"
        bad.write_bytes(b"not a checkpoint")
        from audiomatch.errors import IoError

        with pytest.raises(IoError):
            ProjectionHead.load(bad)

    @pytest.mark.parametrize("d_base, d", [(0, 4), (4, 0), (0, 0)])
    def test_zero_width_head_rejected(self, tmp_path, d_base, d):
        with pytest.raises(DimensionMismatch):
            ProjectionHead.initialize(d_base, d=d)
        path = tmp_path / "zero.ssch"
        path.write_bytes(b"SSCH" + struct.pack("<III", 1, d_base, d) + bytes(4 * d))
        with pytest.raises(DimensionMismatch):
            ProjectionHead.load(path)

    def test_rejects_truncation(self, tmp_path):
        head = ProjectionHead.initialize(6, d=4, seed=0)
        path = tmp_path / "head.ssch"
        head.save(path)
        (tmp_path / "trunc.ssch").write_bytes(path.read_bytes()[:-8])
        from audiomatch.errors import IoError

        with pytest.raises(IoError):
            ProjectionHead.load(tmp_path / "trunc.ssch")
