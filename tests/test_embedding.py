"""Projection head, contrastive loss, gradients, and training."""

import hashlib
import math
import os
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import audiomatch
from audiomatch import (
    ProjectionHead,
    TrainConfig,
    embed,
    split_and_contrast_loss,
    train,
)
from audiomatch import embedding
from audiomatch.errors import (
    AudioMatchError, DegenerateBatch, DimensionMismatch, InvalidValue, IoError,
)

from finite_differences import gradient_check, loss_and_gradients


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


# Adam's usual decay rates and denominator floor, which train uses.
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


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
            loss, grad_w, grad_b = loss_and_gradients(
                weight, bias, features[chosen], split, config.tau
            )
            history.append({"epoch": epoch, "batch": batch_index, "loss": loss})
            step += 1
            for param, grad, m, v in ((weight, grad_w, m_w, v_w), (bias, grad_b, m_b, v_b)):
                m *= ADAM_BETA1
                m += (1.0 - ADAM_BETA1) * grad
                v *= ADAM_BETA2
                v += (1.0 - ADAM_BETA2) * grad**2
                m_hat = m / (1.0 - ADAM_BETA1**step)
                v_hat = v / (1.0 - ADAM_BETA2**step)
                param -= config.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    return weight, bias, history


def reference_project(weight, bias, rows):
    """_project through boolean-mask copies: the bit-for-bit reference."""
    pre = rows @ weight + bias
    norms = np.linalg.norm(pre, axis=1)
    z = np.zeros_like(pre)
    nonzero = norms > 0.0
    z[nonzero] = pre[nonzero] / norms[nonzero, None]
    z[~nonzero, 0] = 1.0
    return z, norms


def reference_loss(weight, bias, features, split, tau=0.1):
    """split_and_contrast_loss with the masked-copy projection and d_pre formulas."""
    n_seq, n_frames, d_base = features.shape
    d, n_left, n_right = weight.shape[1], split, n_frames - split
    flat = features.reshape(-1, d_base)
    z, norms = reference_project(weight, bias, flat)
    z_seq = z.reshape(n_seq, n_frames, d)
    left = z_seq[:, :n_left].reshape(-1, d)
    right = z_seq[:, n_left:].reshape(-1, d)
    scores = (left @ right.T) / tau
    pos = np.arange(n_seq) * n_left + (n_left - 1), np.arange(n_seq) * n_right
    lse_all, lse_pos = embedding._logsumexp(scores), embedding._logsumexp(scores[pos])
    coeff = np.exp(scores - lse_all)
    coeff[pos] -= np.exp(scores[pos] - lse_pos)
    coeff /= tau
    dz_seq = np.empty_like(z_seq)
    dz_seq[:, :n_left] = (coeff @ right).reshape(n_seq, n_left, d)
    dz_seq[:, n_left:] = (coeff.T @ left).reshape(n_seq, n_right, d)
    dz = dz_seq.reshape(-1, d)
    nonzero = norms > 0.0
    d_pre = np.zeros_like(dz)
    inner = np.sum(z[nonzero] * dz[nonzero], axis=1, keepdims=True)
    d_pre[nonzero] = (dz[nonzero] - inner * z[nonzero]) / norms[nonzero, None]
    return float(lse_all - lse_pos), flat.T @ d_pre, d_pre.sum(axis=0)


class TestEmbed:
    def test_identity_head_normalizes(self):
        head = ProjectionHead(weight=np.eye(4), bias=np.zeros(4))
        rows = np.array([[3.0, 4.0, 0.0, 0.0], [0.0, 0.0, 0.0, 2.0]])
        assert np.allclose(embed(head, rows), [[0.6, 0.8, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0]])

    def test_unit_norm(self, rng):
        head = ProjectionHead.initialize(10, d=6, seed=3)
        z = embed(head, rng.normal(size=(20, 10)))
        assert z.shape == (20, 6)
        assert np.allclose(np.linalg.norm(z, axis=1), 1.0, atol=1e-6)

    def test_positive_scaling_invariance_with_zero_bias(self, rng):
        weight = rng.normal(size=(8, 5))
        head = ProjectionHead(weight=weight, bias=np.zeros(5))
        rows = rng.normal(size=(3, 8))
        assert np.allclose(embed(head, rows), embed(head, rows * 7.3), atol=1e-12)

    def test_zero_vector_maps_to_first_basis_vector(self):
        head = ProjectionHead(weight=np.zeros((4, 3)), bias=np.zeros(3))
        assert np.array_equal(embed(head, np.zeros((2, 4))), [[1.0, 0.0, 0.0]] * 2)

    def test_dimension_mismatch(self):
        head = ProjectionHead.initialize(5, d=4, seed=0)
        for shape in [(1, 6), (5,), (1, 1, 5)]:
            with pytest.raises(DimensionMismatch):
                embed(head, np.zeros(shape))

    def test_block_agrees_with_one_row_at_a_time(self, rng):
        # A block GEMM sums in another order than a one-row product: the
        # float64 rows agree to a few ulps, so float32 components agree to
        # within one float32 ulp (and are nearly always equal).
        head = ProjectionHead.initialize(2880, d=512, seed=1)
        rows = rng.normal(size=(16, 2880))
        block = embed(head, rows)
        single = np.concatenate([embed(head, row[None]) for row in rows])
        assert np.abs(block - single).max() < 1e-14
        block32, single32 = block.astype(np.float32), single.astype(np.float32)
        assert (np.abs(block32 - single32) <= np.spacing(np.abs(single32))).all()


class TestSplitAndContrastLoss:
    def test_single_pair_batch_is_exactly_zero(self, rng):
        head = ProjectionHead.initialize(6, d=4, seed=1)
        features, split = random_batch(rng, n_seq=1, n_frames=2, d_base=6)
        loss, grad_weight, grad_bias = loss_and_gradients(head.weight, head.bias, features, split)
        assert loss == 0.0
        assert np.sqrt(np.sum(grad_weight**2) + np.sum(grad_bias**2)) < 1e-8

    def test_loss_is_non_negative(self, rng):
        # The positive terms are a subset of the denominator terms.
        for _ in range(30):
            head = ProjectionHead.initialize(8, d=5, seed=int(rng.integers(1000)))
            loss, _ = split_and_contrast_loss(
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
            loss, _ = split_and_contrast_loss(head.weight, head.bias, features, split, tau)
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
        loss, _ = split_and_contrast_loss(np.eye(n_seq), np.zeros(n_seq), features, 1, tau=0.02)
        assert 0.0 <= loss < 1e-6

    def test_sequence_permutation_invariance(self, rng):
        features, split = random_batch(rng, n_seq=4, n_frames=5, d_base=7)
        head = ProjectionHead.initialize(7, d=6, seed=9)
        loss, _ = split_and_contrast_loss(head.weight, head.bias, features, split)
        loss_perm, _ = split_and_contrast_loss(
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


class TestLossOracle:
    """The loss's buffers and where= masks give the masked-copy formulas' bits."""

    @staticmethod
    def batch(rng, zero_rows):
        # 5 sequences x 6 frames x 40 features into d = 24.  With a zero bias, a zero
        # row projects to zero, and a row of 1e-170s to entries whose squares
        # underflow: both have norm 0 and map to the first basis vector.
        features = rng.normal(size=(5, 6, 40))
        weight = rng.normal(size=(40, 24)) / 6.0
        bias = np.zeros(24) if zero_rows else rng.normal(size=24) / 6.0
        if zero_rows:
            features[1, 2] = 0.0
            features[3, 5] = 1e-170
        return weight, bias, features

    @pytest.mark.parametrize("zero_rows", [False, True])
    def test_project_matches_masked_reference(self, rng, zero_rows):
        weight, bias, features = self.batch(rng, zero_rows)
        rows = features.reshape(-1, 40)
        z, norms = embedding._project(weight, bias, rows)
        z_ref, norms_ref = reference_project(weight, bias, rows)
        assert np.array_equal(z, z_ref) and np.array_equal(norms, norms_ref)
        zero = norms == 0.0
        assert zero.sum() == (2 if zero_rows else 0)
        assert (z[zero] == np.eye(24)[0]).all()

    @pytest.mark.parametrize("zero_rows", [False, True])
    @pytest.mark.parametrize("split", [1, 3, 5])
    @pytest.mark.parametrize("fortran_order", [False, True])
    def test_loss_and_gradients_match_masked_reference(self, rng, zero_rows, split, fortran_order):
        # The batch's memory layout does not change a bit: the loss reshapes a
        # Fortran-ordered batch into C-ordered rows before any product.
        weight, bias, features = self.batch(rng, zero_rows)
        batch = np.asfortranarray(features) if fortran_order else features
        loss, grad_weight, grad_bias = loss_and_gradients(weight, bias, batch, split)
        expected = reference_loss(weight, bias, features, split)
        assert loss == expected[0]
        assert np.array_equal(grad_weight, expected[1])
        assert np.array_equal(grad_bias, expected[2])


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
        _, grad_weight, _ = loss_and_gradients(head.weight, head.bias, features, split)
        flat_index = int(np.argmax(np.abs(grad_weight)))
        corrupted = 2.0 * grad_weight.flat[flat_index]

        h = 1e-5
        weight = head.weight.copy()
        original = weight.flat[flat_index]
        weight.flat[flat_index] = original + h
        plus, _ = split_and_contrast_loss(weight, head.bias, features, split)
        weight.flat[flat_index] = original - h
        minus, _ = split_and_contrast_loss(weight, head.bias, features, split)
        numeric = (plus - minus) / (2 * h)
        rel = abs(corrupted - numeric) / max(abs(corrupted), abs(numeric))
        assert rel > 1e-2

    def test_zero_gradient_at_constant_loss(self, rng):
        features, split = random_batch(rng, n_seq=1, n_frames=2, d_base=5)
        head = ProjectionHead.initialize(5, d=4, seed=7)
        _, grad_weight, grad_bias = loss_and_gradients(head.weight, head.bias, features, split)
        assert np.sqrt(np.sum(grad_weight**2) + np.sum(grad_bias**2)) < 1e-8


class TestTrain:
    def test_non_finite_loss_is_a_degenerate_batch(self, rng):
        # At the smallest positive tau every score overflows to +-inf, and the loss is NaN.
        head = ProjectionHead.initialize(6, d=4, seed=0)
        config = TrainConfig(epochs=1, batch_size=2, tau=5e-324)
        with np.errstate(all="ignore"), pytest.raises(DegenerateBatch) as raised:
            train(head, rng.normal(size=(4, 3, 6)), config)
        assert str(raised.value) == "loss is nan at epoch 1, batch 0"

    def test_zero_learning_rate_is_identity(self, rng):
        corpus = rng.normal(size=(6, 4, 10))
        head = ProjectionHead.initialize(10, d=8, seed=2)
        result = train(head, corpus, TrainConfig(epochs=3, learning_rate=0.0, batch_size=2))
        assert np.array_equal(result.head.weight, head.weight)
        assert np.array_equal(result.head.bias, head.bias)

    def test_corpus_of_another_dimension_is_rejected(self, rng):
        head = ProjectionHead.initialize(10, d=4, seed=0)
        corpus = rng.normal(size=(4, 3, 12))
        for given in (corpus, list(corpus)):
            with pytest.raises(DimensionMismatch, match="dimension 12, head expects 10"):
                train(head, given, TrainConfig(epochs=1, batch_size=2))

    def test_same_seed_bit_identical(self, rng):
        corpus = rng.normal(size=(8, 5, 12))
        head = ProjectionHead.initialize(12, d=6, seed=5)
        config = TrainConfig(epochs=4, batch_size=3, seed=11)
        a = train(head, corpus, config)
        b = train(head, corpus, config)
        assert np.array_equal(a.head.weight, b.head.weight)
        assert np.array_equal(a.head.bias, b.head.bias)
        assert a.history == b.history

    def test_loss_decreases_on_learnable_corpus(self, drift_features):
        features = drift_features(12, 6, seed=3)
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
            TrainConfig(epochs=3, learning_rate=3e-2, batch_size=2, tau=0.3, seed=7),
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

    def test_chunked_adam_matches_out_of_place_adam_bit_for_bit(self, rng):
        # 300 x 250 weights span several of train's Adam chunks and end in a partial one.
        assert 300 * 250 % embedding._ADAM_CHUNK and 300 * 250 > 2 * embedding._ADAM_CHUNK
        features = rng.normal(size=(7, 4, 300))
        head = ProjectionHead.initialize(300, d=250, seed=3)
        config = TrainConfig(epochs=2, learning_rate=3e-2, batch_size=3, seed=5)
        result = train(head, features, config)
        weight, bias, history = reference_train(head, features, config)
        assert np.array_equal(result.head.weight, weight)
        assert np.array_equal(result.head.bias, bias)
        assert result.history == history

    def test_memory_holds_one_gradient_block_and_one_batch(self, rng, monkeypatch):
        # The 300 x 250 head as above, in gradient blocks of 64 rows (128 KB).  Beyond
        # the parameters, Adam's two moments, one gradient block, one batch and Adam's
        # two chunk-sized scratch buffers, the peak may hold 256 KB: the loss's
        # temporaries for 12 rows and Python objects.  A whole weight gradient (600 KB)
        # would exceed it.
        monkeypatch.setattr(embedding, "_GRAD_ROWS", 64)
        features = rng.normal(size=(7, 4, 300))
        head = ProjectionHead.initialize(300, d=250, seed=3)
        config = TrainConfig(epochs=2, learning_rate=3e-2, batch_size=3, seed=5)
        train(head, features[:2], TrainConfig(epochs=1, batch_size=2))  # first-call caches
        tracemalloc.start()
        try:
            train(head, features, config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        parameters = head.weight.nbytes + head.bias.nbytes
        block = 64 * head.weight.shape[1] * 8
        scratch = 2 * 8 * min(embedding._ADAM_CHUNK, head.weight.size)
        batch = features[:3].nbytes
        assert peak < 3 * parameters + block + batch + scratch + (256 << 10)

    def test_non_finite_corpus_raises_degenerate_batch(self, rng):
        corpus = rng.normal(size=(6, 4, 6))
        corpus[4, 2, 1] = np.inf
        head = ProjectionHead.initialize(6, d=4, seed=1)
        with pytest.raises(DegenerateBatch, match="sequence 4 holds a non-finite feature"):
            train(head, corpus, TrainConfig(epochs=2, batch_size=2))

    @pytest.mark.parametrize(
        "setting",
        [
            {"epochs": 0}, {"batch_size": 0}, {"batch_size": -1},
            {"learning_rate": -1e-3}, {"learning_rate": math.nan}, {"learning_rate": math.inf},
            {"tau": 0.0}, {"tau": math.nan}, {"tau": math.inf},
        ],
    )
    def test_degenerate_settings_rejected(self, rng, setting):
        head = ProjectionHead.initialize(6, d=4, seed=1)
        with pytest.raises(ValueError):
            train(head, rng.normal(size=(4, 3, 6)), TrainConfig(**setting))


# Trains a 200 -> 32 head in gradient blocks of 48 rows (the last one 8) and prints
# the trained parameters' digest.
BLOCKED_TRAIN = """
import hashlib
import numpy as np
from audiomatch import embedding
embedding._GRAD_ROWS = 48
features = np.random.default_rng(7).normal(size=(12, 5, 200))
head = embedding.ProjectionHead.initialize(200, d=32, seed=1)
config = embedding.TrainConfig(epochs=2, learning_rate=3e-2, batch_size=6, seed=2)
result = embedding.train(head, features, config)
print(hashlib.sha256(result.head.weight.tobytes() + result.head.bias.tobytes()).hexdigest())
"""


class TestGradientBlocks:
    """train's weight gradient, one block of rows at a time, has the whole product's bits."""

    def test_blocks_cover_the_rows_and_none_is_one_row(self, monkeypatch):
        monkeypatch.setattr(embedding, "_GRAD_ROWS", 4)
        edges = {d_base: [(b.start, b.stop) for b in embedding._row_blocks(d_base)]
                 for d_base in range(1, 30)}
        assert edges[10] == [(0, 4), (4, 8), (8, 10)]
        assert edges[9] == [(0, 4), (4, 9)]
        assert edges[4] == [(0, 4)] and edges[1] == [(0, 1)]
        for d_base, blocks in edges.items():
            assert [lo for lo, _ in blocks] == [0, *(hi for _, hi in blocks[:-1])]
            assert blocks[-1][1] == d_base
            assert all(2 <= hi - lo <= 5 for lo, hi in blocks) or blocks == [(0, 1)]

    @pytest.mark.parametrize(
        "d_base, d",
        [(10, 5), (9, 5), (1, 5), (10, 1), (9, 1), (1, 1), (42, 16)],
        ids=["2-row-tail", "1-row-tail-folded", "one-row-weight", "d1-2-row-tail",
             "d1-1-row-tail-folded", "one-entry-weight", "many-blocks"],
    )
    def test_blocked_train_matches_whole_gradient_adam(self, rng, monkeypatch, d_base, d):
        monkeypatch.setattr(embedding, "_GRAD_ROWS", 4)
        features = rng.normal(size=(7, 4, d_base))
        head = ProjectionHead.initialize(d_base, d=d, seed=3)
        config = TrainConfig(epochs=2, learning_rate=3e-2, batch_size=3, seed=5)
        result = train(head, features, config)
        weight, bias, history = reference_train(head, features, config)
        assert np.array_equal(result.head.weight, weight)
        assert np.array_equal(result.head.bias, bias)
        assert result.history == history
        # Adam's first steps hide a last-bit change of the gradient: compare it too.
        _, d_pre = split_and_contrast_loss(weight, bias, features[:3], 2)
        flat = features[:3].reshape(-1, d_base)
        blocked = [flat[:, rows].T @ d_pre for rows in embedding._row_blocks(d_base)]
        assert np.array_equal(np.concatenate(blocked), flat.T @ d_pre)

    def test_blocked_train_at_one_blas_thread_matches_whole_gradient_adam(self):
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
        src = str(Path(audiomatch.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-c", BLOCKED_TRAIN], env=env, capture_output=True, text=True,
            check=True, timeout=300,
        )
        features = np.random.default_rng(7).normal(size=(12, 5, 200))
        head = ProjectionHead.initialize(200, d=32, seed=1)
        config = TrainConfig(epochs=2, learning_rate=3e-2, batch_size=6, seed=2)
        weight, bias, _ = reference_train(head, features, config)
        assert done.stdout.strip() == hashlib.sha256(weight.tobytes() + bias.tobytes()).hexdigest()


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
        with pytest.raises(IoError):
            ProjectionHead.load(bad)

    def test_missing_file_is_an_io_error(self, tmp_path):
        path = tmp_path / "absent.ssch"
        with pytest.raises(IoError) as raised:
            ProjectionHead.load(path)
        assert str(raised.value).startswith(f"cannot read checkpoint {path}: [Errno 2]")

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

    def test_non_finite_payload_names_the_file(self, tmp_path):
        path = tmp_path / "nan.ssch"
        ProjectionHead.initialize(6, d=4, seed=0).save(path)
        raw = bytearray(path.read_bytes())
        raw[-4:] = struct.pack("<f", float("nan"))
        path.write_bytes(bytes(raw))
        with pytest.raises(InvalidValue, match=f"^checkpoint {path}: head parameters must be finite"):
            ProjectionHead.load(path)
        assert issubclass(InvalidValue, ValueError)

    def test_load_memory_is_a_small_multiple_of_the_file(self, tmp_path):
        path = tmp_path / "big.ssch"
        ProjectionHead.initialize(2880, d=64, seed=0).save(path)
        tracemalloc.start()
        try:
            ProjectionHead.load(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * path.stat().st_size  # the bytes, float64 copies and a finite mask

    def test_save_memory_is_one_file(self, tmp_path):
        # 2880 x 512: a 5.9 MB file.  Joining float32 copies of the parameters would
        # hold two files' worth.
        head = ProjectionHead.initialize(2880, d=512, seed=0)
        path = tmp_path / "head.ssch"
        tracemalloc.start()
        try:
            head.save(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < path.stat().st_size + (64 << 10)


def checkpoint_oracle(raw: bytes):
    """(weight, bias) of whole, finite SSCH v1 bytes, or None where load must raise."""
    if len(raw) < 16 or raw[:4] != b"SSCH":
        return None
    version, d_base, d = struct.unpack_from("<III", raw, 4)
    if version != 1 or d_base == 0 or d == 0 or len(raw) != 16 + 4 * (d_base * d + d):
        return None
    values = np.frombuffer(raw, dtype="<f4", offset=16).astype(np.float64)
    if not np.isfinite(values).all():
        return None
    return values[: d_base * d].reshape(d_base, d), values[d_base * d :]


_HEADER_VALUES = [0, 1, 2, 3, 7, 2**16, 2**31, 2**32 - 1]


@st.composite
def mutated_checkpoints(draw) -> bytes:
    """Bytes of a saved head, then header fields, payload floats and the length mutated."""
    d_base, d = draw(st.integers(1, 6), label="d_base"), draw(st.integers(1, 6), label="d")
    head = ProjectionHead.initialize(d_base, d=d, seed=draw(st.integers(0, 3)))
    raw = bytearray(b"SSCH" + struct.pack("<III", 1, d_base, d)
                    + head.weight.astype("<f4").tobytes() + head.bias.astype("<f4").tobytes())
    for field in (4, 8, 12):  # version, d_base, d
        if draw(st.integers(0, 5), label=f"edit field {field}") == 0:
            value = struct.unpack_from("<I", raw, field)[0]
            edge = draw(st.sampled_from([*_HEADER_VALUES, value + 1, value - 1]))
            struct.pack_into("<I", raw, field, edge % 2**32)
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]), label="payload edits")):
        at = draw(st.integers(0, d_base * d + d - 1), label="float")
        value = draw(st.sampled_from([float("nan"), float("inf"), -float("inf"), 0.0, 1e30]))
        struct.pack_into("<f", raw, 16 + 4 * at, value)
    edit = draw(st.sampled_from(["none", "none", "truncate", "append"]), label="length")
    if edit == "truncate":
        del raw[draw(st.integers(0, len(raw) - 1)):]
    elif edit == "append":
        raw += draw(st.binary(min_size=1, max_size=8))
    return bytes(raw)


@pytest.fixture(scope="module")
def checkpoint_path(tmp_path_factory):
    return tmp_path_factory.mktemp("ssch") / "head.ssch"


class TestCheckpointFuzz:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(raw=mutated_checkpoints())
    def test_mutated_checkpoint_loads_as_oracle_or_raises(self, checkpoint_path, raw):
        checkpoint_path.write_bytes(raw)
        expected = checkpoint_oracle(raw)
        tracemalloc.start()
        try:
            if expected is None:
                with pytest.raises(AudioMatchError):
                    ProjectionHead.load(checkpoint_path)
            else:
                head = ProjectionHead.load(checkpoint_path)
                assert np.array_equal(head.weight, expected[0])
                assert np.array_equal(head.bias, expected[1])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * len(raw) + 64_000  # a claimed size is never allocated
