"""Trainable L2-normalizing linear projection over base features.

The head maps flattened spectrogram features to unit vectors used for
retrieval.  It is trained with a self-supervised contrastive objective
over batches of consecutive 1-second frames: each sequence is split at
a shared random index into a left and a right section, the pair of
frames adjacent across the split is treated as a positive, and the
softmax denominator ranges over every left-frame x right-frame pair in
the batch (positives included):

    loss = -log( sum_k exp(z_kl . z_kr / tau)
                 / sum_ij exp(z_ai . z_bj / tau) )

Gradients are exact analytic derivatives through the projection and the
normalization, with log-sum-exp stabilization.  Training runs plain
Adam over shuffled batches with one fresh split index per batch.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .dsp import BaseFeature
from .errors import DegenerateBatch, DimensionMismatch, IoError

DEFAULT_DIM = 512
DEFAULT_TAU = 0.1

_CHECKPOINT_MAGIC = b"SSCH"
_CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class ProjectionHead:
    """Linear projection with bias; immutable during inference.

    Attributes:
        weight: (d_base, d) float64 matrix.
        bias: (d,) float64 vector.
    """

    weight: np.ndarray
    bias: np.ndarray

    def __post_init__(self) -> None:
        weight = np.asarray(self.weight, dtype=np.float64)
        bias = np.asarray(self.bias, dtype=np.float64)
        if weight.ndim != 2 or bias.ndim != 1 or weight.shape[1] != bias.shape[0]:
            raise DimensionMismatch(
                f"weight {weight.shape} and bias {bias.shape} are inconsistent"
            )
        if not (np.all(np.isfinite(weight)) and np.all(np.isfinite(bias))):
            raise ValueError("head parameters must be finite")
        weight = weight.copy()
        bias = bias.copy()
        weight.flags.writeable = False
        bias.flags.writeable = False
        object.__setattr__(self, "weight", weight)
        object.__setattr__(self, "bias", bias)

    @property
    def d_base(self) -> int:
        return self.weight.shape[0]

    @property
    def d(self) -> int:
        return self.weight.shape[1]

    @classmethod
    def initialize(cls, d_base: int, d: int = DEFAULT_DIM, seed: int = 0) -> "ProjectionHead":
        """Seeded uniform(-1/sqrt(d_base), 1/sqrt(d_base)) initialization."""
        rng = np.random.default_rng(seed)
        bound = 1.0 / np.sqrt(d_base)
        return cls(
            weight=rng.uniform(-bound, bound, size=(d_base, d)),
            bias=rng.uniform(-bound, bound, size=d),
        )

    def save(self, path: str | Path) -> None:
        """Write the head as a little-endian SSCH checkpoint (f32 payload)."""
        header = _CHECKPOINT_MAGIC + struct.pack("<III", _CHECKPOINT_VERSION, self.d_base, self.d)
        body = (
            self.weight.astype("<f4").tobytes()  # row-major
            + self.bias.astype("<f4").tobytes()
        )
        try:
            Path(path).write_bytes(header + body)
        except OSError as exc:
            raise IoError(f"cannot write checkpoint {path}: {exc}") from exc

    @classmethod
    def load(cls, path: str | Path) -> "ProjectionHead":
        try:
            raw = Path(path).read_bytes()
        except OSError as exc:
            raise IoError(f"cannot read checkpoint {path}: {exc}") from exc
        if len(raw) < 16 or raw[:4] != _CHECKPOINT_MAGIC:
            raise IoError(f"{path} is not a projection head checkpoint")
        version, d_base, d = struct.unpack_from("<III", raw, 4)
        if version != _CHECKPOINT_VERSION:
            raise IoError(f"unsupported checkpoint version {version}")
        expected = 16 + 4 * (d_base * d + d)
        if len(raw) != expected:
            raise IoError(f"checkpoint {path} has {len(raw)} bytes, expected {expected}")
        weight = np.frombuffer(raw, dtype="<f4", count=d_base * d, offset=16)
        bias = np.frombuffer(raw, dtype="<f4", count=d, offset=16 + 4 * d_base * d)
        return cls(weight=weight.reshape(d_base, d).astype(np.float64),
                   bias=bias.astype(np.float64))


@dataclass(frozen=True)
class HeadGradients:
    """Loss gradients with the same shapes as the head parameters."""

    weight: np.ndarray
    bias: np.ndarray

    def norm(self) -> float:
        return float(np.sqrt(np.sum(self.weight**2) + np.sum(self.bias**2)))


@dataclass(frozen=True)
class TrainBatch:
    """N sequences of n consecutive frames plus a shared split index.

    ``features`` is (N, n, d_base); ``split_index`` is the length of
    the left section, in 1..n-1.
    """

    features: np.ndarray
    split_index: int

    def __post_init__(self) -> None:
        features = np.asarray(self.features, dtype=np.float64)
        if features.ndim != 3:
            raise DegenerateBatch(f"expected (N, n, d_base) features, got {features.shape}")
        n_seq, n_frames, _ = features.shape
        if n_seq < 1 or n_frames < 2:
            raise DegenerateBatch(f"batch needs N >= 1 and n >= 2, got N={n_seq}, n={n_frames}")
        if not 1 <= self.split_index <= n_frames - 1:
            raise DegenerateBatch(
                f"split_index {self.split_index} outside 1..{n_frames - 1}"
            )
        object.__setattr__(self, "features", features)

    @property
    def n_sequences(self) -> int:
        return self.features.shape[0]

    @property
    def n_frames(self) -> int:
        return self.features.shape[1]


def _project(head: ProjectionHead, flat: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Project rows of ``flat`` and L2-normalize; returns (z, pre, norms)."""
    pre = flat @ head.weight + head.bias
    norms = np.linalg.norm(pre, axis=1)
    z = np.zeros_like(pre)
    nonzero = norms > 0.0
    z[nonzero] = pre[nonzero] / norms[nonzero, None]
    z[~nonzero, 0] = 1.0  # zero vectors map to the first basis vector
    return z, pre, norms


def embed(head: ProjectionHead, base: BaseFeature) -> np.ndarray:
    """Unit-norm embedding of one base feature.

    Raises:
        DimensionMismatch: Base dimension differs from the head's input.
    """
    if base.dimension != head.d_base:
        raise DimensionMismatch(
            f"base feature has dimension {base.dimension}, head expects {head.d_base}"
        )
    z, _, _ = _project(head, base.values[None, :])
    return z[0]


def embed_rows(head: ProjectionHead, rows: np.ndarray) -> np.ndarray:
    """Unit-norm embeddings of a (m, d_base) matrix of base features."""
    rows = np.asarray(rows, dtype=np.float64)
    if rows.shape[1] != head.d_base:
        raise DimensionMismatch(
            f"features have dimension {rows.shape[1]}, head expects {head.d_base}"
        )
    z, _, _ = _project(head, rows)
    return z


def _logsumexp(values: np.ndarray) -> float:
    peak = float(np.max(values))
    return peak + float(np.log(np.sum(np.exp(values - peak))))


def split_and_contrast_loss(
    head: ProjectionHead, batch: TrainBatch, tau: float = DEFAULT_TAU
) -> tuple[float, HeadGradients]:
    """Contrastive split loss and its exact gradients.

    Positives are the N (last-left-frame, first-right-frame) pairs; the
    denominator sums exp(z_l . z_r / tau) over all left x right frame
    pairs in the batch.  Both sums are log-sum-exp stabilized.

    Returns:
        (loss, gradients); loss >= 0 because the positive terms are a
        subset of the denominator terms.

    Raises:
        DegenerateBatch: Empty batch or n < 2.
        DimensionMismatch: Feature dimension differs from the head's.
    """
    if tau <= 0.0:
        raise ValueError("tau must be positive")
    n_seq, n_frames, d_base = batch.features.shape
    if d_base != head.d_base:
        raise DimensionMismatch(
            f"batch features have dimension {d_base}, head expects {head.d_base}"
        )
    n_left = batch.split_index
    n_right = n_frames - n_left

    flat = batch.features.reshape(n_seq * n_frames, d_base)
    z, _, norms = _project(head, flat)
    z_seq = z.reshape(n_seq, n_frames, head.d)

    left = z_seq[:, :n_left, :].reshape(n_seq * n_left, head.d)
    right = z_seq[:, n_left:, :].reshape(n_seq * n_right, head.d)

    scores = (left @ right.T) / tau
    pos_rows = np.arange(n_seq) * n_left + (n_left - 1)
    pos_cols = np.arange(n_seq) * n_right

    lse_all = _logsumexp(scores)
    lse_pos = _logsumexp(scores[pos_rows, pos_cols])
    loss = lse_all - lse_pos

    # dL/ds_ij = (p_ij - q_ij) / tau with p the full softmax and q the
    # softmax restricted to the positive pairs.
    coeff = np.exp(scores - lse_all)
    coeff[pos_rows, pos_cols] -= np.exp(scores[pos_rows, pos_cols] - lse_pos)
    coeff /= tau

    d_left = coeff @ right
    d_right = coeff.T @ left

    dz_seq = np.empty_like(z_seq)
    dz_seq[:, :n_left, :] = d_left.reshape(n_seq, n_left, head.d)
    dz_seq[:, n_left:, :] = d_right.reshape(n_seq, n_right, head.d)
    dz = dz_seq.reshape(n_seq * n_frames, head.d)

    # Through z = pre / ||pre||: d_pre = (dz - (z . dz) z) / ||pre||.
    nonzero = norms > 0.0
    d_pre = np.zeros_like(dz)
    inner = np.sum(z[nonzero] * dz[nonzero], axis=1, keepdims=True)
    d_pre[nonzero] = (dz[nonzero] - inner * z[nonzero]) / norms[nonzero, None]

    grads = HeadGradients(weight=flat.T @ d_pre, bias=d_pre.sum(axis=0))
    return float(loss), grads


@dataclass
class TrainConfig:
    """Adam training schedule for the projection head."""

    epochs: int = 20
    learning_rate: float = 1e-4
    batch_size: int = 64
    tau: float = DEFAULT_TAU
    seed: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8


@dataclass
class TrainResult:
    """Trained head plus the per-batch loss history."""

    head: ProjectionHead
    history: list[dict] = field(default_factory=list)

    def epoch_means(self) -> list[float]:
        epochs: dict[int, list[float]] = {}
        for row in self.history:
            epochs.setdefault(row["epoch"], []).append(row["loss"])
        return [float(np.mean(epochs[e])) for e in sorted(epochs)]


def _as_feature_matrix(corpus: Iterable[Sequence[BaseFeature] | np.ndarray]) -> np.ndarray:
    sequences = []
    for seq in corpus:
        if isinstance(seq, np.ndarray):
            sequences.append(np.asarray(seq, dtype=np.float64))
        else:
            sequences.append(np.stack([frame.values for frame in seq]).astype(np.float64))
    if not sequences:
        raise DegenerateBatch("training corpus is empty")
    n_frames = sequences[0].shape[0]
    if n_frames < 2:
        raise DegenerateBatch("sequences need at least 2 frames")
    if any(seq.shape != sequences[0].shape for seq in sequences):
        raise DegenerateBatch("all sequences must share the same frame count and dimension")
    return np.stack(sequences)


def train(
    head: ProjectionHead,
    corpus: Iterable[Sequence[BaseFeature] | np.ndarray],
    config: TrainConfig | None = None,
) -> TrainResult:
    """Run Adam over shuffled batches of frame sequences.

    One fresh uniform-random split index is drawn per batch.  The input
    head is not mutated; two runs with the same seed produce
    bit-identical results.

    Raises:
        DegenerateBatch: Empty corpus or sequences shorter than 2 frames.
    """
    config = config or TrainConfig()
    features = _as_feature_matrix(corpus)
    n_total, n_frames, d_base = features.shape
    if d_base != head.d_base:
        raise DimensionMismatch(
            f"corpus features have dimension {d_base}, head expects {head.d_base}"
        )

    rng = np.random.default_rng(config.seed)
    weight = head.weight.copy()
    bias = head.bias.copy()
    m_w = np.zeros_like(weight)
    v_w = np.zeros_like(weight)
    m_b = np.zeros_like(bias)
    v_b = np.zeros_like(bias)
    step = 0
    history: list[dict] = []

    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(n_total)
        for batch_index, start in enumerate(range(0, n_total, config.batch_size)):
            chosen = order[start : start + config.batch_size]
            split = int(rng.integers(1, n_frames))
            batch = TrainBatch(features=features[chosen], split_index=split)
            loss, grads = split_and_contrast_loss(
                ProjectionHead(weight=weight, bias=bias), batch, config.tau
            )
            history.append({"epoch": epoch, "batch": batch_index, "loss": loss})

            step += 1
            for param, grad, m, v in (
                (weight, grads.weight, m_w, v_w),
                (bias, grads.bias, m_b, v_b),
            ):
                m *= config.beta1
                m += (1.0 - config.beta1) * grad
                v *= config.beta2
                v += (1.0 - config.beta2) * grad**2
                m_hat = m / (1.0 - config.beta1**step)
                v_hat = v / (1.0 - config.beta2**step)
                param -= config.learning_rate * m_hat / (np.sqrt(v_hat) + config.eps)

    return TrainResult(head=ProjectionHead(weight=weight, bias=bias), history=history)


def gradient_check(
    head: ProjectionHead,
    batch: TrainBatch,
    tau: float = DEFAULT_TAU,
    h: float = 1e-5,
    samples: int = 120,
    seed: int = 0,
) -> float:
    """Compare analytic gradients against central finite differences.

    Perturbs ``samples`` randomly chosen weight/bias entries by +/-h and
    returns the maximum relative error, with the denominator floored at
    1e-5 so entries whose true gradient is numerically zero do not
    dominate the statistic.
    """
    rng = np.random.default_rng(seed)
    _, grads = split_and_contrast_loss(head, batch, tau)

    n_weight = head.weight.size
    n_total = n_weight + head.bias.size
    picks = rng.choice(n_total, size=min(samples, n_total), replace=False)

    worst = 0.0
    for pick in picks:
        weight = head.weight.copy()
        bias = head.bias.copy()
        if pick < n_weight:
            target, flat_index = weight, pick
            analytic = grads.weight.flat[flat_index]
        else:
            target, flat_index = bias, pick - n_weight
            analytic = grads.bias.flat[flat_index]

        original = target.flat[flat_index]
        target.flat[flat_index] = original + h
        loss_plus, _ = split_and_contrast_loss(ProjectionHead(weight, bias), batch, tau)
        target.flat[flat_index] = original - h
        loss_minus, _ = split_and_contrast_loss(ProjectionHead(weight, bias), batch, tau)
        target.flat[flat_index] = original

        numeric = (loss_plus - loss_minus) / (2.0 * h)
        denom = max(abs(analytic), abs(numeric), 1e-5)
        worst = max(worst, abs(analytic - numeric) / denom)
    return worst
