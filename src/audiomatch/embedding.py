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
Adam, in place on float64 arrays, with one split index per batch.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .audio_io import write_atomic
from .errors import DegenerateBatch, DimensionMismatch, InvalidValue, IoError

DEFAULT_DIM = 512
DEFAULT_TAU = 0.1

_CHECKPOINT_MAGIC = b"SSCH"
_CHECKPOINT_VERSION = 1


def _parameters(weight: np.ndarray, bias: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Weight and bias as float64; DimensionMismatch unless (d_base, d) and (d,), d_base, d >= 1."""
    weight = np.asarray(weight, dtype=np.float64)
    bias = np.asarray(bias, dtype=np.float64)
    if weight.ndim != 2 or bias.ndim != 1 or weight.shape[1] != bias.shape[0] or not weight.size:
        raise DimensionMismatch(
            f"weight {weight.shape} and bias {bias.shape} do not form a head with d_base, d >= 1"
        )
    return weight, bias


@dataclass(frozen=True)
class ProjectionHead:
    """Linear projection with bias; immutable during inference.

    Attributes:
        weight: (d_base, d) float64 matrix, d_base and d >= 1.
        bias: (d,) float64 vector.
    """

    weight: np.ndarray
    bias: np.ndarray

    def __post_init__(self) -> None:
        # One float64 copy of each, whatever the input's dtype.
        weight, bias = _parameters(
            np.array(self.weight, dtype=np.float64), np.array(self.bias, dtype=np.float64)
        )
        if not (np.all(np.isfinite(weight)) and np.all(np.isfinite(bias))):
            raise InvalidValue("head parameters must be finite")
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
        if d_base < 1 or d < 1:
            raise DimensionMismatch(f"head dimensions must be >= 1, got d_base={d_base}, d={d}")
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
            write_atomic(path, header + body)
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
            raise IoError(f"checkpoint {path} has unsupported version {version}")
        expected = 16 + 4 * (d_base * d + d)
        if len(raw) != expected:
            raise IoError(f"checkpoint {path} has {len(raw)} bytes, expected {expected}")
        weight = np.frombuffer(raw, dtype="<f4", count=d_base * d, offset=16)
        bias = np.frombuffer(raw, dtype="<f4", count=d, offset=16 + 4 * d_base * d)
        try:
            return cls(weight=weight.reshape(d_base, d), bias=bias)
        except InvalidValue as exc:
            raise InvalidValue(f"checkpoint {path}: {exc}") from None


def _project(weight: np.ndarray, bias: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, ...]:
    """Project ``rows`` through (weight, bias) and L2-normalize; returns (z, norms)."""
    pre = rows @ weight + bias
    norms = np.linalg.norm(pre, axis=1)
    z = np.zeros_like(pre)
    nonzero = norms > 0.0
    z[nonzero] = pre[nonzero] / norms[nonzero, None]
    z[~nonzero, 0] = 1.0  # zero vectors map to the first basis vector
    return z, norms


def embed(head: ProjectionHead, rows: np.ndarray) -> np.ndarray:
    """Unit-norm embeddings of an (m, d_base) matrix of base features, shape (m, d).

    Raises:
        DimensionMismatch: Rows are not (m, d_base) for the head's d_base.
    """
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2 or rows.shape[1] != head.d_base:
        raise DimensionMismatch(
            f"features have shape {rows.shape}, head expects (m, {head.d_base})"
        )
    z, _ = _project(head.weight, head.bias, rows)
    return z


def _logsumexp(values: np.ndarray) -> float:
    peak = float(np.max(values))
    return peak + float(np.log(np.sum(np.exp(values - peak))))


def split_and_contrast_loss(
    weight: np.ndarray, bias: np.ndarray, features: np.ndarray, split_index: int,
    tau: float = DEFAULT_TAU,
) -> tuple[float, np.ndarray, np.ndarray]:
    """Contrastive split loss of a batch and its exact gradients.

    ``features`` holds N sequences of n consecutive frames, (N, n,
    d_base), each split after its first ``split_index`` frames.
    Positives are the N (last-left-frame, first-right-frame) pairs; the
    denominator sums exp(z_l . z_r / tau) over all left x right frame
    pairs in the batch.  Both sums are log-sum-exp stabilized.

    Returns:
        (loss, grad_weight, grad_bias); loss >= 0 because the positive
        terms are a subset of the denominator terms.

    Raises:
        InvalidValue: tau is not positive.
        DegenerateBatch: Features not 3-D, N < 1, n < 2, or split_index
            outside 1..n-1.
        DimensionMismatch: Inconsistent weight and bias, or features of
            another dimension than the head's d_base.
    """
    if not tau > 0.0:
        raise InvalidValue("tau must be positive")
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 3:
        raise DegenerateBatch(f"expected (N, n, d_base) features, got {features.shape}")
    n_seq, n_frames, d_base = features.shape
    if n_seq < 1 or n_frames < 2:
        raise DegenerateBatch(f"batch needs N >= 1 and n >= 2, got N={n_seq}, n={n_frames}")
    if not 1 <= split_index <= n_frames - 1:
        raise DegenerateBatch(f"split_index {split_index} outside 1..{n_frames - 1}")
    weight, bias = _parameters(weight, bias)
    if d_base != weight.shape[0]:
        raise DimensionMismatch(
            f"batch features have dimension {d_base}, head expects {weight.shape[0]}"
        )
    d = weight.shape[1]
    n_left = split_index
    n_right = n_frames - n_left

    flat = features.reshape(n_seq * n_frames, d_base)
    z, norms = _project(weight, bias, flat)
    z_seq = z.reshape(n_seq, n_frames, d)

    left = z_seq[:, :n_left, :].reshape(n_seq * n_left, d)
    right = z_seq[:, n_left:, :].reshape(n_seq * n_right, d)

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
    dz_seq[:, :n_left, :] = d_left.reshape(n_seq, n_left, d)
    dz_seq[:, n_left:, :] = d_right.reshape(n_seq, n_right, d)
    dz = dz_seq.reshape(n_seq * n_frames, d)

    # Through z = pre / ||pre||: d_pre = (dz - (z . dz) z) / ||pre||.
    nonzero = norms > 0.0
    d_pre = np.zeros_like(dz)
    inner = np.sum(z[nonzero] * dz[nonzero], axis=1, keepdims=True)
    d_pre[nonzero] = (dz[nonzero] - inner * z[nonzero]) / norms[nonzero, None]

    return float(loss), flat.T @ d_pre, d_pre.sum(axis=0)


@dataclass
class TrainConfig:
    """Adam training schedule for the projection head; an unusable setting raises InvalidValue."""

    epochs: int = 20
    learning_rate: float = 1e-4
    batch_size: int = 64
    tau: float = DEFAULT_TAU
    seed: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    def __post_init__(self) -> None:
        _check_config(self)


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


def _check_config(config: TrainConfig) -> None:
    """Raise InvalidValue for a setting train cannot use; comparisons with NaN fail."""
    for ok, rule in (
        (config.epochs >= 1 and config.batch_size >= 1, "epochs and batch_size must be >= 1"),
        (0.0 <= config.learning_rate < np.inf, "learning_rate must be finite and >= 0"),
        (0.0 < config.tau < np.inf, "tau must be finite and > 0"),
        (0.0 < config.eps < np.inf, "eps must be finite and > 0"),
        (0.0 <= config.beta1 < 1.0 and 0.0 <= config.beta2 < 1.0, "beta1, beta2 must be in [0, 1)"),
    ):
        if not ok:
            raise InvalidValue(f"{rule}, got {config}")


def _as_feature_matrix(corpus: np.ndarray | Sequence[np.ndarray]) -> np.ndarray:
    try:
        features = np.asarray(corpus, dtype=np.float64)
    except ValueError as exc:  # ragged sequences
        raise DegenerateBatch("sequences must share one frame count and dimension") from exc
    if features.ndim != 3 or len(features) < 1 or features.shape[1] < 2:
        raise DegenerateBatch(f"need N >= 1 sequences of n >= 2 frames, got {features.shape}")
    # One sequence at a time keeps the check's temporary small.
    for index, sequence in enumerate(features):
        if not np.isfinite(sequence).all():
            raise DegenerateBatch(f"sequence {index} holds a non-finite feature")
    return features


# Entries per Adam chunk: the chunk of the parameter, its gradient, both moments and
# the two scratch buffers (6 x 256 KB) stay in cache across the 13 operations.
_ADAM_CHUNK = 32768


def _adam_update(
    param: np.ndarray, grad: np.ndarray, m: np.ndarray, v: np.ndarray,
    scratch: np.ndarray, step: int, config: TrainConfig,
) -> None:
    """One Adam step on ``param`` in place, chunk by chunk over the flattened arrays.

    m = b1 m + (1 - b1) g; v = b2 v + (1 - b2) g^2; param -= lr * (m / (1 - b1^t))
    / (sqrt(v / (1 - b2^t)) + eps): each operation as written, for equal bits.  Every
    operation is elementwise, so the chunking changes no result.
    """
    b1, b2 = config.beta1, config.beta2
    param, grad, m, v = (array.reshape(-1) for array in (param, grad, m, v))
    for start in range(0, param.size, _ADAM_CHUNK):
        chunk = slice(start, start + _ADAM_CHUNK)
        p, g, m_c, v_c = param[chunk], grad[chunk], m[chunk], v[chunk]
        update, denom = scratch[0, : len(p)], scratch[1, : len(p)]
        m_c *= b1
        m_c += np.multiply(g, 1.0 - b1, out=update)
        v_c *= b2
        v_c += np.multiply(np.square(g, out=denom), 1.0 - b2, out=denom)
        np.sqrt(np.divide(v_c, 1.0 - b2**step, out=denom), out=denom)
        denom += config.eps
        np.divide(m_c, 1.0 - b1**step, out=update)
        update *= config.learning_rate
        p -= np.divide(update, denom, out=update)


def train(
    head: ProjectionHead,
    corpus: np.ndarray | Sequence[np.ndarray],
    config: TrainConfig | None = None,
) -> TrainResult:
    """Run Adam over shuffled batches of frame sequences.

    ``corpus`` is an (N, n, d_base) array or a list of (n, d_base)
    arrays.  One fresh uniform-random split index is drawn per batch.
    The input head is not mutated; the same seed gives the same bits.

    Raises:
        InvalidValue: A TrainConfig setting out of range.
        DegenerateBatch: Empty corpus, sequences shorter than 2 frames
            or of unequal shape, a non-finite feature (found before the
            first step), or a non-finite batch loss.
    """
    config = config or TrainConfig()
    _check_config(config)
    features = _as_feature_matrix(corpus)
    n_total, n_frames, d_base = features.shape
    if d_base != head.d_base:
        raise DimensionMismatch(
            f"corpus features have dimension {d_base}, head expects {head.d_base}"
        )

    rng = np.random.default_rng(config.seed)
    params = (head.weight.copy(), head.bias.copy())
    # Per parameter array: Adam's moments m and v.  Two scratch buffers of one chunk serve all.
    moments = [(np.zeros_like(p), np.zeros_like(p)) for p in params]
    scratch = np.empty((2, min(_ADAM_CHUNK, max(p.size for p in params))))
    step = 0
    history: list[dict] = []

    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(n_total)
        for batch_index, start in enumerate(range(0, n_total, config.batch_size)):
            chosen = order[start : start + config.batch_size]
            split = int(rng.integers(1, n_frames))
            loss, *grads = split_and_contrast_loss(*params, features[chosen], split, config.tau)
            if not np.isfinite(loss):
                raise DegenerateBatch(f"loss is {loss} at epoch {epoch}, batch {batch_index}")
            history.append({"epoch": epoch, "batch": batch_index, "loss": loss})

            step += 1
            for param, grad, (m, v) in zip(params, grads, moments):
                _adam_update(param, grad, m, v, scratch, step, config)

    return TrainResult(head=ProjectionHead(*params), history=history)


def gradient_check(
    weight: np.ndarray, bias: np.ndarray, features: np.ndarray, split_index: int,
    tau: float = DEFAULT_TAU, h: float = 1e-5, samples: int = 120, seed: int = 0,
) -> float:
    """Compare analytic gradients against central finite differences.

    Perturbs ``samples`` randomly chosen weight/bias entries by +/-h and
    returns the maximum relative error, with the denominator floored at
    1e-5 so entries whose true gradient is numerically zero do not
    dominate the statistic.  Perturbs one private copy of the arrays.
    """
    rng = np.random.default_rng(seed)
    _, grad_weight, grad_bias = split_and_contrast_loss(weight, bias, features, split_index, tau)
    weight = np.array(weight, dtype=np.float64)
    bias = np.array(bias, dtype=np.float64)

    n_weight = weight.size
    n_total = n_weight + bias.size
    picks = rng.choice(n_total, size=min(samples, n_total), replace=False)

    worst = 0.0
    for pick in picks:
        if pick < n_weight:
            target, flat_index = weight, pick
            analytic = grad_weight.flat[flat_index]
        else:
            target, flat_index = bias, pick - n_weight
            analytic = grad_bias.flat[flat_index]

        original = target.flat[flat_index]
        target.flat[flat_index] = original + h
        loss_plus, _, _ = split_and_contrast_loss(weight, bias, features, split_index, tau)
        target.flat[flat_index] = original - h
        loss_minus, _, _ = split_and_contrast_loss(weight, bias, features, split_index, tau)
        target.flat[flat_index] = original

        numeric = (loss_plus - loss_minus) / (2.0 * h)
        denom = max(abs(analytic), abs(numeric), 1e-5)
        worst = max(worst, abs(analytic - numeric) / denom)
    return worst
