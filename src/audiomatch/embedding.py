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

A training step allocates nothing the size of the parameters or of a
batch, and no whole weight gradient exists.  ``train`` makes a batch
buffer and a gradient-block buffer once: each batch is gathered into the
batch buffer (the last, partial one into its first rows).  The loss
returns the gradient at the projection's output, and ``train``
multiplies the batch's features by it one block of weight rows at a time
into the block buffer, then applies Adam to those rows at once.  The
loss's own temporaries are a batch's rows of embeddings, not of
features: ``_project`` normalizes in place, and the step back through
the normalization goes through one buffer.  Every elementwise operation
is the one written, so the bits are those of the plain formulas.
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
        """Write the head as a little-endian SSCH checkpoint (f32 payload).

        The file is assembled in one buffer of its exact size: the header,
        then the row-major weight and the bias, each rounded to float32.
        """
        buffer = np.empty(16 + 4 * (self.weight.size + self.d), dtype=np.uint8)
        struct.pack_into("<4sIII", buffer, 0, _CHECKPOINT_MAGIC, _CHECKPOINT_VERSION,
                         self.d_base, self.d)
        payload = buffer[16:].view("<f4")
        payload[: self.weight.size].reshape(self.weight.shape)[...] = self.weight
        payload[self.weight.size :] = self.bias
        write_atomic(path, buffer)

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
    pre = rows @ weight
    pre += bias
    norms = np.linalg.norm(pre, axis=1)
    nonzero = norms > 0.0
    z = np.divide(pre, norms[:, None], out=pre, where=nonzero[:, None])
    # Zero vectors, and tiny ones whose squares underflow, map to the first basis vector.
    z[~nonzero] = 0.0
    z[~nonzero, 0] = 1.0
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
) -> tuple[float, np.ndarray]:
    """Contrastive split loss of a batch and its exact gradient at the projection's output.

    ``features`` holds N sequences of n consecutive frames, (N, n,
    d_base), each split after its first ``split_index`` frames.
    Positives are the N (last-left-frame, first-right-frame) pairs; the
    denominator sums exp(z_l . z_r / tau) over all left x right frame
    pairs in the batch.  Both sums are log-sum-exp stabilized.

    Returns:
        (loss, d_pre); loss >= 0 because the positive terms are a subset
        of the denominator terms.  d_pre is the (N n, d) gradient at the
        projection's output.  With flat = features.reshape(-1, d_base),
        the parameters' gradients are grad_weight = flat.T @ d_pre and
        grad_bias = d_pre.sum(axis=0), so a caller can form the weight
        gradient a block of rows at a time, never whole.

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

    # Through z = pre / ||pre||: d_pre = (dz - (z . dz) z) / ||pre||, and 0 where
    # ||pre|| = 0.  Those rows take the first steps on finite values, then are zeroed.
    nonzero = norms > 0.0
    d_pre = np.multiply(z, dz)
    inner = np.sum(d_pre, axis=1, keepdims=True)
    np.multiply(inner, z, out=d_pre)
    np.subtract(dz, d_pre, out=d_pre)
    np.divide(d_pre, norms[:, None], out=d_pre, where=nonzero[:, None])
    d_pre[~nonzero] = 0.0
    return float(loss), d_pre


@dataclass(frozen=True)
class TrainConfig:
    """Adam training schedule for the projection head; an unusable setting raises InvalidValue."""

    epochs: int = 20
    learning_rate: float = 1e-4
    batch_size: int = 64
    tau: float = DEFAULT_TAU
    seed: int = 0

    def __post_init__(self) -> None:
        # NaN fails every comparison, so a NaN setting is refused too.
        for ok, rule in (
            (self.epochs >= 1 and self.batch_size >= 1, "epochs and batch_size must be >= 1"),
            (0.0 <= self.learning_rate < np.inf, "learning_rate must be finite and >= 0"),
            (0.0 < self.tau < np.inf, "tau must be finite and > 0"),
        ):
            if not ok:
                raise InvalidValue(f"{rule}, got {self}")


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


# Adam's moment decay rates and denominator floor.
_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8

# Entries per Adam chunk: the chunk of the parameter, its gradient, both moments and
# the two scratch buffers (6 x 256 KB) stay in cache across the 13 operations.
_ADAM_CHUNK = 32768

# Weight rows per gradient block: 2.9 MB at d = 512.  At the benchmark's 2880 x 512
# head, 256-row blocks took about 8% more train time; 720 rows took no more than the
# whole gradient.
_GRAD_ROWS = 720


def _row_blocks(d_base: int) -> list[slice]:
    """The weight's rows in blocks of _GRAD_ROWS; a one-row tail joins the block before it.

    A block of flat.T @ d_pre has the bits of the whole product's rows where BLAS runs
    the same kernels for both, as OpenBLAS does at d = 512 for blocks of 2 or more rows
    at 1 or 2 threads.  A one-row block goes through gemv instead and differs.
    """
    edges = [0, *range(_GRAD_ROWS, d_base - 1, _GRAD_ROWS), d_base]
    return [slice(lo, hi) for lo, hi in zip(edges, edges[1:])]


def _adam_update(
    param: np.ndarray, grad: np.ndarray, m: np.ndarray, v: np.ndarray,
    scratch: np.ndarray, step: int, config: TrainConfig,
) -> None:
    """One Adam step on ``param`` in place, chunk by chunk over the flattened arrays.

    m = b1 m + (1 - b1) g; v = b2 v + (1 - b2) g^2; param -= lr * (m / (1 - b1^t))
    / (sqrt(v / (1 - b2^t)) + eps): each operation as written, for equal bits.  Every
    operation is elementwise, so the chunking changes no result.
    """
    b1, b2 = _BETA1, _BETA2
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
        denom += _EPS
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
        DegenerateBatch: Empty corpus, sequences shorter than 2 frames
            or of unequal shape, a non-finite feature (found before the
            first step), or a non-finite batch loss.
        DimensionMismatch: The corpus's d_base is not the head's.
    """
    config = config or TrainConfig()
    features = _as_feature_matrix(corpus)
    n_total, n_frames, d_base = features.shape
    if d_base != head.d_base:
        raise DimensionMismatch(
            f"corpus features have dimension {d_base}, head expects {head.d_base}"
        )

    rng = np.random.default_rng(config.seed)
    weight, bias = head.weight.copy(), head.bias.copy()
    # Adam's moments m and v per parameter array, each pair one allocation.  The weight's
    # pair is the largest block a call frees, and freeing it lifts glibc's mmap threshold
    # above the weight's size: later calls then take their weight-sized arrays from heap
    # pages already faulted in.  Two scratch buffers of one chunk serve all.
    (m_w, v_w), (m_b, v_b) = (np.zeros((2, *p.shape)) for p in (weight, bias))
    scratch = np.empty((2, min(_ADAM_CHUNK, max(weight.size, bias.size))))
    blocks = _row_blocks(d_base)
    # Made once and reused by every step: freed blocks this large would go back to
    # the OS and fault in again on the next step.
    grad_block = np.empty((max(block.stop - block.start for block in blocks), head.d))
    batch = np.empty((min(config.batch_size, n_total), n_frames, d_base))
    step = 0
    history: list[dict] = []

    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(n_total)
        for batch_index, start in enumerate(range(0, n_total, config.batch_size)):
            chosen = order[start : start + config.batch_size]
            # The indices are a permutation's, so "clip" clips nothing; it lets take
            # write straight into the buffer, where "raise" copies through a temporary.
            rows = np.take(features, chosen, axis=0, out=batch[: len(chosen)], mode="clip")
            split = int(rng.integers(1, n_frames))
            loss, d_pre = split_and_contrast_loss(weight, bias, rows, split, config.tau)
            if not np.isfinite(loss):
                raise DegenerateBatch(f"loss is {loss} at epoch {epoch}, batch {batch_index}")
            history.append({"epoch": epoch, "batch": batch_index, "loss": loss})

            step += 1
            # flat and d_pre do not read the weight: updating a block's rows in place
            # leaves the later blocks' gradients as they were.
            flat = rows.reshape(-1, d_base)
            for block in blocks:
                grad = grad_block[: block.stop - block.start]
                np.matmul(flat[:, block].T, d_pre, out=grad)
                _adam_update(weight[block], grad, m_w[block], v_w[block], scratch, step, config)
            _adam_update(bias, d_pre.sum(axis=0), m_b, v_b, scratch, step, config)
            # Freed before the next loss makes its own: two are never alive at once.
            del flat, d_pre

    # ProjectionHead copies the parameters: let that copy take the buffers' place.
    del m_w, v_w, scratch, grad_block, batch, rows
    return TrainResult(head=ProjectionHead(weight, bias), history=history)

