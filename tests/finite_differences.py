"""Finite-difference oracle for the contrastive loss's analytic gradients."""

import numpy as np

from audiomatch.embedding import DEFAULT_TAU, split_and_contrast_loss


def loss_and_gradients(
    weight: np.ndarray, bias: np.ndarray, features: np.ndarray, split_index: int,
    tau: float = DEFAULT_TAU,
) -> tuple[float, np.ndarray, np.ndarray]:
    """The loss with its whole gradients: (loss, flat.T @ d_pre, d_pre.sum(0)).

    ``flat`` is the batch's (N n, d_base) features, as the loss reshapes
    them, so the products have the bits of the loss's own arrays.
    """
    features = np.asarray(features, dtype=np.float64)
    loss, d_pre = split_and_contrast_loss(weight, bias, features, split_index, tau)
    flat = features.reshape(-1, features.shape[-1])
    return loss, flat.T @ d_pre, d_pre.sum(axis=0)


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
    _, grad_weight, grad_bias = loss_and_gradients(weight, bias, features, split_index, tau)
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
        loss_plus, _ = split_and_contrast_loss(weight, bias, features, split_index, tau)
        target.flat[flat_index] = original - h
        loss_minus, _ = split_and_contrast_loss(weight, bias, features, split_index, tau)
        target.flat[flat_index] = original

        numeric = (loss_plus - loss_minus) / (2.0 * h)
        denom = max(abs(analytic), abs(numeric), 1e-5)
        worst = max(worst, abs(analytic - numeric) / denom)
    return worst
