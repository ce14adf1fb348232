"""Binary cross entropy with optional L2 penalty."""

from __future__ import annotations

import numpy as np

from ..errors import NumericError

PROB_EPS = 1e-12


def bce_loss(p: np.ndarray, y: np.ndarray):
    """Mean binary cross entropy over the output units.

    Probabilities are clamped to [1e-12, 1 - 1e-12] before the logs.
    Returns (loss, dloss/dp); the clamp is treated as the identity in the
    backward pass.
    """
    p = np.asarray(p, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if p.shape != y.shape:
        raise ValueError(f"prediction shape {p.shape} != target shape {y.shape}")
    pc = np.clip(p, PROB_EPS, 1.0 - PROB_EPS)
    k = p.size
    loss = -np.sum(y * np.log(pc) + (1.0 - y) * np.log(1.0 - pc)) / k
    if not np.isfinite(loss):
        raise NumericError("non-finite BCE loss")
    dp = (pc - y) / (pc * (1.0 - pc)) / k
    return loss, dp


def l2_penalty(weights, lam: float) -> float:
    """(lam/2) * sum of squared entries over the given weight tensors."""
    if lam == 0.0:
        return 0.0
    return 0.5 * lam * float(sum(np.sum(np.square(w)) for w in weights))


def add_l2_gradients(params, lam: float) -> None:
    """Accumulate d/dW of the L2 penalty (= lam * W) into the grad buffers."""
    if lam == 0.0:
        return
    for p in params:
        p.grad += lam * p.value
