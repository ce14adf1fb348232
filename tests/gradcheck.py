"""Central finite-difference verification of analytic gradients."""

from __future__ import annotations

import numpy as np


def grad_check(loss_fn, arrays, analytic_grads, h: float = 1e-5) -> float:
    """Max relative error between analytic gradients and central differences.

    ``loss_fn`` recomputes the scalar loss from the current contents of
    ``arrays`` (parameter values and/or inputs), which are perturbed in place
    entry by entry and restored. ``analytic_grads`` holds the matching
    gradient arrays. Relative error per entry is
    |a - n| / max(|a|, |n|, 1e-8).
    """
    worst = 0.0
    for arr, grad in zip(arrays, analytic_grads):
        arr = np.asarray(arr)
        grad = np.asarray(grad)
        if arr.shape != grad.shape:
            raise ValueError(f"array shape {arr.shape} != grad shape {grad.shape}")
        flat = arr.reshape(-1)
        gflat = grad.reshape(-1)
        for idx in range(flat.size):
            original = flat[idx]
            flat[idx] = original + h
            up = loss_fn()
            flat[idx] = original - h
            down = loss_fn()
            flat[idx] = original
            numeric = (up - down) / (2.0 * h)
            analytic = gflat[idx]
            denom = max(abs(analytic), abs(numeric), 1e-8)
            worst = max(worst, abs(analytic - numeric) / denom)
    return worst


def full_grad(param) -> np.ndarray:
    """``param``'s gradient as an array of its value's shape: a ``by_rows``
    gradient's touched rows, the other rows zero."""
    if param.rows is None:
        return param.grad
    full = np.zeros_like(param.value)
    full[param.rows] = param.grad
    return full
