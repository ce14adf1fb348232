"""Bias-corrected Adam."""

from __future__ import annotations

import numpy as np

from ..errors import NumericError


class Adam:
    """Standard Adam over a fixed parameter list.

    Moments are keyed by position in the list, so the same optimizer instance
    must always be stepped with the same parameters in the same order.
    """

    def __init__(self, params, learning_rate: float = 1e-5, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        if learning_rate < 0.0:
            # zero is allowed: stepping then leaves every parameter unchanged
            raise ValueError(f"learning rate must be >= 0, got {learning_rate}")
        self.params = list(params)
        self.lr = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = [np.zeros_like(p.value) for p in self.params]
        self.v = [np.zeros_like(p.value) for p in self.params]

    def step(self) -> None:
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        for p, m, v in zip(self.params, self.m, self.v):
            g = p.grad
            if not np.all(np.isfinite(g)):
                raise NumericError(f"non-finite gradient for {p.name!r}")
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * np.square(g)
            p.value -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)
