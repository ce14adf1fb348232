"""Bias-corrected Adam."""

from __future__ import annotations

import math

import numpy as np

from ..errors import NumericError

# Elements per block of the update: two scratch blocks of this size stay in
# cache through the update's passes over them.
BLOCK = 1 << 15


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
        # each tensor is updated in blocks of whole leading-axis rows
        row = [math.prod(p.value.shape[1:]) for p in self.params]
        self._rows = [max(1, BLOCK // max(1, r)) for r in row]
        size = max([BLOCK, *row])  # a block is BLOCK elements or one longer row
        self._scratch = (np.empty(size), np.empty(size))

    def step(self) -> None:
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        # Each operation keeps the operands and order of ``m = b1*m + (1-b1)*g;
        # v = b2*v + (1-b2)*g**2; p -= lr * (m/bc1) / (sqrt(v/bc2) + eps)``, so
        # the bits are those of the whole-tensor expression.
        for p, m, v, rows in zip(self.params, self.m, self.v, self._rows):
            g = p.grad
            if not np.all(np.isfinite(g)):
                raise NumericError(f"non-finite gradient for {p.name!r}")
            for lo in range(0, len(g), rows):
                block = slice(lo, lo + rows)
                gb, mb, vb = g[block], m[block], v[block]
                a, b = (s[:gb.size].reshape(gb.shape) for s in self._scratch)
                mb *= self.beta1
                np.multiply(gb, 1.0 - self.beta1, out=a)
                mb += a
                vb *= self.beta2
                np.square(gb, out=a)
                a *= 1.0 - self.beta2
                vb += a
                np.divide(mb, bc1, out=a)
                a *= self.lr
                np.divide(vb, bc2, out=b)
                np.sqrt(b, out=b)
                b += self.eps
                a /= b
                p.value[block] -= a
