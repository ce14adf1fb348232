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
        # the bits are those of the whole-tensor expression. The gradient
        # terms are added to the rows that have a gradient: every row of a
        # same-shaped one, the touched rows of a ``by_rows`` one. A row with
        # none then keeps ``b1*m`` for ``b1*m + 0``, which differs only where
        # b1*m is -0.0, a negative moment that underflowed; the parameter's
        # bits then differ only if it is -0.0 too.
        for p, m, v, rows in zip(self.params, self.m, self.v, self._rows):
            g, touched = p.grad, p.rows
            if not np.all(np.isfinite(g)):
                raise NumericError(f"non-finite gradient for {p.name!r}")
            for lo in range(0, len(m), rows):
                block = slice(lo, lo + rows)
                mb, vb, gb, at = m[block], v[block], g[block], None
                if touched is not None:  # the block's touched rows, at ``at`` in it
                    i, j = np.searchsorted(touched, (lo, lo + rows))
                    gb, at = g[i:j], touched[i:j] - lo
                a, b = (s[:mb.size].reshape(mb.shape) for s in self._scratch)
                ga = a[:len(gb)]
                mb *= self.beta1
                np.multiply(gb, 1.0 - self.beta1, out=ga)
                _add(mb, at, ga)
                vb *= self.beta2
                np.square(gb, out=ga)
                ga *= 1.0 - self.beta2
                _add(vb, at, ga)
                np.divide(mb, bc1, out=a)
                a *= self.lr
                np.divide(vb, bc2, out=b)
                np.sqrt(b, out=b)
                b += self.eps
                a /= b
                p.value[block] -= a


def _add(block: np.ndarray, at: np.ndarray | None, terms: np.ndarray) -> None:
    """``block[at] += terms``, or ``block += terms`` if ``at`` is None,
    which ``block[:] += terms`` would follow with a copy onto itself."""
    if at is None:
        block += terms
    else:
        block[at] += terms
