"""Layers with hand-derived backward passes.

Every layer caches what its backward pass needs during forward; the intended
call pattern is one forward followed by one backward per instance (models are
single-threaded per instance). Parameter gradients accumulate into
``Param.grad`` buffers and are zeroed explicitly between optimizer steps.
"""

from __future__ import annotations

import numpy as np

DEFAULT_LEAKY_SLOPE = 0.01


def sigmoid(x):
    """Numerically stable and branch-free: never exponentiates a positive.

    Gives the same bits as ``1 / (1 + exp(-x))`` for ``x >= 0`` and
    ``exp(x) / (1 + exp(x))`` below zero.
    """
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def softmax(v):
    v = np.asarray(v, dtype=np.float64)
    shifted = v - v.max()
    ex = np.exp(shifted)
    return ex / ex.sum()


class Param:
    """Named parameter tensor with a same-shaped gradient buffer.

    ``decay`` marks the tensor for the trainer's L2 penalty.
    """

    __slots__ = ("name", "value", "grad", "decay")

    def __init__(self, name: str, value: np.ndarray, decay: bool = False):
        self.name = name
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = np.zeros_like(self.value)
        self.decay = decay

    def zero_grad(self) -> None:
        self.grad[...] = 0.0

    def __repr__(self) -> str:
        return f"Param({self.name!r}, shape={self.value.shape})"


def _constant_tail(x: np.ndarray) -> int:
    """First row of the run of trailing rows of ``x`` that are bit-for-bit
    equal to its last row.

    Padding gives such a run. Bits are compared, not values, so a row that
    differs only in a NaN payload or in the sign of a zero ends it too.
    """
    bits = x.view(np.uint64)
    differs = np.flatnonzero((bits != bits[-1]).any(axis=1))
    return int(differs[-1]) + 1 if differs.size else 0


def glorot(rng: np.random.Generator, shape) -> np.ndarray:
    fan_in, fan_out = shape[-1], shape[0]
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


class Layer:
    def named_tensors(self, prefix: str) -> list[tuple[str, Param]]:
        """This layer's parameters and its sub-layers', in attribute order:
        ``prefix.name`` for its own, ``prefix.attr.name`` for a sub-layer's."""
        named = []
        for attr, value in vars(self).items():
            if isinstance(value, Param):
                named.append((f"{prefix}.{value.name}", value))
            elif isinstance(value, Layer):
                named += value.named_tensors(f"{prefix}.{attr}")
        return named

    def params(self) -> list[Param]:
        return [p for _, p in self.named_tensors("")]

    def zero_grad(self) -> None:
        for p in self.params():
            p.zero_grad()


class Dense(Layer):
    """y = W x + b over vectors."""

    def __init__(self, n_in: int, n_out: int, rng: np.random.Generator):
        self.w = Param("w", glorot(rng, (n_out, n_in)), decay=True)
        self.b = Param("b", np.zeros(n_out))
        self._x = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.w.value.shape[1],):
            raise ValueError(
                f"dense expects input of shape ({self.w.value.shape[1]},), "
                f"got {x.shape}"
            )
        self._x = x
        return self.w.value @ x + self.b.value

    def backward(self, dy: np.ndarray) -> np.ndarray:
        dy = np.asarray(dy, dtype=np.float64)
        self.w.grad += np.outer(dy, self._x)
        self.b.grad += dy
        return self.w.value.T @ dy


class Conv1D(Layer):
    """Valid (no-padding) cross-correlation along the sequence axis."""

    def __init__(self, kernel_size: int, c_in: int, c_out: int,
                 rng: np.random.Generator):
        limit = np.sqrt(6.0 / (kernel_size * c_in + c_out))
        self.filters = Param(
            "filters", rng.uniform(-limit, limit, size=(kernel_size, c_in, c_out)),
            decay=True,
        )
        self.b = Param("b", np.zeros(c_out))
        self.kernel_size = kernel_size
        self._x = None

    def out_length(self, length: int) -> int:
        return length - self.kernel_size + 1

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        length, c_in = x.shape
        k = self.kernel_size
        if length < k:
            raise ValueError(f"sequence length {length} shorter than kernel {k}")
        if c_in != self.filters.value.shape[1]:
            raise ValueError(
                f"conv1d expects {self.filters.value.shape[1]} channels, got {c_in}"
            )
        self._x = x
        out_len = length - k + 1
        # Windows that lie wholly in the constant tail all give its first
        # window's row: compute rows up to that one and copy it onward.
        n = min(_constant_tail(x), out_len - 1) + 1
        y = np.empty((out_len, self.b.value.shape[0]))
        y[:n] = self.b.value
        for j in range(k):
            y[:n] += x[j:j + n] @ self.filters.value[j]
        y[n:] = y[n - 1]
        return y

    def backward(self, dy: np.ndarray) -> np.ndarray:
        dy = np.asarray(dy, dtype=np.float64)
        x = self._x
        out_len = dy.shape[0]
        dx = np.zeros_like(x)
        for j in range(self.kernel_size):
            self.filters.grad[j] += x[j:j + out_len].T @ dy
            dx[j:j + out_len] += dy @ self.filters.value[j].T
        self.b.grad += dy.sum(axis=0)
        return dx


class MaxPool1D(Layer):
    """Non-overlapping max pooling over time, stride = pool, remainder dropped.

    Backward routes each output's gradient to the first argmax in its window.
    """

    def __init__(self, pool: int = 2):
        self.pool = pool
        self._argmax = None
        self._in_shape = None

    def out_length(self, length: int) -> int:
        return length // self.pool

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        length, channels = x.shape
        if length < self.pool:
            raise ValueError(f"sequence length {length} shorter than pool {self.pool}")
        out_len = length // self.pool
        # Windows that lie wholly in the constant tail all give its first
        # such window's row, with argmax 0: compute up to it and copy it.
        first_in_tail = -(-_constant_tail(x) // self.pool)
        n = min(first_in_tail, out_len - 1) + 1
        windows = x[: n * self.pool].reshape(n, self.pool, channels)
        self._argmax = np.zeros((out_len, channels), dtype=np.intp)
        self._argmax[:n] = windows.argmax(axis=1)  # first occurrence per window
        self._in_shape = x.shape
        y = np.empty((out_len, channels))
        y[:n] = windows.max(axis=1)
        y[n:] = y[n - 1]
        return y

    def backward(self, dy: np.ndarray) -> np.ndarray:
        dy = np.asarray(dy, dtype=np.float64)
        dx = np.zeros(self._in_shape)
        out_len, channels = dy.shape
        rows = np.arange(out_len)[:, None] * self.pool + self._argmax
        cols = np.broadcast_to(np.arange(channels), (out_len, channels))
        np.add.at(dx, (rows, cols), dy)
        return dx


class MaxOverTime(Layer):
    """Masked elementwise max over the time axis: (L, d) -> (d,).

    A fully masked input yields zeros; backward then routes nothing.
    """

    def __init__(self):
        self._rows = None
        self._in_shape = None

    def forward(self, x: np.ndarray, mask: np.ndarray | None = None) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        self._in_shape = x.shape
        valid = np.ones(x.shape[0], dtype=bool) if mask is None else np.asarray(mask) > 0.5
        if not valid.any():
            self._rows = None
            return np.zeros(x.shape[1], dtype=np.float64)
        idx = np.flatnonzero(valid)
        sub = x[idx]
        self._rows = idx[sub.argmax(axis=0)]  # first argmax among valid rows
        return sub.max(axis=0)

    def backward(self, dy: np.ndarray) -> np.ndarray:
        dx = np.zeros(self._in_shape)
        if self._rows is not None:
            np.add.at(dx, (self._rows, np.arange(len(dy))), dy)
        return dx


class Dropout(Layer):
    """Inverted dropout: training scales survivors by 1/(1-rate); inference
    is the identity."""

    def __init__(self, rate: float):
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
        self.rate = rate
        self._scale_mask = None

    def forward(self, x: np.ndarray, train: bool = False,
                rng: np.random.Generator | None = None) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if not train or self.rate == 0.0:
            self._scale_mask = None
            return x
        if rng is None:
            raise ValueError("training-mode dropout needs an rng")
        keep = rng.random(x.shape) >= self.rate
        self._scale_mask = keep / (1.0 - self.rate)
        return x * self._scale_mask

    def backward(self, dy: np.ndarray) -> np.ndarray:
        if self._scale_mask is None:
            return np.asarray(dy, dtype=np.float64)
        return dy * self._scale_mask


class ReLULayer(Layer):
    def forward(self, x):
        self._pos = np.asarray(x) > 0.0
        return np.where(self._pos, x, 0.0)

    def backward(self, dy):
        return np.where(self._pos, dy, 0.0)


class LeakyReLULayer(Layer):
    def __init__(self, slope: float = DEFAULT_LEAKY_SLOPE):
        self.slope = slope

    def forward(self, x):
        self._pos = np.asarray(x) > 0.0
        return np.where(self._pos, x, self.slope * np.asarray(x))

    def backward(self, dy):
        return np.where(self._pos, dy, self.slope * np.asarray(dy))


class SigmoidLayer(Layer):
    def forward(self, x):
        self._y = sigmoid(x)
        return self._y

    def backward(self, dy):
        return dy * self._y * (1.0 - self._y)


class LSTM(Layer):
    """Single-direction LSTM over an (L, D) sequence, h0 = c0 = 0.

    Gate layout in the stacked 4h dimension: input, forget, candidate, output.
    Masked steps copy both states forward unchanged and contribute no
    gradient.
    """

    def __init__(self, input_dim: int, hidden_dim: int, rng: np.random.Generator):
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        self.w_x = Param("w_x", glorot(rng, (4 * hidden_dim, input_dim)), decay=True)
        self.w_h = Param("w_h", glorot(rng, (4 * hidden_dim, hidden_dim)), decay=True)
        self.b = Param("b", np.zeros(4 * hidden_dim))
        self._cache = None

    def forward(self, x: np.ndarray, mask: np.ndarray | None = None) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        length, dim = x.shape
        if dim != self.input_dim:
            raise ValueError(f"lstm expects input dim {self.input_dim}, got {dim}")
        h_dim = self.hidden_dim
        valid = np.ones(length, dtype=bool) if mask is None else np.asarray(mask) > 0.5
        # Only real steps change the state, so the recurrence walks those
        # alone; each output row is the state after the last real step at or
        # before it (h0 = 0 before the first).
        real = np.flatnonzero(valid)
        steps = len(real)
        x_real = x[real]
        z_x = x_real @ self.w_x.value.T + self.b.value
        w_h = self.w_h.value
        gates = np.empty((steps, 4 * h_dim))  # i, f, g, o after activation
        tanh_c = np.empty((steps, h_dim))
        h = np.zeros((steps + 1, h_dim))
        c = np.zeros((steps + 1, h_dim))
        for k in range(steps):
            z = z_x[k] + w_h @ h[k]
            a = gates[k]
            a[:] = sigmoid(z)
            a[2 * h_dim:3 * h_dim] = np.tanh(z[2 * h_dim:3 * h_dim])
            c[k + 1] = a[h_dim:2 * h_dim] * c[k] + a[:h_dim] * a[2 * h_dim:3 * h_dim]
            tanh_c[k] = np.tanh(c[k + 1])
            h[k + 1] = a[3 * h_dim:] * tanh_c[k]
        self._cache = (real, x_real, gates, c, tanh_c, h, x.shape)
        return h[np.cumsum(valid)]

    def backward(self, dout: np.ndarray) -> np.ndarray:
        real, x_real, gates, c, tanh_c, h, in_shape = self._cache
        h_dim = self.hidden_dim
        steps = len(real)
        i, f, g, o = (gates[:, j * h_dim:(j + 1) * h_dim] for j in range(4))
        # Gradients of output rows that copy a real step's state all reach
        # that step's h.
        dh_out = np.add.reduceat(np.asarray(dout, dtype=np.float64), real, axis=0)
        # Per-step factors that do not depend on the incoming gradient:
        # dz[:, :3] = dc * from_dc, dz[:, 3] = dh * from_dh, dc += dh * dc_dh.
        from_dc = np.stack([g * i * (1.0 - i), c[:-1] * f * (1.0 - f),
                            i * (1.0 - g ** 2)], axis=1)
        from_dh = tanh_c * o * (1.0 - o)
        dc_dh = o * (1.0 - tanh_c ** 2)
        dz = np.empty((steps, 4, h_dim))
        w_h = self.w_h.value
        dh_next = np.zeros(h_dim)
        dc_next = np.zeros(h_dim)
        for k in range(steps - 1, -1, -1):
            dh = dh_out[k] + dh_next
            dc = dc_next + dh * dc_dh[k]
            np.multiply(from_dc[k], dc, out=dz[k, :3])
            np.multiply(from_dh[k], dh, out=dz[k, 3])
            dh_next = dz[k].reshape(-1) @ w_h
            dc_next = dc * f[k]
        dz = dz.reshape(steps, 4 * h_dim)
        self.w_x.grad += dz.T @ x_real
        self.w_h.grad += dz.T @ h[:-1]
        self.b.grad += dz.sum(axis=0)
        dx = np.zeros(in_shape)
        dx[real] = dz @ self.w_x.value
        return dx


class BiLSTM(Layer):
    """Forward and reversed LSTMs, outputs concatenated per timestep."""

    def __init__(self, input_dim: int, hidden_dim: int, rng: np.random.Generator):
        self.hidden_dim = hidden_dim
        self.fwd = LSTM(input_dim, hidden_dim, rng)
        self.bwd = LSTM(input_dim, hidden_dim, rng)

    def forward(self, x: np.ndarray, mask: np.ndarray | None = None) -> np.ndarray:
        h_f = self.fwd.forward(x, mask)
        rev_mask = None if mask is None else np.asarray(mask)[::-1]
        h_b = self.bwd.forward(np.asarray(x, dtype=np.float64)[::-1], rev_mask)[::-1]
        return np.concatenate([h_f, h_b], axis=1)

    def backward(self, dout: np.ndarray) -> np.ndarray:
        h = self.hidden_dim
        dx_f = self.fwd.backward(dout[:, :h])
        dx_b = self.bwd.backward(dout[::-1, h:])[::-1]
        return dx_f + dx_b


class Attention(Layer):
    """Scalar-score attention over hidden states.

    Scores s_t = w . H_t + b; weights are the masked softmax of s (masked
    positions effectively score -inf); the context vector is the
    weight-convex combination of the rows of H.
    """

    def __init__(self, dim: int, rng: np.random.Generator):
        self.w = Param("w", glorot(rng, (1, dim)).reshape(dim), decay=True)
        self.b = Param("b", np.zeros(1))
        self._cache = None

    def forward(self, h: np.ndarray, mask: np.ndarray | None = None):
        h = np.asarray(h, dtype=np.float64)
        length = h.shape[0]
        valid = np.ones(length, dtype=bool) if mask is None else np.asarray(mask) > 0.5
        if not valid.any():
            raise ValueError("attention over a fully masked sequence")
        scores = h @ self.w.value + self.b.value[0]
        shifted = np.where(valid, scores - scores[valid].max(), -np.inf)
        ex = np.exp(shifted)  # exp(-inf) = 0 at masked positions
        alpha = ex / ex.sum()
        z = alpha @ h
        self._cache = (h, alpha)
        return alpha, z

    def backward(self, dz: np.ndarray, dalpha: np.ndarray | None = None) -> np.ndarray:
        h, alpha = self._cache
        da = h @ np.asarray(dz, dtype=np.float64)
        if dalpha is not None:
            da = da + dalpha
        dh = np.outer(alpha, dz)
        ds = alpha * (da - alpha @ da)  # softmax backward; masked rows have alpha=0
        self.w.grad += h.T @ ds
        self.b.grad += ds.sum()
        dh += np.outer(ds, self.w.value)
        return dh
