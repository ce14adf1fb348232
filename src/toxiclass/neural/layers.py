"""Layers with hand-derived backward passes.

Every layer takes a leading batch axis: sequences are ``(B, L, D)`` with
``(B, L)`` masks and vectors are ``(B, D)``; one document is a batch of one.
Every layer caches what its backward pass needs during forward; the intended
call pattern is one forward followed by one backward per instance (models
are single-threaded per instance). Parameter gradients accumulate into
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


def _valid(mask, shape) -> np.ndarray:
    """Boolean ``(B, L)`` real-slot mask; no mask means every slot is real."""
    return np.ones(shape, dtype=bool) if mask is None else np.asarray(mask) > 0.5


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
    """y = W x + b over a batch of vectors: (B, n_in) -> (B, n_out)."""

    def __init__(self, n_in: int, n_out: int, rng: np.random.Generator):
        self.w = Param("w", glorot(rng, (n_out, n_in)), decay=True)
        self.b = Param("b", np.zeros(n_out))
        self._x = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        n_in = self.w.value.shape[1]
        if x.ndim != 2 or x.shape[1] != n_in:
            raise ValueError(f"dense expects input of shape (B, {n_in}), got {x.shape}")
        self._x = x
        return x @ self.w.value.T + self.b.value

    def backward(self, dy: np.ndarray) -> np.ndarray:
        dy = np.asarray(dy, dtype=np.float64)
        self.w.grad += dy.T @ self._x
        self.b.grad += dy.sum(axis=0)
        return dy @ self.w.value


class Conv1D(Layer):
    """Valid (no-padding) cross-correlation along the sequence axis.

    The batch's sequences are laid end to end and each kernel tap is one
    GEMM over all their rows; the windows that straddle two sequences are
    computed and dropped.
    """

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

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        batch, length, c_in = x.shape
        k = self.kernel_size
        if length < k:
            raise ValueError(f"sequence length {length} shorter than kernel {k}")
        if c_in != self.filters.value.shape[1]:
            raise ValueError(
                f"conv1d expects {self.filters.value.shape[1]} channels, got {c_in}"
            )
        self._x = x
        rows = x.reshape(batch * length, c_in)
        n = batch * length - k + 1
        y = np.empty((batch * length, self.b.value.shape[0]))
        y[:n] = self.b.value
        for j in range(k):
            y[:n] += rows[j:j + n] @ self.filters.value[j]
        return y.reshape(batch, length, -1)[:, :length - k + 1]

    def backward(self, dy: np.ndarray) -> np.ndarray:
        x = self._x
        batch, length, c_in = x.shape
        out_len = length - self.kernel_size + 1
        # dy laid end to end like the rows, zero at the dropped windows
        dy_rows = np.zeros((batch, length, dy.shape[2]))
        dy_rows[:, :out_len] = dy
        n = batch * length - self.kernel_size + 1
        dy_rows = dy_rows.reshape(batch * length, -1)[:n]
        rows = x.reshape(batch * length, c_in)
        dx = np.zeros_like(rows)
        for j in range(self.kernel_size):
            self.filters.grad[j] += rows[j:j + n].T @ dy_rows
            dx[j:j + n] += dy_rows @ self.filters.value[j].T
        self.b.grad += dy_rows.sum(axis=0)
        return dx.reshape(x.shape)


class MaxPool1D(Layer):
    """Non-overlapping max pooling over time, stride = pool, remainder dropped.

    Backward routes each output's gradient to the first argmax in its window.
    """

    def __init__(self, pool: int = 2):
        self.pool = pool
        self._argmax = None
        self._in_shape = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        batch, length, channels = x.shape
        if length < self.pool:
            raise ValueError(f"sequence length {length} shorter than pool {self.pool}")
        out_len = length // self.pool
        windows = x[:, :out_len * self.pool].reshape(batch, out_len, self.pool, channels)
        # first occurrence per window, in the smallest type that holds pool - 1
        self._argmax = windows.argmax(axis=2).astype(np.min_scalar_type(self.pool - 1))
        self._in_shape = x.shape
        return windows.max(axis=2)

    def backward(self, dy: np.ndarray) -> np.ndarray:
        batch, out_len, channels = dy.shape
        windows = np.zeros((batch, out_len, self.pool, channels))
        np.put_along_axis(windows, self._argmax[:, :, None], dy[:, :, None], axis=2)
        dx = np.zeros(self._in_shape)
        dx[:, :out_len * self.pool] = windows.reshape(batch, -1, channels)
        return dx


class MaxOverTime(Layer):
    """Masked elementwise max over the time axis: (B, L, d) -> (B, d).

    A fully masked row yields zeros; backward then routes nothing to it.
    """

    def __init__(self):
        self._rows = None
        self._empty = None
        self._in_shape = None

    def forward(self, x: np.ndarray, mask: np.ndarray | None = None) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        valid = _valid(mask, x.shape[:2])
        self._in_shape = x.shape
        self._empty = ~valid.any(axis=1)
        # first argmax among each row's real slots
        self._rows = np.where(valid[:, :, None], x, -np.inf).argmax(axis=1)[:, None]
        y = np.take_along_axis(x, self._rows, axis=1)[:, 0]
        y[self._empty] = 0.0
        return y

    def backward(self, dy: np.ndarray) -> np.ndarray:
        dx = np.zeros(self._in_shape)
        dy = np.where(self._empty[:, None], 0.0, dy)
        np.put_along_axis(dx, self._rows, dy[:, None], axis=1)
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
    """Single-direction LSTM over a (B, L, D) batch, h0 = c0 = 0.

    Gate layout in the stacked 4h dimension: input, forget, candidate, output.
    Masked steps copy both states forward unchanged and contribute no
    gradient.

    Only real steps change the state, so the recurrence walks those alone,
    packed: rows sorted by their count of real steps, longest first, and
    step k updates the leading rows that still have a k-th real step. The
    input GEMM runs once over every real step, and each output slot is its
    row's state after the last real step at or before it.
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
        batch, length, dim = x.shape
        if dim != self.input_dim:
            raise ValueError(f"lstm expects input dim {self.input_dim}, got {dim}")
        h_dim = self.hidden_dim
        valid = _valid(mask, (batch, length))
        seen = np.cumsum(valid, axis=1)  # real steps at or before each slot
        counts = seen[:, -1]
        rank = np.empty(batch, dtype=np.intp)
        rank[np.argsort(-counts, kind="stable")] = np.arange(batch)
        # Step k is packed rows start[k]:start[k + 1], one per active row in
        # rank order. States live in rows ``batch + packed index`` of ``hs``
        # and ``cs``; their first ``batch`` rows are the zero initial states.
        active = (counts > np.arange(counts.max(initial=0))[:, None]).sum(axis=1)
        start = np.concatenate([[0], np.cumsum(active)])
        rows, slots = np.nonzero(valid)
        packed = start[seen[rows, slots] - 1] + rank[rows]
        x_real = np.empty((start[-1], dim))
        x_real[packed] = x[rows, slots]
        # the input part of every step's gates, each step's slice turned
        # into i, f, g, o after activation in place
        gates = x_real @ self.w_x.value.T + self.b.value
        hs = np.zeros((batch + start[-1], h_dim))
        cs = np.zeros((batch + start[-1], h_dim))
        tanh_c = np.empty((start[-1], h_dim))
        w_h = self.w_h.value.T
        bounds = start.tolist()
        prev = 0  # state row of the previous step's first active row
        for lo, hi in zip(bounds, bounds[1:]):
            m = hi - lo
            a = gates[lo:hi]
            z = a + hs[prev:prev + m] @ w_h
            a[:] = sigmoid(z)
            g = a[:, 2 * h_dim:3 * h_dim]
            np.tanh(z[:, 2 * h_dim:3 * h_dim], out=g)
            c = cs[batch + lo:batch + hi]
            np.multiply(a[:, h_dim:2 * h_dim], cs[prev:prev + m], out=c)
            c += a[:, :h_dim] * g
            np.tanh(c, out=tanh_c[lo:hi])
            prev = batch + lo
            np.multiply(a[:, 3 * h_dim:], tanh_c[lo:hi], out=hs[prev:prev + m])
        out = np.where(seen > 0, batch + start[np.maximum(seen - 1, 0)], 0) + rank[:, None]
        self._cache = (rows, slots, packed, start, x_real, gates, cs, tanh_c, hs,
                       out, x.shape)
        return hs[out]

    def backward(self, dout: np.ndarray) -> np.ndarray:
        rows, slots, packed, start, x_real, gates, cs, tanh_c, hs, out, in_shape = \
            self._cache
        batch = in_shape[0]
        h_dim = self.hidden_dim
        total = len(x_real)
        steps = len(start) - 1
        # Gradients of output slots that copy a real step's state all reach
        # that step's h; those of slots before a row's first step go nowhere.
        dh_out = np.zeros((batch + total, h_dim))
        np.add.at(dh_out, out, np.asarray(dout, dtype=np.float64))
        dh_out = dh_out[batch:]
        # state row of each packed step's predecessor: its row's previous
        # step, or the zero initial state
        step = np.repeat(np.arange(steps), np.diff(start))
        offset = np.arange(total) - start[step]
        prev = np.where(step > 0, batch + start[np.maximum(step - 1, 0)], 0) + offset
        h_prev, c_prev = hs[prev], cs[prev]
        i, f, g, o = (gates[:, j * h_dim:(j + 1) * h_dim] for j in range(4))
        # Per-step factors that do not depend on the incoming gradient:
        # dz[:, :3] = dc * from_dc, dz[:, 3] = dh * from_dh, dc += dh * dc_dh.
        from_dc = np.stack([g * i * (1.0 - i), c_prev * f * (1.0 - f),
                            i * (1.0 - g ** 2)], axis=1)
        from_dh = tanh_c * o * (1.0 - o)
        dc_dh = o * (1.0 - tanh_c ** 2)
        dz = np.empty((total, 4, h_dim))
        w_h = self.w_h.value
        dh_next = np.zeros((batch, h_dim))
        dc_next = np.zeros((batch, h_dim))
        bounds = start.tolist()
        for lo, hi in zip(bounds[-2::-1], bounds[:0:-1]):
            m = hi - lo
            dh = dh_out[lo:hi] + dh_next[:m]
            dc = dc_next[:m] + dh * dc_dh[lo:hi]
            np.multiply(from_dc[lo:hi], dc[:, None], out=dz[lo:hi, :3])
            np.multiply(from_dh[lo:hi], dh, out=dz[lo:hi, 3])
            dh_next[:m] = dz[lo:hi].reshape(m, -1) @ w_h
            dc_next[:m] = dc * f[lo:hi]
        dz = dz.reshape(total, 4 * h_dim)
        self.w_x.grad += dz.T @ x_real
        self.w_h.grad += dz.T @ h_prev
        self.b.grad += dz.sum(axis=0)
        dx = np.zeros(in_shape)
        dx[rows, slots] = (dz @ self.w_x.value)[packed]
        return dx


class BiLSTM(Layer):
    """Forward and reversed LSTMs, outputs concatenated per timestep."""

    def __init__(self, input_dim: int, hidden_dim: int, rng: np.random.Generator):
        self.hidden_dim = hidden_dim
        self.fwd = LSTM(input_dim, hidden_dim, rng)
        self.bwd = LSTM(input_dim, hidden_dim, rng)

    def forward(self, x: np.ndarray, mask: np.ndarray | None = None) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        h_f = self.fwd.forward(x, mask)
        rev_mask = None if mask is None else np.asarray(mask)[:, ::-1]
        h_b = self.bwd.forward(x[:, ::-1], rev_mask)[:, ::-1]
        return np.concatenate([h_f, h_b], axis=2)

    def backward(self, dout: np.ndarray) -> np.ndarray:
        h = self.hidden_dim
        dx_f = self.fwd.backward(dout[:, :, :h])
        dx_b = self.bwd.backward(dout[:, ::-1, h:])[:, ::-1]
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
        """(B, L, d) states -> (B, L) weights and (B, d) context vectors."""
        h = np.asarray(h, dtype=np.float64)
        valid = _valid(mask, h.shape[:2])
        if not valid.any(axis=1).all():
            raise ValueError("attention over a fully masked sequence")
        scores = h @ self.w.value + self.b.value[0]
        top = np.where(valid, scores, -np.inf).max(axis=1, keepdims=True)
        ex = np.exp(np.where(valid, scores - top, -np.inf))  # exp(-inf) = 0 when masked
        alpha = ex / ex.sum(axis=1, keepdims=True)
        z = (alpha[:, None, :] @ h)[:, 0]
        self._cache = (h, alpha)
        return alpha, z

    def backward(self, dz: np.ndarray) -> np.ndarray:
        h, alpha = self._cache
        dz = np.asarray(dz, dtype=np.float64)
        da = (h @ dz[:, :, None])[:, :, 0]
        # softmax backward; masked slots have alpha = 0
        ds = alpha * (da - (alpha * da).sum(axis=1, keepdims=True))
        self.w.grad += ds.reshape(-1) @ h.reshape(-1, h.shape[2])
        self.b.grad += ds.sum()
        return alpha[:, :, None] * dz[:, None, :] + ds[:, :, None] * self.w.value
