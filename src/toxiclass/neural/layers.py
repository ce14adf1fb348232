"""Layers with hand-derived backward passes.

Every layer but four takes a leading batch axis: sequences are ``(B, L, D)``
and vectors are ``(B, D)``; one document is a batch of one. ``LSTM`` and
``BiLSTM`` read a ``(B, L)`` array of row ids of a ``(V, D)`` table instead,
``Conv1D`` an ``(N,)`` run of them, the documents' slots laid end to end,
and their backward passes give the gradient of the table rows they read.
``LSTM`` and ``MaxOverTime`` also take a ``(B, L)`` mask of the real slots.
``Conv1D`` is also given each document's slot count, and keeps only each
document's own windows; ``MaxPool1D`` reads the ``(N, D)`` run of rows
they give, laid end to end the same way.
A forward with ``train=True`` (the default, except for ``Dropout``) keeps
what its backward pass reads; one with ``train=False`` keeps nothing, and a
backward after it raises. The intended call pattern is one training forward
followed by one backward per instance, which drops the caches (models are
single-threaded per instance). Parameter gradients accumulate into
``Param.grad`` and are zeroed explicitly between optimizer steps.
"""

from __future__ import annotations

import copy

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

DEFAULT_LEAKY_SLOPE = 0.01
# Windows per gathered block in ``Conv1D.forward``: each tap's products are
# gathered and added a block at a time, so the temporary stays small beside
# the output.
CONV_BLOCK_ROWS = 256
# The steps of an eval ``LSTM.forward`` read their rows of the distinct
# ids' products from a buffer refilled this many rows at a time; its
# backward sums the repeated ids' rows this many at a time.
LSTM_ID_ROWS = 64


def sigmoid(x):
    """Numerically stable and branch-free: never exponentiates a positive.

    Gives the same bits as ``1 / (1 + exp(-x))`` for ``x >= 0`` and
    ``exp(x) / (1 + exp(x))`` below zero.
    """
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


class Param:
    """Named parameter tensor and its gradient.

    The gradient is a same-shaped buffer, ``rows`` None. A tensor made
    with ``by_rows=True`` holds the gradient of the leading-axis rows it
    touches instead: ``rows``, sorted and distinct, and ``grad``, one row
    for each, which ``add_rows`` merges into. ``decay`` marks the tensor
    for the trainer's L2 penalty, which needs a same-shaped buffer.
    """

    __slots__ = ("name", "value", "grad", "rows", "decay")

    def __init__(self, name: str, value: np.ndarray, decay: bool = False,
                 by_rows: bool = False):
        self.name = name
        self.value = np.asarray(value, dtype=np.float64)
        self.rows = np.zeros(0, dtype=np.intp) if by_rows else None
        # np.zeros maps pages only as they are written, so an eval-only
        # model never makes its gradient buffers resident
        self.grad = np.zeros((0, *self.value.shape[1:]) if by_rows else self.value.shape)
        self.decay = decay

    def zero_grad(self) -> None:
        if self.rows is None:
            self.grad[...] = 0.0
        else:
            # copies, which hold no reference to the dropped rows
            self.rows, self.grad = self.rows[:0].copy(), self.grad[:0].copy()

    def add_rows(self, rows: np.ndarray, grad: np.ndarray) -> None:
        """Add ``grad``, one row for each of the sorted, distinct ``rows``,
        to a ``by_rows`` gradient. Each row's sum starts from zero, as in
        a same-shaped buffer, so each has that buffer's bits."""
        merged = np.union1d(self.rows, rows)
        total = np.zeros((len(merged), *self.grad.shape[1:]))
        total[np.searchsorted(merged, self.rows)] += self.grad
        total[np.searchsorted(merged, rows)] += grad
        self.rows, self.grad = merged, total

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
    """Holds its parameters and sub-layers as attributes, and what a backward
    pass reads from the forward before it."""

    _cache = None

    def _keep(self, train: bool, *cache) -> None:
        """Keep ``cache`` for backward after a training forward, else nothing."""
        self._cache = cache if train else None

    def _take(self) -> tuple:
        """The last training forward's cache, dropped as it is handed over."""
        cache, self._cache = self._cache, None
        if cache is None:
            raise RuntimeError(
                f"{type(self).__name__}.backward needs a forward with train=True "
                "before it; the last forward kept nothing for backward, or a "
                "backward has used it already")
        return cache

    def named_tensors(self, prefix: str = "") -> list[tuple[str, Param]]:
        """This layer's parameters and its sub-layers', in attribute order:
        ``name`` for its own, ``attr.name`` for a sub-layer's and
        ``attr{i}.name`` for the i-th layer of a list attribute, each after
        ``prefix.`` when a prefix is given. The walk does not enter a
        forward's ``_cache``, a tuple."""
        lead = f"{prefix}." if prefix else ""
        named = []
        for attr, value in vars(self).items():
            if isinstance(value, Param):
                named.append((lead + value.name, value))
            elif isinstance(value, Layer):
                named += value.named_tensors(lead + attr)
            elif isinstance(value, list):
                for i, layer in enumerate(value):
                    named += layer.named_tensors(f"{lead}{attr}{i}")
        return named

    def params(self) -> list[Param]:
        return [p for _, p in self.named_tensors()]

    def zero_grad(self) -> None:
        for p in self.params():
            p.zero_grad()


class Dense(Layer):
    """y = W x + b over a batch of vectors: (B, n_in) -> (B, n_out)."""

    def __init__(self, n_in: int, n_out: int, rng: np.random.Generator):
        self.w = Param("w", glorot(rng, (n_out, n_in)), decay=True)
        self.b = Param("b", np.zeros(n_out))

    def forward(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        n_in = self.w.value.shape[1]
        if x.ndim != 2 or x.shape[1] != n_in:
            raise ValueError(f"dense expects input of shape (B, {n_in}), got {x.shape}")
        self._keep(train, x)
        return x @ self.w.value.T + self.b.value

    def backward(self, dy: np.ndarray) -> np.ndarray:
        (x,) = self._take()
        dy = np.asarray(dy, dtype=np.float64)
        self.w.grad += dy.T @ x
        self.b.grad += dy.sum(axis=0)
        return dy @ self.w.value


class Conv1D(Layer):
    """Valid (no-padding) cross-correlation along a run of documents' rows,
    laid end to end and read as an (N,) run of row ids of a (V, c_in) table.

    The conv is linear in each row: each distinct id's row is multiplied by
    each tap once, and only each document's own windows are built, each
    from its taps' products gathered and added in tap order. Backward sums
    each distinct id's tap gradients before the GEMMs and returns the
    gradient of those ids' rows of the table.
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

    def forward(self, ids: np.ndarray, table: np.ndarray, lengths: np.ndarray,
                train: bool = True) -> np.ndarray:
        """(N,) ids of the rows of a (V, c_in) ``table``, the documents'
        ``lengths`` of them laid end to end -> each document's
        ``max(length - k + 1, 0)`` windows, laid end to end the same way:
        (their sum, c_out)."""
        k = self.kernel_size
        filters = self.filters.value
        if table.shape[1] != filters.shape[1]:
            raise ValueError(f"conv1d expects {filters.shape[1]} channels, "
                             f"got {table.shape[1]}")
        lengths = np.asarray(lengths)
        # window i of the run starts at slot i plus the slots before it that
        # start no window of their document's: a document's last k - 1
        windows = np.maximum(lengths - k + 1, 0)
        skipped = lengths - windows
        keep = np.arange(windows.sum()) + np.repeat(np.cumsum(skipped) - skipped, windows)
        distinct, inv = np.unique(np.asarray(ids), return_inverse=True)
        rows = table[distinct]
        y = np.empty((len(keep), filters.shape[2]))
        for j, w in enumerate(filters):
            tap = rows @ w
            at = inv[keep + j]
            if j == 0:  # b + the first tap
                tap += self.b.value
                # mode="clip": the indices are in range, and "raise" would
                # gather into a temporary and copy it
                np.take(tap, at, axis=0, out=y, mode="clip")
                continue
            for lo in range(0, len(at), CONV_BLOCK_ROWS):
                y[lo:lo + CONV_BLOCK_ROWS] += tap[at[lo:lo + CONV_BLOCK_ROWS]]
        self._keep(train, distinct, inv, rows, keep)
        return y

    def backward(self, dy: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """For the kept windows' ``dy``: the distinct ids of the run, sorted,
        and the gradient of their rows of the table, one row per id."""
        distinct, inv, rows, keep = self._take()
        k, c_in, c_out = self.filters.value.shape
        # Slot s's gradient through tap j is that of the window that starts
        # j slots before it: with window i's in row keep[i] + k - 1 of a run
        # of zeros, its row s + k - 1 - j, read through an (N, k, c_out) view.
        d_run = np.zeros((len(inv) + k - 1, c_out))
        d_run[keep + k - 1] = dy
        d_taps = sliding_window_view(d_run, len(inv), axis=0)[::-1].transpose(2, 0, 1)
        d_taps = _sum_by_id(d_taps, inv)  # (U, k c_out)
        self.filters.grad += (rows.T @ d_taps).reshape(c_in, k, c_out).transpose(1, 0, 2)
        self.b.grad += dy.sum(axis=0)
        w_cat = self.filters.value.transpose(1, 0, 2).reshape(c_in, k * c_out)
        return distinct, d_taps @ w_cat.T


class MaxPool1D(Layer):
    """Non-overlapping max pooling along a run of rows, stride = pool:
    (N, C) -> (N // pool, C), the remainder dropped. A run of documents
    whose row counts are each a multiple of ``pool`` pools each on its own.

    Backward routes each output's gradient to the first argmax in its window.
    """

    def __init__(self, pool: int = 2):
        self.pool = pool

    def forward(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        length, channels = x.shape
        out_len = length // self.pool
        windows = x[:out_len * self.pool].reshape(out_len, self.pool, channels)
        # For backward, the first maximum per window, tap by tap, in the
        # smallest type that holds pool - 1: a tap wins only if it beats
        # every earlier one or is the first NaN, as ``argmax`` has it.
        top = windows[:, 0].copy()
        argmax = np.zeros(top.shape, dtype=np.min_scalar_type(self.pool - 1)) \
            if train else None
        for j in range(1, self.pool):
            tap = windows[:, j]
            if train:
                wins = ~(tap <= top)
                wins &= top == top
                # j where tap j wins, else the earlier winner, which is
                # smaller: a max, with no masked copy of random choices
                step = wins.astype(argmax.dtype)
                step *= j
                np.maximum(argmax, step, out=argmax)
            np.maximum(top, tap, out=top)
        self._keep(train, argmax, x.shape)
        return top

    def backward(self, dy: np.ndarray) -> np.ndarray:
        argmax, in_shape = self._take()
        out_len, channels = dy.shape
        windows = np.zeros((out_len, self.pool, channels))
        np.put_along_axis(windows, argmax[:, None], dy[:, None], axis=1)
        dx = np.zeros(in_shape)
        dx[:out_len * self.pool] = windows.reshape(-1, channels)
        return dx


class MaxOverTime(Layer):
    """Masked elementwise max over the time axis: (B, L, d) -> (B, d).

    A fully masked row yields zeros; backward then routes nothing to it.
    Both modes give each row's first maximum among its real slots. Only a
    training forward finds where each is, for backward; an eval forward
    takes the max, and the first only in rows whose max is a zero or NaN.
    """

    def forward(self, x: np.ndarray, mask: np.ndarray | None = None,
                train: bool = True) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        valid = _valid(mask, x.shape[:2])
        empty = ~valid.any(axis=1)
        masked = np.where(valid[:, :, None], x, -np.inf)
        if train:
            y, rows = _first_max(masked)
        else:
            y, rows = masked.max(axis=1), None
            # a max over tied zeros of both signs, or over NaNs, may give
            # another of them than the first, which training's gives
            redo = np.flatnonzero(((y == 0.0) | np.isnan(y)).any(axis=1))
            y[redo] = _first_max(masked[redo])[0]
        y[empty] = 0.0
        self._keep(train, rows, empty, x.shape)
        return y

    def backward(self, dy: np.ndarray) -> np.ndarray:
        rows, empty, in_shape = self._take()
        dx = np.zeros(in_shape)
        dy = np.where(empty[:, None], 0.0, dy)
        np.put_along_axis(dx, rows, dy[:, None], axis=1)
        return dx


def _first_max(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The first maximum along axis 1 of the (B, L, d) ``x``, (B, d), and
    its (B, 1, d) index."""
    rows = x.argmax(axis=1)[:, None]
    return np.take_along_axis(x, rows, axis=1)[:, 0], rows


class Dropout(Layer):
    """Inverted dropout: training scales survivors by 1/(1-rate); inference
    is the identity."""

    def __init__(self, rate: float):
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
        self.rate = rate

    def forward(self, x: np.ndarray, train: bool = False,
                rng: np.random.Generator | None = None) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if not train or self.rate == 0.0:
            self._keep(train, None)
            return x
        if rng is None:
            raise ValueError("training-mode dropout needs an rng")
        keep = rng.random(x.shape) >= self.rate
        scale_mask = keep / (1.0 - self.rate)
        self._keep(train, scale_mask)
        return x * scale_mask

    def backward(self, dy: np.ndarray) -> np.ndarray:
        (scale_mask,) = self._take()
        if scale_mask is None:
            return np.asarray(dy, dtype=np.float64)
        return dy * scale_mask


class ReLULayer(Layer):
    """``max(x, 0)`` with NaN and -0.0 mapped to 0.0. A forward with
    ``train=False`` writes into ``x``, a float64 array that nothing else
    reads afterwards, and returns it."""

    def forward(self, x, train: bool = True):
        pos = np.asarray(x) > 0.0 if train else None
        # fmax drops NaN and adding 0.0 turns -0.0 into 0.0, with no branch
        # per entry, which a masked copy of random signs mispredicts
        y = np.fmax(x, 0.0, out=None if train else x)
        y += 0.0
        self._keep(train, pos)
        return y

    def backward(self, dy):
        (pos,) = self._take()
        # dy's bits where pos, else 0.0, as np.where gives them: an AND with
        # all ones or none, with no branch, and no inf or NaN times zero
        mask = pos.astype(np.int64)
        np.negative(mask, out=mask)
        mask &= np.asarray(dy, dtype=np.float64).view(np.int64)
        return mask.view(np.float64)


class LeakyReLULayer(Layer):
    def __init__(self, slope: float = DEFAULT_LEAKY_SLOPE):
        self.slope = slope

    def forward(self, x, train: bool = True):
        pos = np.asarray(x) > 0.0
        self._keep(train, pos)
        return np.where(pos, x, self.slope * np.asarray(x))

    def backward(self, dy):
        (pos,) = self._take()
        return np.where(pos, dy, self.slope * np.asarray(dy))


class SigmoidLayer(Layer):
    def forward(self, x, train: bool = True):
        y = sigmoid(x)
        self._keep(train, y)
        return y

    def backward(self, dy):
        (y,) = self._take()
        return dy * y * (1.0 - y)


class LSTM(Layer):
    """Single-direction LSTM over a (B, L) batch of row ids of a (V, D)
    table: step t of row b reads ``table[ids[b, t]]``.

    Gate layout in the stacked 4h dimension: input, forget, candidate, output.
    Each row starts from its own ``h0``/``c0`` (zero when not given). Masked
    steps copy both states forward unchanged and contribute no gradient.

    Only real steps change the state, so the recurrence walks those alone,
    packed: rows sorted by their count of real steps, longest first, and
    step k updates the leading rows that still have a k-th real step. Each
    output slot is its row's state after the last real step at or before it.

    Each distinct id of the real steps has its row projected once, and the
    steps read their rows of the products: an eval forward from one buffer
    refilled ``LSTM_ID_ROWS`` packed rows at a time, so that it builds no
    (N, 4H) input part, and a training forward from all of them at once,
    kept for backward. Backward sums the real steps' gate gradients per
    distinct id before the input GEMMs and returns the gradient of those
    ids' rows of the table.

    An eval forward with no ``h0`` or ``c0`` steps each distinct prefix once:
    where a step's rows hold fewer distinct prefixes (ids of the real steps
    so far) than rows, it runs its GEMM and gates on one row per prefix and
    copies the states to the rows that share it (``_shared_steps``), so the
    per-row states and outputs are those of the unshared step. A training
    forward never merges rows.

    Each step takes one ``tanh`` over all four gates, with
    ``sigmoid(z) = 0.5 + 0.5 * tanh(z / 2)``: the forward works on copies of
    ``w_x``, ``w_h`` and ``b`` whose i, f and o rows are halved, which is
    exact in fp64. The halved ``w_h`` is stored as its (4H, H) rows and read
    transposed in a batch of fewer than 3 rows, and stored as a C-contiguous
    (H, 4H) array from 3 rows on: whichever makes the faster step GEMM at
    that batch size. A step that merges rows still multiplies 3 rows or
    more, so each row's GEMM runs on the kernels of the unshared step's.
    """

    def __init__(self, input_dim: int, hidden_dim: int, rng: np.random.Generator):
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        self.w_x = Param("w_x", glorot(rng, (4 * hidden_dim, input_dim)), decay=True)
        self.w_h = Param("w_h", glorot(rng, (4 * hidden_dim, hidden_dim)), decay=True)
        self.b = Param("b", np.zeros(4 * hidden_dim))
        self.dh0 = self.dc0 = None  # the last backward's initial-state gradients

    def forward(self, ids: np.ndarray, table: np.ndarray, mask: np.ndarray | None = None,
                h0: np.ndarray | None = None, c0: np.ndarray | None = None,
                train: bool = True) -> np.ndarray:
        """(B, L) ids of the rows of a (V, D) ``table`` -> (B, L, H) hidden
        states; ``h0`` and ``c0`` are (B, H). After a training forward
        ``cells()`` gives the matching cell states."""
        ids = np.asarray(ids)
        (batch, length), dim = ids.shape, table.shape[1]
        if dim != self.input_dim:
            raise ValueError(f"lstm expects input dim {self.input_dim}, got {dim}")
        h_dim = self.hidden_dim
        valid = _valid(mask, (batch, length))
        seen = np.cumsum(valid, axis=1)  # real steps at or before each slot
        counts = valid.sum(axis=1)
        rank = np.empty(batch, dtype=np.intp)
        rank[np.argsort(-counts, kind="stable")] = np.arange(batch)
        # Step k is packed rows start[k]:start[k + 1], one per active row in
        # rank order. States live in rows ``batch + packed index`` of ``hs``
        # and ``cs``; their first ``batch`` rows are the initial states.
        active = (counts > np.arange(counts.max(initial=0))[:, None]).sum(axis=1)
        start = np.concatenate([[0], np.cumsum(active)])
        rows, slots = np.nonzero(valid)
        step_ids = np.empty(start[-1], dtype=ids.dtype)  # each packed step's id
        step_ids[start[seen[rows, slots] - 1] + rank[rows]] = ids[rows, slots]
        distinct, src = np.unique(step_ids, return_inverse=True)
        x_u = table[distinct]
        # i, f and o columns halved, so that one tanh gives every gate
        half = np.full(4 * h_dim, 0.5)
        half[2 * h_dim:3 * h_dim] = 1.0
        w_h = np.multiply(self.w_h.value.T, half, order="C" if batch >= 3 else "F")
        proj = x_u @ (self.w_x.value.T * half)
        proj += self.b.value * half
        if not train:
            x_u = None  # read by backward alone, as is every step's tanh(c)
        # the input part of the steps in the window from row ``win_lo`` on,
        # each step's rows turned into i, f, g, o after activation in place
        a_buf = np.empty((start[-1] if train else max(batch, LSTM_ID_ROWS), 4 * h_dim))
        win_lo = win_hi = 0
        hs = np.zeros((batch + start[-1], h_dim))
        cs = np.zeros((batch + start[-1], h_dim))
        if h0 is not None:
            hs[rank] = h0
        if c0 is not None:
            cs[rank] = c0
        tanh_c = np.empty((start[-1] if train else batch, h_dim))
        z_buf = np.empty((batch, 4 * h_dim))
        ig_buf = np.empty((batch, h_dim))
        shared = {} if train or h0 is not None or c0 is not None else \
            _shared_steps(step_ids, start, batch)
        hc_buf = np.empty((4, batch, h_dim)) if shared else None
        bounds = start.tolist()
        prev = 0  # state row of the previous step's first active row
        for k, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
            m = hi - lo
            if k in shared:  # the step's kept rows only, copied to the rest below
                kept, source = shared[k]
                m = len(kept)
                a = np.take(proj, src[lo + kept], axis=0, out=a_buf[:m], mode="clip")
                win_hi = 0  # a_buf no longer holds the window
                h_prev, c_prev, h, c = hc_buf[:, :m]
                np.take(hs, prev + kept, axis=0, out=h_prev, mode="clip")
                np.take(cs, prev + kept, axis=0, out=c_prev, mode="clip")
            else:
                if hi > win_hi:  # the next window of rows, from this step's on
                    win_lo, win_hi = lo, min(lo + len(a_buf), start[-1])
                    # mode="clip": the indices are in range, and "raise" would
                    # gather into a temporary and copy it
                    np.take(proj, src[win_lo:win_hi], axis=0,
                            out=a_buf[:win_hi - win_lo], mode="clip")
                a = a_buf[lo - win_lo:hi - win_lo]
                h_prev, c_prev = hs[prev:prev + m], cs[prev:prev + m]
                h, c = hs[batch + lo:batch + hi], cs[batch + lo:batch + hi]
            z, ig = z_buf[:m], ig_buf[:m]
            np.matmul(h_prev, w_h, out=z)
            z += a
            np.tanh(z, out=z)
            np.multiply(z, 0.5, out=a)
            a += 0.5
            g = a[:, 2 * h_dim:3 * h_dim]
            np.copyto(g, z[:, 2 * h_dim:3 * h_dim])
            np.multiply(a[:, h_dim:2 * h_dim], c_prev, out=c)
            np.multiply(a[:, :h_dim], g, out=ig)
            c += ig
            tc = tanh_c[lo:hi] if train else tanh_c[:m]
            np.tanh(c, out=tc)
            np.multiply(a[:, 3 * h_dim:], tc, out=h)
            if k in shared:
                np.take(c, source, axis=0, out=cs[batch + lo:batch + hi], mode="clip")
                np.take(h, source, axis=0, out=hs[batch + lo:batch + hi], mode="clip")
            prev = batch + lo
        out = np.where(seen > 0, batch + start[np.maximum(seen - 1, 0)], 0) + rank[:, None]
        self._keep(train, start, a_buf, cs, tanh_c, hs, out, rank, src, distinct, x_u)
        # Drop the references to what only backward reads, the step loop's
        # views included, so that an eval forward frees it before the gather.
        a_buf = proj = cs = tanh_c = a = g = c = tc = c_prev = None
        return hs[out]

    def cells(self) -> np.ndarray:
        """The last training forward's (B, L, H) cell states, slot for slot."""
        if self._cache is None:
            raise RuntimeError("LSTM.cells needs a forward with train=True before it")
        cs, out = self._cache[2], self._cache[5]
        return cs[out]

    def backward(self, dout: np.ndarray,
                 dc: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
        """For the gradients of the hidden states and, if given, of the
        cell states: the distinct ids the real steps read, sorted, and the
        gradient of their rows of the table, one row per id. The initial
        states' gradients are left in ``dh0`` and ``dc0``."""
        start, gates, cs, tanh_c, hs, out, rank, src, distinct, x_u = self._take()
        batch = len(rank)
        h_dim = self.hidden_dim
        total = len(gates)
        steps = len(start) - 1
        # Gradients of output slots that copy a state all reach that state:
        # a real step's, or the initial one before a row's first step.
        dh_out, dc_out = (_sum_runs(grad, out, (batch + total, h_dim)) for grad in (dout, dc))
        # state row of each packed step's predecessor: its row's previous
        # step, or the initial state
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
            dh = dh_out[batch + lo:batch + hi] + dh_next[:m]
            dc_step = dc_next[:m] + dh * dc_dh[lo:hi]
            if dc is not None:
                dc_step += dc_out[batch + lo:batch + hi]
            np.multiply(from_dc[lo:hi], dc_step[:, None], out=dz[lo:hi, :3])
            np.multiply(from_dh[lo:hi], dh, out=dz[lo:hi, 3])
            dh_next[:m] = dz[lo:hi].reshape(m, -1) @ w_h
            dc_next[:m] = dc_step * f[lo:hi]
        self.dh0 = (dh_out[:batch] + dh_next)[rank]
        self.dc0 = (dc_out[:batch] + dc_next)[rank]
        dz = dz.reshape(total, 4 * h_dim)
        self.w_h.grad += dz.T @ h_prev
        self.b.grad += dz.sum(axis=0)
        dz = _sum_by_id(dz, src)
        self.w_x.grad += dz.T @ x_u
        return distinct, dz @ self.w_x.value


def _shared_steps(step_ids: np.ndarray, start: np.ndarray, batch: int) -> dict:
    """The packed steps of an ``LSTM.forward`` (see there) whose rows hold
    fewer distinct prefixes, ids of the real steps so far, than rows:
    {step k: (kept, source)}. Step k computes the states of its rows
    ``kept`` alone, and its row j copies those of row ``kept[source[j]]``.
    ``kept`` holds each prefix's first row, and the step's first 3 rows,
    so that its GEMM has 3 rows or more, as the unshared step's has: a row
    of 1 or 2 goes through other BLAS kernels, with other bits. Empty when
    no two rows share a first id, which costs one sort of B ids."""
    if batch <= 3 or start[-1] == 0:
        return {}
    active = np.diff(start)
    # sorted by argsort, as np.unique in the forward sorts: np.sort and a
    # bare np.unique run other kernels, which cost 0.3-0.7 MB more RSS
    first_ids = step_ids[:active[0]]
    first_ids = first_ids[np.argsort(first_ids)]
    if (first_ids[1:] != first_ids[:-1]).all():
        return {}
    steps, col = len(active), np.arange(batch)
    live = col < active[:, None]  # (steps, batch): row j has a step k
    paths = np.full((steps, batch), -1, dtype=np.int64)
    paths[live] = step_ids  # row j's ids down column j, -1 after its last
    # Sorted by their ids, a row has the prefix of the one before it at step
    # k if they agree on steps 0 to k: if ``agree``, their first differing
    # step, exceeds k. ``new`` marks where each prefix's run of rows starts.
    order = np.lexsort(paths[::-1])
    differ = paths[:, order[1:]] != paths[:, order[:-1]]
    agree = np.where(differ.any(axis=0), differ.argmax(axis=0), steps)
    new = np.ones((steps, batch), dtype=bool)
    new[:, 1:] = agree <= np.arange(steps)[:, None]
    first = np.minimum.reduceat(np.tile(order, steps), np.flatnonzero(new))
    firsts = np.empty((steps, batch), dtype=np.intp)  # each row's prefix's first row
    firsts[:, order] = first[np.cumsum(new) - 1].reshape(steps, batch)
    kept = live & ((firsts == col) | (col < 3))
    source = np.take_along_axis(np.cumsum(kept, axis=1) - 1, firsts, axis=1)
    return {k: (np.flatnonzero(kept[k]), source[k, :active[k]])
            for k in np.flatnonzero(kept.sum(axis=1) < active).tolist()}


def _sum_runs(grad: np.ndarray | None, out: np.ndarray, shape) -> np.ndarray:
    """The (N, H) ``shape`` sums of the (B, L, H) slot gradients ``grad``,
    zeros if it is None: slot (b, t)'s goes to state row ``out[b, t]``.

    Within a row of an ``LSTM.forward``'s ``out`` the state rows never
    decrease and no two rows share one, so each state's slots are one run
    in row-major order, with its one real slot, if any, first; one
    ``np.add.reduceat`` sums the runs. Its order within a run is numpy's,
    not the slots': each sum has ``np.add.at``'s bits where every masked
    slot's gradient is zero, as in both models, and is within rounding of
    them otherwise."""
    total = np.zeros(shape)
    flat = out.reshape(-1)
    if grad is not None and flat.size:
        first = np.flatnonzero(np.concatenate([[True], flat[1:] != flat[:-1]]))
        total[flat[first]] += np.add.reduceat(
            np.asarray(grad, dtype=np.float64).reshape(len(flat), -1), first, axis=0)
    return total


def _sum_by_id(rows: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """The (N, ...) ``rows``, each flattened to n entries, summed per value
    of the (N,) ``ids``, which take every value in ``range(U)``: (U, n).
    Each value's first row is copied, and its other rows, sorted by value,
    are added through one-hot products over ``LSTM_ID_ROWS`` of them at a
    time, each of which spans few values; ``np.add.at`` and
    ``np.add.reduceat`` over rows are slower at every size."""
    order = np.argsort(ids, kind="stable")
    sorted_ids = ids[order]
    first = np.ones(len(ids), dtype=bool)
    first[1:] = sorted_ids[1:] != sorted_ids[:-1]
    width = int(np.prod(rows.shape[1:]))
    total = rows[order[first]].reshape(-1, width)
    rest, rest_ids = order[~first], sorted_ids[~first]
    for lo in range(0, len(rest), LSTM_ID_ROWS):
        block = rest_ids[lo:lo + LSTM_ID_ROWS]
        one_hot = block == np.arange(block[0], block[-1] + 1)[:, None]
        total[block[0]:block[-1] + 1] += \
            one_hot.astype(np.float64) @ rows[rest[lo:lo + LSTM_ID_ROWS]].reshape(-1, width)
    return total


class BiLSTM(Layer):
    """Forward and reversed LSTMs over (B, L) ids of a table's rows, outputs
    concatenated per timestep.

    Row i reads its own ids before ``starts[i]``, and from there on, its
    tail, one id that every tail slot of the batch holds: the padding row's.
    Without ``starts`` no slot is a tail. The reversed LSTM reads a tail
    first, from a zero state, so its states there depend only on how many
    tail steps it has read: it walks the padding id once, at batch 1, for
    the longest tail, each row's tail takes its states from that chain, and
    each row's own slots start from the chain's state for its tail length.
    Backward returns the gradient of the whole table, zero in the rows that
    no slot reads. Every slot is read: the BiLSTM takes no mask.
    """

    def __init__(self, input_dim: int, hidden_dim: int, rng: np.random.Generator):
        self.hidden_dim = hidden_dim
        self.fwd = LSTM(input_dim, hidden_dim, rng)
        self.bwd = LSTM(input_dim, hidden_dim, rng)

    def forward(self, ids: np.ndarray, table: np.ndarray,
                starts: np.ndarray | None = None, train: bool = True) -> np.ndarray:
        ids = np.asarray(ids)
        batch, length = ids.shape
        starts = np.minimum(length if starts is None else starts, length)
        starts = np.broadcast_to(starts, (batch,))
        tails = length - starts
        in_tail = np.arange(length) >= starts[:, None]
        h_f = self.fwd.forward(ids, table, train=train)
        # bwd's parameters, with caches of its own: the chain is one row, so
        # it keeps them for ``cells()`` in either mode, and an eval forward
        # drops the chain on return
        chain = copy.copy(self.bwd)
        steps = int(tails.max())  # of the padding id, which every tail slot holds
        chain_h = chain.forward(np.broadcast_to(ids[in_tail][:1], (1, steps)), table)[0]
        # chain state k: after k tail steps, k = 0 the zero state
        zero = np.zeros((1, self.hidden_dim))
        state_h = np.concatenate([zero, chain_h])
        state_c = np.concatenate([zero, chain.cells()[0]])
        own = int(starts.max())
        # row i's own slots, reversed: position r holds slot own - 1 - r
        real = np.arange(own)[::-1] < starts[:, None]
        h_own = self.bwd.forward(ids[:, :own][:, ::-1], table, real,
                                 state_h[tails], state_c[tails], train=train)
        h_b = np.empty((batch, length, self.hidden_dim))
        h_b[:, :own] = h_own[:, ::-1]
        h_b[in_tail] = state_h[length - np.nonzero(in_tail)[1]]
        self._keep(train, chain, tails, own, in_tail, table.shape)
        return np.concatenate([h_f, h_b], axis=2)

    def backward(self, dout: np.ndarray) -> np.ndarray:
        chain, tails, own, in_tail, shape = self._take()
        h = self.hidden_dim
        parts = [self.fwd.backward(dout[:, :, :h])]
        d_own = np.where(in_tail[:, :own, None], 0.0, dout[:, :own, h:])
        parts.append(self.bwd.backward(d_own[:, ::-1]))
        # Every tail slot's gradient, and each row's initial state's, goes
        # to the chain state it was read from; the chain is walked once.
        d_tail = np.where(in_tail[:, :, None], dout[:, :, h:], 0.0).sum(axis=0)
        d_state = np.zeros((tails.max() + 1, h))
        d_state[1:] = d_tail[::-1][:len(d_state) - 1]
        dc_state = np.zeros_like(d_state)
        np.add.at(d_state, tails, self.bwd.dh0)
        np.add.at(dc_state, tails, self.bwd.dc0)
        parts.append(chain.backward(d_state[None, 1:], dc_state[None, 1:]))
        d_table = np.zeros(shape)
        for ids, rows in parts:  # each part's ids are distinct
            d_table[ids] += rows
        return d_table


class Attention(Layer):
    """Scalar-score attention over hidden states.

    Scores s_t = w . H_t + b over every slot; weights are the softmax of s;
    the context vector is the weight-convex combination of the rows of H.
    """

    def __init__(self, dim: int, rng: np.random.Generator):
        self.w = Param("w", glorot(rng, (1, dim)).reshape(dim), decay=True)
        self.b = Param("b", np.zeros(1))

    def forward(self, h: np.ndarray, train: bool = True):
        """(B, L, d) states -> (B, L) weights and (B, d) context vectors."""
        h = np.asarray(h, dtype=np.float64)
        scores = h @ self.w.value + self.b.value[0]
        ex = np.exp(scores - scores.max(axis=1, keepdims=True))
        alpha = ex / ex.sum(axis=1, keepdims=True)
        z = (alpha[:, None, :] @ h)[:, 0]
        self._keep(train, h, alpha)
        return alpha, z

    def backward(self, dz: np.ndarray) -> np.ndarray:
        h, alpha = self._take()
        dz = np.asarray(dz, dtype=np.float64)
        da = (h @ dz[:, :, None])[:, :, 0]
        # softmax backward
        ds = alpha * (da - (alpha * da).sum(axis=1, keepdims=True))
        self.w.grad += ds.reshape(-1) @ h.reshape(-1, h.shape[2])
        self.b.grad += ds.sum()
        return alpha[:, :, None] * dz[:, None, :] + ds[:, :, None] * self.w.value
