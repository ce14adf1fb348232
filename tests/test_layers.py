import numpy as np
import pytest
from gradcheck import grad_check

from toxiclass import neural as N
from toxiclass.errors import NumericError
from toxiclass.neural.losses import add_l2_gradients, bce_loss, l2_penalty
from toxiclass.neural.optim import BLOCK


def rng(seed=0):
    return np.random.default_rng(np.random.PCG64(seed))


def check_layer_grads(layer, x, *args, seed=0):
    """Finite-difference check of every parameter and the input gradient of
    ``layer.forward(x, *args)``: a mask, or a conv's document lengths; a
    layer that reads ids of a table reads ``x`` through ``OwnRows``."""
    r = rng(seed)
    y = layer.forward(x, *args)
    dout = r.standard_normal(np.shape(y))
    layer.zero_grad()
    dx = layer.backward(dout)

    arrays = [p.value for p in layer.params()] + [x]
    analytic = [p.grad for p in layer.params()] + [dx]

    def loss():
        return float(np.sum(layer.forward(x, *args) * dout))

    return grad_check(loss, arrays, analytic)


def as_table(x):
    """A (B, L, D) batch or an (N, D) run of rows as (B, L) or (N,) ids of a
    table whose row k is slot k's, a view of ``x`` when ``x`` is
    contiguous: the input form of ``LSTM``, ``BiLSTM`` and ``Conv1D``."""
    dim = x.shape[-1]
    return np.arange(x.size // dim).reshape(x.shape[:-1]), x.reshape(-1, dim)


def table_grad(grad, table):
    """The gradient of the whole ``table`` from an LSTM or conv backward's
    (ids read, their rows' gradient); a BiLSTM backward's is that already."""
    if isinstance(grad, np.ndarray):
        return grad
    read, rows = grad
    full = np.zeros_like(table)
    full[read] = rows
    return full


class OwnRows(N.layers.Layer):
    """An ``LSTM`` or ``BiLSTM`` over a (B, L, D) batch of rows, or a
    ``Conv1D`` over an (N, D) run of them, each slot reading its own row
    (``as_table``), as a conv after the first reads a pool's rows; backward
    gives the rows' gradient."""

    def __init__(self, layer):
        self.layer = layer

    def forward(self, x, *args):
        ids, table = as_table(x)
        self._keep(True, x.shape, table)
        return self.layer.forward(ids, table, *args)

    def backward(self, dy, *args):
        shape, table = self._take()
        return table_grad(self.layer.backward(dy, *args), table).reshape(shape)


def ref_sigmoid(x):
    """The branch form that the branch-free ``sigmoid`` must match bit for bit."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def ref_lstm(lstm, x, mask, dout, h0=None, c0=None, dc=None):
    """Step-by-step LSTM over the (L, D) rows ``x``, the reference for
    ``LSTM``.

    Returns the outputs, the input gradient, the gradients of w_x, w_h and
    b, and the cell states with the gradients of ``h0`` and ``c0``, for the
    output gradient ``dout`` and, if given, the cell-state gradient ``dc``,
    starting from ``h0`` and ``c0`` (zero when not given); ``lstm`` is only
    read.
    """
    w_x, w_h, b = (p.value for p in lstm.params())
    length, h_dim = x.shape[0], lstm.hidden_dim
    valid = np.ones(length, dtype=bool) if mask is None else np.asarray(mask) > 0.5
    h = np.zeros(h_dim) if h0 is None else h0
    c = np.zeros(h_dim) if c0 is None else c0
    out = np.zeros((length, h_dim))
    cells = np.zeros((length, h_dim))
    steps = []
    for t in range(length):
        if not valid[t]:
            steps.append(None)
            out[t], cells[t] = h, c
            continue
        z = w_x @ x[t] + w_h @ h + b
        i = ref_sigmoid(z[:h_dim])
        f = ref_sigmoid(z[h_dim:2 * h_dim])
        g = np.tanh(z[2 * h_dim:3 * h_dim])
        o = ref_sigmoid(z[3 * h_dim:])
        c_new = f * c + i * g
        tanh_c = np.tanh(c_new)
        steps.append((x[t], h, c, i, f, g, o, tanh_c))
        h, c = o * tanh_c, c_new
        out[t], cells[t] = h, c

    grads = [np.zeros_like(w_x), np.zeros_like(w_h), np.zeros_like(b)]
    dx = np.zeros(x.shape)
    dh_next, dc_next = np.zeros(h_dim), np.zeros(h_dim)
    for t in range(length - 1, -1, -1):
        dh = dout[t] + dh_next
        dcell = dc_next if dc is None else dc_next + dc[t]
        if steps[t] is None:
            dh_next, dc_next = dh, dcell
            continue
        x_t, h_prev, c_prev, i, f, g, o, tanh_c = steps[t]
        dcell = dcell + dh * o * (1.0 - tanh_c ** 2)
        dz = np.concatenate([
            dcell * g * i * (1.0 - i),
            dcell * c_prev * f * (1.0 - f),
            dcell * i * (1.0 - g ** 2),
            dh * tanh_c * o * (1.0 - o),
        ])
        grads[0] += np.outer(dz, x_t)
        grads[1] += np.outer(dz, h_prev)
        grads[2] += dz
        dx[t] = w_x.T @ dz
        dh_next = w_h.T @ dz
        dc_next = dcell * f
    return out, dx, grads, (cells, dh_next, dc_next)


def ref_bilstm(bilstm, x, mask, dout):
    """``ref_lstm`` in both directions, laid out as ``BiLSTM`` does."""
    h = bilstm.hidden_dim
    rev_mask = None if mask is None else mask[::-1]
    out_f, dx_f, grads_f, _ = ref_lstm(bilstm.fwd, x, mask, dout[:, :h])
    out_b, dx_b, grads_b, _ = ref_lstm(bilstm.bwd, x[::-1], rev_mask, dout[::-1, h:])
    return (np.concatenate([out_f, out_b[::-1]], axis=1), dx_f + dx_b[::-1],
            grads_f + grads_b)


def ref_conv1d(conv, x, dy=None):
    """``Conv1D`` on one (L, c_in) document, window by window: the output,
    and for an output gradient ``dy`` also the gradients of the input, the
    filters and the bias. ``conv`` is only read."""
    k, w = conv.kernel_size, conv.filters.value
    windows = [x[t:t + k] for t in range(x.shape[0] - k + 1)]
    y = np.array([conv.b.value + np.einsum("jc,jco->o", win, w) for win in windows])
    if dy is None:
        return y
    dx, dw = np.zeros_like(x), np.zeros_like(w)
    for t, (win, d) in enumerate(zip(windows, dy)):
        dx[t:t + k] += np.einsum("jco,o->jc", w, d)
        dw += np.einsum("jc,o->jco", win, d)
    return y, dx, dw, dy.sum(axis=0)


def ref_conv1d_run(conv, ids, table, lengths, dy):
    """``ref_conv1d`` over each document of a run of ``lengths`` slots that
    read the rows ``table[ids]``: the run's output, and for its gradient
    ``dy`` the table's gradient, scattered one row per slot, and the
    filters' and the bias's."""
    k, rows = conv.kernel_size, table[ids]
    bounds = np.cumsum([0] + list(lengths))
    wins = np.cumsum([0] + [max(n - k + 1, 0) for n in lengths])
    out = [np.zeros((0, len(conv.b.value)))]
    grads = [np.zeros_like(table), np.zeros_like(conv.filters.value),
             np.zeros_like(conv.b.value)]
    for d, n in enumerate(lengths):
        if n < k:  # no window
            continue
        doc = slice(bounds[d], bounds[d + 1])
        y, dx, dw, db = ref_conv1d(conv, rows[doc], dy[wins[d]:wins[d + 1]])
        out.append(y)
        np.add.at(grads[0], ids[doc], dx)
        grads[1] += dw
        grads[2] += db
    return np.concatenate(out), grads


def ref_maxpool(pool, x, dy=None):
    """``MaxPool1D`` on one (L, c) document, window by window: the output
    and its first-argmax rows, and for ``dy`` the input gradient."""
    p = pool.pool
    starts = range(0, x.shape[0] // p * p, p)
    y = np.array([x[t:t + p].max(axis=0) for t in starts])
    rows = np.array([t + x[t:t + p].argmax(axis=0) for t in starts])
    if dy is None:
        return y, rows
    dx = np.zeros_like(x)
    for r, d in zip(rows, dy):
        dx[r, np.arange(x.shape[1])] += d
    return y, rows, dx


def tail_input(length, tail, row=0.0, channels=4, seed=50):
    """Random rows whose last ``tail`` rows are ``row``: zeros, as padding
    gives, unless another row is passed."""
    x = rng(seed).standard_normal((length, channels))
    x[length - tail:] = row
    return x


def set_rows(x, rows, value):
    x[rows] = value
    return x


TOKEN_ROW = rng(51).standard_normal(4)
# Inputs for a kernel of 3: tails of length 0, 1, k - 1, k and k + 1, longer
# runs broken by a NaN row or by a zero of the other sign, a fully constant
# input, and repeated real rows (a repeated token) with and without padding
# after them.
TAIL_INPUTS = {
    "tail_0": lambda n: tail_input(n, 0),
    "tail_1": lambda n: tail_input(n, 1),
    "tail_k_minus_1": lambda n: tail_input(n, 2),
    "tail_k": lambda n: tail_input(n, 3),
    "tail_k_plus_1": lambda n: tail_input(n, 4),
    "tail_most": lambda n: tail_input(n, n - 1),
    "fully_constant": lambda n: tail_input(n, n, TOKEN_ROW),
    "fully_zero": lambda n: tail_input(n, n),
    "nan_row_in_tail": lambda n: set_rows(tail_input(n, 7), n - 3, np.nan),
    "negative_zero_in_tail": lambda n: set_rows(tail_input(n, 7), n - 4, -0.0),
    "repeated_token_then_padding": lambda n: set_rows(tail_input(n, 5),
                                                      slice(n - 8, n - 5), TOKEN_ROW),
    "repeated_token_at_end": lambda n: tail_input(n, 5, TOKEN_ROW),
}


def _conv_layer():
    """A kernel-3 conv with a bias that keeps padded windows off zero."""
    layer = N.Conv1D(3, 4, 5, rng(52))
    layer.b.value[...] = rng(53).standard_normal(5)
    return layer


class TestConstantTail:
    """Conv1D and MaxPool1D over inputs that end in a run of identical rows,
    as padding gives, match the window-by-window references; the tagger's
    real-prefix cut relies on windows in such a run being equal.

    Pooling is compared bit for bit. Conv is compared to 1e-12, since BLAS
    may sum a product in another order than the reference.
    """

    @pytest.mark.parametrize("length", [11, 12])
    @pytest.mark.parametrize("make", TAIL_INPUTS.values(), ids=TAIL_INPUTS.keys())
    def test_conv1d_matches_full_computation(self, make, length):
        x = make(length)
        layer = _conv_layer()
        got = layer.forward(*as_table(x), [length])
        dy = rng(54).standard_normal(got.shape)
        want, *want_grads = ref_conv1d(layer, x, dy)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        got_grads = [table_grad(layer.backward(dy), x), layer.filters.grad, layer.b.grad]
        for got_g, want_g in zip(got_grads, want_grads):
            np.testing.assert_allclose(got_g, want_g, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("pool_size", [2, 3])
    @pytest.mark.parametrize("length", [11, 12])
    @pytest.mark.parametrize("make", TAIL_INPUTS.values(), ids=TAIL_INPUTS.keys())
    def test_maxpool_matches_full_computation(self, make, length, pool_size):
        x = make(length)
        layer = N.MaxPool1D(pool_size)
        got = layer.forward(x)
        dy = rng(55).standard_normal(got.shape)
        want, rows, dx = ref_maxpool(layer, x, dy)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        argmax, _ = layer._cache
        assert np.array_equal(argmax, rows - np.arange(len(rows))[:, None] * pool_size)
        np.testing.assert_allclose(layer.backward(dy), dx, rtol=0, atol=1e-12)

    def test_copied_rows_equal_the_computed_one(self):
        layer = _conv_layer()
        y = layer.forward(*as_table(tail_input(12, 7)), [12])
        assert np.array_equal(y[5:], np.tile(y[5], (5, 1)))  # windows 5.. lie in the tail
        assert not np.array_equal(y[4], y[5])

    def test_grad_on_padded_input(self):
        conv = N.Conv1D(3, 2, 4, rng(56))
        conv.b.value[...] = rng(57).standard_normal(4)
        assert check_layer_grads(OwnRows(conv), tail_input(10, 6, channels=2), [10]) < 1e-6


LSTM_MASKS = {
    "none": None,
    "all_ones": [1, 1, 1, 1, 1],
    "trailing_pads": [1, 1, 1, 0, 0],
    "gaps_and_trailing_pads": [1, 0, 1, 1, 0, 0],
    "one_leading_real_step": [1, 0, 0, 0],
    "fully_masked": [0, 0, 0, 0, 0],
}


class TestActivations:
    def test_sigmoid_stable_at_extremes(self):
        assert N.sigmoid(np.array([800.0]))[0] == 1.0
        assert N.sigmoid(np.array([-800.0]))[0] == pytest.approx(0.0, abs=1e-300)
        assert N.sigmoid(np.array([0.0]))[0] == 0.5

    def test_sigmoid_bits_match_branch_form(self):
        special = [800.0, -800.0, 0.0, -0.0, 5e-324, -5e-324, 37.0, -37.0]
        scales = np.repeat([1.0, 10.0, 100.0, 1000.0], 1000)
        normals = rng(44).standard_normal(scales.size) * scales
        x = np.concatenate([special, normals])
        got = N.sigmoid(x)
        assert np.array_equal(got.view(np.int64), ref_sigmoid(x).view(np.int64))


class TestDense:
    def test_values(self):
        d = N.Dense(2, 2, rng(1))
        d.w.value[...] = [[1.0, 2.0], [3.0, 4.0]]
        d.b.value[...] = [0.5, -0.5]
        assert np.allclose(d.forward(np.array([[1.0, 1.0]])), [[3.5, 6.5]])

    def test_grad(self):
        d = N.Dense(5, 3, rng(2))
        assert check_layer_grads(d, rng(3).standard_normal((1, 5))) < 1e-6

    def test_only_weight_decays(self):
        d = N.Dense(2, 2, rng(1))
        assert [p for p in d.params() if p.decay] == [d.w]


class TestConv1D:
    def test_output_length(self):
        c = N.Conv1D(3, 2, 4, rng(1))
        y = c.forward(*as_table(rng(2).standard_normal((10, 2))), [10])
        assert y.shape == (8, 4)

    def test_known_value(self):
        c = N.Conv1D(2, 1, 1, rng(1))
        c.filters.value[...] = np.array([[[1.0]], [[2.0]]])
        c.b.value[...] = [0.25]
        y = c.forward(np.array([1, 2, 0, 2]), np.array([[3.0], [1.0], [2.0]]), [4])
        assert np.allclose(y[:, 0], [1 + 4 + 0.25, 2 + 6 + 0.25, 3 + 4 + 0.25])

    def test_grad(self):
        c = OwnRows(N.Conv1D(3, 2, 4, rng(4)))
        assert check_layer_grads(c, rng(5).standard_normal((9, 2)), [9]) < 1e-6

    def test_grad_repeated_ids(self):
        """Finite differences over the parameters and a table whose rows
        0, 2 and 4 shuffled, repeated ids read, and 1, 3 and 5 none."""
        c = N.Conv1D(3, 2, 4, rng(4))
        table = rng(12).standard_normal((6, 2))
        ids, lengths = 2 * rng(11).permutation(np.arange(12) % 3), [5, 2, 5]
        dy = rng(13).standard_normal(c.forward(ids, table, lengths).shape)
        c.zero_grad()
        d_table = table_grad(c.backward(dy), table)

        def loss():
            return float(np.sum(c.forward(ids, table, lengths) * dy))

        arrays = [p.value for p in c.params()] + [table]
        assert grad_check(loss, arrays, [p.grad for p in c.params()] + [d_table]) < 1e-6

    @pytest.mark.parametrize("lengths", [[9, 9], [4, 0, 9, 2, 3]],
                             ids=["equal_lengths", "ragged"])
    def test_table_ids_give_what_their_rows_give(self, lengths):
        """A run of row ids of a table, with repeats, gives what the
        window-by-window reference gives over their rows, in either mode,
        and after a training forward the table's gradient, one row per
        distinct id."""
        c = N.Conv1D(3, 4, 5, rng(6))
        c.b.value[...] = rng(7).standard_normal(5)
        table = rng(8).standard_normal((6, 4))
        ids = rng(9).integers(0, 6, sum(lengths))
        dy = rng(10).standard_normal((sum(max(n - 2, 0) for n in lengths), 5))
        want, want_grads = ref_conv1d_run(c, ids, table, lengths, dy)
        np.testing.assert_allclose(c.forward(ids, table, lengths, False), want,
                                   rtol=0, atol=1e-12)
        c.zero_grad()
        np.testing.assert_allclose(c.forward(ids, table, lengths, True), want,
                                   rtol=0, atol=1e-12)
        got_grads = [table_grad(c.backward(dy), table), c.filters.grad, c.b.grad]
        for got, grad in zip(got_grads, want_grads):
            np.testing.assert_allclose(got, grad, rtol=0, atol=1e-12)


# Runs of documents for a kernel of 3: ragged, with an empty document, one
# shorter than the kernel and one of exactly the kernel's rows; documents
# all of one length, a (B, L, D) batch laid end to end; and one document.
RUN_LENGTHS = {"ragged": [5, 0, 3, 9, 2, 4, 3], "equal_lengths": [7, 7, 7],
               "exactly_k": [3], "one_document": [12], "all_empty": [0, 0]}


# How a run's slots read a table: each slot its own row, as each conv after
# the first reads a pool's rows; random ids of a six-row table; and three
# of its ids, shuffled, each read by a third of the slots.
RUN_READS = ["rows", "table", "shuffled_repeats"]


def _run_conv():
    """A kernel-3 conv with a nonzero bias."""
    layer = N.Conv1D(3, 4, 5, rng(80))
    layer.b.value[...] = rng(81).standard_normal(5)
    return layer


def _run_input(reads, lengths):
    """The (ids, table) of a run of ``lengths`` slots that read a table as
    ``reads`` names (``RUN_READS``)."""
    n = sum(lengths)
    if reads == "rows":
        return as_table(rng(83).standard_normal((n, 4)))
    table = rng(82).standard_normal((6, 4))
    if reads == "table":
        return rng(83).integers(0, len(table), n), table
    return 2 * rng(83).permutation(np.arange(n) % 3), table


@pytest.mark.parametrize("reads", RUN_READS)
@pytest.mark.parametrize("lengths", RUN_LENGTHS.values(), ids=RUN_LENGTHS.keys())
class TestConv1DRun:
    """A run of documents gives what each document alone gives: its own
    windows, ``max(length - k + 1, 0)`` of them, in the run's order.

    Compared to 1e-12, not bit for bit: a document of one window alone is a
    one-row GEMM, which BLAS may sum in another order than the run's.
    """

    def test_windows_equal_each_document_alone(self, reads, lengths):
        layer = _run_conv()
        ids, table = _run_input(reads, lengths)
        for train in (False, True):
            got = layer.forward(ids, table, lengths, train)
            assert got.shape == (sum(max(n - 2, 0) for n in lengths), 5)
            bounds = np.cumsum([0] + lengths)
            wins = np.cumsum([0] + [max(n - 2, 0) for n in lengths])
            for d, n in enumerate(lengths):
                alone = layer.forward(ids[bounds[d]:bounds[d + 1]], table, [n], train)
                np.testing.assert_allclose(got[wins[d]:wins[d + 1]], alone,
                                           rtol=0, atol=1e-12)

    def test_backward_is_the_sum_over_documents(self, reads, lengths):
        layer = _run_conv()
        ids, table = _run_input(reads, lengths)
        y = layer.forward(ids, table, lengths, True)
        dy = rng(84).standard_normal(y.shape)
        layer.zero_grad()
        grads = [table_grad(layer.backward(dy), table)]
        grads += [p.grad.copy() for p in layer.params()]
        summed = [np.zeros_like(g) for g in grads]
        bounds = np.cumsum([0] + lengths)
        wins = np.cumsum([0] + [max(n - 2, 0) for n in lengths])
        for d, n in enumerate(lengths):
            layer.forward(ids[bounds[d]:bounds[d + 1]], table, [n], True)
            layer.zero_grad()
            summed[0] += table_grad(layer.backward(dy[wins[d]:wins[d + 1]]), table)
            for total, p in zip(summed[1:], layer.params()):
                total += p.grad
        for got, want in zip(grads, summed):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_matches_window_by_window_reference(self, reads, lengths):
        """The output and the gradients; backward gives the distinct ids of
        the run, sorted, each once, and a zero row for an id that only the
        slots of documents shorter than the kernel read."""
        layer = _run_conv()
        ids, table = _run_input(reads, lengths)
        y = layer.forward(ids, table, lengths, True)
        dy = rng(85).standard_normal(y.shape)
        layer.zero_grad()
        read, rows = layer.backward(dy)
        want_y, want_grads = ref_conv1d_run(layer, ids, table, lengths, dy)
        np.testing.assert_array_equal(read, np.unique(ids))
        for got, want in zip([y, rows, layer.filters.grad, layer.b.grad],
                             [want_y, want_grads[0][read]] + want_grads[1:]):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        windowed = ids[np.repeat(np.array(lengths) >= 3, lengths)]
        assert not rows[~np.isin(read, windowed)].any()


class TestMaxPool1D:
    def test_values_and_truncation(self):
        p = N.MaxPool1D(2)
        y = p.forward(np.array([[1.0], [5.0], [2.0], [3.0], [9.0]]))
        assert y[:, 0].tolist() == [5.0, 3.0]  # trailing odd row dropped

    def test_grad_routes_to_argmax(self):
        p = N.MaxPool1D(2)
        x = np.array([[1.0], [5.0], [7.0], [3.0]])
        p.forward(x)
        assert p._cache[0].dtype == np.uint8  # the smallest type holding pool - 1
        dx = p.backward(np.array([[1.0], [2.0]]))
        assert dx[:, 0].tolist() == [0.0, 1.0, 2.0, 0.0]

    @pytest.mark.parametrize("pool, dtype", [(1, np.uint8), (256, np.uint8),
                                             (257, np.uint16)])
    def test_argmax_dtype_follows_pool(self, pool, dtype):
        p = N.MaxPool1D(pool)
        x = rng(5).standard_normal((4 * pool + pool // 2, 3))
        y = p.forward(x)
        assert p._cache[0].dtype == dtype
        windows = x[:4 * pool].reshape(4, pool, 3)
        assert np.array_equal(y, windows.max(axis=1))
        dy = rng(6).standard_normal(y.shape)
        want = np.zeros_like(windows)
        np.put_along_axis(want, windows.argmax(axis=1)[:, None], dy[:, None], axis=1)
        dx = p.backward(dy)
        assert np.array_equal(dx[:4 * pool], want.reshape(-1, 3))
        assert not dx[4 * pool:].any()

    def test_grad_numeric(self):
        p = N.MaxPool1D(2)
        assert check_layer_grads(p, rng(6).standard_normal((8, 3))) < 1e-6

    @pytest.mark.parametrize("pool", [1, 2, 3, 5])
    def test_first_maximum_matches_argmax_bits(self, pool):
        """Ties, signed zeros, infinities and NaNs: the window maxima have
        the bits of ``max`` and the routed taps are ``argmax``'s, whose
        first NaN wins."""
        special = np.array([0.0, -0.0, 1.0, -1.0, np.nan, np.inf, -np.inf])
        x = special[rng(7).integers(0, len(special), (12 * pool + 1, 64))]
        p = N.MaxPool1D(pool)
        y = p.forward(x)
        out_len = len(x) // pool
        windows = x[:out_len * pool].reshape(out_len, pool, 64)
        assert np.array_equal(y.view(np.uint64), windows.max(axis=1).view(np.uint64))
        assert np.array_equal(p._cache[0], windows.argmax(axis=1))

    def test_run_pools_each_document_alone(self):
        """Documents whose row counts are multiples of the pool, laid end to
        end, pool as each does alone, forward and backward."""
        lengths = [6, 0, 2, 4]
        x = rng(8).standard_normal((sum(lengths), 3))
        p = N.MaxPool1D(2)
        y = p.forward(x)
        dy = rng(9).standard_normal(y.shape)
        dx = p.backward(dy)
        for lo, n in zip(np.cumsum([0] + lengths), lengths):
            want, _, want_dx = ref_maxpool(p, x[lo:lo + n], dy[lo // 2:(lo + n) // 2])
            assert np.array_equal(y[lo // 2:(lo + n) // 2].reshape(-1, 3),
                                  np.reshape(want, (-1, 3)))
            assert np.array_equal(dx[lo:lo + n], want_dx)


class TestMaxOverTime:
    def test_masked(self):
        m = N.MaxOverTime()
        x = np.array([[[1.0, -1.0], [5.0, -9.0], [9.0, 0.0]]])
        y = m.forward(x, np.array([[1.0, 1.0, 0.0]]))
        assert y.tolist() == [[5.0, -1.0]]

    def test_grad(self):
        m = N.MaxOverTime()
        x = rng(7).standard_normal((1, 6, 4))
        assert check_layer_grads(m, x, np.array([[1, 1, 1, 1, 0, 0.0]])) < 1e-6

    @pytest.mark.parametrize("train", [True, False])
    def test_nan_and_infinite_entries(self, train):
        """A NaN among a row's real slots is its max, and a column whose
        real slots are all -inf has max -inf, whatever its masked slots
        hold; a fully masked row is zero. Of tied maxima, zeros of both
        signs or NaNs, the first is the max in either mode."""
        y = N.MaxOverTime().forward(*MAX_OVER_TIME_CASE, train=train)
        x = MAX_OVER_TIME_CASE[0]
        assert np.isnan(y[0, 0]) and y[0, 2] == -np.inf
        assert y[1].tolist() == [0.0, 0.0, 0.0]
        assert y[2, 0] == -np.inf
        assert y[3].tolist() == [x[3, [0, 2, 3], 0].max(), x[3, [0, 2, 3], 1].max(),
                                 x[3, [0, 2, 3], 2].max()]
        assert y[4].view(np.uint64).tolist() == x[4, 0].view(np.uint64).tolist()

    def test_fully_masked_is_zero_and_blocks_grads(self):
        m = N.MaxOverTime()
        y = m.forward(np.ones((1, 3, 2)), np.zeros((1, 3)))
        assert y.tolist() == [[0.0, 0.0]]
        assert m.backward(np.ones((1, 2))).tolist() == [[[0.0, 0.0]] * 3]


class TestDropout:
    def test_eval_is_identity(self):
        d = N.Dropout(0.5)
        x = rng(8).standard_normal(10)
        assert np.array_equal(d.forward(x, train=False), x)

    def test_train_scales_survivors(self):
        d = N.Dropout(0.4)
        x = np.ones(2000)
        y = d.forward(x, train=True, rng=rng(9))
        kept = y != 0.0
        assert np.allclose(y[kept], 1.0 / 0.6)
        assert abs(kept.mean() - 0.6) < 0.05

    def test_backward_uses_same_mask(self):
        d = N.Dropout(0.5)
        x = np.ones(50)
        y = d.forward(x, train=True, rng=rng(10))
        dx = d.backward(np.ones(50))
        assert np.array_equal(dx != 0.0, y != 0.0)

    def test_rate_zero_noop(self):
        d = N.Dropout(0.0)
        x = rng(11).standard_normal(5)
        assert np.array_equal(d.forward(x, train=True, rng=rng(0)), x)

    def test_bad_rate(self):
        with pytest.raises(ValueError):
            N.Dropout(1.0)


EVAL_X = rng(70).standard_normal((2, 6, 4))


# a NaN whose payload differs from the one that arithmetic makes
NAN_PAYLOAD = np.array([0x7FF8000000000123], dtype=np.uint64).view(np.float64)[0]


def _max_over_time_case():
    """(5, 5, 3) states and their mask: row 0 all real, with a NaN and -inf
    entries; row 1 fully masked; row 2 a masked slot before real slots whose
    column 0 is all -inf; row 3 a NaN and a -inf in masked slots; row 4
    maxima tied between zeros of both signs, -0.0 first in column 0 and
    +0.0 in column 2, and NaNs of two payloads in column 1, the odd one
    first."""
    x = rng(77).standard_normal((5, 5, 3))
    mask = np.array([[1, 1, 1, 1, 1], [0, 0, 0, 0, 0], [0, 1, 1, 0, 1], [1, 0, 1, 1, 0],
                     [1, 1, 1, 1, 0]])
    x[0, 2, 0], x[0, 1, 1], x[0, 3, 1], x[0, :, 2] = np.nan, -np.inf, -np.inf, -np.inf
    x[2, 0, 0], x[2, 1:, 0] = 5.0, -np.inf
    x[3, 1, 0], x[3, 4, 1] = np.nan, -np.inf
    x[4] = [[-0.0, NAN_PAYLOAD, 0.0], [0.0, np.nan, -0.0], [-1.0, 1.0, -3.0],
            [-0.0, 2.0, -2.0], [5.0, 0.0, 9.0]]
    return x, mask


MAX_OVER_TIME_CASE = _max_over_time_case()
# name -> (layer factory, forward of the layer on EVAL_X with train=t)
EVAL_CASES = {
    "dense": (lambda: N.Dense(4, 3, rng(71)),
              lambda layer, t: layer.forward(EVAL_X[:, 0], train=t)),
    "conv1d": (lambda: N.Conv1D(3, 4, 5, rng(72)),
               lambda layer, t: layer.forward(*as_table(EVAL_X.reshape(12, 4)), [6, 6],
                                              train=t)),
    "conv1d_table": (lambda: N.Conv1D(3, 4, 5, rng(72)),
                     lambda layer, t: layer.forward(np.arange(12) % 5, EVAL_X[0], [6, 6], t)),
    "maxpool": (lambda: N.MaxPool1D(2),
                lambda layer, t: layer.forward(EVAL_X.reshape(12, 4), train=t)),
    "max_over_time": (N.MaxOverTime,
                      lambda layer, t: layer.forward(EVAL_X, np.ones((2, 6)), train=t)),
    "max_over_time_masked": (N.MaxOverTime,
                             lambda layer, t: layer.forward(*MAX_OVER_TIME_CASE, train=t)),
    # one column: numpy's max of a contiguous run of NaNs need not be the first
    "max_over_time_nan_column": (N.MaxOverTime, lambda layer, t: layer.forward(
        MAX_OVER_TIME_CASE[0][:, :, 1:2], MAX_OVER_TIME_CASE[1], train=t)),
    "dropout": (lambda: N.Dropout(0.0),
                lambda layer, t: layer.forward(EVAL_X, train=t, rng=rng(73))),
    "relu": (N.ReLULayer, lambda layer, t: layer.forward(EVAL_X.copy(), train=t)),
    "leaky_relu": (N.LeakyReLULayer, lambda layer, t: layer.forward(EVAL_X, train=t)),
    "sigmoid": (N.SigmoidLayer, lambda layer, t: layer.forward(EVAL_X, train=t)),
    "lstm": (lambda: N.LSTM(4, 3, rng(74)),
             lambda layer, t: layer.forward(*as_table(EVAL_X), np.ones((2, 6)), train=t)),
    # row 0's tail, from slot 4 on, reads the row of its slot 5
    "bilstm": (lambda: N.BiLSTM(4, 3, rng(75)),
               lambda layer, t: layer.forward(np.array([[0, 1, 2, 3, 5, 5], range(6, 12)]),
                                              EVAL_X.reshape(12, 4), np.array([4, 6]),
                                              train=t)),
    "attention": (lambda: N.Attention(4, rng(76)),
                  lambda layer, t: layer.forward(EVAL_X, train=t)[1]),
}


def _cached_parts(layer):
    """The layer and its sub-layers."""
    return [layer] + [v for v in vars(layer).values() if isinstance(v, N.layers.Layer)]


@pytest.mark.parametrize("make, forward", EVAL_CASES.values(), ids=EVAL_CASES.keys())
class TestEvalForward:
    def test_same_output_and_no_cache(self, make, forward):
        layer = make()
        want = forward(layer, True)
        got = forward(layer, False)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        assert all(part._cache is None for part in _cached_parts(layer))

    def test_backward_after_eval_forward_raises(self, make, forward):
        layer = make()
        dy = np.ones_like(forward(layer, False))
        with pytest.raises(RuntimeError, match="backward needs a forward with train=True"):
            layer.backward(dy)

    def test_backward_drops_the_cache(self, make, forward):
        layer = make()
        dy = np.ones_like(forward(layer, True))
        layer.backward(dy)
        assert all(part._cache is None for part in _cached_parts(layer))
        with pytest.raises(RuntimeError, match="backward needs a forward with train=True"):
            layer.backward(dy)


def _add_at_runs(grad, out, shape):
    """The reference for ``layers._sum_runs``: ``np.add.at`` into zeros."""
    total = np.zeros(shape)
    if grad is not None:
        np.add.at(total, out, np.asarray(grad, dtype=np.float64))
    return total


@pytest.mark.parametrize("masked", ["zero", "nonzero"])
def test_lstm_state_sums_match_add_at(masked, monkeypatch):
    """Backward's per-state sums of the slot gradients, one reduceat over
    the runs of each row's slots that read one state, on the ragged mask
    (trailing pads, gaps, a row with no real slot, leading pads), from
    given ``h0`` and ``c0`` and with a cell gradient. Where every masked
    slot's gradient is zero, as both models' are, every output has the
    bits that ``np.add.at``'s sums give, signed zeros included; otherwise
    they are within rounding of them."""
    lstm = N.LSTM(4, 3, rng(80))
    ids, table = as_table(rng(81).standard_normal((5, 7, 4)))
    h0, c0 = rng(82).standard_normal((2, 5, 3))
    dout, dc = rng(83).standard_normal((2, 5, 7, 3))
    if masked == "zero":
        dout[RAGGED_MASK == 0] = dc[RAGGED_MASK == 0] = 0.0
    dout[0, 6, 0] = dout[4, 2, 1] = -0.0  # each the only slot of its state

    def backward():
        lstm.zero_grad()
        lstm.forward(ids, table, RAGGED_MASK, h0, c0)
        read, rows = lstm.backward(dout, dc)
        return [read, rows, lstm.dh0, lstm.dc0] + [p.grad.copy() for p in lstm.params()]

    got = backward()
    monkeypatch.setattr(N.layers, "_sum_runs", _add_at_runs)
    want = backward()
    for g, w in zip(got, want):
        if masked == "zero":
            assert g.tobytes() == w.tobytes()
        else:
            np.testing.assert_allclose(g, w, rtol=0, atol=1e-12)


@pytest.mark.parametrize("shape", [(0, 4), (3, 0)], ids=["no_rows", "no_slots"])
def test_lstm_backward_of_an_empty_batch(shape):
    lstm = N.LSTM(4, 3, rng(84))
    out = lstm.forward(np.zeros(shape, dtype=np.int64), rng(85).standard_normal((2, 4)))
    read, rows = lstm.backward(np.zeros(out.shape))
    assert read.size == 0 and rows.shape == (0, 4)
    assert lstm.dh0.shape == lstm.dc0.shape == (shape[0], 3)


def test_lstm_cells_need_a_training_forward():
    lstm = N.LSTM(4, 3, rng(77))
    lstm.forward(*as_table(EVAL_X), train=False)
    with pytest.raises(RuntimeError, match="train=True"):
        lstm.cells()


def test_relu_in_place_keeps_the_bits_of_where():
    """NaN, signed zeros and infinities: the eval ReLU writes into its input
    and gives the bits of the training one, and backward gives the bits of
    ``np.where`` for such gradients too."""
    special = np.array([0.0, -0.0, 1.0, -1.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324])
    x = special[rng(78).integers(0, len(special), (3, 7, 5))]
    layer = N.ReLULayer()
    want = layer.forward(x)
    assert np.array_equal(want.view(np.uint64), np.where(x > 0.0, x, 0.0).view(np.uint64))
    dy = special[rng(79).integers(0, len(special), x.shape)]
    assert np.array_equal(layer.backward(dy).view(np.uint64),
                          np.where(x > 0.0, dy, 0.0).view(np.uint64))
    y = x.copy()
    got = N.ReLULayer().forward(y, train=False)
    assert got is y
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


class TestLSTM:
    def test_shapes(self):
        lstm = N.LSTM(3, 4, rng(12))
        h = lstm.forward(*as_table(rng(13).standard_normal((1, 5, 3))))
        assert h.shape == (1, 5, 4)

    def test_masked_steps_copy_state(self):
        lstm = N.LSTM(3, 4, rng(14))
        x = rng(15).standard_normal((1, 5, 3))
        mask = np.array([[1.0, 1.0, 0.0, 0.0, 1.0]])
        h = lstm.forward(*as_table(x), mask)[0]
        assert np.array_equal(h[2], h[1])
        assert np.array_equal(h[3], h[1])
        assert not np.array_equal(h[4], h[3])

    def test_padding_invariance(self):
        lstm = N.LSTM(3, 4, rng(16))
        x = rng(17).standard_normal((3, 3))
        h_short = lstm.forward(*as_table(x[None]), np.ones((1, 3)))[0]
        padded = np.vstack([x, np.zeros((2, 3))])
        h_long = lstm.forward(*as_table(padded[None]), np.array([[1, 1, 1, 0, 0.0]]))[0]
        assert np.allclose(h_long[:3], h_short)
        assert np.allclose(h_long[3:], h_short[-1])

    def test_zero_weights_give_zero_states(self):
        lstm = N.LSTM(3, 4, rng(18))
        for p in lstm.params():
            p.value[...] = 0.0
        h = lstm.forward(*as_table(rng(19).standard_normal((1, 6, 3))))
        assert np.all(h == 0.0)

    def test_grad_full_mask(self):
        lstm = OwnRows(N.LSTM(3, 4, rng(20)))
        assert check_layer_grads(
            lstm, rng(21).standard_normal((1, 5, 3)), np.ones((1, 5))) < 1e-5

    def test_grad_with_gaps(self):
        lstm = OwnRows(N.LSTM(2, 3, rng(22)))
        mask = np.array([[1.0, 0.0, 1.0, 1.0, 0.0, 1.0]])
        assert check_layer_grads(
            lstm, rng(23).standard_normal((1, 6, 2)), mask) < 1e-5

    @pytest.mark.parametrize("mask", [[1, 1, 1, 0, 0], [0, 0, 0, 0, 0]],
                             ids=["trailing_pads", "fully_masked"])
    def test_grad_padded(self, mask):
        lstm = OwnRows(N.LSTM(2, 3, rng(45)))
        assert check_layer_grads(
            lstm, rng(46).standard_normal((1, 5, 2)), np.array([mask], float)) < 1e-5

    def test_initial_states_copy_into_leading_masked_slots(self):
        lstm = N.LSTM(3, 4, rng(47))
        h0, c0 = rng(48).standard_normal((2, 2, 4))
        x = rng(49).standard_normal((2, 3, 3))
        h = lstm.forward(*as_table(x), np.array([[0, 1, 1], [0, 0, 0.0]]), h0, c0)
        assert np.array_equal(h[:, 0], h0) and np.array_equal(h[1], np.tile(h0[1], (3, 1)))
        assert np.array_equal(lstm.cells()[:, 0], c0)
        # the state reached from (h0, c0) is the state the step loop reaches
        # after a prefix that ends in (h0, c0)
        prefix = rng(50).standard_normal((1, 4, 3))
        lstm.forward(*as_table(prefix))
        h_prefix, c_prefix = lstm.forward(*as_table(prefix))[:, -1], lstm.cells()[:, -1]
        joined = lstm.forward(*as_table(np.concatenate([prefix, x[:1]], axis=1)))
        resumed = lstm.forward(*as_table(x[:1]), None, h_prefix, c_prefix)
        np.testing.assert_allclose(resumed, joined[:, 4:], rtol=0, atol=1e-12)

    def test_grad_initial_states_and_cells(self):
        """Finite differences over the parameters, the table and both
        initial states, with gradients flowing into the cell states too,
        on a ragged batch (an empty row passes h0 and c0 straight out)."""
        lstm = N.LSTM(4, 3, rng(51))
        ids, table = as_table(rng(52).standard_normal((5, 7, 4)))
        h0, c0 = rng(53).standard_normal((2, 5, 3))
        dh, dc = rng(54).standard_normal((2, 5, 7, 3))

        def loss():
            h = lstm.forward(ids, table, RAGGED_MASK, h0, c0)
            return float(np.sum(h * dh) + np.sum(lstm.cells() * dc))

        lstm.forward(ids, table, RAGGED_MASK, h0, c0)
        lstm.zero_grad()
        d_table = table_grad(lstm.backward(dh, dc), table)
        params = lstm.params()
        worst = grad_check(loss, [p.value for p in params] + [table, h0, c0],
                             [p.grad for p in params] + [d_table, lstm.dh0, lstm.dc0])
        assert worst < 1e-6

    def test_grad_repeated_ids(self):
        """Finite differences over the parameters, the table and both
        initial states when the slots read a few rows many times, with gaps,
        an empty row, and one row that no slot reads."""
        lstm = N.LSTM(3, 4, rng(55))
        lstm.b.value[...] = rng(56).standard_normal(16)
        table = rng(57).standard_normal((4, 3))
        ids = rng(58).integers(0, 3, (5, 7))
        h0, c0 = rng(59).standard_normal((2, 5, 4))
        dh = rng(60).standard_normal((5, 7, 4))

        def loss():
            return float(np.sum(lstm.forward(ids, table, RAGGED_MASK, h0, c0) * dh))

        lstm.forward(ids, table, RAGGED_MASK, h0, c0)
        lstm.zero_grad()
        read, rows = lstm.backward(dh)
        np.testing.assert_array_equal(read, np.unique(ids[RAGGED_MASK > 0.5]))
        params = lstm.params()
        worst = grad_check(loss, [p.value for p in params] + [table, h0, c0],
                             [p.grad for p in params]
                             + [table_grad((read, rows), table), lstm.dh0, lstm.dc0])
        assert worst < 1e-6


# The LSTM under every mask; the BiLSTM takes none and reads every slot,
# as the reference does under no mask or an all-ones one.
STEP_LOOP_CASES = {f"{name}-lstm": (N.LSTM, ref_lstm, mask)
                   for name, mask in LSTM_MASKS.items()}
STEP_LOOP_CASES.update({f"{name}-bilstm": (N.BiLSTM, ref_bilstm, LSTM_MASKS[name])
                        for name in ("none", "all_ones")})


@pytest.mark.parametrize("layer_cls, reference, mask", STEP_LOOP_CASES.values(),
                         ids=STEP_LOOP_CASES.keys())
def test_lstm_matches_step_loop_reference(layer_cls, reference, mask):
    length = 5 if mask is None else len(mask)
    mask = None if mask is None else np.array(mask, dtype=np.float64)
    layer = layer_cls(4, 3, rng(47))
    x = rng(48).standard_normal((length, 4))
    width = 6 if layer_cls is N.BiLSTM else 3
    dout = rng(49).standard_normal((length, width))
    want_out, want_dx, want_grads = reference(layer, x, mask, dout)[:3]
    masks = [] if mask is None or layer_cls is N.BiLSTM else [mask[None]]
    ids, table = as_table(x[None])
    out = layer.forward(ids, table, *masks)[0]
    layer.zero_grad()
    dx = table_grad(layer.backward(dout[None]), table)
    for got, want in zip([out, dx] + [p.grad for p in layer.params()],
                         [want_out, want_dx] + want_grads):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


# Ragged batches: a full-length row, an empty row, gaps, trailing padding
# and one real step after leading padding.
RAGGED_MASK = np.array([[1, 1, 1, 1, 1, 1, 1],
                        [0, 0, 0, 0, 0, 0, 0],
                        [1, 0, 1, 1, 0, 0, 1],
                        [1, 1, 1, 0, 0, 0, 0],
                        [0, 0, 1, 0, 0, 0, 0]], dtype=np.float64)
class _RunOfEqualDocuments(N.layers.Layer):
    """A layer that reads a run of rows, over a (B, L, D) batch: its rows
    as one run of B documents of L rows each; a conv reads them through
    ``OwnRows``, each slot by its own id."""

    def __init__(self, layer):
        self.layer = layer

    def forward(self, x):
        batch, length, dim = x.shape
        lengths = [[length] * batch] if isinstance(self.layer, OwnRows) else []
        y = self.layer.forward(x.reshape(-1, dim), *lengths)
        self._keep(True, x.shape)
        return y.reshape(batch, -1, y.shape[1])

    def backward(self, dy):
        (shape,) = self._take()
        return self.layer.backward(dy.reshape(-1, dy.shape[2])).reshape(shape)


# layer factory, input shape, mask (None: the layer takes none)
RAGGED_CASES = {
    "dense": (lambda: N.Dense(4, 3, rng(60)), (5, 4), None),
    "conv1d": (lambda: _RunOfEqualDocuments(OwnRows(N.Conv1D(3, 4, 2, rng(60)))),
               (5, 7, 4), None),
    "maxpool": (lambda: _RunOfEqualDocuments(N.MaxPool1D(2)), (5, 8, 4), None),
    "max_over_time": (lambda: N.MaxOverTime(), (5, 7, 4), RAGGED_MASK),
    "lstm": (lambda: OwnRows(N.LSTM(4, 3, rng(60))), (5, 7, 4), RAGGED_MASK),
    "bilstm": (lambda: OwnRows(N.BiLSTM(4, 3, rng(60))), (5, 7, 4), None),
    "attention": (lambda: N.Attention(4, rng(60)), (5, 7, 4), None),
    "leaky_relu": (lambda: N.LeakyReLULayer(0.1), (5, 7, 4), None),
    "sigmoid": (lambda: N.SigmoidLayer(), (5, 7, 4), None),
}


def _ragged_forward(layer, x, mask):
    """The layer's output for the loss; attention's is its context vector."""
    out = layer.forward(x) if mask is None else layer.forward(x, mask)
    return out[1] if isinstance(layer, N.Attention) else out


@pytest.mark.parametrize("make, shape, mask", RAGGED_CASES.values(),
                         ids=RAGGED_CASES.keys())
class TestRaggedBatch:
    def test_batch_equals_per_document(self, make, shape, mask):
        """A batch's outputs, input gradients and summed parameter gradients
        are what one document at a time gives."""
        layer = make()
        x = rng(61).standard_normal(shape)
        y = _ragged_forward(layer, x, mask)
        dy = rng(62).standard_normal(y.shape)
        layer.zero_grad()
        dx = layer.backward(dy)
        grads = [p.grad.copy() for p in layer.params()]
        summed = [np.zeros_like(g) for g in grads]
        for b in range(shape[0]):
            row = slice(b, b + 1)
            y_b = _ragged_forward(layer, x[row], None if mask is None else mask[row])
            np.testing.assert_allclose(y_b, y[row], rtol=0, atol=1e-12)
            layer.zero_grad()
            np.testing.assert_allclose(layer.backward(dy[row]), dx[row], rtol=0, atol=1e-12)
            for total, p in zip(summed, layer.params()):
                total += p.grad
        for got, want in zip(grads, summed):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_grad(self, make, shape, mask):
        layer = make()
        x = rng(63).standard_normal(shape)
        dy = rng(64).standard_normal(_ragged_forward(layer, x, mask).shape)
        layer.zero_grad()
        dx = layer.backward(dy)
        # attention's score bias cancels in the softmax (see TestAttention)
        params = [p for p in layer.params()
                  if not (isinstance(layer, N.Attention) and p is layer.b)]

        def loss():
            return float(np.sum(_ragged_forward(layer, x, mask) * dy))

        worst = grad_check(loss, [p.value for p in params] + [x],
                             [p.grad for p in params] + [dx])
        assert worst < 1e-6


def test_lstm_packs_rows_by_real_steps():
    """Rows are walked longest first: every row of a ragged batch matches
    the step-loop reference of its own."""
    layer = OwnRows(N.LSTM(4, 3, rng(65)))
    x = rng(66).standard_normal((5, 7, 4))
    dout = rng(67).standard_normal((5, 7, 3))
    out = layer.forward(x, RAGGED_MASK)
    layer.zero_grad()
    dx = layer.backward(dout)
    summed = [np.zeros_like(p.value) for p in layer.params()]
    for b in range(5):
        want_out, want_dx, want_grads, _ = ref_lstm(layer.layer, x[b], RAGGED_MASK[b],
                                                    dout[b])
        np.testing.assert_allclose(out[b], want_out, rtol=0, atol=1e-12)
        np.testing.assert_allclose(dx[b], want_dx, rtol=0, atol=1e-12)
        for total, g in zip(summed, want_grads):
            total += g
    for p, want in zip(layer.params(), summed):
        np.testing.assert_allclose(p.grad, want, rtol=0, atol=1e-12)


def _lstm_id_cases():
    """Batches of ids of a 300-row table: ids, mask, whether h0 and c0 are
    given, and the LSTM's input and hidden sizes. Past ``LSTM_ID_ROWS``
    real steps, or rows, an eval forward gathers its projections again,
    and its backward sums the repeats of an id in more than one block."""
    r = rng(90)
    return {
        "gaps": (r.integers(0, 8, (5, 7)), RAGGED_MASK, False, 4, 3),
        "one_row": (r.integers(0, 8, (1, 6)), np.array([[1, 0, 1, 1, 0, 1.0]]), False, 4, 3),
        "initial_states": (r.integers(0, 8, (5, 7)), RAGGED_MASK, True, 4, 3),
        "one_repeated_id": (np.full((3, 5), 6), None, False, 100, 128),
        "few_ids_many_steps": (r.integers(0, 3, (4, 50)), None, False, 100, 16),
        "all_distinct": (r.permutation(300)[:180].reshape(3, 60),
                         (r.random((3, 60)) < 0.8).astype(float), True, 4, 3),
        "long_one_row": (r.integers(0, 8, (1, 150)), None, False, 4, 3),
        "wide_batch": (r.integers(0, 300, (70, 3)), None, True, 4, 3),
        "paper_size_all_distinct": (r.permutation(300)[:240].reshape(8, 30), None,
                                    False, 100, 128),
    }


LSTM_ID_CASES = _lstm_id_cases()


@pytest.mark.parametrize("ids, mask, states, dim, hidden", LSTM_ID_CASES.values(),
                         ids=LSTM_ID_CASES.keys())
def test_lstm_table_ids_give_what_their_rows_give(ids, mask, states, dim, hidden):
    """Eval and training forwards over a table's ids give what the step
    loop gives over their rows, within 1e-12: the outputs, the cells, and
    after backward the ids read with their rows' gradients, summed over the
    slots that read them, the initial states' and every parameter's."""
    lstm = N.LSTM(dim, hidden, rng(91))
    lstm.b.value[...] = rng(92).standard_normal(4 * hidden)
    table = rng(93).standard_normal((300, dim))
    h0, c0 = rng(94).standard_normal((2, len(ids), hidden)) if states else (None, None)
    dh, dc = rng(95).standard_normal((2, *ids.shape, hidden))
    want_out, want_cells = np.empty((2, *ids.shape, hidden))
    want_dh0, want_dc0 = np.empty((2, len(ids), hidden))
    want_dx = np.zeros_like(table)
    want_grads = [np.zeros_like(p.value) for p in lstm.params()]
    for b in range(len(ids)):
        out, dx, grads, (cells, dh0, dc0) = ref_lstm(
            lstm, table[ids[b]], None if mask is None else mask[b], dh[b],
            *((None, None) if h0 is None else (h0[b], c0[b])), dc[b])
        want_out[b], want_cells[b], want_dh0[b], want_dc0[b] = out, cells, dh0, dc0
        np.add.at(want_dx, ids[b], dx)
        for total, g in zip(want_grads, grads):
            total += g
    np.testing.assert_allclose(lstm.forward(ids, table, mask, h0, c0, train=False), want_out,
                               rtol=0, atol=1e-12)
    lstm.zero_grad()
    np.testing.assert_allclose(lstm.forward(ids, table, mask, h0, c0), want_out,
                               rtol=0, atol=1e-12)
    np.testing.assert_allclose(lstm.cells(), want_cells, rtol=0, atol=1e-12)
    read, rows = lstm.backward(dh, dc)
    real = ids if mask is None else ids[mask > 0.5]
    np.testing.assert_array_equal(read, np.unique(real))
    np.testing.assert_allclose(rows, want_dx[read], rtol=0, atol=1e-12)
    for got, grad in zip([p.grad for p in lstm.params()] + [lstm.dh0, lstm.dc0],
                         want_grads + [want_dh0, want_dc0]):
        np.testing.assert_allclose(got, grad, rtol=0, atol=1e-12)


def _shared_prefix_batches(length, seed):
    """Batches of ids of a 300-row table whose rows share prefixes, the ids
    of their real steps so far, each with its mask (None: every slot real)."""
    r = rng(seed)
    a, b, c, d = r.integers(0, 300, (4, length))
    half = length // 2
    c[:half] = a[:half]  # c shares its first half with a
    b[0] = d[0] = a[0]  # b and d share only their first id with a
    left = np.arange(length) < np.array([length, half, 1, length - 1, 0])[:, None]
    # a's first length - 1 ids, read through a gap at slot 1, at slot 2, or none
    gapped = np.array([np.insert(a[:-1], k, r.integers(300)) for k in (1, 2, length - 1)])
    gaps = np.ones(gapped.shape)
    gaps[[0, 1, 2], [1, 2, length - 1]] = 0.0
    return {
        "duplicates": (np.array([a, a, c, a, a]), None),
        "prefix_of_another": (np.array([a, a, a, a, c]), left.astype(float)),
        "first_id_only": (np.array([a, b, d, c[::-1], b]), None),
        "one_or_two_prefixes": (np.array([a, a, a, c, c, c]), None),
        "all_pad_row": (np.array([a, a, b, c, c]),
                        np.array([1, 1, 0, 1, 1.0])[:, None] * np.ones(length)),
        "gaps": (np.concatenate([gapped, [c, c]]),
                 np.concatenate([gaps, np.ones((2, length))])),
    }


SHARED_PREFIX_CASES = _shared_prefix_batches(7, 96)


def _record_shared_steps(monkeypatch):
    """A list that gets each ``_shared_steps`` result an LSTM forward uses."""
    plans, shared_steps = [], N.layers._shared_steps
    monkeypatch.setattr(N.layers, "_shared_steps",
                        lambda *args: plans.append(shared_steps(*args)) or plans[-1])
    return plans


def check_shared_eval_forward(lstm, table, ids, mask, monkeypatch):
    """An eval forward over ``ids`` merges some step's rows and gives, row
    by row, what the step-loop reference gives, within 1e-12."""
    plans = _record_shared_steps(monkeypatch)
    out = lstm.forward(ids, table, mask, train=False)
    assert len(plans) == 1 and plans[0]
    zeros = np.zeros((ids.shape[1], lstm.hidden_dim))
    for b in range(len(ids)):
        want = ref_lstm(lstm, table[ids[b]], None if mask is None else mask[b], zeros)[0]
        np.testing.assert_allclose(out[b], want, rtol=0, atol=1e-12)
    return plans[0]


@pytest.mark.parametrize("case", SHARED_PREFIX_CASES)
def test_lstm_eval_steps_each_prefix_once(case, monkeypatch):
    ids, mask = SHARED_PREFIX_CASES[case]
    lstm = N.LSTM(4, 3, rng(97))
    lstm.b.value[...] = rng(98).standard_normal(12)
    table = rng(99).standard_normal((300, 4))
    plan = check_shared_eval_forward(lstm, table, ids, mask, monkeypatch)
    # each merged step still multiplies 3 rows or more, whatever its prefixes
    assert all(len(kept) >= 3 for kept, _ in plan.values())
    if case == "one_or_two_prefixes":
        assert {len(np.unique(source)) for _, source in plan.values()} == {1, 2}


def test_lstm_never_merges_rows_from_given_states_or_in_training(monkeypatch):
    """Rows that share every id but start from their own ``h0``/``c0`` are
    stepped one by one; a training forward never merges rows, and its
    outputs, cells and gradients match the step-loop reference."""
    ids, mask = SHARED_PREFIX_CASES["prefix_of_another"]
    lstm = N.LSTM(4, 3, rng(100))
    lstm.b.value[...] = rng(101).standard_normal(12)
    table = rng(102).standard_normal((300, 4))
    h0, c0 = rng(103).standard_normal((2, len(ids), 3))
    dh, dc = rng(104).standard_normal((2, *ids.shape, 3))
    plans = _record_shared_steps(monkeypatch)
    for states in [(h0, c0), (h0, None), (None, c0)]:
        out = lstm.forward(ids, table, mask, *states, train=False)
        for b in range(len(ids)):
            initial = [None if s is None else s[b] for s in states]
            want = ref_lstm(lstm, table[ids[b]], mask[b], dh[b], *initial)[0]
            np.testing.assert_allclose(out[b], want, rtol=0, atol=1e-12)
    lstm.zero_grad()
    out = lstm.forward(ids, table, mask)
    cells = lstm.cells()
    read, rows = lstm.backward(dh, dc)
    assert plans == []
    want_dx = np.zeros_like(table)
    want_grads = [np.zeros_like(p.value) for p in lstm.params()]
    for b in range(len(ids)):
        want_out, dx, grads, (want_cells, _, _) = ref_lstm(lstm, table[ids[b]], mask[b],
                                                           dh[b], dc=dc[b])
        np.testing.assert_allclose(out[b], want_out, rtol=0, atol=1e-12)
        np.testing.assert_allclose(cells[b], want_cells, rtol=0, atol=1e-12)
        np.add.at(want_dx, ids[b], dx)
        for total, g in zip(want_grads, grads):
            total += g
    np.testing.assert_allclose(rows, want_dx[read], rtol=0, atol=1e-12)
    for p, want in zip(lstm.params(), want_grads):
        np.testing.assert_allclose(p.grad, want, rtol=0, atol=1e-12)


def _paper_batch(batch, seed):
    """A gate-sized LSTM (D=100, H=128) with a nonzero bias, and 300 slots of
    input, output gradients, a mask and initial states. One row is all real;
    in a batch of several, the rest keep a falling share of their slots,
    with trailing padding on one and, beyond 3 rows, none real on another."""
    r = rng(seed)
    lstm = N.LSTM(100, 128, r)
    lstm.b.value[...] = r.standard_normal(4 * 128)
    x = r.standard_normal((batch, 300, 100))
    dout = r.standard_normal((batch, 300, 128))
    if batch == 1:
        return lstm, x, dout, np.ones((1, 300)), None, None
    mask = (r.random((batch, 300)) < np.linspace(1.0, 0.3, batch)[:, None]).astype(float)
    mask[0] = 1.0
    mask[1, 200:] = 0.0
    if batch > 3:
        mask[-1] = 0.0
    h0, c0 = r.standard_normal((2, batch, 128))
    return lstm, x, dout, mask, h0, c0


class TestLSTMPaperSize:
    """The gate's LSTM at paper size over long recurrences, where rounding
    differences between its tanh-form gates and the branch-form sigmoid of
    ``ref_lstm`` would build up. Batches of 1 and 2 use the transposed
    recurrent weights, batches of 3 and 8 the contiguous copy."""

    @pytest.mark.parametrize("batch", [1, 2, 3, 8])
    def test_matches_step_loop_reference(self, batch):
        lstm, x, dout, mask, h0, c0 = _paper_batch(batch, 70)
        ids, table = as_table(x)
        out = lstm.forward(ids, table, mask, h0, c0)
        lstm.zero_grad()
        dx = table_grad(lstm.backward(dout), table).reshape(x.shape)
        summed = [np.zeros_like(p.value) for p in lstm.params()]
        for b in range(batch):
            initial = (None, None) if h0 is None else (h0[b], c0[b])
            want_out, want_dx, want_grads, _ = ref_lstm(lstm, x[b], mask[b], dout[b],
                                                        *initial)
            np.testing.assert_allclose(out[b], want_out, rtol=0, atol=1e-12)
            np.testing.assert_allclose(dx[b], want_dx, rtol=0, atol=1e-12)
            for total, g in zip(summed, want_grads):
                total += g
        for p, want in zip(lstm.params(), summed):
            np.testing.assert_allclose(p.grad, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("case", SHARED_PREFIX_CASES)
    def test_eval_steps_each_prefix_once(self, case, monkeypatch):
        ids, mask = _shared_prefix_batches(300, 72)[case]
        lstm, table = _paper_batch(1, 73)[0], rng(74).standard_normal((300, 100))
        check_shared_eval_forward(lstm, table, ids, mask, monkeypatch)

    @pytest.mark.parametrize("batch", [1, 8])
    def test_weights_keep_their_bits(self, batch):
        lstm, x, dout, mask, h0, c0 = _paper_batch(batch, 71)
        before = [p.value.copy() for p in lstm.params()]
        lstm.forward(*as_table(x), mask, h0, c0)
        lstm.backward(dout)
        for p, want in zip(lstm.params(), before):
            assert np.array_equal(p.value.view(np.int64), want.view(np.int64))


def _padded_tails(starts, length, dim, seed):
    """A batch of ids of a table whose first rows are each slot's own,
    random up to ``starts`` and NaN from there on, and whose last row is
    the padding row, which every slot from ``starts`` on reads instead; and
    the batch as an unshared BiLSTM reads it, the padding row in every tail
    slot."""
    x = rng(seed).standard_normal((len(starts), length, dim))
    pad = rng(seed + 1).standard_normal(dim)
    tail = np.arange(length) >= np.array(starts)[:, None]
    x[tail] = np.nan
    ids, table = as_table(x)
    ids[tail] = len(table)
    return ids, np.concatenate([table, pad[None]]), np.where(tail[:, :, None], pad, x)


# per-row tail starts: ragged, every row all padding, none padding (a start
# past the end), one row, and batches of one and five with every start 0,
# every start the length (no tail) and mixed starts
TAIL_STARTS = {"ragged": [7, 0, 3, 5, 9, 3], "all_padding": [0, 0],
               "no_padding": [7, 11], "one_row": [2],
               "one_row_all_padding": [0], "one_row_no_padding": [7],
               "five_rows_all_padding": [0] * 5, "five_rows_no_padding": [7] * 5,
               "five_rows_mixed": [7, 0, 3, 7, 1]}


class TestBiLSTM:
    @pytest.mark.parametrize("starts", TAIL_STARTS.values(), ids=TAIL_STARTS.keys())
    def test_shared_tail_matches_unshared_reference(self, starts):
        """Outputs and every gradient match the step loop over every slot
        with the padding row in each tail slot: the parameters', the own
        slots' rows' and the padding row's, which is the sum over the tail
        slots; the rows of the tail slots, which no slot reads, get none."""
        b = N.BiLSTM(4, 3, rng(70))
        ids, table, unshared = _padded_tails(starts, 7, 4, 71)
        dout = rng(73).standard_normal((len(starts), 7, 6))
        out = b.forward(ids, table, np.array(starts))
        b.zero_grad()
        d_table = b.backward(dout)
        dx = d_table[:-1].reshape(unshared.shape)
        tail = ids == len(table) - 1
        want_dx = np.empty_like(unshared)
        summed = [np.zeros_like(p.value) for p in b.params()]
        for row in range(len(starts)):
            want_out, want_dx[row], want_grads = ref_bilstm(b, unshared[row], None, dout[row])
            np.testing.assert_allclose(out[row], want_out, rtol=0, atol=1e-12)
            for total, g in zip(summed, want_grads):
                total += g
        for p, want in zip(b.params(), summed):
            np.testing.assert_allclose(p.grad, want, rtol=0, atol=1e-12)
        np.testing.assert_allclose(dx[~tail], want_dx[~tail], rtol=0, atol=1e-12)
        assert not dx[tail].any()
        np.testing.assert_allclose(d_table[-1], want_dx[tail].sum(axis=0), rtol=0, atol=1e-12)

    def test_shared_tail_grad(self):
        """Finite differences through the shared tail, the padding row
        entering every row's tail, at batches of one and of five."""
        b = N.BiLSTM(3, 2, rng(74))
        for starts in ([2], [4, 0, 2, 5, 1]):
            ids, table, _ = _padded_tails(starts, 5, 3, 75)
            starts = np.array(starts)
            dout = rng(77).standard_normal((len(starts), 5, 4))

            def loss():
                return float(np.sum(b.forward(ids, table, starts) * dout))

            b.forward(ids, table, starts)
            b.zero_grad()
            d_table = b.backward(dout)
            params = b.params()
            # the NaN rows are never read: moving them moves nothing
            assert np.isfinite(loss())
            worst = grad_check(loss, [p.value for p in params] + [table],
                               [p.grad for p in params] + [d_table])
            assert worst < 1e-6, starts

    def test_repeated_ids_grad(self):
        """Finite differences when the own slots read a few rows many
        times, across rows and directions, and the tails read another."""
        b = N.BiLSTM(3, 2, rng(78))
        table = rng(79).standard_normal((4, 3))
        starts = np.array([6, 0, 3, 5, 1])
        ids = np.where(np.arange(6) < starts[:, None], rng(80).integers(0, 3, (5, 6)), 3)
        dout = rng(81).standard_normal((5, 6, 4))

        def loss():
            return float(np.sum(b.forward(ids, table, starts) * dout))

        b.forward(ids, table, starts)
        b.zero_grad()
        d_table = b.backward(dout)
        params = b.params()
        worst = grad_check(loss, [p.value for p in params] + [table],
                           [p.grad for p in params] + [d_table])
        assert worst < 1e-6

    def test_concatenates_directions(self):
        b = N.BiLSTM(3, 4, rng(24))
        ids, table = as_table(rng(25).standard_normal((1, 5, 3)))
        h = b.forward(ids, table)
        assert h.shape == (1, 5, 8)
        assert np.allclose(h[..., :4], b.fwd.forward(ids, table))
        assert np.allclose(h[..., 4:], b.bwd.forward(ids[:, ::-1], table)[:, ::-1])

    def test_zero_weights_give_zero_states(self):
        b = N.BiLSTM(2, 3, rng(26))
        for p in b.params():
            p.value[...] = 0.0
        assert np.all(b.forward(*as_table(rng(27).standard_normal((1, 4, 2)))) == 0.0)

    def test_grad(self):
        b = OwnRows(N.BiLSTM(3, 2, rng(28)))
        assert check_layer_grads(b, rng(29).standard_normal((1, 4, 3))) < 1e-5


class TestAttention:
    def test_weights_form_distribution(self):
        a = N.Attention(4, rng(30))
        h = rng(31).standard_normal((1, 6, 4))
        alpha, z = a.forward(h)
        assert alpha.shape == (1, 6) and z.shape == (1, 4)
        assert alpha.sum() == pytest.approx(1.0)
        assert np.all(alpha > 0)

    def test_zero_weights_give_uniform_alpha_and_mean_context(self):
        a = N.Attention(4, rng(34))
        a.w.value[...] = 0.0
        a.b.value[...] = 0.0
        h = rng(35).standard_normal((1, 5, 4))
        alpha, z = a.forward(h)
        assert np.allclose(alpha, 0.2)
        assert np.allclose(z, h.mean(axis=1))

    def test_grad(self):
        a = N.Attention(4, rng(37))
        h = rng(38).standard_normal((1, 6, 4))
        dz = rng(39).standard_normal((1, 4))
        a.forward(h)
        a.zero_grad()
        dh = a.backward(dz)

        def loss():
            _, z = a.forward(h)
            return float(np.sum(z * dz))

        worst = grad_check(loss, [a.w.value, h], [a.w.grad, dh])
        assert worst < 1e-6

    def test_score_bias_cancels_exactly(self):
        # the softmax is shift invariant, so the score bias never reaches the
        # output: its true gradient is identically zero
        a = N.Attention(4, rng(37))
        h = rng(38).standard_normal((1, 6, 4))
        _, z0 = a.forward(h)
        a.zero_grad()
        a.backward(np.ones((1, 4)))
        assert abs(a.b.grad[0]) < 1e-12
        a.b.value[0] += 123.0
        _, z1 = a.forward(h)
        assert np.allclose(z0, z1, atol=1e-12)


class TestRegistry:
    def test_sub_layer_names_nest(self):
        b = N.BiLSTM(3, 2, rng(1))
        named = b.named_tensors("bilstm")
        assert [n for n, _ in named] == [
            "bilstm.fwd.w_x", "bilstm.fwd.w_h", "bilstm.fwd.b",
            "bilstm.bwd.w_x", "bilstm.bwd.w_h", "bilstm.bwd.b"]
        want = [b.fwd.w_x, b.fwd.w_h, b.fwd.b, b.bwd.w_x, b.bwd.w_h, b.bwd.b]
        assert [p for _, p in named] == want
        assert b.params() == want

    @pytest.mark.parametrize("layer, decayed", [
        (N.Dense(3, 2, rng(1)), ["x.w"]),
        (N.Conv1D(2, 3, 4, rng(1)), ["x.filters"]),
        (N.LSTM(3, 2, rng(1)), ["x.w_x", "x.w_h"]),
        (N.Attention(3, rng(1)), ["x.w"]),
    ], ids=["dense", "conv1d", "lstm", "attention"])
    def test_names_and_decay(self, layer, decayed):
        for attr, value in vars(layer).items():
            if isinstance(value, N.Param):
                assert value.name == attr
        assert [n for n, p in layer.named_tensors("x") if p.decay] == decayed

    def test_parameter_free_layers(self):
        for layer in (N.MaxPool1D(2), N.MaxOverTime(), N.Dropout(0.1),
                      N.ReLULayer(), N.LeakyReLULayer(), N.SigmoidLayer()):
            assert layer.named_tensors("x") == []
            assert layer.params() == []

    def test_zero_grad_clears_sub_layers(self):
        b = N.BiLSTM(3, 2, rng(1))
        for p in b.params():
            p.grad[...] = 1.0
        b.zero_grad()
        assert not any(p.grad.any() for p in b.params())


class TestLosses:
    def test_bce_ln2_fixed_point(self):
        loss, _ = bce_loss(np.array([0.5]), np.array([1.0]))
        assert loss == pytest.approx(np.log(2.0), abs=1e-12)

    def test_bce_mean_over_units(self):
        loss, _ = bce_loss(np.array([0.5, 0.5]), np.array([1.0, 0.0]))
        assert loss == pytest.approx(np.log(2.0), abs=1e-12)

    def test_clamping_keeps_loss_finite(self):
        loss, dp = bce_loss(np.array([0.0, 1.0]), np.array([1.0, 0.0]))
        assert np.isfinite(loss) and np.all(np.isfinite(dp))

    def test_gradient_matches_numeric(self):
        r = rng(40)
        p = r.uniform(0.05, 0.95, 8)
        y = (r.random(8) > 0.5).astype(float)
        _, dp = bce_loss(p, y)

        def loss():
            return bce_loss(p, y)[0]

        assert grad_check(loss, [p], [dp]) < 1e-6

    def test_l2_penalty_and_gradient(self):
        w = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert l2_penalty([w], 0.1) == pytest.approx(0.05 * 30.0)
        param = N.Param("w", w)
        add_l2_gradients([param], 0.1)
        assert np.allclose(param.grad, 0.1 * w)


class TestAdam:
    def test_two_steps_match_hand_computation(self):
        p = N.Param("x", np.array([1.0]))
        opt = N.Adam([p], learning_rate=0.1)
        lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
        m = v = 0.0
        x = 1.0
        for t, g in ((1, 0.5), (2, -0.25)):
            p.grad[...] = g
            opt.step()
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            x -= lr * (m / (1 - b1 ** t)) / (np.sqrt(v / (1 - b2 ** t)) + eps)
            assert p.value[0] == pytest.approx(x, abs=1e-15)

    def test_update_bits_match_the_textbook_expression(self):
        """The in-place update gives, bit for bit, what the allocating
        expression gives, over several steps and tensors of mixed sizes and
        gradient scales, in one block and in several: rows shorter than a
        block, and a row longer than one. A ``by_rows`` tensor's gradient is
        none, some or all of its rows, and the expression reads it as a
        same-shaped gradient, zero in the other rows. Parameters start near
        zero, so that a last-bit change in the update shows in them."""
        r = rng(11)
        shapes = [(7, 3), (5,), (2, 4, 3), (1,), (BLOCK // 40 + 3, 5, 8),
                  (3, BLOCK + 5), (2 * BLOCK + 1,)]
        by_rows = [(9, 4), (BLOCK // 40 + 3, 40)]
        params = [N.Param(f"p{i}", 1e-4 * r.standard_normal(s))
                  for i, s in enumerate(shapes)]
        params += [N.Param(f"r{i}", 1e-4 * r.standard_normal(s), by_rows=True)
                   for i, s in enumerate(by_rows)]
        shapes += by_rows
        want = [p.value.copy() for p in params]
        ms = [np.zeros(s) for s in shapes]
        vs = [np.zeros(s) for s in shapes]
        lr, b1, b2, eps = 0.003, 0.9, 0.999, 1e-8
        opt = N.Adam(params, learning_rate=lr)
        for t in range(1, 13):
            for p, x, m, v in zip(params, want, ms, vs):
                g = r.standard_normal(p.value.shape) * 10.0 ** r.integers(-7, 3)
                if p.rows is None:
                    p.grad[...] = g
                else:
                    touched = r.random(len(g)) < r.choice([0.0, 0.1, 1.0])
                    g[~touched] = 0.0
                    p.zero_grad()
                    p.add_rows(np.flatnonzero(touched), g[touched])
                m *= b1
                m += (1.0 - b1) * g
                v *= b2
                v += (1.0 - b2) * np.square(g)
                x -= lr * (m / (1.0 - b1 ** t)) / (np.sqrt(v / (1.0 - b2 ** t)) + eps)
            opt.step()
            for p, x in zip(params, want):
                assert np.array_equal(p.value, x)

    def test_zero_learning_rate_freezes(self):
        p = N.Param("x", np.array([3.0]))
        opt = N.Adam([p], learning_rate=0.0)
        p.grad[...] = 5.0
        opt.step()
        assert p.value[0] == 3.0

    def test_negative_learning_rate_rejected(self):
        with pytest.raises(ValueError):
            N.Adam([], learning_rate=-0.1)

    def test_non_finite_gradient_rejected(self):
        p = N.Param("x", np.array([1.0]))
        opt = N.Adam([p], learning_rate=0.1)
        p.grad[...] = np.nan
        with pytest.raises(NumericError):
            opt.step()


class TestGradCheck:
    def test_detects_wrong_gradient(self):
        x = np.array([2.0])

        def loss():
            return float(x[0] ** 2)

        good = grad_check(loss, [x], [np.array([4.0])])
        bad = grad_check(loss, [x], [np.array([3.0])])
        assert good < 1e-6 < bad
