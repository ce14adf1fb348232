import numpy as np
import pytest

from toxiclass import neural as N
from toxiclass.errors import NumericError
from toxiclass.neural.losses import add_l2_gradients, bce_loss, l2_penalty
from toxiclass.neural.optim import BLOCK


def rng(seed=0):
    return np.random.default_rng(np.random.PCG64(seed))


def check_layer_grads(layer, x, seed=0, mask=None, reduce=None):
    """Finite-difference check of every parameter and the input gradient.
    ``x`` and ``mask`` carry the leading batch axis."""
    r = rng(seed)
    y = layer.forward(x, mask) if mask is not None else layer.forward(x)
    dout = r.standard_normal(np.shape(y)) if reduce is None else reduce
    layer.zero_grad()
    dx = layer.backward(dout)

    arrays = [p.value for p in layer.params()] + [x]
    analytic = [p.grad for p in layer.params()] + [dx]

    def loss():
        out = layer.forward(x, mask) if mask is not None else layer.forward(x)
        return float(np.sum(out * dout))

    return N.grad_check(loss, arrays, analytic)


def ref_sigmoid(x):
    """The branch form that the branch-free ``sigmoid`` must match bit for bit."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def ref_lstm(lstm, x, mask, dout):
    """Step-by-step LSTM over every slot, the reference for ``LSTM``.

    Returns the outputs, the input gradient and the gradients of w_x, w_h
    and b for the output gradient ``dout``; ``lstm`` is only read.
    """
    w_x, w_h, b = (p.value for p in lstm.params())
    length, h_dim = x.shape[0], lstm.hidden_dim
    valid = np.ones(length, dtype=bool) if mask is None else np.asarray(mask) > 0.5
    h, c = np.zeros(h_dim), np.zeros(h_dim)
    out = np.zeros((length, h_dim))
    steps = []
    for t in range(length):
        if not valid[t]:
            steps.append(None)
            out[t] = h
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
        out[t] = h

    grads = [np.zeros_like(w_x), np.zeros_like(w_h), np.zeros_like(b)]
    dx = np.zeros(x.shape)
    dh_next, dc_next = np.zeros(h_dim), np.zeros(h_dim)
    for t in range(length - 1, -1, -1):
        dh = dout[t] + dh_next
        if steps[t] is None:
            dh_next = dh
            continue
        x_t, h_prev, c_prev, i, f, g, o, tanh_c = steps[t]
        dc = dc_next + dh * o * (1.0 - tanh_c ** 2)
        dz = np.concatenate([
            dc * g * i * (1.0 - i),
            dc * c_prev * f * (1.0 - f),
            dc * i * (1.0 - g ** 2),
            dh * tanh_c * o * (1.0 - o),
        ])
        grads[0] += np.outer(dz, x_t)
        grads[1] += np.outer(dz, h_prev)
        grads[2] += dz
        dx[t] = w_x.T @ dz
        dh_next = w_h.T @ dz
        dc_next = dc * f
    return out, dx, grads


def ref_bilstm(bilstm, x, mask, dout):
    """``ref_lstm`` in both directions, laid out as ``BiLSTM`` does."""
    h = bilstm.hidden_dim
    rev_mask = None if mask is None else mask[::-1]
    out_f, dx_f, grads_f = ref_lstm(bilstm.fwd, x, mask, dout[:, :h])
    out_b, dx_b, grads_b = ref_lstm(bilstm.bwd, x[::-1], rev_mask, dout[::-1, h:])
    return (np.concatenate([out_f, out_b[::-1]], axis=1), dx_f + dx_b[::-1],
            grads_f + grads_b)


def ref_conv1d(conv, x, dy=None):
    """``Conv1D`` on one (L, c_in) sequence, window by window: the output,
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


def ref_maxpool(pool, x, dy=None):
    """``MaxPool1D`` on one (L, c) sequence, window by window: the output
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
        got = layer.forward(x[None])[0]
        dy = rng(54).standard_normal(got.shape)
        want, *want_grads = ref_conv1d(layer, x, dy)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        got_grads = [layer.backward(dy[None])[0], layer.filters.grad, layer.b.grad]
        for got_g, want_g in zip(got_grads, want_grads):
            np.testing.assert_allclose(got_g, want_g, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("pool_size", [2, 3])
    @pytest.mark.parametrize("length", [11, 12])
    @pytest.mark.parametrize("make", TAIL_INPUTS.values(), ids=TAIL_INPUTS.keys())
    def test_maxpool_matches_full_computation(self, make, length, pool_size):
        x = make(length)
        layer = N.MaxPool1D(pool_size)
        got = layer.forward(x[None])[0]
        dy = rng(55).standard_normal(got.shape)
        want, rows, dx = ref_maxpool(layer, x, dy)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        assert np.array_equal(layer._argmax[0], rows - np.arange(len(rows))[:, None] * pool_size)
        np.testing.assert_allclose(layer.backward(dy[None])[0], dx, rtol=0, atol=1e-12)

    def test_copied_rows_equal_the_computed_one(self):
        layer = _conv_layer()
        y = layer.forward(tail_input(12, 7)[None])[0]
        assert np.array_equal(y[5:], np.tile(y[5], (5, 1)))  # windows 5.. lie in the tail
        assert not np.array_equal(y[4], y[5])

    def test_grad_on_padded_input(self):
        conv = N.Conv1D(3, 2, 4, rng(56))
        conv.b.value[...] = rng(57).standard_normal(4)
        assert check_layer_grads(conv, tail_input(10, 6, channels=2)[None]) < 1e-6


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

    def test_softmax_shift_invariant(self):
        x = np.array([1.0, 2.0, 3.0])
        assert np.allclose(N.softmax(x), N.softmax(x + 1000.0))
        assert N.softmax(x).sum() == pytest.approx(1.0)

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
        y = c.forward(rng(2).standard_normal((1, 10, 2)))
        assert y.shape == (1, 8, 4)

    def test_known_value(self):
        c = N.Conv1D(2, 1, 1, rng(1))
        c.filters.value[...] = np.array([[[1.0]], [[2.0]]])
        c.b.value[...] = [0.25]
        y = c.forward(np.array([[[1.0], [2.0], [3.0]]]))
        assert np.allclose(y[0, :, 0], [1 + 4 + 0.25, 2 + 6 + 0.25])

    def test_grad(self):
        c = N.Conv1D(3, 2, 4, rng(4))
        assert check_layer_grads(c, rng(5).standard_normal((1, 9, 2))) < 1e-6


class TestMaxPool1D:
    def test_values_and_truncation(self):
        p = N.MaxPool1D(2)
        y = p.forward(np.array([[[1.0], [5.0], [2.0], [3.0], [9.0]]]))
        assert y[0, :, 0].tolist() == [5.0, 3.0]  # trailing odd row dropped

    def test_grad_routes_to_argmax(self):
        p = N.MaxPool1D(2)
        x = np.array([[[1.0], [5.0], [7.0], [3.0]]])
        p.forward(x)
        dx = p.backward(np.array([[[1.0], [2.0]]]))
        assert dx[0, :, 0].tolist() == [0.0, 1.0, 2.0, 0.0]
        assert p._argmax.dtype == np.uint8  # the smallest type holding pool - 1

    @pytest.mark.parametrize("pool, dtype", [(1, np.uint8), (256, np.uint8),
                                             (257, np.uint16)])
    def test_argmax_dtype_follows_pool(self, pool, dtype):
        p = N.MaxPool1D(pool)
        x = rng(5).standard_normal((2, 2 * pool + pool // 2, 3))
        y = p.forward(x)
        assert p._argmax.dtype == dtype
        windows = x[:, :2 * pool].reshape(2, 2, pool, 3)
        assert np.array_equal(y, windows.max(axis=2))
        dy = rng(6).standard_normal(y.shape)
        want = np.zeros_like(windows)
        np.put_along_axis(want, windows.argmax(axis=2)[:, :, None], dy[:, :, None], axis=2)
        dx = p.backward(dy)
        assert np.array_equal(dx[:, :2 * pool], want.reshape(2, -1, 3))
        assert not dx[:, 2 * pool:].any()

    def test_grad_numeric(self):
        p = N.MaxPool1D(2)
        assert check_layer_grads(p, rng(6).standard_normal((1, 8, 3))) < 1e-6


class TestMaxOverTime:
    def test_masked(self):
        m = N.MaxOverTime()
        x = np.array([[[1.0, -1.0], [5.0, -9.0], [9.0, 0.0]]])
        y = m.forward(x, np.array([[1.0, 1.0, 0.0]]))
        assert y.tolist() == [[5.0, -1.0]]

    def test_grad(self):
        m = N.MaxOverTime()
        x = rng(7).standard_normal((1, 6, 4))
        assert check_layer_grads(m, x, mask=np.array([[1, 1, 1, 1, 0, 0.0]])) < 1e-6

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


class TestLSTM:
    def test_shapes(self):
        lstm = N.LSTM(3, 4, rng(12))
        h = lstm.forward(rng(13).standard_normal((1, 5, 3)))
        assert h.shape == (1, 5, 4)

    def test_masked_steps_copy_state(self):
        lstm = N.LSTM(3, 4, rng(14))
        x = rng(15).standard_normal((1, 5, 3))
        mask = np.array([[1.0, 1.0, 0.0, 0.0, 1.0]])
        h = lstm.forward(x, mask)[0]
        assert np.array_equal(h[2], h[1])
        assert np.array_equal(h[3], h[1])
        assert not np.array_equal(h[4], h[3])

    def test_padding_invariance(self):
        lstm = N.LSTM(3, 4, rng(16))
        x = rng(17).standard_normal((3, 3))
        h_short = lstm.forward(x[None], np.ones((1, 3)))[0]
        padded = np.vstack([x, np.zeros((2, 3))])
        h_long = lstm.forward(padded[None], np.array([[1, 1, 1, 0, 0.0]]))[0]
        assert np.allclose(h_long[:3], h_short)
        assert np.allclose(h_long[3:], h_short[-1])

    def test_zero_weights_give_zero_states(self):
        lstm = N.LSTM(3, 4, rng(18))
        for p in lstm.params():
            p.value[...] = 0.0
        h = lstm.forward(rng(19).standard_normal((1, 6, 3)))
        assert np.all(h == 0.0)

    def test_grad_full_mask(self):
        lstm = N.LSTM(3, 4, rng(20))
        assert check_layer_grads(
            lstm, rng(21).standard_normal((1, 5, 3)), mask=np.ones((1, 5))) < 1e-5

    def test_grad_with_gaps(self):
        lstm = N.LSTM(2, 3, rng(22))
        mask = np.array([[1.0, 0.0, 1.0, 1.0, 0.0, 1.0]])
        assert check_layer_grads(
            lstm, rng(23).standard_normal((1, 6, 2)), mask=mask) < 1e-5

    @pytest.mark.parametrize("mask", [[1, 1, 1, 0, 0], [0, 0, 0, 0, 0]],
                             ids=["trailing_pads", "fully_masked"])
    def test_grad_padded(self, mask):
        lstm = N.LSTM(2, 3, rng(45))
        assert check_layer_grads(
            lstm, rng(46).standard_normal((1, 5, 2)), mask=np.array([mask], float)) < 1e-5


@pytest.mark.parametrize("layer_cls, reference", [(N.LSTM, ref_lstm),
                                                   (N.BiLSTM, ref_bilstm)],
                         ids=["lstm", "bilstm"])
@pytest.mark.parametrize("mask", LSTM_MASKS.values(), ids=LSTM_MASKS.keys())
def test_lstm_matches_step_loop_reference(layer_cls, reference, mask):
    length = 5 if mask is None else len(mask)
    mask = None if mask is None else np.array(mask, dtype=np.float64)
    layer = layer_cls(4, 3, rng(47))
    x = rng(48).standard_normal((length, 4))
    width = 6 if layer_cls is N.BiLSTM else 3
    dout = rng(49).standard_normal((length, width))
    want_out, want_dx, want_grads = reference(layer, x, mask, dout)
    out = layer.forward(x[None], None if mask is None else mask[None])[0]
    layer.zero_grad()
    dx = layer.backward(dout[None])[0]
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
# layer factory, input shape, mask (None: the layer takes none)
RAGGED_CASES = {
    "dense": (lambda: N.Dense(4, 3, rng(60)), (5, 4), None),
    "conv1d": (lambda: N.Conv1D(3, 4, 2, rng(60)), (5, 7, 4), None),
    "maxpool": (lambda: N.MaxPool1D(2), (5, 7, 4), None),
    "max_over_time": (lambda: N.MaxOverTime(), (5, 7, 4), RAGGED_MASK),
    "lstm": (lambda: N.LSTM(4, 3, rng(60)), (5, 7, 4), RAGGED_MASK),
    "bilstm": (lambda: N.BiLSTM(4, 3, rng(60)), (5, 7, 4), RAGGED_MASK),
    # attention needs a real slot in every row
    "attention": (lambda: N.Attention(4, rng(60)), (4, 7, 4), RAGGED_MASK[[0, 2, 3, 4]]),
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

        worst = N.grad_check(loss, [p.value for p in params] + [x],
                             [p.grad for p in params] + [dx])
        assert worst < 1e-6


def test_lstm_packs_rows_by_real_steps():
    """Rows are walked longest first: every row of a ragged batch matches
    the step-loop reference of its own."""
    layer = N.LSTM(4, 3, rng(65))
    x = rng(66).standard_normal((5, 7, 4))
    dout = rng(67).standard_normal((5, 7, 3))
    out = layer.forward(x, RAGGED_MASK)
    layer.zero_grad()
    dx = layer.backward(dout)
    summed = [np.zeros_like(p.value) for p in layer.params()]
    for b in range(5):
        want_out, want_dx, want_grads = ref_lstm(layer, x[b], RAGGED_MASK[b], dout[b])
        np.testing.assert_allclose(out[b], want_out, rtol=0, atol=1e-12)
        np.testing.assert_allclose(dx[b], want_dx, rtol=0, atol=1e-12)
        for total, g in zip(summed, want_grads):
            total += g
    for p, want in zip(layer.params(), summed):
        np.testing.assert_allclose(p.grad, want, rtol=0, atol=1e-12)


class TestBiLSTM:
    def test_concatenates_directions(self):
        b = N.BiLSTM(3, 4, rng(24))
        x = rng(25).standard_normal((1, 5, 3))
        h = b.forward(x)
        assert h.shape == (1, 5, 8)
        assert np.allclose(h[..., :4], b.fwd.forward(x))
        assert np.allclose(h[..., 4:], b.bwd.forward(x[:, ::-1])[:, ::-1])

    def test_zero_weights_give_zero_states(self):
        b = N.BiLSTM(2, 3, rng(26))
        for p in b.params():
            p.value[...] = 0.0
        assert np.all(b.forward(rng(27).standard_normal((1, 4, 2))) == 0.0)

    def test_grad(self):
        b = N.BiLSTM(3, 2, rng(28))
        mask = np.array([[1.0, 1.0, 1.0, 0.0]])
        assert check_layer_grads(
            b, rng(29).standard_normal((1, 4, 3)), mask=mask) < 1e-5


class TestAttention:
    def test_weights_form_distribution(self):
        a = N.Attention(4, rng(30))
        h = rng(31).standard_normal((1, 6, 4))
        alpha, z = a.forward(h)
        assert alpha.shape == (1, 6) and z.shape == (1, 4)
        assert alpha.sum() == pytest.approx(1.0)
        assert np.all(alpha > 0)

    def test_masked_positions_get_zero_weight(self):
        a = N.Attention(4, rng(32))
        h = rng(33).standard_normal((1, 5, 4))
        mask = np.array([[1.0, 1.0, 0.0, 1.0, 0.0]])
        alpha, z = a.forward(h, mask)
        assert alpha[0, 2] == 0.0 and alpha[0, 4] == 0.0
        assert alpha.sum() == pytest.approx(1.0)

    def test_zero_weights_give_uniform_alpha_and_mean_context(self):
        a = N.Attention(4, rng(34))
        a.w.value[...] = 0.0
        a.b.value[...] = 0.0
        h = rng(35).standard_normal((1, 5, 4))
        alpha, z = a.forward(h)
        assert np.allclose(alpha, 0.2)
        assert np.allclose(z, h.mean(axis=1))

    def test_fully_masked_rejected(self):
        a = N.Attention(3, rng(36))
        with pytest.raises(ValueError):
            a.forward(np.ones((1, 4, 3)), np.zeros((1, 4)))

    def test_grad(self):
        a = N.Attention(4, rng(37))
        h = rng(38).standard_normal((1, 6, 4))
        mask = np.array([[1.0, 1.0, 1.0, 1.0, 0.0, 1.0]])
        dz = rng(39).standard_normal((1, 4))
        a.forward(h, mask)
        a.zero_grad()
        dh = a.backward(dz)

        def loss():
            _, z = a.forward(h, mask)
            return float(np.sum(z * dz))

        worst = N.grad_check(loss, [a.w.value, h], [a.w.grad, dh])
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

        assert N.grad_check(loss, [p], [dp]) < 1e-6

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
        block, and a row longer than one. Parameters start near zero, so that
        a last-bit change in the update shows in them."""
        r = rng(11)
        shapes = [(7, 3), (5,), (2, 4, 3), (1,), (BLOCK // 40 + 3, 5, 8),
                  (3, BLOCK + 5), (2 * BLOCK + 1,)]
        params = [N.Param(f"p{i}", 1e-4 * r.standard_normal(s))
                  for i, s in enumerate(shapes)]
        want = [p.value.copy() for p in params]
        ms = [np.zeros(s) for s in shapes]
        vs = [np.zeros(s) for s in shapes]
        lr, b1, b2, eps = 0.003, 0.9, 0.999, 1e-8
        opt = N.Adam(params, learning_rate=lr)
        for t in range(1, 13):
            for p, x, m, v in zip(params, want, ms, vs):
                g = r.standard_normal(p.value.shape) * 10.0 ** r.integers(-7, 3)
                p.grad[...] = g
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

        good = N.grad_check(loss, [x], [np.array([4.0])])
        bad = N.grad_check(loss, [x], [np.array([3.0])])
        assert good < 1e-6 < bad
