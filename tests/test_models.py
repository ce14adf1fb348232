import contextlib
import dataclasses
import itertools
import json
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from conftest import (desk_binary_config, desk_multilabel_config, edit_header,
                      header_edits)
from gradcheck import full_grad, grad_check
from toxiclass import models as M
from toxiclass.corpus import LABELS, PAD_ID, UNK_ID, build_vocab, encode
from toxiclass.embedding import random_table
from toxiclass.errors import CheckpointError, ConfigError, DataError, NumericError
from toxiclass.neural import Param
from toxiclass.neural.layers import Layer
from toxiclass.neural.losses import bce_loss

FIXTURES = Path(__file__).parent / "fixtures"
WORDS = ["ash", "bat", "cod", "dew", "elm", "fig", "gnu", "hay", "ivy", "jay"]
VOCAB = build_vocab([" ".join(WORDS)] * 3)


def _ids(texts, max_len=12):
    return encode(texts, VOCAB, max_len)


def _binary(seed=0, dim=5, dense_hidden=(4,), **kw):
    cfg = M.BinaryModelConfig(lstm_units=4, dense_hidden=dense_hidden, **kw)
    return M.BinaryModel(cfg, random_table(len(VOCAB), dim, seed=seed,
                                           trainable=True), seed=seed)


def _multilabel(seed=0, dim=5, seq_len=12, **kw):
    cfg = M.MultiLabelModelConfig(conv_stack=((6, 3), (4, 2)), pool=2,
                                  bilstm_units=3, **kw)
    return M.MultiLabelModel(cfg, random_table(len(VOCAB), dim, seed=seed,
                                               trainable=True),
                             seq_len=seq_len, seed=seed)


class TestConfigs:
    def test_training_config_validation(self):
        M.TrainingConfig()
        M.TrainingConfig(learning_rate=0.0)  # freeze is legal
        with pytest.raises(ConfigError, match="batch_size"):
            M.TrainingConfig(batch_size=0)
        with pytest.raises(ConfigError, match="learning_rate"):
            M.TrainingConfig(learning_rate=-1e-3)
        with pytest.raises(ConfigError, match="epochs"):
            M.TrainingConfig(epochs=0)
        with pytest.raises(ConfigError, match="patience"):
            M.TrainingConfig(patience=0)
        M.TrainingConfig(l2_lambda=0.0)  # no penalty is legal
        with pytest.raises(ConfigError, match="l2_lambda"):
            M.TrainingConfig(l2_lambda=-1.0)

    def test_empty_conv_stack_rejected(self):
        with pytest.raises(ConfigError):
            M.MultiLabelModelConfig(conv_stack=())

    @pytest.mark.parametrize("pool", [0, -1])
    def test_pool_below_one_rejected(self, pool):
        with pytest.raises(ConfigError, match="pool"):
            M.MultiLabelModelConfig(pool=pool)

    @pytest.mark.parametrize("kwargs", [
        {"lstm_units": 0}, {"lstm_units": -2}, {"dense_hidden": (4, 0)},
        {"dense_hidden": (-1,)}, {"dropout_rate": 1.0}, {"dropout_rate": -0.1},
        {"dropout_rate": float("nan")}, {"pooled_input": True},
    ])
    def test_binary_sizes_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            M.BinaryModelConfig(**kwargs)

    @pytest.mark.parametrize("kwargs", [
        {"bilstm_units": 0}, {"conv_stack": ((0, 3),)}, {"conv_stack": ((8, 0),)},
        {"conv_stack": ((8, 3), (-1, 2))}, {"conv_stack": ((8, -1),)},
    ])
    def test_multilabel_sizes_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            M.MultiLabelModelConfig(**kwargs)

    def test_from_mapping_round_trips(self):
        from dataclasses import asdict
        b = M.BinaryModelConfig(lstm_units=7, dense_hidden=(3, 2))
        assert M.from_mapping(M.BinaryModelConfig, asdict(b)) == b
        assert M.from_mapping(M.BinaryModelConfig, json.loads(json.dumps(asdict(b)))) == b
        m = M.MultiLabelModelConfig(conv_stack=((6, 3),), bilstm_units=5)
        assert M.from_mapping(M.MultiLabelModelConfig, asdict(m)) == m
        d = {"conv_stack": [[6, 3]], "pool": 2, "bilstm_units": 5,
             "use_attention": True}
        assert M.from_mapping(M.MultiLabelModelConfig, d) == m
        t = M.TrainingConfig(l2_lambda=0, seed=3)
        assert M.from_mapping(M.TrainingConfig, json.loads(json.dumps(asdict(t)))) == t

    def test_from_mapping_keeps_defaults(self):
        assert M.from_mapping(M.BinaryModelConfig, {}) == M.BinaryModelConfig()
        assert M.from_mapping(M.MultiLabelModelConfig, {"pool": 3}) \
            == M.MultiLabelModelConfig(pool=3)

    @pytest.mark.parametrize("cls, values, field", [
        (M.BinaryModelConfig, {"use_attention": True}, "no field 'use_attention'"),
        (M.BinaryModelConfig, [("lstm_units", 4)], "mapping"),
        (M.BinaryModelConfig, {"pooled_input": "false"}, "pooled_input must be bool"),
        (M.BinaryModelConfig, {"lstm_units": True}, "lstm_units must be int"),
        (M.BinaryModelConfig, {"lstm_units": 8.0}, "lstm_units must be int"),
        (M.BinaryModelConfig, {"leaky_slope": "x"}, "leaky_slope must be float"),
        (M.BinaryModelConfig, {"leaky_slope": False}, "leaky_slope must be float"),
        (M.BinaryModelConfig, {"leaky_slope": float("inf")}, "leaky_slope must be float"),
        (M.BinaryModelConfig, {"leaky_slope": 10 ** 400}, "leaky_slope must be float"),
        (M.BinaryModelConfig, {"dense_hidden": "8"}, "dense_hidden must be tuple"),
        (M.BinaryModelConfig, {"dense_hidden": [8, "8"]}, "dense_hidden must be int"),
        (M.MultiLabelModelConfig, {"conv_stack": [[8, 3, 1]]}, "conv_stack must be tuple"),
        (M.MultiLabelModelConfig, {"conv_stack": [8]}, "conv_stack must be tuple"),
        (M.TrainingConfig, {"seed": None}, "seed must be int"),
    ])
    def test_from_mapping_refuses(self, cls, values, field):
        with pytest.raises(ConfigError, match=field):
            M.from_mapping(cls, values)


def _walked_length(config, length):
    """Reference: the length left after each conv and pool block in turn,
    or None once a block has no whole window."""
    for _, kernel in config.conv_stack:
        if length < kernel:
            return None
        length = length - kernel + 1
        if length < config.pool:
            return None
        length //= config.pool
    return length


class TestPostStackLength:
    def test_default_config_at_300(self):
        assert M.MultiLabelModel.post_stack_length(
            M.MultiLabelModelConfig(), 300) == 36

    def test_single_block_formula(self):
        cfg = M.MultiLabelModelConfig(conv_stack=((8, 4),), pool=2)
        # (20 - 4 + 1) // 2
        assert M.MultiLabelModel.post_stack_length(cfg, 20) == 8

    def test_too_short_for_kernel(self):
        cfg = M.MultiLabelModelConfig(conv_stack=((8, 5),))
        with pytest.raises(ConfigError):
            M.MultiLabelModel.post_stack_length(cfg, 4)

    def test_too_short_for_pool(self):
        cfg = M.MultiLabelModelConfig(conv_stack=((8, 4),), pool=2)
        with pytest.raises(ConfigError):
            M.MultiLabelModel.post_stack_length(cfg, 4)  # conv leaves 1 < pool

    def test_desk_config_minimum_length(self):
        cfg = desk_multilabel_config()
        assert M.MultiLabelModel.post_stack_length(cfg, 19) == 1
        with pytest.raises(ConfigError, match="length 18 .* receptive field 19$"):
            M.MultiLabelModel.post_stack_length(cfg, 18)

    @pytest.mark.parametrize("pool", [1, 2, 3, 4])
    @pytest.mark.parametrize("blocks", [1, 2, 3])
    def test_matches_block_walk(self, blocks, pool):
        """Every stack of 1-3 blocks with kernels 1-5 at every length 1-199,
        and at one short of the receptive field, gives the length the block
        walk gives, or refuses where the walk runs out."""
        for kernels in itertools.product(range(1, 6), repeat=blocks):
            cfg = M.MultiLabelModelConfig(conv_stack=tuple((4, k) for k in kernels),
                                          pool=pool)
            _, field = M.MultiLabelModel.stack_window(cfg)
            assert _walked_length(cfg, field - 1) is None
            for length in {*range(1, 200), field - 1}:
                want = _walked_length(cfg, length)
                if want is None:
                    with pytest.raises(ConfigError):
                        M.MultiLabelModel.post_stack_length(cfg, length)
                else:
                    assert M.MultiLabelModel.post_stack_length(cfg, length) == want


def _perturbations(n=32, words=15, seed=5):
    """``n`` id rows of one text of ``words`` ids, each keeping a random
    subset of its words in order, as the explainer's perturbations do; the
    text repeats some ids."""
    r = np.random.default_rng(seed)
    text = r.integers(2, 2 + words * 2 // 3, words)
    ids = np.full((n, 300), PAD_ID)
    for row, keep in zip(ids, r.random((n, words)) < r.random((n, 1))):
        row[:keep.sum()] = text[keep]
    return ids


# Batches at L = 300 over a 400-row table, for the layers that read ids.
DISTINCT_ID_BATCHES = {
    "perturbations": _perturbations(),
    "full_length_distinct": np.random.default_rng(7).permutation(np.arange(2, 400))[None, :300],
    "with_an_all_pad_row": np.concatenate([_perturbations(3), np.full((1, 300), PAD_ID)]),
    "all_unk": np.full((3, 300), UNK_ID),
    "one_pad_row": np.full((1, 300), PAD_ID),
}


def _table_gradient_ids(model, monkeypatch, rows=None):
    """A list that gets the ids of each ``EmbeddingLayer.backward`` call of
    ``model``, and ``rows``, if given, the number of gradient rows of each."""
    handed, backward = [], model.embedding.backward

    def spy(dx, ids):
        handed.append(ids)
        if rows is not None:
            rows.append(len(dx))
        backward(dx, ids)

    monkeypatch.setattr(model.embedding, "backward", spy)
    return handed


def _per_id(ids, rows):
    """The distinct ``ids``, sorted, and the sum of ``rows`` of each."""
    distinct, inverse = np.unique(ids, return_inverse=True)
    summed = np.zeros((len(distinct), rows.shape[1]))
    np.add.at(summed, inverse.reshape(-1), rows)
    return distinct, summed


class TestForward:
    def test_binary_output_is_probability(self):
        model = _binary()
        p = model.forward(_ids(["ash bat cod"]))[0]
        assert p.shape == (1,) and 0.0 < p[0] < 1.0

    def test_predict_binary_gives_one_probability(self):
        p = M.predict(_binary(), _ids(["dew elm"]))
        assert p.shape == (1, 1) and 0.0 < p[0, 0] < 1.0

    def test_multilabel_output_six_probabilities(self):
        probs = M.predict(_multilabel(), _ids(["ash bat cod dew"]))[0]
        assert probs.shape == (6,)
        assert np.all((probs > 0.0) & (probs < 1.0))

    def test_binary_output_invariant_to_pad_width(self):
        model = _binary()
        a = model.forward(_ids(["ash bat cod"], max_len=8))[0]
        b = model.forward(_ids(["ash bat cod"], max_len=20))[0]
        assert a[0] == pytest.approx(b[0], abs=1e-12)

    def test_max_over_time_variant_runs(self):
        cfg = M.MultiLabelModelConfig(conv_stack=((6, 3),), bilstm_units=3,
                                      use_attention=False)
        model = M.MultiLabelModel(cfg, random_table(len(VOCAB), 5, seed=0),
                                  seq_len=12, seed=0)
        probs = model.forward(_ids(["ash bat cod dew elm"]))[0]
        assert probs.shape == (6,)

    def test_construction_rejects_impossible_length(self):
        with pytest.raises(ConfigError):
            _multilabel(seq_len=3)

    @pytest.mark.parametrize("real", [0, 1, 2, 15, 296, 297, 299, 300])
    def test_multilabel_matches_full_length_reference(self, real):
        """The tagger over 300 slots gives what running the conv stack over
        every slot gives, whatever share of the slots is padding."""
        model = _desk_tagger(300)
        ids = _ids([" ".join(WORDS[i % len(WORDS)] for i in range(real))], 300)
        got = model.forward(ids)[0]
        want, _ = _untruncated(model, ids, np.zeros(6))
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_paper_stack_window(self):
        config = M.MultiLabelModelConfig()
        assert M.MultiLabelModel.stack_window(config) == (8, 19)
        assert M.MultiLabelModel.stack_window(desk_multilabel_config()) == (8, 19)
        assert M.MultiLabelModel.stack_window(
            M.MultiLabelModelConfig(conv_stack=((6, 3),), pool=3)) == (3, 5)

    @pytest.mark.parametrize("length", [40, 41])
    def test_truncated_tagger_matches_untruncated(self, length):
        """Forward and every parameter gradient, at every real length."""
        model = _desk_tagger(length)
        dp = np.random.default_rng(3).standard_normal(6)
        for real in range(length + 1):
            ids = _ids([" ".join(WORDS[i % len(WORDS)] for i in range(real))], length)
            want, want_grads = _untruncated(model, ids, dp)
            model.zero_grad()
            got = model.forward(ids, train=True)
            model.backward(dp[None])
            np.testing.assert_allclose(got[0], want, rtol=0, atol=1e-12)
            for p, g in zip(model.params(), want_grads):
                np.testing.assert_allclose(full_grad(p), g, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("length", [40, 41, 100])
    def test_ragged_tagger_batches_match_unshared_reference(self, length):
        """Batches of every real length 0..L, and of gapped rows, in
        shuffled chunks of ``PREDICT_CHUNK``: probabilities and summed
        parameter gradients match one unshared document at a time."""
        model = _desk_tagger(length)
        r = np.random.default_rng(4)
        ids = np.concatenate([
            _ids([" ".join(WORDS[i % len(WORDS)] for i in range(real))
                  for real in r.permutation(length + 1)], length),
            _ragged_batch(length)])
        dp = r.standard_normal((len(ids), 6))
        for lo in range(0, len(ids), M.PREDICT_CHUNK):
            rows = slice(lo, lo + M.PREDICT_CHUNK)
            want = [_untruncated(model, ids[i:i + 1], dp[i])
                    for i in range(len(ids))[rows]]
            model.zero_grad()
            got = model.forward(ids[rows], train=True)
            model.backward(dp[rows])
            np.testing.assert_allclose(got, [probs for probs, _ in want],
                                       rtol=0, atol=1e-12)
            for k, p in enumerate(model.params()):
                np.testing.assert_allclose(full_grad(p), sum(grads[k] for _, grads in want),
                                           rtol=0, atol=1e-12)

    @pytest.mark.parametrize("case", DISTINCT_ID_BATCHES)
    def test_first_conv_reads_distinct_ids(self, case, monkeypatch):
        """The first conv multiplies each distinct id once per batch and
        builds only each document's own windows: the eval probabilities, and
        the training forward's gradients after backward, match one unshared
        document at a time, whose table gradient is scattered one row per
        slot. The embedding is handed one gradient row per distinct id."""
        ids = DISTINCT_ID_BATCHES[case]
        model = _desk_tagger(300, vocab_size=400)
        dp = np.random.default_rng(6).standard_normal((len(ids), 6))
        want = [_untruncated(model, ids[i:i + 1], dp[i]) for i in range(len(ids))]
        np.testing.assert_allclose(model.forward(ids), [probs for probs, _ in want],
                                   rtol=0, atol=1e-12)
        model.zero_grad()
        model.forward(ids, train=True)
        handed = _table_gradient_ids(model, monkeypatch)
        model.backward(dp)
        (read,) = handed
        np.testing.assert_array_equal(read, np.unique(read))
        assert np.isin(read, ids).all()
        for k, p in enumerate(model.params()):
            np.testing.assert_allclose(full_grad(p), sum(grads[k] for _, grads in want),
                                       rtol=0, atol=1e-12)

    @pytest.mark.parametrize("case", DISTINCT_ID_BATCHES)
    def test_gate_lstm_reads_distinct_ids(self, case, monkeypatch):
        """The gate's eval forward builds no embedding rows: its LSTM's
        input GEMM multiplies each distinct real id's row once, and no
        other row. Eval probabilities, and training gradients after
        backward, are those of the LSTM with a row of its own per slot, whose
        table gradient is scattered one row per slot. The embedding is
        handed one gradient row per distinct real id."""
        ids = DISTINCT_ID_BATCHES[case]
        model = M.BinaryModel(desk_binary_config(),
                              random_table(400, 6, seed=1, trainable=True), seed=1)
        table = model.embedding.param.value
        dp = np.random.default_rng(6).standard_normal((len(ids), 1))
        on_ids, on_ids_backward = model.lstm.forward, model.lstm.backward
        read = []  # the table id of each slot of the last forward

        def on_slots(x, table, mask, train):  # slot k reads row k of its own
            read[:] = [x.reshape(-1)]
            return on_ids(np.arange(x.size).reshape(x.shape),
                          table[x].reshape(x.size, -1), mask, train=train)

        def on_slots_backward(dh):
            slots, rows = on_ids_backward(dh)
            return _per_id(read[0][slots], rows)

        monkeypatch.setattr(model.lstm, "forward", on_slots)
        monkeypatch.setattr(model.lstm, "backward", on_slots_backward)
        want = model.forward(ids)
        model.zero_grad()
        model.forward(ids, train=True, rng=np.random.default_rng(0))
        model.backward(dp)
        want_grads = [p.grad.copy() for p in model.params()]
        monkeypatch.setattr(model.lstm, "forward", on_ids)
        monkeypatch.setattr(model.lstm, "backward", on_ids_backward)
        left = []  # the rows that the input weights are multiplied by

        class InputWeights(np.ndarray):
            def __rmatmul__(self, rows):
                left.append(np.array(rows))
                return np.asarray(rows) @ np.asarray(self)

        model.lstm.w_x.value = model.lstm.w_x.value.view(InputWeights)

        got = model.forward(ids)
        assert len(left) == 1
        np.testing.assert_array_equal(left[0], table[np.unique(ids[ids != PAD_ID])])
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        model.zero_grad()
        model.forward(ids, train=True, rng=np.random.default_rng(0))
        handed = _table_gradient_ids(model, monkeypatch)
        model.backward(dp)
        assert len(handed) == 1
        np.testing.assert_array_equal(handed[0], np.unique(ids[ids != PAD_ID]))
        for p, grad in zip(model.params(), want_grads):
            np.testing.assert_allclose(p.grad, grad, rtol=0, atol=1e-12)

    def test_tagger_cut_covers_real_prefix_plus_field(self, monkeypatch):
        """The stack reads each document's own slots, laid end to end: for
        its ``rows = min(ceil(real / 8), 36)`` stack rows that read a real
        token, its first ``8 x rows + 11`` slots, and none if it has no
        such row. The first document with fewer than 36 gives one row more,
        the padding row. Alone, a document is never read further than its
        real prefix plus the receptive field, ``min(300, 8 x ceil(real / 8)
        + 19)`` slots."""
        model = _desk_tagger(300)
        reals = [0, 1, 8, 9, 100, 274, 275, 281, 300]
        docs = _ids([" ".join(WORDS[(i + k) % len(WORDS)] for i in range(real))
                     for k, real in enumerate(reals)], 300)
        first, read = model.conv[0].forward, []  # the ids the first conv reads
        monkeypatch.setattr(model.conv[0], "forward",
                            lambda x, *args: read.append(x) or first(x, *args))
        for batch in [[i] for i in range(len(reals))] + [list(range(len(reals))),
                                                         [8, 6, 0, 3], [7, 8]]:
            model.forward(docs[batch], train=True)
            ids = read.pop()
            rows = [min(-(-reals[i] // 8), 36) for i in batch]
            tails = [k for k, r in enumerate(rows) if r < 36]
            if tails:
                rows[tails[0]] += 1
            want = [docs[i, :8 * r + 11 if r else 0] for i, r in zip(batch, rows)]
            assert np.array_equal(ids, np.concatenate(want)), batch
            if len(batch) == 1:
                assert len(ids) <= min(300, 8 * -(-reals[batch[0]] // 8) + 19)
                assert len(ids) <= reals[batch[0]] + 26


def _desk_tagger(seq_len, vocab_size=len(VOCAB)):
    """The desk tagger with biases that keep padded windows off zero, as
    trained ones are."""
    model = M.MultiLabelModel(desk_multilabel_config(),
                              random_table(vocab_size, 6, seed=1, trainable=True),
                              seq_len=seq_len, seed=1)
    r = np.random.default_rng(2)
    for conv in model.conv:
        conv.b.value[...] = 0.1 * r.standard_normal(conv.b.value.shape)
    return model


def _unshared_bilstm(bilstm, x):
    """``bilstm`` over (B, L, D) rows as two LSTMs that each walk every
    slot, the reversed one its padding tail too, each slot reading its own
    row: its output and its backward, which gives the rows' gradient."""
    h = bilstm.hidden_dim
    ids = np.arange(x.shape[0] * x.shape[1]).reshape(x.shape[:2])
    table = x.reshape(-1, x.shape[2])
    out = np.concatenate([bilstm.fwd.forward(ids, table),
                          bilstm.bwd.forward(ids[:, ::-1], table)[:, ::-1]], axis=2)

    def backward(dout):
        dx = np.zeros_like(table)
        for lstm, d in ((bilstm.fwd, dout[:, :, :h]), (bilstm.bwd, dout[:, ::-1, h:])):
            read, rows = lstm.backward(d)
            dx[read] += rows
        return dx.reshape(x.shape)

    return out, backward


def _untruncated(model, ids, dp):
    """The tagger's probabilities for one (1, L) id row, and every parameter
    gradient for the output gradient ``dp``, with the conv stack run over
    every slot, each slot reading a row of its own, the table's gradient
    scattered one row per slot, and the BiLSTM unshared."""
    model.zero_grad()
    x, table = np.arange(ids.shape[1]), model.embedding.param.value[ids[0]]
    for conv, act, pool in zip(model.conv, model.relu, model.pool):
        table = pool.forward(act.forward(conv.forward(x, table, [len(x)])))
        x = np.arange(len(table))
    h, bilstm_backward = _unshared_bilstm(model.bilstm, table[None])
    _, z = model.attention.forward(h)
    probs = model.out_act.forward(model.out.forward(z))
    dx = bilstm_backward(model.attention.backward(
        model.out.backward(model.out_act.backward(dp[None]))))[0]
    for conv, act, pool in reversed(list(zip(model.conv, model.relu, model.pool))):
        _, dx = conv.backward(act.backward(pool.backward(dx)))
    distinct, rows = _per_id(ids[0], dx)
    model.embedding.backward(rows, distinct)
    return probs[0], [full_grad(p).copy() for p in model.params()]


def _ragged_batch(max_len=12):
    """Five id rows: empty, full-length, gapped, trailing-pad and one real
    slot after leading padding, with ``PAD_ID`` in every gap."""
    r = np.random.default_rng(7)
    slot = np.arange(max_len)
    real = np.array([slot < 0, slot >= 0, slot % 3 != 1, slot < 5, slot == 6])
    return np.where(real, r.integers(2, len(VOCAB), real.shape), PAD_ID)


@pytest.mark.parametrize("make", [_binary, lambda: _binary(dense_hidden=()),
                                  _multilabel,
                                  lambda: _multilabel(use_attention=False)],
                         ids=["binary", "no-hidden", "multilabel", "max-over-time"])
class TestBatch:
    def test_batch_equals_per_document(self, make):
        model = make()
        ids = _ragged_batch()
        got = model.forward(ids)
        for doc, row in zip(ids, got):
            np.testing.assert_allclose(row, model.forward(doc[None])[0], rtol=0, atol=1e-12)

    def test_predict_keeps_order_across_chunks(self, make, monkeypatch):
        model = make()
        ids = np.concatenate([np.tile(_ragged_batch(), (8, 1)),
                              _ids([" ".join(WORDS[:n]) for n in range(12)])])
        calls, forward = [], model.forward
        monkeypatch.setattr(model, "forward",
                            lambda ids, *args, **kw: calls.append(len(ids))
                            or forward(ids, *args, **kw))
        got = M.predict(model, ids)
        monkeypatch.undo()
        assert len(calls) > 1 and sum(calls) == len(ids)
        assert got.shape == (len(ids), model.output_dim)
        for doc, row in zip(ids, got):
            np.testing.assert_allclose(row, model.forward(doc[None])[0], rtol=0, atol=1e-12)
        assert M.predict(model, _ids([])).shape == (0, model.output_dim)

    def test_grad(self, make):
        """Finite differences over every parameter for a ragged batch.

        Along one random direction per tensor the check holds at 1e-6.
        Entry by entry it holds at the composed-stack bound of criterion 1:
        entries near 1e-6 carry central-difference roundoff of about 1e-11.
        """
        model = make()
        r = np.random.default_rng(0)
        for name, p in model.named_tensors():  # biases off the ReLU kinks
            if name.endswith(".b"):
                p.value[...] = 0.5 * r.standard_normal(p.value.shape)
        ids = _ragged_batch()
        dp = np.random.default_rng(8).standard_normal((len(ids), model.output_dim))

        def forward():  # the binary model's dropout draws the same masks
            return model.forward(ids, train=True, rng=np.random.default_rng(11))

        model.zero_grad()
        forward()
        model.backward(dp)
        named = [p for n, p in model.named_tensors() if n != "attention.b"]
        # The PAD row is pinned to zero, so no check moves it: PAD slots
        # read it, and its gradient is zeroed.
        table = model.embedding.param
        free = [(p.value[PAD_ID + 1:], full_grad(p)[PAD_ID + 1:]) if p is table
                else (p.value, p.grad) for p in named]

        def loss():
            return float(np.sum(forward() * dp))

        worst = 0.0
        for p in named:
            v = r.standard_normal(p.value.shape)
            if p is table:
                v[PAD_ID] = 0.0
            base = p.value.copy()
            step = np.zeros(1)

            def along():
                p.value[...] = base + step[0] * v
                return loss()

            worst = max(worst, grad_check(along, [step], [np.array([np.sum(full_grad(p) * v)])]))
            p.value[...] = base
        assert worst < 1e-6
        assert grad_check(loss, [v for v, _ in free], [g for _, g in free]) < 1e-4


def _mixed_ids(n, seed=12):
    """n documents of real lengths 0..12 in random order, about a third of
    them full length, which the slot budget puts in chunks of 8."""
    r = np.random.default_rng(seed)
    reals = np.where(r.random(n) < 1 / 3, 12, r.integers(0, 13, n))
    return _ids([" ".join(r.choice(WORDS, size=k)) for k in reals])


def _cached_parts(model):
    """The model and every layer it holds, sub-layers included."""
    parts, todo = [], [model]
    while todo:
        item = todo.pop()
        if isinstance(item, (list, tuple)):
            todo += item
        elif isinstance(item, Layer):
            parts.append(item)
            todo += [v for k, v in vars(item).items() if k != "_cache"]
    return parts


@pytest.mark.parametrize("make", [_binary, lambda: _binary(dense_hidden=()),
                                  _multilabel,
                                  lambda: _multilabel(use_attention=False)],
                         ids=["binary", "no-hidden", "multilabel", "max-over-time"])
class TestEvalForward:
    @pytest.mark.parametrize("size", [1, 31, 32, 33, 70])
    def test_predict_matches_per_document(self, make, size):
        model = make()
        ids = _mixed_ids(size)
        got = M.predict(model, ids)
        for doc, row in zip(ids, got):
            np.testing.assert_allclose(row, model.forward(doc[None])[0], rtol=0, atol=1e-12)

    def test_predict_chunk_sizes(self, make, monkeypatch):
        """At most 8 x 12 slots a chunk, a row with none real counting as 1,
        and up to 32 documents a chunk for the tagger alone."""
        model = make()
        tagger = isinstance(model, M.MultiLabelModel)
        sizes = []
        forward = model.forward

        def spy(ids, *args, **kwargs):
            sizes.append((len(ids), max(int((ids != PAD_ID).sum(axis=1).max()), 1)))
            return forward(ids, *args, **kwargs)

        monkeypatch.setattr(model, "forward", spy)
        for real, want in [(0, [32, 32, 6] if tagger else [70]),
                           (1, [32, 32, 6] if tagger else [70]),
                           (2, [32, 32, 6] if tagger else [48, 22]),
                           (3, [32, 32, 6]), (6, [16, 16, 16, 16, 6]),
                           (12, [8] * 8 + [6])]:
            sizes.clear()
            M.predict(model, _ids([" ".join((WORDS * 2)[:real])] * 70))
            assert [n for n, _ in sizes] == want, real
        sizes.clear()
        M.predict(model, _mixed_ids(70))
        assert sum(n for n, _ in sizes) == 70
        assert all(n * longest <= 8 * 12 and (n <= 32 or not tagger) for n, longest in sizes)
        assert sizes[0][0] > 8 and sizes[-1] == (6, 12)

    def test_predict_keeps_no_cache(self, make):
        model = make()
        ids = _mixed_ids(40)
        model.forward(ids[:8], train=True, rng=np.random.default_rng(0))
        M.predict(model, ids)
        parts = _cached_parts(model)
        assert len(parts) >= 7
        assert [type(p).__name__ for p in parts if p._cache is not None] == []

    def test_backward_after_eval_forward_raises(self, make):
        model = make()
        model.forward(_ragged_batch())
        with pytest.raises(RuntimeError,
                           match=f"{type(model).__name__}.backward needs a forward "
                                 "with train=True"):
            model.backward(np.ones((5, model.output_dim)))

    def test_backward_drops_the_caches(self, make):
        model = make()
        dp = np.ones((5, model.output_dim))
        model.forward(_ragged_batch(), train=True, rng=np.random.default_rng(0))
        model.backward(dp)
        assert all(p._cache is None for p in _cached_parts(model))
        with pytest.raises(RuntimeError, match="train=True"):
            model.backward(dp)


@pytest.mark.parametrize("kind", ["binary", "multilabel"])
def test_predict_peak_memory_is_one_chunk(kind):
    """Paper sizes and 280-300 real tokens: long documents go through 8 at a
    time and an eval forward keeps nothing, so 64 documents peak within 10%
    of 8."""
    table = random_table(len(VOCAB), 100, seed=0)
    model = (M.BinaryModel(M.BinaryModelConfig(), table) if kind == "binary"
             else M.MultiLabelModel(M.MultiLabelModelConfig(), table, seq_len=300))
    r = np.random.default_rng(13)
    reals = r.integers(280, 301, 64)
    reals[0] = 300  # the 8-document chunk is as long as the longest
    ids = _ids([" ".join(r.choice(WORDS, size=k)) for k in reals], 300)
    M.predict(model, ids[:1])
    peaks = []
    for n in (8, 64):
        tracemalloc.start()
        try:
            M.predict(model, ids[:n])
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.1 * peaks[0], peaks


class TestParams:
    def test_binary_param_count_closed_form(self):
        model = _binary(dim=5)
        d, u, h = 5, 4, 4
        expected = (
            len(VOCAB) * d          # embedding table
            + 4 * (u * d + u * u + u)   # lstm gates
            + (h * u + h)           # hidden dense
            + (1 * h + 1)           # output dense
        )
        assert sum(p.value.size for p in model.params()) == expected

    def test_frozen_embedding_excluded_from_params(self):
        for model in (_binary(), _multilabel()):
            named = [p for _, p in model.named_tensors()]
            assert model.params() == named
            model.embedding.table.trainable = False
            assert model.params() == named[1:]
            assert model.embedding.param is named[0]

    def test_decayed_set_is_exact(self):
        no_attention = M.MultiLabelModel(
            M.MultiLabelModelConfig(conv_stack=((6, 3),), bilstm_units=3,
                                    use_attention=False),
            random_table(len(VOCAB), 5), seq_len=12)
        tagger = ["bilstm.fwd.w_x", "bilstm.fwd.w_h", "bilstm.bwd.w_x",
                  "bilstm.bwd.w_h"]
        for model, decayed in [
            (_binary(), ["lstm.w_x", "lstm.w_h", "hidden0.w", "out.w"]),
            (_multilabel(), ["conv0.filters", "conv1.filters", *tagger,
                             "attention.w", "out.w"]),
            (no_attention, ["conv0.filters", *tagger, "out.w"]),
        ]:
            names = {id(p): n for n, p in model.named_tensors()}
            assert [names[id(p)] for p in model.decayed_params()] == decayed

    def test_named_tensors_cover_params(self):
        """The walk names every tensor of every layer once, and a training
        forward, whose caches hold a layer (the BiLSTM's chain), adds none."""
        for model in (_binary(), _multilabel()):
            held = {id(v) for part in _cached_parts(model) for v in vars(part).values()
                    if isinstance(v, Param)}
            named = model.named_tensors()
            assert {id(p) for _, p in named} == held
            names = [n for n, _ in named]
            assert len(names) == len(set(names))
            model.forward(_ids(["ash bat cod"]), train=True, rng=np.random.default_rng(0))
            assert model.named_tensors() == named

    def test_pad_row_never_trains(self):
        model = _binary()
        ids = _ids(["ash bat"])
        data = (ids, np.array([[1.0]]))
        M.train(model, data, data,
                M.TrainingConfig(batch_size=1, learning_rate=0.05, epochs=3,
                                 patience=10))
        assert np.all(model.embedding.param.value[PAD_ID] == 0.0)
        # non-pad rows of used tokens did move
        assert np.any(model.embedding.param.value[ids[0, 0]] != 0.0)


def _toy_task(model_kind="binary", n=12, max_len=12):
    r = np.random.default_rng(42)
    data = []
    for i in range(n):
        if model_kind == "binary":
            toxic = i % 2
            text = "ash bat cod" if toxic else "hay ivy jay"
            y = np.array([float(toxic)])
        else:
            text = "ash bat cod dew" if i % 2 else "elm fig gnu hay"
            y = np.zeros(6)
            y[i % 6] = 1.0
        data.append((text, y))
    r.shuffle(data)
    return _ids([text for text, _ in data], max_len), np.stack([y for _, y in data])


class TestTrain:
    def test_loss_decreases(self):
        data = _toy_task()
        trained = M.train(_binary(), data, data,
                          M.TrainingConfig(batch_size=4, learning_rate=0.02,
                                           epochs=15, patience=50, seed=0))
        first = trained.history[0]["train_loss"]
        last = trained.history[-1]["train_loss"]
        assert last < first * 0.5
        assert trained.best_epoch >= 0
        assert trained.model.kind == "binary"

    def test_zero_learning_rate_freezes_parameters(self):
        model = _binary()
        before = [p.value.copy() for p in model.params()]
        data = _toy_task()
        trained = M.train(model, data, data,
                          M.TrainingConfig(batch_size=4, learning_rate=0.0,
                                           epochs=3, patience=50))
        for p, b in zip(model.params(), before):
            assert np.array_equal(p.value, b)
        assert len(trained.history) == 3

    @pytest.mark.parametrize("kind, make", [("binary", _binary),
                                            ("multilabel", _multilabel)])
    def test_frozen_table_never_moves(self, kind, make):
        model = make()
        model.embedding.table.trainable = False
        before = [p.value.copy() for _, p in model.named_tensors()]
        data = _toy_task(kind)
        M.train(model, data, data,
                M.TrainingConfig(batch_size=4, learning_rate=0.05, epochs=2,
                                 patience=50))
        (_, table), *rest = model.named_tensors()
        assert table.value.tobytes() == before[0].tobytes()
        assert not table.grad.any()
        for (name, p), b in zip(rest, before[1:]):
            assert not np.array_equal(p.value, b), name

    def test_determinism(self):
        data = _toy_task()
        cfg = M.TrainingConfig(batch_size=4, learning_rate=0.02, epochs=5,
                               patience=50, seed=3)
        t1 = M.train(_binary(seed=1), data, data, cfg)
        t2 = M.train(_binary(seed=1), data, data, cfg)
        assert t1.history == t2.history
        for (n1, p1), (n2, p2) in zip(t1.model.named_tensors(),
                                      t2.model.named_tensors()):
            assert n1 == n2 and np.array_equal(p1.value, p2.value)

    def test_seed_changes_trajectory(self):
        data = _toy_task()
        base = dict(batch_size=4, learning_rate=0.02, epochs=5, patience=50)
        t1 = M.train(_binary(seed=1), data, data,
                     M.TrainingConfig(seed=0, **base))
        t2 = M.train(_binary(seed=1), data, data,
                     M.TrainingConfig(seed=9, **base))
        assert t1.history != t2.history

    def test_patience_stops_early(self):
        data = _toy_task()
        # lr 0 keeps val constant, so no epoch after the first improves
        trained = M.train(_binary(), data, data,
                          M.TrainingConfig(batch_size=4, learning_rate=0.0,
                                           epochs=50, patience=2))
        assert len(trained.history) == 3  # epoch 0 best, then 2 bad epochs
        assert trained.best_epoch == 0

    def test_best_epoch_parameters_restored(self):
        data = _toy_task()
        model = _binary()
        trained = M.train(model, data, data,
                          M.TrainingConfig(batch_size=4, learning_rate=0.05,
                                           epochs=10, patience=50))
        best_val = min(h["val_loss"] for h in trained.history)
        assert trained.history[trained.best_epoch]["val_loss"] == best_val
        # recomputing validation loss on the restored weights matches the best
        from toxiclass.neural.losses import bce_loss, l2_penalty
        total = sum(bce_loss(model.forward(doc[None])[0], y)[0] for doc, y in zip(*data))
        val = total / len(data[0]) + l2_penalty(
            (w.value for w in model.decayed_params()), trained.train_config.l2_lambda)
        assert val == pytest.approx(best_val, abs=1e-12)

    def test_empty_folds_rejected(self):
        data = _toy_task()
        empty = (_ids([]), np.empty((0, 1)))
        with pytest.raises(DataError):
            M.train(_binary(), empty, data, M.TrainingConfig())
        with pytest.raises(DataError):
            M.train(_binary(), data, empty, M.TrainingConfig())

    def test_multilabel_trains(self):
        data = _toy_task("multilabel")
        trained = M.train(_multilabel(), data, data,
                          M.TrainingConfig(batch_size=4, learning_rate=0.02,
                                           epochs=8, patience=50))
        assert trained.history[-1]["train_loss"] < trained.history[0]["train_loss"]
        assert trained.model.kind == "multilabel"


def _per_document(model, ids, targets, rng):
    """The reference for ``M._add_batch_gradients``: one forward and one
    backward per document, in batch order."""
    total = 0.0
    for doc, y in zip(ids, targets):
        p = model.forward(doc[None], train=True, rng=rng)[0]
        loss, dp = bce_loss(p, y)
        model.backward(dp[None] / len(ids))
        total += loss
    return total


def _ragged_training_set(kind, n):
    r = np.random.default_rng(5)
    texts, targets = [], []
    for i in range(n):
        texts.append(" ".join(r.choice(WORDS, size=1 + i % 11)))
        targets.append(r.integers(0, 2, size=1 if kind == "binary" else 6).astype(float))
    return _ids(texts), np.array(targets)


@pytest.mark.parametrize("kind, make", [
    ("binary", lambda: _binary(seed=2, dropout_rate=0.5)),
    ("multilabel", lambda: _multilabel(seed=2)),
    pytest.param("multilabel", lambda: _multilabel(seed=2, use_attention=False),
                 id="max-over-time"),
])
class TestBatchedTraining:
    @pytest.mark.parametrize("size", [1, M.TRAIN_CHUNK, M.TRAIN_CHUNK + 3,
                                      2 * M.TRAIN_CHUNK + 1])
    def test_step_matches_per_document(self, kind, make, size):
        model = make()
        batch = _ragged_training_set(kind, size)
        got_rng = np.random.default_rng(9)
        want_rng = np.random.default_rng(9)
        model.zero_grad()
        got_loss = M._add_batch_gradients(model, *batch, got_rng)
        got = [p.grad.copy() for p in model.params()]
        model.zero_grad()
        want_loss = _per_document(model, *batch, want_rng)
        assert got_loss == pytest.approx(want_loss, rel=0, abs=1e-12)
        for (name, _), g, p in zip(model.named_tensors(), got, model.params()):
            np.testing.assert_allclose(g, p.grad, rtol=0, atol=1e-12, err_msg=name)
        assert got_rng.bit_generator.state == want_rng.bit_generator.state
        if kind == "binary" and size > 1:  # dropout drew from the generator
            assert got_rng.bit_generator.state != np.random.default_rng(9).bit_generator.state

    def test_history_matches_per_document(self, kind, make, monkeypatch):
        data = _ragged_training_set(kind, 2 * M.TRAIN_CHUNK + 7)
        config = M.TrainingConfig(batch_size=M.TRAIN_CHUNK + 3, learning_rate=0.02,
                                  epochs=4, patience=50, seed=4)
        val = (data[0][:9], data[1][:9])
        got = M.train(make(), data, val, config)
        monkeypatch.setattr(M, "_add_batch_gradients", _per_document)
        want = M.train(make(), data, val, config)
        assert len(got.history) == len(want.history) == 4
        for g, w in zip(got.history, want.history):
            assert g["train_loss"] == pytest.approx(w["train_loss"], rel=0, abs=1e-9)
            assert g["val_loss"] == pytest.approx(w["val_loss"], rel=0, abs=1e-9)
        assert got.best_epoch == want.best_epoch

    def test_table_gradient_ids_are_distinct(self, kind, make, monkeypatch):
        """Every training backward hands the embedding strictly increasing
        ids, one per gradient row, as its one indexed add needs."""
        model = make()
        rows = []
        handed = _table_gradient_ids(model, monkeypatch, rows)
        data = _ragged_training_set(kind, 2 * M.TRAIN_CHUNK + 7)
        M.train(model, data, data, M.TrainingConfig(batch_size=M.TRAIN_CHUNK + 3,
                                                    learning_rate=0.02, epochs=2))
        assert len(handed) == 2 * 5  # mini-batches of 11, 11 and 1: chunks 8+3, 8+3, 1
        for ids, n in zip(handed, rows):
            assert ids.ndim == 1 and len(ids) == n
            assert np.all(np.diff(ids) > 0)


def _dense_table_gradient(model):
    """The reference for the table's touched-row gradient: a same-shaped
    buffer that the embedding's backward adds each id's row into, with
    the PAD row zeroed after, and that Adam steps in full."""
    emb = model.embedding
    emb.param = Param("table", emb.param.value)

    def backward(dx, ids):
        emb.param.grad[ids] += dx
        emb.param.grad[PAD_ID] = 0.0

    emb.backward = backward
    return model


@pytest.mark.parametrize("make", [lambda: _binary(seed=2, dropout_rate=0.5),
                                  lambda: _multilabel(seed=2)],
                         ids=["binary", "multilabel"])
def test_touched_row_training_matches_a_dense_table_gradient(make):
    """Four epochs of mini-batch training leave every parameter, bit for
    bit, and the history where the same-shaped table gradient does."""
    kind = make().kind
    data = _ragged_training_set(kind, 2 * M.TRAIN_CHUNK + 7)
    config = M.TrainingConfig(batch_size=M.TRAIN_CHUNK + 3, learning_rate=0.02,
                              epochs=4, patience=50, seed=4)
    val = (data[0][:9], data[1][:9])
    got = M.train(make(), data, val, config)
    want = M.train(_dense_table_gradient(make()), data, val, config)
    assert got.history == want.history
    for (name, p), (_, q) in zip(got.model.named_tensors(), want.model.named_tensors()):
        assert p.value.tobytes() == q.value.tobytes(), name


@pytest.mark.parametrize("kind", ["binary", "multilabel"])
def test_training_holds_no_table_sized_gradient(kind, monkeypatch):
    """The table's gradient is its touched rows, PAD left out, after every
    backward and step; and a training step allocates no array the size of
    the table's values (tracemalloc counts an allocation whether or not
    its pages are touched)."""
    table = random_table(20_000, 8, seed=1, trainable=True)
    model = M.BinaryModel(M.BinaryModelConfig(lstm_units=4, dense_hidden=(4,)), table) \
        if kind == "binary" else M.MultiLabelModel(
            M.MultiLabelModelConfig(conv_stack=((6, 3), (4, 2)), bilstm_units=3), table,
            seq_len=12)
    param = model.embedding.param
    shapes = [param.grad.shape]
    for owner, name in ((model.embedding, "backward"), (M.Adam, "step")):
        def spy(*args, _call=getattr(owner, name)):
            _call(*args)
            shapes.append(param.grad.shape)
            assert len(param.rows) == len(param.grad) and PAD_ID not in param.rows
        monkeypatch.setattr(owner, name, spy)
    ids, targets = _ragged_training_set(kind, 2 * M.TRAIN_CHUNK + 7)
    opt = M.Adam(model.params(), 0.02)
    rng = np.random.default_rng(0)
    tracemalloc.start()
    try:
        for lo in range(0, len(ids), M.TRAIN_CHUNK + 3):
            rows = slice(lo, lo + M.TRAIN_CHUNK + 3)
            model.zero_grad()
            M._add_batch_gradients(model, ids[rows], targets[rows], rng)
            opt.step()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < param.value.nbytes / 4
    assert len(shapes) == 1 + 5 + 3  # chunks 8+3, 8+3, 1 and three steps
    assert all(rows < len(VOCAB) and dim == 8 for rows, dim in shapes)


class TestRoute:
    def test_gate_below_threshold(self):
        assert M.route(0.49, [0.9] * 6) == ["Non-toxic"]

    def test_boundary_probability_goes_to_stage_two(self):
        assert M.route(0.5, [0.9, 0.1, 0.1, 0.1, 0.1, 0.1]) == ["vulgar"]

    def test_labels_at_or_above_threshold(self):
        probs = [0.9, 0.5, 0.2, 0.7, 0.1, 0.49]
        assert M.route(0.8, probs) == ["vulgar", "hate", "threat"]

    def test_argmax_fallback(self):
        probs = [0.1, 0.2, 0.45, 0.3, 0.2, 0.1]
        assert M.route(0.9, probs) == ["religious"]

    def test_argmax_tie_takes_first_index(self):
        assert M.route(0.9, [0.3, 0.4, 0.4, 0.1, 0.2, 0.4]) == ["hate"]

    def test_custom_thresholds(self):
        assert M.route(0.3, [0.25, 0.1, 0.1, 0.1, 0.1, 0.1],
                       tau_binary=0.25, tau_label=0.2) == ["vulgar"]
        assert M.route(0.3, [0.9] * 6, tau_binary=0.35) == ["Non-toxic"]

    def test_never_empty_never_mixed(self):
        r = np.random.default_rng(0)
        for _ in range(2000):
            labels = M.route(float(r.random()), r.random(6))
            assert labels
            if "Non-toxic" in labels:
                assert labels == ["Non-toxic"]
            else:
                assert all(l in LABELS for l in labels)


class TestCheckpoint:
    def _trained_binary(self, tmp_path):
        data = _toy_task()
        trained = M.train(_binary(), data, data,
                          M.TrainingConfig(batch_size=4, learning_rate=0.02,
                                           epochs=4, patience=50))
        path = tmp_path / "binary.ckpt"
        M.save_model(trained, path)
        return trained, path

    def test_binary_round_trip(self, tmp_path):
        trained, path = self._trained_binary(tmp_path)
        loaded = M.load_model(path, expect_kind="binary")
        ids = _ids(["ash bat cod"])
        assert np.array_equal(M.predict(loaded.model, ids),
                              M.predict(trained.model, ids))
        assert loaded.vocab_hash == trained.vocab_hash
        assert loaded.best_epoch == trained.best_epoch
        assert loaded.history == trained.history
        assert loaded.train_config == trained.train_config
        assert loaded.model.config == trained.model.config

    def test_multilabel_round_trip(self, tmp_path):
        data = _toy_task("multilabel")
        trained = M.train(_multilabel(), data, data,
                          M.TrainingConfig(batch_size=4, learning_rate=0.02,
                                           epochs=3, patience=50),
                          vocab_hash="abc123")
        path = tmp_path / "multi.ckpt"
        M.save_model(trained, path)
        loaded = M.load_model(path)
        ids = _ids(["ash bat cod dew"])
        assert np.array_equal(M.predict(loaded.model, ids),
                              M.predict(trained.model, ids))
        assert loaded.vocab_hash == "abc123"
        assert loaded.model.seq_len == 12

    def test_kind_mismatch(self, tmp_path):
        _, path = self._trained_binary(tmp_path)
        with pytest.raises(CheckpointError, match="expected"):
            M.load_model(path, expect_kind="multilabel")

    def test_flipped_byte_fails_checksum(self, tmp_path):
        _, path = self._trained_binary(tmp_path)
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="checksum"):
            M.load_model(path)

    def test_truncation(self, tmp_path):
        _, path = self._trained_binary(tmp_path)
        path.write_bytes(path.read_bytes()[:20])
        with pytest.raises(CheckpointError, match="truncated"):
            M.load_model(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError):
            M.load_model(tmp_path / "nope.ckpt")

    def _rewrite(self, path, mutate):
        import hashlib
        body = bytearray(path.read_bytes()[:-32])
        mutate(body)
        path.write_bytes(bytes(body) + hashlib.sha256(bytes(body)).digest())

    def test_bad_magic(self, tmp_path):
        _, path = self._trained_binary(tmp_path)

        def mutate(body):
            body[:8] = b"NOTMAGIC"

        self._rewrite(path, mutate)
        with pytest.raises(CheckpointError, match="magic"):
            M.load_model(path)

    def test_trailing_bytes(self, tmp_path):
        _, path = self._trained_binary(tmp_path)
        self._rewrite(path, lambda body: body.extend(b"\x00" * 8))
        with pytest.raises(CheckpointError, match="trailing"):
            M.load_model(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_tensor_is_refused(self, tmp_path, value, write_checkpoint):
        model = _binary()
        model.lstm.w_h.value[1, 2] = value
        path = tmp_path / "binary.ckpt"
        write_checkpoint(M.TrainedModel(model=model, vocab_hash=""), path)
        with pytest.raises(CheckpointError,
                           match="tensor lstm.w_h holds a non-finite value"):
            M.load_model(path)

    def test_nonzero_pad_row_is_refused(self, tmp_path, write_checkpoint):
        """PAD slots read the PAD row, which only a zero row keeps silent."""
        model = _binary()
        path = tmp_path / "binary.ckpt"
        model.embedding.param.value[PAD_ID] = -0.0  # equal to zero: loads
        write_checkpoint(M.TrainedModel(model=model, vocab_hash=""), path)
        M.load_model(path)
        model.embedding.param.value[PAD_ID, 1] = 0.25
        write_checkpoint(M.TrainedModel(model=model, vocab_hash=""), path)
        with pytest.raises(CheckpointError,
                           match="tensor embedding.table has a nonzero PAD row"):
            M.load_model(path)

    @pytest.mark.parametrize("pad", [-0.0, 0.25, -5e-324])
    def test_save_and_load_share_the_pad_row_test(self, tmp_path, pad, write_checkpoint):
        model = _binary()
        model.embedding.param.value[PAD_ID, 1] = pad
        trained = M.TrainedModel(model=model, vocab_hash="")
        written, saved = tmp_path / "written.ckpt", tmp_path / "saved.ckpt"
        write_checkpoint(trained, written)
        if pad == 0.0:  # -0.0 is zero: both accept it
            M.save_model(trained, saved)
            assert saved.read_bytes() == written.read_bytes()
            M.load_model(saved)
            return
        message = "tensor embedding.table has a nonzero PAD row"
        with pytest.raises(CheckpointError, match=message):
            M.load_model(written)
        with pytest.raises(CheckpointError, match=f"checkpoint {saved}: {message}"):
            M.save_model(trained, saved)
        assert not saved.exists()

    @pytest.mark.parametrize("make", [_binary, _multilabel])
    def test_class_order_is_the_class_names(self, tmp_path, make):
        model = make()
        path = tmp_path / "m.ckpt"
        M.save_model(M.TrainedModel(model=model, vocab_hash=""), path)
        loaded = M.load_model(path).model
        body = path.read_bytes()
        start = len(M.CHECKPOINT_MAGIC) + 4
        (length,) = struct.unpack_from("<I", body, len(M.CHECKPOINT_MAGIC))
        header = json.loads(body[start:start + length])
        assert M.MODELS[header["kind"]] is type(model) is type(loaded)
        assert header["class_order"] == list(loaded.class_names) == list(model.class_names)
        assert loaded.output_dim == len(loaded.class_names) == loaded.out.w.value.shape[0]
        assert M.predict(loaded, _ids(["ash bat"])).shape == (1, len(model.class_names))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_save_refuses_non_finite_tensor(self, tmp_path, value):
        model = _binary()
        model.lstm.w_x.value[0, 1] = value
        model.out.w.value[0, 0] = value
        path = tmp_path / "binary.ckpt"
        with pytest.raises(NumericError,
                           match="tensor lstm.w_x holds a non-finite value"):
            M.save_model(M.TrainedModel(model=model, vocab_hash=""), path)
        assert not path.exists()

    def test_save_accepts_overflowing_finite_tensor(self, tmp_path):
        """Entries whose sum overflows to inf are still finite."""
        model = _binary()
        model.out.w.value[...] = 1.5e308
        path = tmp_path / "binary.ckpt"
        M.save_model(M.TrainedModel(model=model, vocab_hash=""), path)
        assert np.array_equal(M.load_model(path).model.out.w.value, model.out.w.value)

    def test_container_helper_writes_what_save_writes(self, tmp_path, write_checkpoint):
        trained, path = self._trained_binary(tmp_path)
        write_checkpoint(trained, tmp_path / "helper.ckpt")
        assert (tmp_path / "helper.ckpt").read_bytes() == path.read_bytes()

    def test_predict_leaves_saved_bytes_unchanged(self, tmp_path):
        """Forwards at batch 1 and batch 8 (both recurrent-weight layouts)
        leave every tensor's bits as they were."""
        trained, before = self._trained_binary(tmp_path)
        M.predict(trained.model, _ids(["ash bat cod"]))
        M.predict(trained.model, _ids([" ".join(WORDS[:n]) for n in range(1, 9)]))
        after = tmp_path / "after.ckpt"
        M.save_model(trained, after)
        assert after.read_bytes() == before.read_bytes()

    def test_save_is_deterministic(self, tmp_path):
        data = _toy_task()
        cfg = M.TrainingConfig(batch_size=4, learning_rate=0.02, epochs=3,
                               patience=50)
        a = M.train(_binary(seed=5), data, data, cfg)
        b = M.train(_binary(seed=5), data, data, cfg)
        M.save_model(a, tmp_path / "a.ckpt")
        M.save_model(b, tmp_path / "b.ckpt")
        assert (tmp_path / "a.ckpt").read_bytes() \
            == (tmp_path / "b.ckpt").read_bytes()

    @pytest.mark.parametrize("model", [
        _binary(),
        M.BinaryModel(M.BinaryModelConfig(lstm_units=3, dense_hidden=()),
                      random_table(len(VOCAB), 4)),
        _multilabel(),
        M.MultiLabelModel(M.MultiLabelModelConfig(conv_stack=((6, 3),),
                                                  bilstm_units=3,
                                                  use_attention=False),
                          random_table(len(VOCAB), 5), seq_len=12),
    ], ids=["binary", "no_hidden", "multilabel", "max_over_time"])
    def test_tensor_shapes_from_sizes(self, model):
        table = model.embedding.table
        assert M._tensor_shapes(model.config, table.vocab_size, table.dim) \
            == [(name, p.value.shape) for name, p in model.named_tensors()]

    @pytest.mark.parametrize("kind", ["binary", "multilabel"])
    def test_fixture_checkpoint_round_trips(self, tmp_path, kind):
        """A committed desk-size checkpoint (untrained; table seed 1, model
        seed 2, seq_len 40) pins the format: its tensors load under the
        names ``named_tensors()`` gives, and saving it writes the same bytes."""
        path = FIXTURES / f"desk_{kind}.ckpt"
        trained = M.load_model(path, expect_kind=kind)
        body = path.read_bytes()
        start = len(M.CHECKPOINT_MAGIC) + 4
        (length,) = struct.unpack_from("<I", body, len(M.CHECKPOINT_MAGIC))
        header = json.loads(body[start:start + length])
        assert [name for name, _ in trained.model.named_tensors()] \
            == [t["name"] for t in header["tensors"]]
        M.save_model(trained, tmp_path / "again.ckpt")
        assert (tmp_path / "again.ckpt").read_bytes() == body

    def test_pooled_input_true_in_header_is_refused(self, tmp_path, rewrite_header):
        path = tmp_path / "pooled.ckpt"
        path.write_bytes((FIXTURES / "desk_binary.ckpt").read_bytes())
        rewrite_header(path, {"set": ("model_config.pooled_input", True)})
        with pytest.raises(CheckpointError, match="pooled_input was removed"):
            M.load_model(path)

    def _wide_binary(self, tmp_path):
        """A small binary checkpoint with 4096-wide embeddings: a
        10**7-unit LSTM over them would need over 10**12 bytes, which numpy
        refuses outright instead of filling memory."""
        path = tmp_path / "wide.ckpt"
        M.save_model(M.TrainedModel(model=_binary(dim=4096), vocab_hash=""), path)
        return path

    @pytest.mark.parametrize("key, change", [
        ("embedding", {"vocab_size": 10 ** 8, "dim": 10 ** 6}),
        ("model_config", {"lstm_units": 10 ** 7}),
        ("model_config", {"dense_hidden": [10 ** 12]}),
    ])
    def test_header_sizes_checked_before_allocation(self, tmp_path, key, change,
                                                    rewrite_header):
        path = self._wide_binary(tmp_path)
        header = M._header_dict(M.load_model(path))
        rewrite_header(path, {"set": (key, {**header[key], **change})})
        with pytest.raises(CheckpointError, match="tensor mismatch"):
            M.load_model(path)

    def test_rejected_header_allocates_little(self, tmp_path, rewrite_header):
        path = self._wide_binary(tmp_path)
        config = M._header_dict(M.load_model(path))["model_config"]
        rewrite_header(path, {"set": ("model_config",
                                      {**config, "lstm_units": 2000})})
        tracemalloc.start()
        try:
            with pytest.raises(CheckpointError, match="tensor mismatch"):
                M.load_model(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * path.stat().st_size

    def test_valid_load_holds_the_file_once(self, tmp_path):
        """Paper-size gate over a 20,000 x 100 table: the file, the tensors
        and their gradient buffers, with no copy of the file's body."""
        model = M.BinaryModel(M.BinaryModelConfig(), random_table(20_000, 100))
        path = tmp_path / "big.ckpt"
        M.save_model(M.TrainedModel(model=model, vocab_hash=""), path)
        tracemalloc.start()
        try:
            M.load_model(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3.5 * path.stat().st_size

    def test_save_holds_no_copy_of_the_checkpoint(self, tmp_path):
        """Saving the paper-size gate over a 20,000 x 100 table allocates
        far less than the 17 MB file: tensors are written from their own
        memory."""
        trained = M.TrainedModel(model=M.BinaryModel(M.BinaryModelConfig(),
                                                     random_table(20_000, 100)),
                                 vocab_hash="")
        path = tmp_path / "big.ckpt"
        tracemalloc.start()
        try:
            M.save_model(trained, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.05 * path.stat().st_size
        assert M.load_model(path).model.embedding.param.value.tobytes() \
            == trained.model.embedding.param.value.tobytes()

    @pytest.mark.parametrize("tensors, message", [
        (lambda t: t[:-1], "tensor mismatch"),
        (lambda t: t + [{"name": "extra", "shape": [1]}], "tensor mismatch"),
        (lambda t: [{**m, "shape": [1, 1]} if m["name"] == "out.w" else m
                    for m in t], "tensor mismatch"),
    ], ids=["missing", "extra", "reshaped"])
    def test_tensor_list_must_match_sizes(self, tmp_path, tensors, message,
                                          rewrite_header):
        _, path = self._trained_binary(tmp_path)
        header = M._header_dict(M.load_model(path))
        rewrite_header(path, {"set": ("tensors", tensors(header["tensors"]))})
        with pytest.raises(CheckpointError, match=message):
            M.load_model(path)

    def test_tensor_bytes_must_fill_the_body(self, tmp_path):
        _, path = self._trained_binary(tmp_path)
        self._rewrite(path, lambda body: body.__delitem__(slice(-8, None)))
        with pytest.raises(CheckpointError, match="truncated"):
            M.load_model(path)

    @pytest.mark.parametrize("change", [
        {"lstm_units": 0}, {"dense_hidden": [0]}, {"dropout_rate": 1.5},
    ])
    def test_header_sizes_below_one(self, tmp_path, change, rewrite_header):
        _, path = self._trained_binary(tmp_path)
        config = M._header_dict(M.load_model(path))["model_config"]
        rewrite_header(path, {"set": ("model_config", {**config, **change})})
        with pytest.raises(CheckpointError, match="malformed header"):
            M.load_model(path)

    @pytest.mark.parametrize("header", [
        b"\xff\xfe{}",  # not UTF-8
        b"{not json",
        b"[]",
        {"drop": "kind"},
        {"drop": "tensors"},
        {"drop": "embedding"},
        {"set": ("model_config", 7)},
        {"set": ("model_config", "lstm_units")},
        {"set": ("model_config", {"lstm_units": 4, "bogus": 1})},
        {"set": ("embedding", [])},
        {"set": ("tensors", 5)},
        {"set": ("history", [[0, 1.0]])},
        # values of the wrong type: each is named in the error. ``kind``
        # picks the checkpoint the field belongs to.
        {"set": ("model_config.leaky_slope", "x")},
        {"set": ("model_config.dense_hidden", "8")},
        {"set": ("embedding.trainable", "no")},
        {"set": ("history", [["a", "b", "c"]])},
        {"set": ("best_epoch", "x")},
        {"set": ("vocab_hash", 0)},
        {"set": ("train_config.l2_lambda", "0")},
        {"set": ("model_config.use_attention", "false"), "kind": "multilabel"},
        {"set": ("seq_len", 12.5), "kind": "multilabel"},
        {"set": ("class_order", ["x"])},
        {"set": ("class_order", ["hate", "vulgar", "religious", "threat", "troll",
                                 "insult"]), "kind": "multilabel"},
        {"set": ("embedding.source", 5)},
        {"set": ("embedding.vocab_size", 562.0)},
        {"set": ("embedding.dim", True)},
    ])
    def test_malformed_header_with_valid_checksum(self, tmp_path, header,
                                                  rewrite_header):
        kind = header.get("kind", "binary") if isinstance(header, dict) else "binary"
        if kind == "binary":
            _, path = self._trained_binary(tmp_path)
        else:
            path = tmp_path / "multilabel.ckpt"
            M.save_model(M.TrainedModel(model=_multilabel(), vocab_hash=""), path)
        rewrite_header(path, header)
        with pytest.raises(CheckpointError, match="malformed header") as info:
            M.load_model(path)
        assert str(path) in str(info.value)
        key = header.get("set", ("",))[0] if isinstance(header, dict) else ""
        if key not in ("", "model_config", "embedding", "tensors"):
            assert key.rsplit(".", 1)[-1] in str(info.value)


# The type each annotation of a config field allows; a float field may hold
# an int, as a header written from ``TrainingConfig(l2_lambda=0)`` does.
_INTS = (lambda v: type(v) is tuple and all(type(x) is int for x in v))
_ANNOTATED = {
    "bool": lambda v: type(v) is bool,
    "int": lambda v: type(v) is int,
    "float": lambda v: type(v) in (int, float),
    "tuple[int, ...]": _INTS,
    "tuple[tuple[int, int], ...]": lambda v: type(v) is tuple and all(
        _INTS(p) and len(p) == 2 for p in v),
}


def _assert_loaded_types(trained):
    """Each value ``load_model`` read from the header has the type its
    annotation names."""
    for config in (trained.model.config, trained.train_config or M.TrainingConfig()):
        for f in dataclasses.fields(config):
            assert _ANNOTATED[f.type](getattr(config, f.name)), (f.name, config)
    assert type(trained.model.embedding.table.trainable) is bool
    assert type(trained.model.embedding.table.source) is str
    assert type(getattr(trained.model, "seq_len", 0)) is int
    assert type(trained.vocab_hash) is str
    assert type(trained.best_epoch) is int
    for h in trained.history:
        assert type(h["epoch"]) is int
        assert _ANNOTATED["float"](h["train_loss"]) and _ANNOTATED["float"](h["val_loss"])


@pytest.fixture(scope="module")
def desk_checkpoints(tmp_path_factory):
    out = {}
    for model in (M.BinaryModel(desk_binary_config(), random_table(len(VOCAB), 5)),
                  M.MultiLabelModel(desk_multilabel_config(),
                                    random_table(len(VOCAB), 5), seq_len=40)):
        trained = M.TrainedModel(model=model, vocab_hash="",
                                 history=[{"epoch": 0, "train_loss": 0.7, "val_loss": 0.6}],
                                 train_config=M.TrainingConfig(), best_epoch=0)
        path = tmp_path_factory.mktemp("desk") / f"{model.kind}.ckpt"
        M.save_model(trained, path)
        out[model.kind] = (path.read_bytes(), M._header_dict(trained))
    return out


@pytest.mark.parametrize("kind", ["binary", "multilabel"])
# Each example starts from the original bytes, so the fixtures are safe to share.
@settings(max_examples=150, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_rewritten_header_fails_only_as_checkpoint_error(kind, data, tmp_path,
                                                         desk_checkpoints):
    original, header = desk_checkpoints[kind]
    fields = data.draw(header_edits(header))
    path = tmp_path / "desk.ckpt"
    path.write_bytes(original)
    edit_header(path, fields)
    with contextlib.suppress(CheckpointError):
        trained = M.load_model(path, expect_kind=kind)
        _assert_loaded_types(trained)
        assert list(trained.model.class_names) == fields.get("class_order",
                                                             header["class_order"])


class TestPipeline:
    def _pipeline(self, trained_enough=False):
        from toxiclass.corpus import PreprocessConfig
        binary = _binary()
        multilabel = _multilabel()
        if trained_enough:
            data = _toy_task()
            M.train(binary, data, data,
                    M.TrainingConfig(batch_size=4, learning_rate=0.05,
                                     epochs=25, patience=100))
        return M.TwoStagePipeline(binary=binary, multilabel=multilabel,
                                  vocab=VOCAB,
                                  preprocess_config=PreprocessConfig(),
                                  max_len=12)

    def test_classify_contract(self):
        out = self._pipeline().classify("ash bat cod!")
        assert set(out) == {"labels", "p_toxic", "label_probs"}
        assert out["labels"]
        assert 0.0 < out["p_toxic"] < 1.0

    def test_gated_document_skips_stage_two(self):
        pipe = self._pipeline(trained_enough=True)
        out = pipe.classify("hay ivy jay")
        assert out["p_toxic"] < 0.5
        assert out["labels"] == ["Non-toxic"]
        assert out["label_probs"] is None

    def test_toxic_document_reports_stage_two(self):
        pipe = self._pipeline(trained_enough=True)
        out = pipe.classify("ash bat cod")
        assert out["p_toxic"] >= 0.5
        assert out["label_probs"] is not None
        assert len(out["label_probs"]) == 6
        assert out["labels"] and "Non-toxic" not in out["labels"]

    def test_preprocessing_applied(self):
        pipe = self._pipeline(trained_enough=True)
        plain = pipe.classify("ash bat cod")
        noisy = pipe.classify("ash, bat... cod!!! https://spam.example")
        assert noisy["p_toxic"] == pytest.approx(plain["p_toxic"], abs=1e-12)

    def _mixed_texts(self):
        """More than ``PREDICT_CHUNK`` texts of 0 to 16 words (some past
        max_len 12), blank ones included."""
        r = np.random.default_rng(5)
        texts = [" ".join(r.choice(WORDS, size=int(n)))
                 for n in r.integers(0, 17, size=M.PREDICT_CHUNK + 9)]
        return texts + ["", "   "]

    def _half_passing(self, texts):
        """An untrained pipeline whose gate passes about half of ``texts``."""
        pipe = self._pipeline()
        pipe.tau_binary = float(np.median(M.predict(pipe.binary, _ids(texts))))
        return pipe

    def test_classify_many_matches_classify(self):
        texts = self._mixed_texts()
        pipe = self._half_passing(texts)
        got = pipe.classify_many(texts)
        want = [pipe.classify(t) for t in texts]
        assert len(got) == len(texts)
        assert any(w["label_probs"] is None for w in want)
        assert any(w["label_probs"] is not None for w in want)
        for g, w in zip(got, want):
            assert g["labels"] == w["labels"]
            assert g["p_toxic"] == pytest.approx(w["p_toxic"], rel=0, abs=1e-12)
            if w["label_probs"] is None:
                assert g["label_probs"] is None
            else:
                assert g["label_probs"] == pytest.approx(w["label_probs"],
                                                         rel=0, abs=1e-12)

    def test_blank_lines_go_in_chunks_within_the_slot_budget(self, monkeypatch):
        """About 3 x the slot budget's worth of blank texts among a few
        real ones: every gate chunk holds at most 8 x 12 slots, a blank row
        counting as one, every tagger chunk at most ``PREDICT_CHUNK`` rows,
        and every result is the one text's own, in order."""
        texts = [""] * 290
        for i, n in enumerate(range(0, 290, 29)):
            texts[n] = " ".join(WORDS[:i + 1])
        pipe = self._pipeline()
        pipe.tau_binary = 0.0  # the tagger scores every text
        want = [pipe.classify(t) for t in texts]
        shapes = {pipe.binary: [], pipe.multilabel: []}
        for model in shapes:
            def spy(ids, *args, forward=model.forward, seen=shapes[model], **kw):
                real = (ids != PAD_ID).sum(axis=1).max(initial=0)
                seen.append((len(ids), max(int(real), 1)))
                return forward(ids, *args, **kw)
            monkeypatch.setattr(model, "forward", spy)
        got = pipe.classify_many(texts)
        assert max(n for n, _ in shapes[pipe.binary]) > M.PREDICT_CHUNK
        assert all(n * width <= M.PREDICT_LONG_CHUNK * 12 for n, width in shapes[pipe.binary])
        assert max(n for n, _ in shapes[pipe.multilabel]) == M.PREDICT_CHUNK
        for g, w in zip(got, want):
            assert g["labels"] == w["labels"]
            assert g["p_toxic"] == pytest.approx(w["p_toxic"], rel=0, abs=1e-12)
            assert g["label_probs"] == pytest.approx(w["label_probs"], rel=0, abs=1e-12)

    def test_tagger_sees_exactly_the_passed_documents(self, monkeypatch):
        texts = self._mixed_texts()
        pipe = self._half_passing(texts)
        calls = []
        real_predict = M.predict

        def counting_predict(model, ids):
            calls.append((model, ids))
            return real_predict(model, ids)

        monkeypatch.setattr(M, "predict", counting_predict)
        results = pipe.classify_many(texts)
        assert [model for model, _ in calls] == [pipe.binary, pipe.multilabel]
        gate_ids, tagger_ids = calls[0][1], calls[1][1]
        assert len(gate_ids) == len(texts)
        passed = [r["p_toxic"] >= pipe.tau_binary for r in results]
        assert 0 < sum(passed) < len(texts)
        assert np.array_equal(tagger_ids, gate_ids[passed])
        assert [r["label_probs"] is not None for r in results] == passed

    def test_gate_probability_at_threshold_is_tagged(self):
        pipe = self._pipeline()
        pipe.tau_binary = pipe.classify("ash bat cod")["p_toxic"]
        out = pipe.classify_many(["ash bat cod"])[0]
        assert out["p_toxic"] == pipe.tau_binary
        assert out["label_probs"] is not None and "Non-toxic" not in out["labels"]
        pipe.tau_binary = np.nextafter(pipe.tau_binary, 1.0)
        assert pipe.classify_many(["ash bat cod"])[0]["labels"] == ["Non-toxic"]

    def test_classify_many_of_nothing(self):
        assert self._pipeline().classify_many([]) == []
