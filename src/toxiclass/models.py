"""The two classifier architectures, the trainer, two-stage routing and
checkpoint serialization."""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import struct
from dataclasses import asdict, dataclass, field

import numpy as np

from .corpus import (LABELS, NUM_LABELS, PAD_ID, PreprocessConfig, Vocabulary, encode,
                     preprocess, seeded_rng)
from .embedding import EmbeddingTable
from .errors import ConfigError, CheckpointError, DataError, NumericError
from .neural import (
    Adam,
    Attention,
    BiLSTM,
    Conv1D,
    Dense,
    Dropout,
    LSTM,
    LeakyReLULayer,
    MaxOverTime,
    MaxPool1D,
    Param,
    ReLULayer,
    SigmoidLayer,
)
from .neural.layers import Cached, Layer
from .neural.losses import add_l2_gradients, bce_loss, l2_penalty

CHECKPOINT_MAGIC = b"TXCKPT01"
CHECKPOINT_VERSION = 1
# Most documents per batched forward in ``predict``. A chunk also stops
# before its documents' real slots (count x longest real length) exceed
# PREDICT_LONG_CHUNK full-length documents' worth, so short documents go 32
# at a time and full-length ones 8: eval forwards keep no backward caches,
# and this bounds the forward's own arrays whatever the number of documents.
PREDICT_CHUNK = 32
PREDICT_LONG_CHUNK = 8
# Documents per forward and backward in each training mini-batch: a chunk's
# backward caches are what the layers hold until its backward.
TRAIN_CHUNK = 8


def _check_sizes(**sizes) -> None:
    for name, size in sizes.items():
        if size < 1:
            raise ConfigError(f"{name} must be >= 1, got {size}")


@dataclass(frozen=True)
class BinaryModelConfig:
    lstm_units: int = 128
    dense_hidden: tuple[int, ...] = (128, 64)
    dropout_rate: float = 0.3
    leaky_slope: float = 0.01
    pooled_input: bool = False  # feed the max-pooled sentence vector instead of (L, D)

    def __post_init__(self):
        _check_sizes(lstm_units=self.lstm_units)
        for size in self.dense_hidden:
            _check_sizes(dense_hidden=size)
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ConfigError(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")

    @classmethod
    def from_dict(cls, d: dict) -> "BinaryModelConfig":
        d = dict(d)
        d["dense_hidden"] = tuple(int(v) for v in d.get("dense_hidden", ()))
        return cls(**d)


@dataclass(frozen=True)
class MultiLabelModelConfig:
    conv_stack: tuple[tuple[int, int], ...] = ((512, 4), (256, 3), (128, 2))
    pool: int = 2
    bilstm_units: int = 128
    use_attention: bool = True

    def __post_init__(self):
        if not self.conv_stack:
            raise ConfigError("conv stack must be non-empty")
        if self.pool < 1:
            raise ConfigError(f"pool must be >= 1, got {self.pool}")
        _check_sizes(bilstm_units=self.bilstm_units)
        for filters, kernel in self.conv_stack:
            _check_sizes(conv_filters=filters, conv_kernel=kernel)

    @classmethod
    def from_dict(cls, d: dict) -> "MultiLabelModelConfig":
        d = dict(d)
        d["conv_stack"] = tuple(
            (int(f), int(k)) for f, k in d.get("conv_stack", ())
        )
        return cls(**d)


@dataclass(frozen=True)
class TrainingConfig:
    batch_size: int = 16
    learning_rate: float = 1e-5
    epochs: int = 10
    seed: int = 0
    l2_lambda: float = 1e-4
    patience: int = 10

    def __post_init__(self):
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.learning_rate < 0.0:
            raise ConfigError(f"learning_rate must be >= 0, got {self.learning_rate}")
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.l2_lambda < 0.0:
            raise ConfigError(f"l2_lambda must be >= 0, got {self.l2_lambda}")


def _real_length(ids: np.ndarray) -> np.ndarray:
    """Per row of ``ids``: the slots up to and including its last real one."""
    valid = ids != PAD_ID
    return np.where(valid.any(axis=-1),
                    valid.shape[-1] - valid[..., ::-1].argmax(axis=-1), 0)


class EmbeddingLayer(Layer):
    """Row lookup. The PAD row is zero, so PAD slots read zeros: the table
    pins it, its gradient is zeroed, it carries no decay, and ``load_model``
    refuses a checkpoint where it is not zero."""

    def __init__(self, table: EmbeddingTable):
        self.table = table
        self.param = Param("table", table.matrix)

    def forward(self, ids: np.ndarray, train: bool = True) -> np.ndarray:
        self._keep(train, ids)
        return self.param.value[ids]

    def backward(self, dx: np.ndarray) -> None:
        (ids,) = self._take()
        if not self.table.trainable:
            return
        np.add.at(self.param.grad, ids, dx)
        self.param.grad[PAD_ID, :] = 0.0


class Model(Cached):
    """What both models derive from ``named_tensors()``, the one list of
    their tensors that each subclass writes. Checkpoints, Adam and the L2
    penalty all take its order.

    Each subclass states its stage once: ``kind``, ``config_class``, ``class_names``.
    ``forward(ids, train, rng)`` maps a (B, L) int64 id array, each row's
    ids followed by ``PAD_ID``, to (B, output_dim) probabilities;
    ``backward`` takes their (B, output_dim) gradient. The model hands
    ``train`` to every layer: a forward with ``train=False`` (the default)
    keeps nothing for backward, and a backward after it raises RuntimeError.
    """

    @property
    def output_dim(self) -> int:
        return len(self.class_names)

    def params(self) -> list[Param]:
        """The trainable tensors: all but a frozen embedding table."""
        frozen = None if self.embedding.table.trainable else self.embedding.param
        return [p for _, p in self.named_tensors() if p is not frozen]

    def decayed_params(self) -> list[Param]:
        """The tensors under the L2 penalty (``Param.decay``)."""
        return [p for _, p in self.named_tensors() if p.decay]

    def zero_grad(self) -> None:
        for p in self.params():
            p.zero_grad()


class BinaryModel(Model):
    """Embedding -> LSTM -> max over time -> dropout -> dense stack -> sigmoid."""

    kind = "binary"
    config_class = BinaryModelConfig
    class_names = ("toxic",)

    def __init__(self, config: BinaryModelConfig, table: EmbeddingTable, seed: int = 0):
        rng = seeded_rng(seed)
        self.config = config
        self.embedding = EmbeddingLayer(table)
        self.input_pool = MaxOverTime() if config.pooled_input else None
        self.lstm = LSTM(table.dim, config.lstm_units, rng)
        self.time_pool = MaxOverTime()
        self.dropout = Dropout(config.dropout_rate)
        dims = (config.lstm_units, *config.dense_hidden)
        self.hidden = [
            (Dense(dims[i], dims[i + 1], rng), LeakyReLULayer(config.leaky_slope))
            for i in range(len(dims) - 1)
        ]
        self.out = Dense(dims[-1], self.output_dim, rng)
        self.out_act = SigmoidLayer()

    def forward(self, ids: np.ndarray, train: bool = False,
                rng: np.random.Generator | None = None) -> np.ndarray:
        # The masked max ignores every slot after the last real one, so the
        # LSTM stops there.
        ids = ids[:, :max(int(_real_length(ids).max()), 1)]
        mask = ids != PAD_ID
        x = self.embedding.forward(ids, train)
        if self.input_pool is not None:
            x = self.input_pool.forward(x, mask, train)[:, None]
            mask = None
        h = self.lstm.forward(x, mask, train=train)
        v = self.time_pool.forward(h, mask, train)
        v = self.dropout.forward(v, train, rng)
        for dense, act in self.hidden:
            v = act.forward(dense.forward(v, train), train)
        self._keep(train)
        return self.out_act.forward(self.out.forward(v, train), train)

    def backward(self, dp: np.ndarray) -> None:
        self._take()
        dv = self.out.backward(self.out_act.backward(dp))
        for dense, act in reversed(self.hidden):
            dv = dense.backward(act.backward(dv))
        dv = self.dropout.backward(dv)
        dh = self.time_pool.backward(dv)
        dx = self.lstm.backward(dh)
        if self.input_pool is not None:
            dx = self.input_pool.backward(dx[:, 0])
        self.embedding.backward(dx)

    def named_tensors(self) -> list[tuple[str, Param]]:
        named = (self.embedding.named_tensors("embedding")
                 + self.lstm.named_tensors("lstm"))
        for i, (dense, _) in enumerate(self.hidden):
            named += dense.named_tensors(f"hidden{i}")
        return named + self.out.named_tensors("out")


class MultiLabelModel(Model):
    """Embedding -> (conv + ReLU + pool) x N -> BiLSTM -> attention -> sigmoid."""

    kind = "multilabel"
    config_class = MultiLabelModelConfig
    class_names = LABELS

    def __init__(self, config: MultiLabelModelConfig, table: EmbeddingTable,
                 seq_len: int, seed: int = 0):
        self.post_stack_length(config, seq_len)  # raises if the stack collapses
        self.stride, self.receptive_field = self.stack_window(config)
        rng = seeded_rng(seed)
        self.config = config
        self.seq_len = seq_len
        self.embedding = EmbeddingLayer(table)
        self.blocks = []
        c_in = table.dim
        for filters, kernel in config.conv_stack:
            self.blocks.append(
                (Conv1D(kernel, c_in, filters, rng), ReLULayer(), MaxPool1D(config.pool))
            )
            c_in = filters
        self.bilstm = BiLSTM(c_in, config.bilstm_units, rng)
        feat = 2 * config.bilstm_units
        self.attention = Attention(feat, rng) if config.use_attention else None
        self.time_pool = None if config.use_attention else MaxOverTime()
        self.out = Dense(feat, self.output_dim, rng)
        self.out_act = SigmoidLayer()

    @staticmethod
    def post_stack_length(config: MultiLabelModelConfig, length: int) -> int:
        """Sequence length after the conv/pool stack; raises ConfigError if any
        stage would produce an empty sequence."""
        for filters, kernel in config.conv_stack:
            if length < kernel:
                raise ConfigError(
                    f"sequence length {length} too short for kernel {kernel}"
                )
            length = length - kernel + 1
            if length < config.pool:
                raise ConfigError(
                    f"sequence length {length} too short for pool {config.pool}"
                )
            length //= config.pool
        return length

    @staticmethod
    def stack_window(config: MultiLabelModelConfig) -> tuple[int, int]:
        """(stride, receptive field) of the conv/pool stack: its output row i
        reads input rows ``[stride * i, stride * i + receptive field)``."""
        field = 1
        for _, kernel in reversed(config.conv_stack):
            field = field * config.pool + kernel - 1
        return config.pool ** len(config.conv_stack), field

    def forward(self, ids: np.ndarray, train: bool = False,
                rng: np.random.Generator | None = None) -> np.ndarray:
        length = ids.shape[1]
        # A document's stack output rows from ceil(its real length / stride)
        # on read padding alone and are all equal: the stack runs on the
        # input rows that give rows up to the batch's first such row, which
        # is then repeated. The BiLSTM and attention still see every slot;
        # the reversed LSTM walks the shared padding tail once per batch.
        starts = -(-_real_length(ids) // self.stride)
        cut = self.stride * int(starts.max()) + self.receptive_field
        x = self.embedding.forward(ids[:, :cut], train)
        for conv, act, pool in self.blocks:
            x = pool.forward(act.forward(conv.forward(x, train), train), train)
        repeats = self.post_stack_length(self.config, length) - x.shape[1]
        x = np.concatenate([x, np.repeat(x[:, -1:], repeats, axis=1)], axis=1)
        h = self.bilstm.forward(x, starts=starts, train=train)
        if self.attention is not None:
            _, z = self.attention.forward(h, train=train)
        else:
            z = self.time_pool.forward(h, train=train)
        self._keep(train, repeats)
        return self.out_act.forward(self.out.forward(z, train), train)

    def backward(self, dp: np.ndarray) -> None:
        (repeats,) = self._take()
        dz = self.out.backward(self.out_act.backward(dp))
        if self.attention is not None:
            dh = self.attention.backward(dz)
        else:
            dh = self.time_pool.backward(dz)
        dx = self.bilstm.backward(dh)
        kept = dx.shape[1] - repeats
        dx[:, kept - 1] += dx[:, kept:].sum(axis=1)
        dx = dx[:, :kept]
        for conv, act, pool in reversed(self.blocks):
            dx = conv.backward(act.backward(pool.backward(dx)))
        self.embedding.backward(dx)

    def named_tensors(self) -> list[tuple[str, Param]]:
        named = self.embedding.named_tensors("embedding")
        for i, (conv, _, _) in enumerate(self.blocks):
            named += conv.named_tensors(f"conv{i}")
        named += self.bilstm.named_tensors("bilstm")
        if self.attention is not None:
            named += self.attention.named_tensors("attention")
        return named + self.out.named_tensors("out")


MODELS = {cls.kind: cls for cls in (BinaryModel, MultiLabelModel)}


def predict(model: Model, ids: np.ndarray) -> np.ndarray:
    """(n, output_dim) probabilities of the rows of the (n, L) id array
    ``ids``, in their order.

    The documents go through eval forwards sorted by real length, so that
    each chunk's real prefix is close to its documents' own. A chunk holds
    up to ``PREDICT_CHUNK`` documents, and stops before their count times
    its longest real length exceeds ``PREDICT_LONG_CHUNK`` x L slots.
    """
    out = np.empty((len(ids), model.output_dim))
    reals = _real_length(ids)
    order = np.argsort(reals, kind="stable")
    budget = PREDICT_LONG_CHUNK * ids.shape[1]
    counts = np.arange(1, PREDICT_CHUNK + 1)
    lo = 0
    while lo < len(ids):
        # a sorted chunk's last document is its longest, so the first k
        # documents fit while k x the k-th one's real length does
        sizes = reals[order[lo:lo + PREDICT_CHUNK]]
        hi = lo + int(np.count_nonzero(counts[:len(sizes)] * sizes <= budget))
        rows = order[lo:hi]
        out[rows] = model.forward(ids[rows])
        lo = hi
    return out


@dataclass
class TrainedModel:
    """A trained model plus everything needed to reproduce and reload it."""

    model: Model
    vocab_hash: str
    history: list[dict] = field(default_factory=list)
    train_config: TrainingConfig | None = None
    best_epoch: int = -1

    @property
    def kind(self) -> str:
        return self.model.kind


def _add_batch_gradients(model: Model, ids: np.ndarray, targets: np.ndarray,
                         rng: np.random.Generator) -> float:
    """Add the gradient of the mean loss over the batch of (B, L) ``ids``
    and (B, output_dim) ``targets`` to the model's gradient buffers and
    return the summed loss.

    The batch goes through the model in consecutive chunks of up to
    ``TRAIN_CHUNK`` documents, in its order, so that dropout draws each
    document's mask as one forward per document would.
    """
    total = 0.0
    for lo in range(0, len(ids), TRAIN_CHUNK):
        rows = slice(lo, lo + TRAIN_CHUNK)
        p = model.forward(ids[rows], train=True, rng=rng)
        loss, dp = bce_loss(p, targets[rows])
        model.backward(dp / len(ids))
        total += loss
    return total


def train(model, train_set, val_set, config: TrainingConfig,
          vocab_hash: str = "") -> TrainedModel:
    """Mini-batch Adam with seeded shuffling and best-validation checkpointing.

    ``train_set`` and ``val_set`` are each an (ids, targets) pair: an (n, L)
    id array and its (n, output_dim) target array. Deterministic given
    (seed, data, config): the shuffle and dropout draws share one generator
    consumed in a fixed order.
    """
    (train_ids, train_targets), (val_ids, val_targets) = train_set, val_set
    if not len(train_ids) or not len(val_ids):
        raise DataError("training requires non-empty train and validation folds")
    rng = seeded_rng(config.seed)
    opt = Adam(model.params(), config.learning_rate)
    weights = model.decayed_params()

    def validation_loss() -> float:
        total, _ = bce_loss(predict(model, val_ids), val_targets)
        return total / len(val_ids) + l2_penalty((w.value for w in weights),
                                                 config.l2_lambda)

    history: list[dict] = []
    best_loss = np.inf
    best_state: list[np.ndarray] = []  # allocated at the first best
    best_epoch = -1
    bad_epochs = 0
    for epoch in range(config.epochs):
        order = rng.permutation(len(train_ids))
        epoch_loss = 0.0
        for start in range(0, len(order), config.batch_size):
            batch = order[start:start + config.batch_size]
            model.zero_grad()
            batch_loss = _add_batch_gradients(model, train_ids[batch],
                                              train_targets[batch], rng)
            add_l2_gradients(weights, config.l2_lambda)
            opt.step()
            penalty = l2_penalty((w.value for w in weights), config.l2_lambda)
            epoch_loss += batch_loss + penalty * len(batch)
        train_loss = epoch_loss / len(train_ids)
        val_loss = validation_loss()
        if not (np.isfinite(train_loss) and np.isfinite(val_loss)):
            raise NumericError(f"non-finite loss at epoch {epoch}")
        history.append({"epoch": epoch, "train_loss": float(train_loss),
                        "val_loss": float(val_loss)})
        if val_loss < best_loss:
            best_loss = val_loss
            best_state = best_state or [np.empty_like(p.value) for p in opt.params]
            for saved, p in zip(best_state, opt.params):
                np.copyto(saved, p.value)
            best_epoch = epoch
            bad_epochs = 0
        else:
            bad_epochs += 1
            if bad_epochs >= config.patience:
                break

    for p, saved in zip(opt.params, best_state):
        p.value[...] = saved
    return TrainedModel(model=model, vocab_hash=vocab_hash, history=history,
                        train_config=config, best_epoch=best_epoch)


def route(p_toxic: float, label_probs, tau_binary: float = 0.5,
          tau_label: float = 0.5) -> list[str]:
    """Two-stage decision rule.

    Below the binary threshold the verdict is Non-toxic and ``label_probs``
    is not read (it may be None). Otherwise: all labels at or above the
    label threshold, or the argmax label (first-index tie-break) when none
    clears it.
    """
    if p_toxic < tau_binary:
        return ["Non-toxic"]
    probs = np.asarray(label_probs, dtype=np.float64)
    chosen = [name for name, p in zip(LABELS, probs) if p >= tau_label]
    if not chosen:
        chosen = [LABELS[int(np.argmax(probs))]]
    return chosen


@dataclass
class TwoStagePipeline:
    """End-to-end classifier: preprocess, tokenize, gate, tag."""

    binary: BinaryModel
    multilabel: MultiLabelModel
    vocab: Vocabulary
    preprocess_config: PreprocessConfig
    max_len: int
    tau_binary: float = 0.5
    tau_label: float = 0.5

    def classify(self, text: str) -> dict:
        return self.classify_many([text])[0]

    def classify_many(self, texts) -> list[dict]:
        """One ``{"labels", "p_toxic", "label_probs"}`` dict per text, in
        order. The gate scores every text in one ``predict``; the tagger
        scores those that ``route`` does not call Non-toxic in a second, and
        the others get ``label_probs`` None."""
        ids = encode([preprocess(text, self.preprocess_config) for text in texts],
                     self.vocab, self.max_len)
        p_toxic = predict(self.binary, ids)[:, 0].tolist()
        passed = [i for i, p in enumerate(p_toxic) if not p < self.tau_binary]
        tagged = dict(zip(passed, predict(self.multilabel, ids[passed]).tolist()))
        return [{"labels": route(p, tagged.get(i), self.tau_binary, self.tau_label),
                 "p_toxic": p, "label_probs": tagged.get(i)}
                for i, p in enumerate(p_toxic)]


def _header_dict(trained: TrainedModel) -> dict:
    model = trained.model
    table = model.embedding.table
    return {
        "format_version": CHECKPOINT_VERSION,
        "kind": model.kind,
        "class_order": list(model.class_names),
        "model_config": asdict(model.config),
        "train_config": asdict(trained.train_config) if trained.train_config else None,
        "embedding": {
            "vocab_size": table.vocab_size,
            "dim": table.dim,
            "trainable": table.trainable,
            "source": table.source,
        },
        "seq_len": getattr(model, "seq_len", None),
        "vocab_hash": trained.vocab_hash,
        "best_epoch": trained.best_epoch,
        "history": [[h["epoch"], h["train_loss"], h["val_loss"]]
                    for h in trained.history],
        "tensors": [{"name": name, "shape": list(p.value.shape)}
                    for name, p in model.named_tensors()],
    }


def _tensor_shapes(config, vocab_size: int, dim: int) -> list[tuple[str, tuple]]:
    """Names and shapes of a model's tensors in ``named_tensors`` order,
    worked out from its sizes without building it."""
    def lstm(prefix, d_in, units):
        return [(f"{prefix}.w_x", (4 * units, d_in)),
                (f"{prefix}.w_h", (4 * units, units)), (f"{prefix}.b", (4 * units,))]

    def dense(prefix, d_in, d_out):
        return [(f"{prefix}.w", (d_out, d_in)), (f"{prefix}.b", (d_out,))]

    shapes = [("embedding.table", (vocab_size, dim))]
    if isinstance(config, BinaryModelConfig):
        shapes += lstm("lstm", dim, config.lstm_units)
        dims = (config.lstm_units, *config.dense_hidden)
        for i in range(len(dims) - 1):
            shapes += dense(f"hidden{i}", dims[i], dims[i + 1])
        return shapes + dense("out", dims[-1], 1)
    c_in = dim
    for i, (filters, kernel) in enumerate(config.conv_stack):
        shapes += [(f"conv{i}.filters", (kernel, c_in, filters)),
                   (f"conv{i}.b", (filters,))]
        c_in = filters
    units = config.bilstm_units
    shapes += lstm("bilstm.fwd", c_in, units) + lstm("bilstm.bwd", c_in, units)
    if config.use_attention:
        shapes += [("attention.w", (2 * units,)), ("attention.b", (1,))]
    return shapes + dense("out", 2 * units, NUM_LABELS)


def _non_finite(value: np.ndarray) -> bool:
    """Whether ``value`` holds a NaN or an infinity. A finite sum means
    finite entries, so only a sum that is not (or that overflowed) costs
    the elementwise test and its boolean array."""
    with np.errstate(over="ignore", invalid="ignore"):
        total = value.sum()
    return not np.isfinite(total) and not np.isfinite(value).all()


def _check_pad_row(table: np.ndarray, path) -> None:
    """Save and load both refuse an embedding table whose PAD row is not
    zero (``-0.0`` is zero), so they accept the same checkpoints."""
    if table[PAD_ID].any():
        raise CheckpointError(
            f"checkpoint {path}: tensor embedding.table has a nonzero PAD row")


def save_model(trained: TrainedModel, path) -> None:
    """Versioned binary container: magic, JSON header, fp64 tensors, SHA-256.

    Each tensor is hashed and written from its own memory, so saving holds
    no copy of the checkpoint. A tensor that holds NaN or inf raises
    NumericError, and a nonzero PAD row CheckpointError, before the file is
    opened.
    """
    for name, p in trained.model.named_tensors():
        if _non_finite(p.value):
            raise NumericError(
                f"cannot save checkpoint {path}: tensor {name} holds a non-finite value")
    _check_pad_row(trained.model.embedding.param.value, path)
    header = json.dumps(_header_dict(trained), sort_keys=True).encode("utf-8")
    tensors = (np.ascontiguousarray(p.value, dtype="<f8")
               for _, p in trained.model.named_tensors())
    digest = hashlib.sha256()
    with open(path, "wb") as fh:
        for part in itertools.chain(
                [CHECKPOINT_MAGIC, struct.pack("<I", len(header)), header], tensors):
            digest.update(part)
            fh.write(part)
        fh.write(digest.digest())


def load_model(path, expect_kind: str | None = None) -> TrainedModel:
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    if len(data) < len(CHECKPOINT_MAGIC) + 4 + 32:
        raise CheckpointError(f"checkpoint {path} is truncated")
    # One copy of the file: the body is a view and tensors are read in place.
    body = memoryview(data)[:-32]
    if hashlib.sha256(body).digest() != data[-32:]:
        raise CheckpointError(f"checkpoint {path} failed its checksum")
    if body[: len(CHECKPOINT_MAGIC)] != CHECKPOINT_MAGIC:
        raise CheckpointError(f"checkpoint {path} has a bad magic header")
    try:
        return _decode_checkpoint(body, path, expect_kind)
    except (KeyError, TypeError, ValueError, ConfigError) as exc:
        # ValueError includes UnicodeDecodeError and json.JSONDecodeError
        raise CheckpointError(
            f"checkpoint {path} has a malformed header: {exc!r}") from exc


def _decode_checkpoint(body: memoryview, path, expect_kind: str | None) -> TrainedModel:
    offset = len(CHECKPOINT_MAGIC)
    (header_len,) = struct.unpack_from("<I", body, offset)
    offset += 4
    header = json.loads(bytes(body[offset:offset + header_len]).decode("utf-8"))
    offset += header_len
    if header["format_version"] != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"unsupported checkpoint version {header['format_version']}"
        )
    kind = header["kind"]
    if expect_kind is not None and kind != expect_kind:
        raise CheckpointError(
            f"checkpoint {path} holds a {kind!r} model, expected {expect_kind!r}"
        )

    if kind not in MODELS:
        raise CheckpointError(f"unknown model kind {kind!r}")
    emb = header["embedding"]
    config = MODELS[kind].config_class.from_dict(header["model_config"])
    # Check the header's sizes against its tensor list, and the tensor list
    # against the bytes in the file, before a size is used to allocate.
    expected = _tensor_shapes(config, emb["vocab_size"], emb["dim"])
    declared = [(meta["name"], tuple(meta["shape"])) for meta in header["tensors"]]
    for have, want in itertools.zip_longest(declared, expected):
        if have != want:
            raise CheckpointError(
                f"checkpoint {path}: tensor mismatch: file has {have}, its "
                f"embedding and model_config sizes give {want}"
            )
    nbytes = 8 * sum(math.prod(shape) for _, shape in declared)
    left = len(body) - offset
    if nbytes > left:
        raise CheckpointError(
            f"checkpoint {path} is truncated: {nbytes} tensor bytes declared, "
            f"{left} present")
    if nbytes < left:
        raise CheckpointError(
            f"checkpoint {path} has {left - nbytes} trailing bytes")

    table = EmbeddingTable(np.zeros((emb["vocab_size"], emb["dim"])),
                           trainable=emb["trainable"], source=emb["source"])
    if kind == "binary":
        model = BinaryModel(config, table, seed=0)
    else:
        model = MultiLabelModel(config, table, seq_len=int(header["seq_len"]),
                                seed=0)
    for name, param in model.named_tensors():
        param.value[...] = np.frombuffer(
            body, dtype="<f8", count=param.value.size, offset=offset
        ).reshape(param.value.shape)
        offset += param.value.size * 8
        if _non_finite(param.value):
            raise CheckpointError(
                f"checkpoint {path}: tensor {name} holds a non-finite value")
    _check_pad_row(table.matrix, path)

    train_config = None
    if header["train_config"]:
        train_config = TrainingConfig(**header["train_config"])
    history = [{"epoch": e, "train_loss": tl, "val_loss": vl}
               for e, tl, vl in header["history"]]
    return TrainedModel(model=model, vocab_hash=header["vocab_hash"],
                        history=history, train_config=train_config,
                        best_epoch=header["best_epoch"])
