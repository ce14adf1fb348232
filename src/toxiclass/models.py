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

from .corpus import LABELS, NUM_LABELS, PAD_ID, PreprocessConfig, TokenSequence, Vocabulary, preprocess, tokenize
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
from .neural.layers import Layer
from .neural.losses import add_l2_gradients, bce_loss, l2_penalty

CHECKPOINT_MAGIC = b"TXCKPT01"
CHECKPOINT_VERSION = 1
# Documents per batched forward, in ``predict`` and in each training
# mini-batch: the backward caches of one chunk are what the layers hold, so
# this bounds peak memory whatever the number of documents or the batch size.
PREDICT_CHUNK = 8


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

    def validate(self) -> None:
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.learning_rate < 0.0:
            raise ConfigError(f"learning_rate must be >= 0, got {self.learning_rate}")
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")


def desk_binary_config() -> BinaryModelConfig:
    """Small sizes for fast desk-scale runs and tests."""
    return BinaryModelConfig(lstm_units=8, dense_hidden=(8,))


def desk_multilabel_config() -> MultiLabelModelConfig:
    return MultiLabelModelConfig(conv_stack=((16, 4), (12, 3), (8, 2)), bilstm_units=8)


def _real_length(mask: np.ndarray) -> np.ndarray:
    """Per row of ``mask``: the slots up to and including its last real one."""
    valid = np.asarray(mask) > 0.5
    return np.where(valid.any(axis=-1),
                    valid.shape[-1] - valid[..., ::-1].argmax(axis=-1), 0)


def _stack(seqs) -> tuple[np.ndarray, np.ndarray, int]:
    """A batch's (B, L) ids and mask, and the length of its real prefix:
    the slots up to the last real one of any row."""
    mask = np.stack([s.mask for s in seqs])
    return (np.stack([s.input_ids for s in seqs]), mask,
            int(_real_length(mask).max()))


class EmbeddingLayer(Layer):
    """Lookup with masking; PAD row pinned to zero and never updated."""

    def __init__(self, table: EmbeddingTable):
        self.table = table
        self.param = Param("table", table.matrix)
        self._ids = None
        self._mask = None

    def forward(self, ids: np.ndarray, mask: np.ndarray) -> np.ndarray:
        self._ids = ids
        self._mask = mask
        return self.param.value[ids] * mask[..., None]

    def backward(self, dx: np.ndarray) -> None:
        if not self.table.trainable:
            return
        np.add.at(self.param.grad, self._ids, dx * self._mask[..., None])
        self.param.grad[PAD_ID, :] = 0.0


class Model:
    """What both models derive from ``named_tensors()``, the one list of
    their tensors that each subclass writes. Checkpoints, Adam and the L2
    penalty all take its order.

    ``forward(seqs, train, rng)`` maps a list of B equal-length
    ``TokenSequence`` to (B, output_dim) probabilities; ``backward`` takes
    their (B, output_dim) gradient.
    """

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
    output_dim = 1

    def __init__(self, config: BinaryModelConfig, table: EmbeddingTable, seed: int = 0):
        rng = np.random.default_rng(np.random.PCG64(seed))
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
        self.out = Dense(dims[-1], 1, rng)
        self.out_act = SigmoidLayer()

    def forward(self, seqs, train: bool = False,
                rng: np.random.Generator | None = None) -> np.ndarray:
        ids, mask, real = _stack(seqs)
        # The masked max ignores every slot after the last real one, so the
        # LSTM stops there.
        ids, mask = ids[:, :max(real, 1)], mask[:, :max(real, 1)]
        x = self.embedding.forward(ids, mask)
        if self.input_pool is not None:
            x = self.input_pool.forward(x, mask)[:, None]
            mask = np.ones((len(x), 1))
        h = self.lstm.forward(x, mask)
        v = self.time_pool.forward(h, mask)
        v = self.dropout.forward(v, train, rng)
        for dense, act in self.hidden:
            v = act.forward(dense.forward(v))
        return self.out_act.forward(self.out.forward(v))

    def backward(self, dp: np.ndarray) -> None:
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
    output_dim = NUM_LABELS

    def __init__(self, config: MultiLabelModelConfig, table: EmbeddingTable,
                 seq_len: int, seed: int = 0):
        self.post_stack_length(config, seq_len)  # raises if the stack collapses
        self.stride, self.receptive_field = self.stack_window(config)
        rng = np.random.default_rng(np.random.PCG64(seed))
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
        self.out = Dense(feat, NUM_LABELS, rng)
        self.out_act = SigmoidLayer()
        self.last_alpha: np.ndarray | None = None  # (B, slots), last forward's
        self._repeats = 0  # stack output rows the last forward repeated

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

    def forward(self, seqs, train: bool = False,
                rng: np.random.Generator | None = None) -> np.ndarray:
        ids, mask, real = _stack(seqs)
        length = ids.shape[1]
        # Stack output rows from ceil(real / stride) on read padding alone
        # and are all equal: the stack runs on the input rows that give rows
        # up to the first of them, which is then repeated. The BiLSTM and
        # attention still see every slot.
        cut = self.stride * -(-real // self.stride) + self.receptive_field
        x = self.embedding.forward(ids[:, :cut], mask[:, :cut])
        for conv, act, pool in self.blocks:
            x = pool.forward(act.forward(conv.forward(x)))
        self._repeats = self.post_stack_length(self.config, length) - x.shape[1]
        x = np.concatenate([x, np.repeat(x[:, -1:], self._repeats, axis=1)], axis=1)
        h = self.bilstm.forward(x)
        if self.attention is not None:
            alpha, z = self.attention.forward(h)
            self.last_alpha = alpha
        else:
            z = self.time_pool.forward(h)
        return self.out_act.forward(self.out.forward(z))

    def backward(self, dp: np.ndarray) -> None:
        dz = self.out.backward(self.out_act.backward(dp))
        if self.attention is not None:
            dh = self.attention.backward(dz)
        else:
            dh = self.time_pool.backward(dz)
        dx = self.bilstm.backward(dh)
        kept = dx.shape[1] - self._repeats
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


def predict(model: Model, seqs) -> np.ndarray:
    """(n, output_dim) probabilities of ``seqs``, in their order.

    The documents go through the model sorted by real length,
    ``PREDICT_CHUNK`` at a time, so that each batch's real prefix is close
    to its documents' own.
    """
    seqs = list(seqs)
    out = np.empty((len(seqs), model.output_dim))
    if seqs:
        order = np.argsort(_real_length(np.stack([s.mask for s in seqs])),
                           kind="stable")
        for lo in range(0, len(seqs), PREDICT_CHUNK):
            rows = order[lo:lo + PREDICT_CHUNK]
            out[rows] = model.forward([seqs[i] for i in rows])
    return out


def predict_binary(model: BinaryModel, seq: TokenSequence) -> float:
    """Probability of the toxic class, in (0, 1)."""
    return float(predict(model, [seq])[0, 0])


def predict_multilabel(model: MultiLabelModel, seq: TokenSequence) -> np.ndarray:
    """Six per-class probabilities in the fixed label order."""
    return predict(model, [seq])[0]


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


def _add_batch_gradients(model: Model, batch, rng: np.random.Generator) -> float:
    """Add the gradient of the mean loss over ``batch``, a list of
    (TokenSequence, target vector), to the model's gradient buffers and
    return the summed loss.

    The batch goes through the model in consecutive chunks of up to
    ``PREDICT_CHUNK`` documents, in its order, so that dropout draws each
    document's mask as one forward per document would.
    """
    total = 0.0
    for lo in range(0, len(batch), PREDICT_CHUNK):
        rows = batch[lo:lo + PREDICT_CHUNK]
        p = model.forward([seq for seq, _ in rows], train=True, rng=rng)
        loss, dp = bce_loss(p, np.stack([y for _, y in rows]))
        model.backward(dp / len(batch))
        total += loss
    return total


def train(model, train_set, val_set, config: TrainingConfig,
          vocab_hash: str = "") -> TrainedModel:
    """Mini-batch Adam with seeded shuffling and best-validation checkpointing.

    ``train_set`` and ``val_set`` are lists of (TokenSequence, target vector).
    Deterministic given (seed, data, config): the shuffle and dropout draws
    share one generator consumed in a fixed order.
    """
    if not train_set or not val_set:
        raise DataError("training requires non-empty train and validation folds")
    config.validate()
    rng = np.random.default_rng(np.random.PCG64(config.seed))
    opt = Adam(model.params(), config.learning_rate)
    weights = model.decayed_params()

    def validation_loss() -> float:
        total, _ = bce_loss(predict(model, [seq for seq, _ in val_set]),
                            np.stack([y for _, y in val_set]))
        return total / len(val_set) + l2_penalty((w.value for w in weights),
                                                 config.l2_lambda)

    history: list[dict] = []
    best_loss = np.inf
    best_state = None
    best_epoch = -1
    bad_epochs = 0
    for epoch in range(config.epochs):
        order = rng.permutation(len(train_set))
        epoch_loss = 0.0
        for start in range(0, len(order), config.batch_size):
            batch = order[start:start + config.batch_size]
            model.zero_grad()
            batch_loss = _add_batch_gradients(model, [train_set[i] for i in batch],
                                              rng)
            add_l2_gradients(weights, config.l2_lambda)
            opt.step()
            penalty = l2_penalty((w.value for w in weights), config.l2_lambda)
            epoch_loss += batch_loss + penalty * len(batch)
        train_loss = epoch_loss / len(train_set)
        val_loss = validation_loss()
        if not (np.isfinite(train_loss) and np.isfinite(val_loss)):
            raise NumericError(f"non-finite loss at epoch {epoch}")
        history.append({"epoch": epoch, "train_loss": float(train_loss),
                        "val_loss": float(val_loss)})
        if val_loss < best_loss:
            best_loss = val_loss
            best_state = [p.value.copy() for p in opt.params]
            best_epoch = epoch
            bad_epochs = 0
        else:
            bad_epochs += 1
            if bad_epochs >= config.patience:
                break

    if best_state is not None:
        for p, value in zip(opt.params, best_state):
            p.value[...] = value
    return TrainedModel(model=model, vocab_hash=vocab_hash, history=history,
                        train_config=config, best_epoch=best_epoch)


def route(p_toxic: float, label_probs, tau_binary: float = 0.5,
          tau_label: float = 0.5, class_names=LABELS) -> list[str]:
    """Two-stage decision rule.

    Below the binary threshold the verdict is Non-toxic and ``label_probs``
    is never consulted (pass a callable to keep stage 2 lazy). Otherwise:
    all labels at or above the label threshold, or the argmax label
    (first-index tie-break) when none clears it.
    """
    if p_toxic < tau_binary:
        return ["Non-toxic"]
    probs = np.asarray(label_probs() if callable(label_probs) else label_probs,
                       dtype=np.float64)
    chosen = [name for name, p in zip(class_names, probs) if p >= tau_label]
    if not chosen:
        chosen = [class_names[int(np.argmax(probs))]]
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
        seq = tokenize(preprocess(text, self.preprocess_config), self.vocab,
                       self.max_len)
        p_toxic = predict_binary(self.binary, seq)
        label_probs: list[float] | None = None

        def stage2() -> np.ndarray:
            nonlocal label_probs
            probs = predict_multilabel(self.multilabel, seq)
            label_probs = [float(v) for v in probs]
            return probs

        labels = route(p_toxic, stage2, self.tau_binary, self.tau_label)
        return {"labels": labels, "p_toxic": p_toxic, "label_probs": label_probs}


def _header_dict(trained: TrainedModel) -> dict:
    model = trained.model
    table = model.embedding.table
    return {
        "format_version": CHECKPOINT_VERSION,
        "kind": model.kind,
        "class_order": list(LABELS) if model.kind == "multilabel" else ["toxic"],
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


def save_model(trained: TrainedModel, path) -> None:
    """Versioned binary container: magic, JSON header, fp64 tensors, SHA-256.

    Each tensor is hashed and written from its own memory, so saving holds
    no copy of the checkpoint.
    """
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

    emb = header["embedding"]
    if kind == "binary":
        config = BinaryModelConfig.from_dict(header["model_config"])
    elif kind == "multilabel":
        config = MultiLabelModelConfig.from_dict(header["model_config"])
    else:
        raise CheckpointError(f"unknown model kind {kind!r}")
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
    for _, param in model.named_tensors():
        param.value[...] = np.frombuffer(
            body, dtype="<f8", count=param.value.size, offset=offset
        ).reshape(param.value.shape)
        offset += param.value.size * 8

    train_config = None
    if header["train_config"]:
        train_config = TrainingConfig(**header["train_config"])
    history = [{"epoch": e, "train_loss": tl, "val_loss": vl}
               for e, tl, vl in header["history"]]
    return TrainedModel(model=model, vocab_hash=header["vocab_hash"],
                        history=history, train_config=train_config,
                        best_epoch=header["best_epoch"])
