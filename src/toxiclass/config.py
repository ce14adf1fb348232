"""Run configuration: one dotted-key file drives every command.

Syntax: UTF-8 text, one ``key = value`` per line, ``#`` comments. Values are
parsed per key by the schema below; unknown keys are rejected so typos fail
fast. Command-line ``--set key=value`` pairs override file values.
"""

from __future__ import annotations

import math
from pathlib import Path

from .corpus import (
    DEFAULT_MAX_LEN,
    LABELS,
    FormatSpec,
    PreprocessConfig,
    SplitSpec,
    load_stopwords,
    read_lines,
)
from .embedding import DEFAULT_DIM
from .errors import ConfigError
from .models import BinaryModelConfig, MultiLabelModelConfig, TrainingConfig


def _parse_bool(text: str) -> bool:
    t = text.strip().lower()
    if t in ("true", "1", "yes", "on"):
        return True
    if t in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse_str(text: str) -> str:
    return text.strip()


def _parse_delimiter(text: str) -> str:
    # values are stripped, so a tab is written as the two characters \t
    t = text.strip()
    return "\t" if t == "\\t" else t


def _parse_opt_str(text: str):
    t = text.strip()
    return t if t and t.lower() != "none" else None


def _parse_int(text: str) -> int:
    return int(text.strip())


def _parse_nonnegative_int(text: str) -> int:
    value = _parse_int(text)
    if value < 0:
        raise ValueError("must be >= 0")
    return value


def _parse_float(text: str) -> float:
    value = float(text.strip())
    if not math.isfinite(value):
        raise ValueError("not a finite number")
    return value


def _parse_int_tuple(text: str) -> tuple[int, ...]:
    parts = [p.strip() for p in text.split(",") if p.strip()]
    return tuple(int(p) for p in parts)


def _parse_str_tuple(text: str) -> tuple[str, ...]:
    return tuple(p.strip() for p in text.split(",") if p.strip())


def _parse_opt_str_tuple(text: str):
    # "none" (or empty) disables the column list entirely
    if text.strip().lower() in ("", "none"):
        return None
    return _parse_str_tuple(text)


def _parse_conv_stack(text: str) -> tuple[tuple[int, int], ...]:
    """``512x4,256x3,128x2`` -> ((512, 4), (256, 3), (128, 2))."""
    stack = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        filters, _, kernel = part.partition("x")
        stack.append((int(filters), int(kernel)))
    if not stack:
        raise ValueError("empty conv stack")
    return tuple(stack)


# key -> (default value, parser applied to file/override text)
SCHEMA = {
    "data.path": (None, _parse_opt_str),
    "data.format": ("csv", _parse_str),
    "data.text_field": ("text", _parse_str),
    "data.toxic_field": (None, _parse_opt_str),
    "data.label_fields": (LABELS, _parse_opt_str_tuple),
    "data.id_field": (None, _parse_opt_str),
    "data.delimiter": (",", _parse_delimiter),
    "stopwords.path": (None, _parse_opt_str),
    "preprocess.remove_urls": (True, _parse_bool),
    "preprocess.remove_punctuation": (True, _parse_bool),
    "preprocess.remove_emoticons": (True, _parse_bool),
    "vocab.max_size": (50_000, _parse_int),
    "vocab.min_freq": (1, _parse_int),
    "tokenize.max_len": (DEFAULT_MAX_LEN, _parse_int),
    "embedding.dim": (DEFAULT_DIM, _parse_int),
    "embedding.path": (None, _parse_opt_str),
    "embedding.trainable": (True, _parse_bool),
    "binary.lstm_units": (128, _parse_int),
    "binary.dense_hidden": ((128, 64), _parse_int_tuple),
    "binary.dropout": (0.3, _parse_float),
    "binary.leaky_slope": (0.01, _parse_float),
    "binary.pooled_input": (False, _parse_bool),
    "multilabel.conv_stack": (((512, 4), (256, 3), (128, 2)), _parse_conv_stack),
    "multilabel.pool": (2, _parse_int),
    "multilabel.bilstm_units": (128, _parse_int),
    "multilabel.use_attention": (True, _parse_bool),
    "train.batch_size": (16, _parse_int),
    "train.learning_rate": (1e-5, _parse_float),
    "train.epochs": (10, _parse_int),
    "train.l2_lambda": (1e-4, _parse_float),
    "train.patience": (10, _parse_int),
    "split.train": (0.60, _parse_float),
    "split.val": (0.24, _parse_float),
    "split.test": (0.16, _parse_float),
    "thresholds.binary": (0.5, _parse_float),
    "thresholds.label": (0.5, _parse_float),
    "explain.samples": (1000, _parse_int),
    "explain.features.binary": (6, _parse_int),
    "explain.features.multilabel": (10, _parse_int),
    "output.dir": ("out", _parse_str),
    "seed": (0, _parse_nonnegative_int),
}


class RunConfig:
    """Validated view over the flat key-value map, with builders for the
    typed configs each module expects."""

    def __init__(self, values: dict | None = None):
        self.values = {k: default for k, (default, _) in SCHEMA.items()}
        if values:
            for k, v in values.items():
                if k not in SCHEMA:
                    raise ConfigError(f"unknown config key {k!r}")
                self.values[k] = v

    def __getitem__(self, key: str):
        if key not in SCHEMA:
            raise ConfigError(f"unknown config key {key!r}")
        return self.values[key]

    def set_text(self, key: str, text: str) -> None:
        if key not in SCHEMA:
            raise ConfigError(f"unknown config key {key!r}")
        _, parser = SCHEMA[key]
        try:
            self.values[key] = parser(text)
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"bad value for {key}: {text!r} ({exc})") from exc

    # builders -----------------------------------------------------------

    def preprocess_config(self) -> PreprocessConfig:
        stopwords = frozenset()
        if self["stopwords.path"]:
            stopwords = load_stopwords(self["stopwords.path"])
        return PreprocessConfig(
            stopwords=stopwords,
            remove_urls=self["preprocess.remove_urls"],
            remove_punctuation=self["preprocess.remove_punctuation"],
            remove_emoticons=self["preprocess.remove_emoticons"],
        )

    def format_spec(self) -> FormatSpec:
        fields = self["data.label_fields"]
        return FormatSpec(
            kind=self["data.format"],
            text_field=self["data.text_field"],
            toxic_field=self["data.toxic_field"],
            label_fields=tuple(fields) if fields else None,
            id_field=self["data.id_field"],
            delimiter=self["data.delimiter"],
        )

    def split_spec(self) -> SplitSpec:
        return SplitSpec(
            train_fraction=self["split.train"],
            val_fraction=self["split.val"],
            test_fraction=self["split.test"],
            seed=self["seed"],
        )

    def binary_model_config(self) -> BinaryModelConfig:
        return BinaryModelConfig(
            lstm_units=self["binary.lstm_units"],
            dense_hidden=tuple(self["binary.dense_hidden"]),
            dropout_rate=self["binary.dropout"],
            leaky_slope=self["binary.leaky_slope"],
            pooled_input=self["binary.pooled_input"],
        )

    def multilabel_model_config(self) -> MultiLabelModelConfig:
        return MultiLabelModelConfig(
            conv_stack=tuple(self["multilabel.conv_stack"]),
            pool=self["multilabel.pool"],
            bilstm_units=self["multilabel.bilstm_units"],
            use_attention=self["multilabel.use_attention"],
        )

    def training_config(self) -> TrainingConfig:
        cfg = TrainingConfig(
            batch_size=self["train.batch_size"],
            learning_rate=self["train.learning_rate"],
            epochs=self["train.epochs"],
            seed=self["seed"],
            l2_lambda=self["train.l2_lambda"],
            patience=self["train.patience"],
        )
        cfg.validate()
        return cfg

    def output_dir(self) -> Path:
        return Path(self["output.dir"])


def load_config(path=None, overrides=()) -> RunConfig:
    """Parse the config file (optional) and apply ``key=value`` overrides."""
    cfg = RunConfig()
    if path is not None:
        for lineno, raw in read_lines(path, "config file", ConfigError):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, eq, value = line.partition("=")
            if not eq:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
            cfg.set_text(key.strip(), value)
    for item in overrides:
        key, eq, value = item.partition("=")
        if not eq:
            raise ConfigError(f"override must look like key=value, got {item!r}")
        cfg.set_text(key.strip(), value)
    return cfg
