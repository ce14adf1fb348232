"""Run configuration: one dotted-key file drives every command.

Syntax: UTF-8 text, one ``key = value`` per line, ``#`` comments. Values are
parsed per key by the schema below; unknown keys are rejected so typos fail
fast. Command-line ``--set key=value`` pairs override file values.
"""

from __future__ import annotations

import math
import typing
from dataclasses import fields
from functools import partialmethod
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
from .explain import BINARY_TOP_K, DEFAULT_SAMPLES, MULTILABEL_TOP_K
from .models import BinaryModelConfig, MultiLabelModelConfig, TrainingConfig, from_mapping


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


def _parse_probability(text: str) -> float:
    value = _parse_float(text)
    if not 0.0 <= value <= 1.0:
        raise ValueError("must be in [0, 1]")
    return value


def _parse_int_tuple(text: str) -> tuple[int, ...]:
    parts = [p.strip() for p in text.split(",") if p.strip()]
    return tuple(int(p) for p in parts)


def _parse_opt_str_tuple(text: str):
    # "none" (or empty) disables the column list entirely
    if text.strip().lower() in ("", "none"):
        return None
    return tuple(p.strip() for p in text.split(",") if p.strip())


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


# key -> (default value, parser applied to file/override text). The keys of
# the typed configs' fields are added from SECTIONS below.
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
    "thresholds.binary": (0.5, _parse_probability),
    "thresholds.label": (0.5, _parse_probability),
    "explain.samples": (DEFAULT_SAMPLES, _parse_int),
    "explain.features.binary": (BINARY_TOP_K, _parse_int),
    "explain.features.multilabel": (MULTILABEL_TOP_K, _parse_int),
    "output.dir": ("out", _parse_str),
    "seed": (0, _parse_nonnegative_int),
}

# Sections read into typed configs: section -> (class, {field: key name} where
# the key is not ``section.field``). Each key takes its field's default and its
# annotation's parser; ``seed`` fills every ``seed`` field.
SECTIONS = {
    "binary": (BinaryModelConfig, {"dropout_rate": "dropout"}),
    "multilabel": (MultiLabelModelConfig, {}),
    "train": (TrainingConfig, {}),
    "split": (SplitSpec, {"train_fraction": "train", "val_fraction": "val",
                          "test_fraction": "test"}),
}
PARSERS = {bool: _parse_bool, int: _parse_int, float: _parse_float,
           tuple[int, ...]: _parse_int_tuple, tuple[tuple[int, int], ...]: _parse_conv_stack}


def _section_keys(section: str):
    """(field, annotation, config key) of each field of the section's class."""
    cls, keys = SECTIONS[section]
    hints = typing.get_type_hints(cls)
    return [(f, hints[f.name],
             "seed" if f.name == "seed" else f"{section}.{keys.get(f.name, f.name)}")
            for f in fields(cls)]


SCHEMA.update({key: (f.default, PARSERS[annotation])
               for section in SECTIONS
               for f, annotation, key in _section_keys(section) if key != "seed"})


class RunConfig:
    """Validated view over the flat key-value map, with builders for the
    typed configs each module expects."""

    def __init__(self):
        self.values = {k: default for k, (default, _) in SCHEMA.items()}

    def __getitem__(self, key: str):
        if key not in SCHEMA:
            raise ConfigError(f"unknown config key {key!r}")
        return self.values[key]

    def set_text(self, key: str, text: str) -> None:
        if key not in SCHEMA:
            raise ConfigError(f"unknown config key {key!r}")
        if "\0" in text:  # open() refuses a path that holds one
            raise ConfigError(f"bad value for {key}: {text!r} holds a NUL character")
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

    def section(self, name: str):
        """The typed config of section ``name``, read from its keys."""
        return from_mapping(SECTIONS[name][0],
                            {f.name: self[key] for f, _, key in _section_keys(name)})

    split_spec = partialmethod(section, "split")
    binary_model_config = partialmethod(section, "binary")
    multilabel_model_config = partialmethod(section, "multilabel")
    training_config = partialmethod(section, "train")

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
