"""Helpers shared by more than one test module."""

import hashlib
import json
import os
import struct

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

from toxiclass import models as M
from toxiclass.corpus import LABELS

# ``HYPOTHESIS_PROFILE=ci`` draws the same examples on every run and keeps no
# example database, so a property that fails in CI fails the same way when
# run locally with that profile. Each test keeps its own example count and
# deadline.
settings.register_profile("ci", derandomize=True, database=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


# Dataset files for the ingest and prepare properties: any bytes, and joins of
# pieces of CSV and JSONL files, well and badly formed (headers, separators,
# quotes, JSON values and non-UTF-8 bytes).
DATA_PIECES = [b"id,text,toxic\n", ",".join(LABELS).encode() + b"\n", b",", b"\n",
               b"\r\n", b'"', b"1", b"0", b"yes", b"x y", b"\x00", b"\xff", b"\xc3",
               b"\xc3\xa9", b'{"text": "a", "toxic": 1, "id": 2}', b"{", b"}", b"[",
               b"]", b"null", b'"toxic": ', b'"text": ', b'"vulgar": 1, ', b"3.5"]
DATASET_BYTES = st.one_of(st.binary(max_size=60),
                          st.lists(st.sampled_from(DATA_PIECES), max_size=16).map(b"".join))


def desk_binary_config() -> M.BinaryModelConfig:
    """Small sizes for fast desk-scale runs and tests."""
    return M.BinaryModelConfig(lstm_units=8, dense_hidden=(8,))


def desk_multilabel_config() -> M.MultiLabelModelConfig:
    return M.MultiLabelModelConfig(conv_stack=((16, 4), (12, 3), (8, 2)),
                                   bilstm_units=8)


def _rewrite_header(path, header):
    """Replace a checkpoint's JSON header, keep its tensors and give the file
    a correct SHA-256, so that only the header is malformed.

    ``header`` is the raw replacement bytes, or ``{"drop": key}`` /
    ``{"set": (key, value)}`` applied to the decoded original. A ``set`` key
    may be a dotted path into it, such as ``"embedding.trainable"``.
    """
    body = path.read_bytes()[:-32]
    start = len(M.CHECKPOINT_MAGIC) + 4
    (length,) = struct.unpack_from("<I", body, len(M.CHECKPOINT_MAGIC))
    if not isinstance(header, bytes):
        decoded = json.loads(body[start:start + length])
        if "drop" in header:
            del decoded[header["drop"]]
        else:
            key, value = header["set"]
            *parents, last = key.split(".")
            target = decoded
            for part in parents:
                target = target[part]
            target[last] = value
        header = json.dumps(decoded).encode("utf-8")
    body = (M.CHECKPOINT_MAGIC + struct.pack("<I", len(header)) + header
            + body[start + length:])
    path.write_bytes(body + hashlib.sha256(body).digest())


@pytest.fixture
def rewrite_header():
    return _rewrite_header


# Sizes and values a rewritten header field may take: small and huge ints,
# and values of the wrong type.
_SIZES = st.one_of(st.integers(-2, 40),
                   st.sampled_from([10 ** 7, 10 ** 12, 2 ** 63, -(2 ** 63)]))
_JUNK = st.one_of(st.none(), st.booleans(), st.floats(), st.text(max_size=3),
                  st.lists(st.integers(-1, 3), max_size=2),
                  st.dictionaries(st.text(max_size=2), st.integers(), max_size=2))
_VALUES = st.one_of(_SIZES, _JUNK, st.lists(_SIZES, max_size=3),
                    st.lists(st.lists(_SIZES, max_size=3), max_size=4))


def _rewritten(field: dict) -> st.SearchStrategy:
    """The field with up to three keys set to other values, or junk."""
    changes = st.dictionaries(st.sampled_from(sorted(field) + ["bogus"]), _VALUES,
                              min_size=1, max_size=3)
    return st.one_of(changes.map(lambda c: {**field, **c}), _JUNK)


def _rewritten_history(history: list) -> st.SearchStrategy:
    number = st.one_of(st.integers(-2, 3), st.floats(), st.text(max_size=2), st.none())
    entry = st.one_of(st.sampled_from(history), st.lists(number, max_size=4), _JUNK)
    return st.one_of(st.lists(entry, max_size=3), _JUNK)


def _rewritten_tensors(tensors: list) -> st.SearchStrategy:
    names = st.sampled_from([t["name"] for t in tensors] + ["extra"])
    entry = st.one_of(st.sampled_from(tensors), _JUNK,
                      st.fixed_dictionaries({"name": names,
                                             "shape": st.lists(_SIZES, max_size=3)}))
    return st.one_of(st.lists(entry, max_size=len(tensors) + 1), _JUNK)


def header_edits(header: dict) -> st.SearchStrategy:
    """Non-empty ``{path: value}`` edits of the decoded checkpoint ``header``:
    each top-level field, or ``embedding.source``, set to another value or
    to junk; a field that is a dict or list keeps some of its entries."""
    return st.fixed_dictionaries({}, optional={
        "tensors": _rewritten_tensors(header["tensors"]),
        "embedding": _rewritten(header["embedding"]),
        "model_config": _rewritten(header["model_config"]),
        "train_config": _rewritten(header["train_config"]),
        "history": _rewritten_history(header["history"]),
        "best_epoch": _VALUES,
        "seq_len": _VALUES,
        "vocab_hash": st.one_of(st.text(max_size=3), _VALUES),
        "class_order": st.one_of(st.just(header["class_order"]), _VALUES,
                                 st.lists(st.sampled_from(["toxic", *LABELS]), max_size=6)),
        "embedding.source": st.one_of(st.text(max_size=3), _VALUES),
    }).filter(bool)


def edit_header(path, edits: dict) -> None:
    """Apply ``header_edits`` to the checkpoint at ``path``, a dotted path
    first, so that a replaced ``embedding`` overrides it."""
    for key, value in sorted(edits.items(), key=lambda kv: "." not in kv[0]):
        _rewrite_header(path, {"set": (key, value)})


def _write_checkpoint(trained, path):
    """Write ``trained`` in the checkpoint container without the checks of
    ``save_model``, so that a test can build a file that only ``load_model``
    refuses, such as one holding NaN or inf."""
    header = json.dumps(M._header_dict(trained), sort_keys=True).encode("utf-8")
    body = b"".join([M.CHECKPOINT_MAGIC, struct.pack("<I", len(header)), header]
                    + [np.ascontiguousarray(p.value, dtype="<f8").tobytes()
                       for _, p in trained.model.named_tensors()])
    path.write_bytes(body + hashlib.sha256(body).digest())


@pytest.fixture
def write_checkpoint():
    return _write_checkpoint
