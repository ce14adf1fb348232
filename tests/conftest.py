"""Helpers shared by more than one test module."""

import hashlib
import json
import os
import struct

import numpy as np
import pytest
from hypothesis import settings

from toxiclass import models as M

# ``HYPOTHESIS_PROFILE=ci`` draws the same examples on every run and keeps no
# example database, so a property that fails in CI fails the same way when
# run locally with that profile. Each test keeps its own example count and
# deadline.
settings.register_profile("ci", derandomize=True, database=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


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
