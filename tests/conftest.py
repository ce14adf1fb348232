"""Helpers shared by more than one test module."""

import hashlib
import json
import os
import struct

import pytest
from hypothesis import settings

from toxiclass import models as M

# ``HYPOTHESIS_PROFILE=ci`` draws the same examples on every run and keeps no
# example database, so a property that fails in CI fails the same way when
# run locally with that profile. Each test keeps its own example count and
# deadline.
settings.register_profile("ci", derandomize=True, database=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


def _rewrite_header(path, header):
    """Replace a checkpoint's JSON header, keep its tensors and give the file
    a correct SHA-256, so that only the header is malformed.

    ``header`` is the raw replacement bytes, or ``{"drop": key}`` /
    ``{"set": (key, value)}`` applied to the decoded original.
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
            decoded[key] = value
        header = json.dumps(decoded).encode("utf-8")
    body = (M.CHECKPOINT_MAGIC + struct.pack("<I", len(header)) + header
            + body[start + length:])
    path.write_bytes(body + hashlib.sha256(body).digest())


@pytest.fixture
def rewrite_header():
    return _rewrite_header
