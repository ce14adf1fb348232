"""Embedding tables: seeded random initialisation and the text file format.
The models hold a table, and add to its gradient, through ``models.EmbeddingLayer``."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import PAD_ID, UNK_TOKEN, Vocabulary, read_lines, seeded_rng
from .errors import ConfigError, DataError

DEFAULT_DIM = 768
INIT_SCALE = 0.05


@dataclass
class EmbeddingTable:
    """Vocabulary-indexed matrix of D-dimensional vectors.

    Row 0 (PAD) is pinned to zero and, when trainable, receives no gradient.
    """

    matrix: np.ndarray
    trainable: bool = True
    source: str = "random-init"  # random-init | file

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=np.float64)
        self.matrix[PAD_ID, :] = 0.0

    @property
    def vocab_size(self) -> int:
        return self.matrix.shape[0]

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]


def random_table(vocab_size: int, dim: int = DEFAULT_DIM, seed: int = 0,
                 trainable: bool = True) -> EmbeddingTable:
    """Seeded uniform init in [-0.05, 0.05]; PAD row zero."""
    if dim < 1:
        raise ConfigError(f"embedding.dim must be >= 1, got {dim}")
    rng = seeded_rng(seed)
    matrix = rng.uniform(-INIT_SCALE, INIT_SCALE, size=(vocab_size, dim))
    return EmbeddingTable(matrix, trainable=trainable, source="random-init")


def load_table(path, vocab: Vocabulary, trainable: bool = False) -> EmbeddingTable:
    """Load per-token vectors from a text file.

    Format: first line ``vocab_size D``, then one ``token v1 ... vD`` row per
    token, space-delimited decimal floats. Vocabulary tokens absent from the
    file fall back to the file's UNK row (zeros if the file has none); the PAD
    row is forced to zero regardless of file content.
    """
    lines = read_lines(path, "embedding file")
    _, first = next(lines, (1, ""))
    try:
        declared, dim = (int(v) for v in first.split())
    except ValueError as exc:
        raise DataError(f"embedding file {path}: bad header {first.strip()!r}") from exc
    if dim < 1:
        raise DataError(f"embedding file {path}: header dimension {dim} is below 1")

    vectors: dict[str, np.ndarray] = {}
    for lineno, line in lines:
        if not line.strip():
            continue
        parts = line.split()
        token, values = parts[0], parts[1:]
        if len(values) != dim:
            raise DataError(
                f"embedding file {path} line {lineno}: expected {dim} values, "
                f"got {len(values)}"
            )
        try:
            row = np.array([float(v) for v in values], dtype=np.float64)
        except ValueError as exc:
            raise DataError(f"embedding file {path} line {lineno}: {exc}") from exc
        if not np.all(np.isfinite(row)):
            raise DataError(f"embedding file {path} line {lineno}: non-finite value")
        vectors[token] = row
    if len(vectors) != declared:
        raise DataError(
            f"embedding file {path}: header declares {declared} tokens, "
            f"file holds {len(vectors)}"
        )

    unk_row = vectors.get(UNK_TOKEN, np.zeros(dim))
    matrix = np.empty((len(vocab), dim), dtype=np.float64)
    for idx, token in enumerate(vocab.id_to_token):
        matrix[idx] = vectors.get(token, unk_row)
    return EmbeddingTable(matrix, trainable=trainable, source="file")
