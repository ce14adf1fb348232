"""Dataset ingestion, preprocessing, vocabulary, tokenization and splitting."""

from __future__ import annotations

import csv
import functools
import json
import re
import unicodedata
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError, IngestError

LABELS = ("vulgar", "hate", "religious", "threat", "troll", "insult")
NUM_LABELS = len(LABELS)

PAD_TOKEN = "<pad>"
UNK_TOKEN = "<unk>"
PAD_ID = 0
UNK_ID = 1

DEFAULT_MAX_LEN = 300


def seeded_rng(seed: int) -> np.random.Generator:
    """The generator behind every seeded draw: PCG64 from ``seed``. A
    negative seed raises ConfigError."""
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    return np.random.default_rng(np.random.PCG64(seed))


# Codepoint ranges stripped as emoticons/pictographs. Deliberately excludes
# ZWJ/ZWNJ (U+200C/U+200D), which are orthographic in Bengali script.
DEFAULT_EMOTICON_RANGES = (
    (0x1F000, 0x1F0FF),
    (0x1F300, 0x1F5FF),
    (0x1F600, 0x1F64F),
    (0x1F680, 0x1F6FF),
    (0x1F900, 0x1F9FF),
    (0x1FA70, 0x1FAFF),
    (0x1F1E6, 0x1F1FF),
    (0x2600, 0x26FF),
    (0x2700, 0x27BF),
    (0xFE00, 0xFE0F),
)

_URL_RE = re.compile(r"(?:https?://|www\.)\S+")


@dataclass
class Document:
    """One text instance with optional gold annotations.

    ``labels`` follows the fixed class order in ``LABELS``. Construction
    raises DataError when they are not six 0/1 values agreeing with ``toxic``.
    """

    id: str
    text: str
    toxic: bool | None = None
    labels: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.labels is not None:
            if len(self.labels) != NUM_LABELS:
                raise DataError(
                    f"document {self.id!r}: label vector has length "
                    f"{len(self.labels)}, expected {NUM_LABELS}"
                )
            if any(v not in (0, 1) for v in self.labels):
                raise DataError(f"document {self.id!r}: labels must be 0/1")
            if self.toxic is False and any(self.labels):
                raise DataError(
                    f"document {self.id!r}: toxic=False but labels are not all zero"
                )
            if self.toxic is True and not any(self.labels):
                raise DataError(
                    f"document {self.id!r}: toxic=True but no label is set"
                )


@dataclass(frozen=True)
class PreprocessConfig:
    stopwords: frozenset[str] = frozenset()
    remove_urls: bool = True
    remove_punctuation: bool = True
    remove_emoticons: bool = True
    emoticon_ranges: tuple[tuple[int, int], ...] = DEFAULT_EMOTICON_RANGES


def read_lines(path, what: str, error=DataError, newline=None, hint: str = ""):
    """Yield ``(line number, line)`` over the UTF-8 text file ``path``, split
    and terminated as iterating ``open(path, newline=newline)`` gives them.

    A missing, unreadable or not-UTF-8 file raises ``error`` naming ``what``,
    the path, the 1-based line of the first bad byte and ``hint``.
    """
    hint = f" ({hint})" if hint else ""
    try:
        with open(path, encoding="utf-8", newline=newline) as fh:
            yield from enumerate(fh, start=1)
    except OSError as exc:
        raise error(f"cannot read {what} {path}: {exc.strerror or exc}{hint}") from exc
    except UnicodeDecodeError as exc:
        data = Path(path).read_bytes()
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as whole:  # its offset counts from the file start
            data = data[:whole.start]
        line = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n").count(b"\n") + 1
        raise error(f"cannot read {what}: {what} {path} is not UTF-8 at line "
                    f"{line} ({exc.reason}){hint}") from exc


def load_stopwords(path) -> frozenset[str]:
    """Load a stop-word list, one token per line; blank lines ignored."""
    lines = read_lines(path, "stop-word file", ConfigError)
    return frozenset(line.strip() for _, line in lines if line.strip())


class _CharFilter(dict):
    """``str.translate`` table for one config: maps each code point met so
    far to itself when kept and to None when dropped, deciding on first
    sight."""

    def __init__(self, cfg: PreprocessConfig):
        super().__init__()
        self.cfg = cfg

    def __missing__(self, cp: int) -> int | None:
        cfg = self.cfg
        value = cp
        if cfg.remove_punctuation and unicodedata.category(chr(cp))[0] == "P":
            value = None
        elif cfg.remove_emoticons:
            for lo, hi in cfg.emoticon_ranges:
                if lo <= cp <= hi:
                    value = None
                    break
        self[cp] = value
        return value


@functools.lru_cache(maxsize=8)
def _char_filter(cfg: PreprocessConfig) -> _CharFilter:
    """The table of ``cfg``, shared by every call with an equal config. It
    holds one entry per distinct character met, a few thousand for real
    text."""
    return _CharFilter(cfg)


def preprocess(text: str, config: PreprocessConfig | None = None) -> str:
    """Strip URLs, emoticons, punctuation and stop words; collapse whitespace.

    Idempotent: a second application is the identity. The result may be empty.
    """
    cfg = config or PreprocessConfig()
    if cfg.remove_urls:
        text = _URL_RE.sub(" ", text)
    if cfg.remove_emoticons or cfg.remove_punctuation:
        text = text.translate(_char_filter(cfg))
    tokens = [t for t in text.split() if t not in cfg.stopwords]
    return " ".join(tokens)


class Vocabulary:
    """Frequency-ranked token/id mapping with reserved PAD and UNK entries."""

    def __init__(self, tokens: list[str]):
        self.id_to_token = [PAD_TOKEN, UNK_TOKEN] + list(tokens)
        self.token_to_id = {t: i for i, t in enumerate(self.id_to_token)}
        if len(self.token_to_id) != len(self.id_to_token):
            raise DataError("vocabulary contains duplicate tokens")

    def __len__(self) -> int:
        return len(self.id_to_token)

    def __contains__(self, token: str) -> bool:
        return token in self.token_to_id

    def get(self, token: str) -> int:
        return self.token_to_id.get(token, UNK_ID)

    def content_hash(self) -> str:
        import hashlib

        joined = "\n".join(self.id_to_token).encode("utf-8")
        return hashlib.sha256(joined).hexdigest()

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for token in self.id_to_token:
                fh.write(token + "\n")

    @classmethod
    def load(cls, path) -> "Vocabulary":
        tokens = [line.rstrip("\n") for _, line in read_lines(path, "vocabulary")]
        if tokens[:2] != [PAD_TOKEN, UNK_TOKEN]:
            raise DataError(f"vocabulary file {path} lacks reserved PAD/UNK header")
        return cls(tokens[2:])


def build_vocab(corpus, max_size: int = 50_000, min_freq: int = 1) -> Vocabulary:
    """Frequency-ranked vocabulary; ties broken lexicographically.

    ``max_size`` caps the total size including the PAD/UNK reserved entries.
    """
    if max_size < 2:
        raise ConfigError(f"vocab max_size must be >= 2, got {max_size}")
    counts: Counter[str] = Counter()
    for text in corpus:
        counts.update(text.split())
    # Reserved tokens met in the text are out of vocabulary: tokenize maps
    # them to UNK_ID, so a real position never carries PAD_ID.
    for reserved in (PAD_TOKEN, UNK_TOKEN):
        counts.pop(reserved, None)
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    kept = [tok for tok, freq in ranked if freq >= min_freq]
    return Vocabulary(kept[: max_size - 2])


@dataclass
class TokenSequence:
    """Fixed-length id sequence: the text's ids, then ``PAD_ID``."""

    input_ids: np.ndarray
    true_length: int

    def __post_init__(self):
        self.input_ids = np.asarray(self.input_ids, dtype=np.int64)

    def __len__(self) -> int:
        return len(self.input_ids)


def tokenize(text: str, vocab: Vocabulary, max_len: int = DEFAULT_MAX_LEN) -> TokenSequence:
    """Whitespace tokenization with head truncation and ``PAD_ID`` padding."""
    if max_len < 1:
        raise ConfigError(f"max_len must be >= 1, got {max_len}")
    tokens = text.split()[:max_len]
    ids = np.full(max_len, PAD_ID, dtype=np.int64)
    for i, tok in enumerate(tokens):
        ids[i] = UNK_ID if tok == PAD_TOKEN else vocab.get(tok)
    return TokenSequence(ids, len(tokens))


def encode(texts, vocab: Vocabulary, max_len: int = DEFAULT_MAX_LEN) -> np.ndarray:
    """The (n, max_len) int64 batch of the n ``texts``: row i is
    ``tokenize(texts[i], vocab, max_len).input_ids``."""
    if max_len < 1:
        raise ConfigError(f"max_len must be >= 1, got {max_len}")
    ids = np.empty((len(texts), max_len), dtype=np.int64)
    for row, text in zip(ids, texts):
        row[:] = tokenize(text, vocab, max_len).input_ids
    return ids


@dataclass(frozen=True)
class FormatSpec:
    """Maps dataset file columns/fields onto Document fields.

    Either ``toxic_field`` or ``label_fields`` (all six, in class order) must
    be given; when only labels are present the toxic flag is derived.
    """

    kind: str = "csv"  # csv | jsonl
    text_field: str = "text"
    toxic_field: str | None = None
    label_fields: tuple[str, ...] | None = None
    id_field: str | None = None
    delimiter: str = ","

    def __post_init__(self):
        if self.kind not in ("csv", "jsonl"):
            raise ConfigError(f"unknown dataset format {self.kind!r}")
        if len(self.delimiter) != 1:
            raise ConfigError(
                f"data.delimiter must be one character, got {self.delimiter!r}")
        if self.toxic_field is None and self.label_fields is None:
            raise ConfigError("format needs a toxic column or six label columns")
        if self.label_fields is not None and len(self.label_fields) != NUM_LABELS:
            raise ConfigError(
                f"expected {NUM_LABELS} label columns, got {len(self.label_fields)}"
            )


_TRUE = {"1", "true", "yes"}
_FALSE = {"0", "false", "no"}


def _parse_flag(record: dict, name: str) -> bool:
    """Field ``name`` of ``record`` as a bool; a missing or non-boolean
    field raises ValueError."""
    if name not in record:
        raise ValueError(f"missing field {name!r}")
    value = record[name]
    if isinstance(value, bool):
        return value
    if isinstance(value, (int, float)) and value in (0, 1):
        return bool(value)
    text = str(value).strip().lower()
    if text in _TRUE:
        return True
    if text in _FALSE:
        return False
    raise ValueError(f"field {name!r} has non-boolean value {value!r}")


def _rows_from_file(path, spec: FormatSpec):
    if spec.kind == "jsonl":
        for lineno, line in read_lines(path, "dataset"):
            line = line.strip()
            if not line:
                continue
            try:
                yield lineno, json.loads(line)
            except (json.JSONDecodeError, RecursionError) as exc:
                yield lineno, exc
    else:
        lines = (line for _, line in read_lines(path, "dataset", newline=""))
        yield from enumerate(csv.DictReader(lines, delimiter=spec.delimiter), start=2)


def _document(lineno: int, record, spec: FormatSpec, seen: set[str]) -> Document:
    """The Document of dataset row ``record``. The row's first fault is
    raised as a ValueError or DataError; a row that passes the id checks
    claims its id in ``seen``."""
    if isinstance(record, Exception):
        raise ValueError(f"unparseable row: {record}")
    if not isinstance(record, dict):
        raise ValueError("not a JSON object")
    if spec.text_field not in record:
        raise ValueError(f"missing text field {spec.text_field!r}")
    text = record[spec.text_field]
    if text is None:
        raise ValueError("text field is null")
    doc_id = str(lineno)
    if spec.id_field:
        if spec.id_field not in record:
            raise ValueError(f"missing id field {spec.id_field!r}")
        if record[spec.id_field] is None:
            raise ValueError(f"id field {spec.id_field!r} is null")
        doc_id = str(record[spec.id_field])
    if not doc_id or "\n" in doc_id or "\r" in doc_id or doc_id in seen:
        raise ValueError(f"id {doc_id!r} is empty, repeated or holds a line break")
    seen.add(doc_id)
    labels = None
    if spec.label_fields is not None:
        labels = tuple(int(_parse_flag(record, name)) for name in spec.label_fields)
    toxic = None if labels is None else any(labels)
    if spec.toxic_field is not None:
        toxic = _parse_flag(record, spec.toxic_field)
    return Document(id=doc_id, text=str(text), toxic=toxic, labels=labels)


def ingest(path, spec: FormatSpec) -> list[Document]:
    """Load and validate a dataset file into Documents.

    Raises IngestError listing every offending row (malformed fields, empty,
    repeated or multi-line ids, or toxic/label inconsistencies).
    """
    documents: list[Document] = []
    bad: list[tuple[int, str]] = []
    seen: set[str] = set()
    try:
        rows = list(_rows_from_file(path, spec))
    except csv.Error as exc:
        raise DataError(f"cannot read dataset {path}: {exc}") from exc

    for lineno, record in rows:
        try:
            documents.append(_document(lineno, record, spec, seen))
        except (ValueError, DataError) as exc:
            bad.append((lineno, str(exc)))

    if bad:
        shown = "; ".join(f"row {r}: {msg}" for r, msg in bad[:20])
        more = "" if len(bad) <= 20 else f" (+{len(bad) - 20} more)"
        raise IngestError(f"{len(bad)} bad rows in {path}: {shown}{more}", rows=bad)
    return documents


def stats(documents) -> dict:
    """Per-class counts, toxic/non-toxic totals and label-cardinality histogram."""
    documents = list(documents)
    per_class = {name: 0 for name in LABELS}
    cardinality: Counter[int] = Counter()
    toxic = 0
    for doc in documents:
        card = sum(doc.labels) if doc.labels is not None else 0
        cardinality[card] += 1
        if doc.labels is not None:
            for name, flag in zip(LABELS, doc.labels):
                per_class[name] += flag
        if doc.toxic if doc.toxic is not None else card > 0:
            toxic += 1
    return {
        "total": len(documents),
        "toxic": toxic,
        "non_toxic": len(documents) - toxic,
        "per_class": per_class,
        "cardinality": {str(k): v for k, v in sorted(cardinality.items())},
    }


@dataclass(frozen=True)
class SplitSpec:
    """Three-way split fractions plus the seed driving tie-break draws.

    Defaults: 60% train, remainder split 60:40 into validation and test
    (overall 0.60 / 0.24 / 0.16).
    """

    train_fraction: float = 0.60
    val_fraction: float = 0.24
    test_fraction: float = 0.16
    seed: int = 0

    @property
    def fractions(self) -> tuple[float, float, float]:
        return (self.train_fraction, self.val_fraction, self.test_fraction)

    def __post_init__(self):
        for frac in self.fractions:
            if not 0.0 < frac < 1.0:
                raise ConfigError(f"split fraction {frac} outside (0, 1)")
        if abs(sum(self.fractions) - 1.0) > 1e-12:
            raise ConfigError(
                f"split fractions sum to {sum(self.fractions)!r}, expected 1"
            )


def _label_matrix(documents) -> np.ndarray:
    if all(doc.labels is not None for doc in documents):
        return np.array([doc.labels for doc in documents], dtype=np.int64)
    if all(doc.toxic is not None for doc in documents):
        return np.array([[1 if doc.toxic else 0] for doc in documents], dtype=np.int64)
    raise DataError("stratified_split needs labels (or toxic flags) on every document")


def stratified_split(documents, spec: SplitSpec):
    """Iterative stratification into (train, val, test) folds.

    Documents are assigned label-by-label in order of ascending remaining
    label frequency; each goes to the fold with the greatest remaining demand
    for that label, ties broken by greatest remaining total capacity, then by
    a seeded random draw. Zero-label documents fill remaining capacity last.
    """
    documents = list(documents)
    if not documents:
        raise DataError("cannot split an empty document list")
    labels = _label_matrix(documents)
    n, k = labels.shape
    fracs = np.asarray(spec.fractions)
    rng = seeded_rng(spec.seed)

    capacity = fracs * n  # remaining desired fold sizes
    demand = fracs[:, None] * labels.sum(axis=0)[None, :]  # fold x label
    assigned = np.full(n, -1, dtype=np.int64)

    def pick_fold(scores: np.ndarray) -> int:
        best = np.flatnonzero(scores == scores.max())
        if len(best) > 1:
            caps = capacity[best]
            best = best[np.flatnonzero(caps == caps.max())]
        if len(best) > 1:
            return int(best[rng.integers(len(best))])
        return int(best[0])

    while True:
        remaining = np.flatnonzero(assigned < 0)
        if len(remaining) == 0:
            break
        counts = labels[remaining].sum(axis=0)
        live = np.flatnonzero(counts > 0)
        if len(live) == 0:
            break
        lab = int(live[np.argmin(counts[live])])
        for i in remaining[labels[remaining, lab] > 0]:
            fold = pick_fold(demand[:, lab])
            assigned[i] = fold
            demand[fold] -= labels[i]
            capacity[fold] -= 1.0

    for i in np.flatnonzero(assigned < 0):  # zero-label documents
        fold = pick_fold(capacity)
        assigned[i] = fold
        capacity[fold] -= 1.0

    folds = ([], [], [])
    for i, doc in enumerate(documents):
        folds[assigned[i]].append(doc)
    return folds
