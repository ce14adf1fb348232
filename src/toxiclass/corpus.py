"""Dataset ingestion, preprocessing, vocabulary, tokenization and splitting."""

from __future__ import annotations

import csv
import functools
import json
import re
import unicodedata
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError, IngestError

LABELS = ("vulgar", "hate", "religious", "threat", "troll", "insult")
NUM_LABELS = len(LABELS)

PAD_TOKEN = "<pad>"
UNK_TOKEN = "<unk>"
PAD_ID = 0
UNK_ID = 1

DEFAULT_MAX_LEN = 300

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

    ``labels`` follows the fixed class order in ``LABELS``.
    """

    id: str
    text: str
    toxic: bool | None = None
    labels: tuple[int, ...] | None = None

    def validate(self) -> None:
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


def load_stopwords(path) -> frozenset[str]:
    """Load a stop-word list, one token per line; blank lines ignored."""
    try:
        with open(path, encoding="utf-8") as fh:
            return frozenset(line.strip() for line in fh if line.strip())
    except OSError as exc:
        raise ConfigError(f"cannot read stop-word file {path}: {exc}") from exc


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
        try:
            with open(path, encoding="utf-8") as fh:
                tokens = [line.rstrip("\n") for line in fh]
        except (OSError, UnicodeDecodeError) as exc:
            raise DataError(f"cannot read vocabulary file {path}: {exc}") from exc
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
    """Fixed-length id sequence with a presence mask."""

    input_ids: np.ndarray
    mask: np.ndarray
    true_length: int

    def __post_init__(self):
        self.input_ids = np.asarray(self.input_ids, dtype=np.int64)
        self.mask = np.asarray(self.mask, dtype=np.float64)

    def __len__(self) -> int:
        return len(self.input_ids)


def tokenize(text: str, vocab: Vocabulary, max_len: int = DEFAULT_MAX_LEN) -> TokenSequence:
    """Whitespace tokenization with head truncation and zero padding."""
    if max_len < 1:
        raise ConfigError(f"max_len must be >= 1, got {max_len}")
    tokens = text.split()[:max_len]
    ids = np.full(max_len, PAD_ID, dtype=np.int64)
    mask = np.zeros(max_len, dtype=np.float64)
    for i, tok in enumerate(tokens):
        ids[i] = UNK_ID if tok == PAD_TOKEN else vocab.get(tok)
        mask[i] = 1.0
    return TokenSequence(ids, mask, len(tokens))


def detokenize(seq: TokenSequence, vocab: Vocabulary) -> str:
    """Inverse of tokenize over the real (non-PAD) positions."""
    return " ".join(vocab.id_to_token[i] for i in seq.input_ids[: seq.true_length])


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
        if self.toxic_field is None and self.label_fields is None:
            raise ConfigError("format needs a toxic column or six label columns")
        if self.label_fields is not None and len(self.label_fields) != NUM_LABELS:
            raise ConfigError(
                f"expected {NUM_LABELS} label columns, got {len(self.label_fields)}"
            )


_TRUE = {"1", "true", "yes"}
_FALSE = {"0", "false", "no"}


def _parse_flag(value, row: int, name: str):
    if isinstance(value, bool):
        return value
    if isinstance(value, (int, float)) and value in (0, 1):
        return bool(value)
    text = str(value).strip().lower()
    if text in _TRUE:
        return True
    if text in _FALSE:
        return False
    raise ValueError(f"row {row}: field {name!r} has non-boolean value {value!r}")


def _rows_from_file(path, spec: FormatSpec):
    if spec.kind == "jsonl":
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    yield lineno, json.loads(line)
                except (json.JSONDecodeError, RecursionError) as exc:
                    yield lineno, exc
    else:
        with open(path, encoding="utf-8", newline="") as fh:
            reader = csv.DictReader(fh, delimiter=spec.delimiter)
            for lineno, record in enumerate(reader, start=2):
                yield lineno, record


def ingest(path, spec: FormatSpec) -> list[Document]:
    """Load and validate a dataset file into Documents.

    Raises IngestError listing every offending row (malformed fields or
    toxic/label inconsistencies).
    """
    documents: list[Document] = []
    bad: list[tuple[int, str]] = []
    try:
        rows = list(_rows_from_file(path, spec))
    except UnicodeDecodeError as exc:
        raise DataError(f"dataset {path} is not UTF-8: {exc.reason}") from exc
    except (OSError, csv.Error) as exc:
        raise DataError(f"cannot read dataset {path}: {exc}") from exc

    for lineno, record in rows:
        if isinstance(record, Exception):
            bad.append((lineno, f"unparseable row: {record}"))
            continue
        if not isinstance(record, dict):
            bad.append((lineno, "not a JSON object"))
            continue
        try:
            text = record[spec.text_field]
        except KeyError:
            bad.append((lineno, f"missing text field {spec.text_field!r}"))
            continue
        if text is None:
            bad.append((lineno, "text field is null"))
            continue
        doc_id = str(record.get(spec.id_field, lineno)) if spec.id_field else str(lineno)
        toxic = None
        labels = None
        try:
            if spec.label_fields is not None:
                labels = tuple(
                    int(_parse_flag(record[name], lineno, name))
                    for name in spec.label_fields
                )
            if spec.toxic_field is not None:
                toxic = _parse_flag(record[spec.toxic_field], lineno, spec.toxic_field)
            elif labels is not None:
                toxic = any(labels)
        except KeyError as exc:
            bad.append((lineno, f"missing field {exc.args[0]!r}"))
            continue
        except ValueError as exc:
            bad.append((lineno, str(exc)))
            continue
        doc = Document(id=doc_id, text=str(text), toxic=toxic, labels=labels)
        try:
            doc.validate()
        except DataError as exc:
            bad.append((lineno, str(exc)))
            continue
        documents.append(doc)

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

    def validate(self) -> None:
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
    spec.validate()
    labels = _label_matrix(documents)
    n, k = labels.shape
    fracs = np.asarray(spec.fractions)
    rng = np.random.default_rng(np.random.PCG64(spec.seed))

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
        caps_max = capacity.max()
        best = np.flatnonzero(capacity == caps_max)
        fold = int(best[rng.integers(len(best))]) if len(best) > 1 else int(best[0])
        assigned[i] = fold
        capacity[fold] -= 1.0

    folds = ([], [], [])
    for i, doc in enumerate(documents):
        folds[assigned[i]].append(doc)
    return folds
