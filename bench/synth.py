"""Seeded synthetic comment corpora for the benchmark.

Nothing is downloaded or committed as data: every document is generated from
the workload seed. The same seed gives byte-identical output.

Shape is fixed by a schedule and only the content is random, so two seeds
give corpora of the same cost:

* token counts are evenly spaced over the requested range, then shuffled;
* exactly ``round(toxic_share * n)`` documents are toxic;
* toxic documents carry 1, 2 or 3 labels in fixed proportions.

Words are drawn Zipf-style from a fixed list of word types (Latin and
Bengali script). Each label has its own marker words, planted in the
documents that carry the label, so a briefly trained gate separates the
classes. Text is decorated with URLs, punctuation and emoticons, which
``toxiclass.corpus.preprocess`` strips without changing the token count.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

LABELS = ("vulgar", "hate", "religious", "threat", "troll", "insult")
WORD_TYPES = 20_000
ZIPF_EXPONENT = 1.0
ZIPF_OFFSET = 2.7  # Zipf-Mandelbrot shift: flattens the head of the curve
BENGALI_EVERY = 10  # every tenth word type is written in Bengali script
MARKERS_PER_LABEL = 4
# share of toxic documents with 1, 2 and 3 labels
CARDINALITY_SHARES = (0.5, 0.3, 0.2)

_CONSONANTS = "bcdfghjklmnprstvz"
_VOWELS = "aeiou"
_BENGALI_CONSONANTS = [chr(c) for c in range(0x0995, 0x09A9)]  # ka .. na
_BENGALI_SIGNS = ["", "া", "ি", "ী", "ু", "ে"]
_EMOTICONS = ["\U0001F600", "\U0001F621", "\U0001F4A9", "☹", "☺"]
_PUNCT = [",", ".", "!", "?", "!!", "...", ";", ":"]


def _latin_word(i: int) -> str:
    out = []
    i += 1
    while i:
        i, r = divmod(i, len(_CONSONANTS) * len(_VOWELS))
        c, v = divmod(r, len(_VOWELS))
        out.append(_CONSONANTS[c] + _VOWELS[v])
    return "".join(out)


def _bengali_word(i: int) -> str:
    out = []
    i += 1
    base = len(_BENGALI_CONSONANTS) * len(_BENGALI_SIGNS)
    while i:
        i, r = divmod(i, base)
        c, s = divmod(r, len(_BENGALI_SIGNS))
        out.append(_BENGALI_CONSONANTS[c] + _BENGALI_SIGNS[s])
    return "".join(out)


def word_types(count: int = WORD_TYPES) -> list[str]:
    """The fixed word list; rank 0 is the most frequent type."""
    words = [_bengali_word(i) if i % BENGALI_EVERY == BENGALI_EVERY - 1
             else _latin_word(i) for i in range(count)]
    if len(set(words)) != count:
        raise AssertionError("word type generator produced duplicates")
    return words


def marker_words() -> dict[str, list[str]]:
    """Label -> marker tokens; none of them is an ordinary word type."""
    return {label: [f"x{label[:3]}{j}q" for j in range(MARKERS_PER_LABEL)]
            for label in LABELS}


@dataclass(frozen=True)
class Row:
    id: str
    text: str
    toxic: bool
    labels: tuple[int, ...]


class Generator:
    """Draws documents from one seeded stream."""

    def __init__(self, seed: int, types: int = WORD_TYPES):
        self.rng = np.random.default_rng(np.random.PCG64(seed))
        self.words = word_types(types)
        ranks = np.arange(types, dtype=np.float64)
        p = 1.0 / (ranks + ZIPF_OFFSET) ** ZIPF_EXPONENT
        self.cdf = np.cumsum(p / p.sum())
        self.markers = marker_words()
        self._uses = {label: 0 for label in LABELS}

    def marker(self, label: str) -> str:
        """The label's markers in turn, so a few uses plant every one."""
        self._uses[label] += 1
        return self.markers[label][self._uses[label] % MARKERS_PER_LABEL]

    def zipf_words(self, count: int) -> list[str]:
        idx = np.searchsorted(self.cdf, self.rng.random(count), side="right")
        idx = np.minimum(idx, len(self.words) - 1)
        return [self.words[i] for i in idx]

    def tokens(self, count: int, labels: tuple[int, ...]) -> list[str]:
        """``count`` clean tokens; one to three markers per active label."""
        toks = self.zipf_words(count)
        active = [LABELS[c] for c, flag in enumerate(labels) if flag]
        if active:
            slots = self.rng.permutation(count)
            per_label = max(1, min(3, count // (2 * len(active))))
            k = 0
            for label in active:
                for _ in range(per_label):
                    if k < count:
                        toks[slots[k]] = self.marker(label)
                        k += 1
        return toks

    def decorate(self, toks: list[str]) -> str:
        """Raw comment text: punctuation glued to words, emoticons and URLs
        standing alone. Preprocessing restores exactly ``toks``."""
        out = []
        for tok in toks:
            r = self.rng.random()
            if r < 0.15:
                tok += _PUNCT[self.rng.integers(len(_PUNCT))]
            out.append(tok)
            r = self.rng.random()
            if r < 0.03:
                out.append(_EMOTICONS[self.rng.integers(len(_EMOTICONS))])
            elif r < 0.045:
                out.append(f"https://example.org/t/{self.rng.integers(10**6)}")
        return " ".join(out)


def schedule_lengths(n: int, lo: int, hi: int, rng) -> np.ndarray:
    """Evenly spaced token counts in [lo, hi], shuffled."""
    lengths = np.rint(np.linspace(lo, hi, n)).astype(np.int64)
    return lengths[rng.permutation(n)]


def label_vectors(n: int, toxic_share: float, rng) -> list[tuple[int, ...]]:
    """Exactly round(toxic_share * n) non-zero label vectors, 1-3 labels each."""
    n_toxic = int(round(toxic_share * n))
    counts = [int(round(s * n_toxic)) for s in CARDINALITY_SHARES[:-1]]
    counts.append(n_toxic - sum(counts))
    cards = [c + 1 for c, k in enumerate(counts) for _ in range(k)]
    vectors = []
    for card in cards:
        vec = np.zeros(len(LABELS), dtype=np.int64)
        vec[rng.choice(len(LABELS), size=card, replace=False)] = 1
        vectors.append(tuple(int(v) for v in vec))
    vectors += [(0,) * len(LABELS)] * (n - n_toxic)
    order = rng.permutation(n)
    return [vectors[i] for i in order]


def corpus(seed: int, n: int, min_tokens: int, max_tokens: int,
           toxic_share: float) -> list[Row]:
    """A labelled corpus of ``n`` raw comments."""
    gen = Generator(seed)
    lengths = schedule_lengths(n, min_tokens, max_tokens, gen.rng)
    vectors = label_vectors(n, toxic_share, gen.rng)
    rows = []
    for i, (length, labels) in enumerate(zip(lengths, vectors)):
        text = gen.decorate(gen.tokens(int(length), labels))
        rows.append(Row(id=f"d{i:05d}", text=text, toxic=any(labels), labels=labels))
    return rows


def explain_texts(seed: int, distinct_counts) -> list[tuple[str, str]]:
    """(label, text): one toxic comment per entry, with exactly that many
    distinct words, carrying a marker of ``label``.

    Every document is toxic (one marker word), so the explainer has a
    signal to attribute. Words are repeated so the token count is about 1.3x
    the distinct count.
    """
    gen = Generator(seed)
    texts = []
    for m in distinct_counts:
        label = LABELS[gen.rng.integers(len(LABELS))]
        distinct = [gen.marker(label)]
        while len(distinct) < m:
            w = gen.zipf_words(1)[0]
            if w not in distinct:
                distinct.append(w)
        extra = [distinct[gen.rng.integers(m)] for _ in range(round(0.3 * m))]
        toks = distinct + extra
        toks = [toks[i] for i in gen.rng.permutation(len(toks))]
        texts.append((label, gen.decorate(toks)))
    return texts


def write_csv(path, rows) -> None:
    """CSV with ``id``, ``text``, ``toxic`` and the six label columns."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "text", "toxic", *LABELS])
        for row in rows:
            writer.writerow([row.id, row.text, int(row.toxic), *row.labels])
