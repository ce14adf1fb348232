"""Evaluation mathematics: confusion counts, precision/recall/F1, multi-label
reports, ROC/AUC, Cohen's kappa and annotator trustworthiness.

Zero-denominator conventions: any metric whose denominator is zero is 0.0,
and the affected label is listed in ``ClassReport.degenerate``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .corpus import LABELS
from .errors import DataError, NumericError


def _as_binary(values, name: str) -> np.ndarray:
    arr = np.asarray(values)
    if arr.size and not np.isin(arr, (0, 1)).all():
        raise DataError(f"{name} must contain only 0/1 values")
    return arr.astype(np.int64)


@dataclass(frozen=True)
class ConfusionMatrix2x2:
    tp: int
    fp: int
    fn: int
    tn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn

    @property
    def accuracy(self) -> float:
        return (self.tp + self.tn) / self.total if self.total else 0.0


def confusion(pred, gold) -> ConfusionMatrix2x2:
    pred = _as_binary(pred, "pred")
    gold = _as_binary(gold, "gold")
    if pred.shape != gold.shape or pred.ndim != 1:
        raise DataError(
            f"pred and gold must be equal-length vectors, got {pred.shape} vs {gold.shape}"
        )
    return ConfusionMatrix2x2(
        tp=int(((pred == 1) & (gold == 1)).sum()),
        fp=int(((pred == 1) & (gold == 0)).sum()),
        fn=int(((pred == 0) & (gold == 1)).sum()),
        tn=int(((pred == 0) & (gold == 0)).sum()),
    )


def prf(conf: ConfusionMatrix2x2) -> tuple[float, float, float]:
    """(precision, recall, f1); zero denominators yield 0.0."""
    p = conf.tp / (conf.tp + conf.fp) if conf.tp + conf.fp else 0.0
    r = conf.tp / (conf.tp + conf.fn) if conf.tp + conf.fn else 0.0
    f1 = 2.0 * p * r / (p + r) if p + r else 0.0
    return p, r, f1


@dataclass(frozen=True)
class LabelMetrics:
    label: str
    support: int
    tp: int
    fp: int
    fn: int
    tn: int
    accuracy: float
    precision: float
    recall: float
    f1: float


@dataclass(frozen=True)
class ClassReport:
    per_class: tuple[LabelMetrics, ...]
    weighted_precision: float
    weighted_recall: float
    weighted_f1: float
    subset_accuracy: float
    mean_label_accuracy: float
    degenerate: tuple[str, ...]

    def to_dict(self) -> dict:
        return {
            "per_class": [asdict(m) for m in self.per_class],
            "weighted_precision": self.weighted_precision,
            "weighted_recall": self.weighted_recall,
            "weighted_f1": self.weighted_f1,
            "accuracy": self.subset_accuracy,
            "mean_label_accuracy": self.mean_label_accuracy,
            "degenerate": list(self.degenerate),
        }


def multilabel_report(pred, gold, class_names=LABELS) -> ClassReport:
    """Per-label confusion and metrics plus support-weighted aggregates.

    Support is the count of gold positives per label. "Accuracy" means
    subset (exact row match) accuracy; the mean of the per-label
    accuracies is reported alongside it.
    """
    pred = _as_binary(pred, "pred")
    gold = _as_binary(gold, "gold")
    if pred.ndim != 2 or pred.shape != gold.shape:
        raise DataError(
            f"pred and gold must be equal-shape n x k matrices, "
            f"got {pred.shape} vs {gold.shape}"
        )
    n, k = pred.shape
    if n < 1:
        raise DataError("report needs at least one row")
    if k != len(class_names):
        raise DataError(f"expected {len(class_names)} label columns, got {k}")

    per_class = []
    degenerate = []
    for c, name in enumerate(class_names):
        conf = confusion(pred[:, c], gold[:, c])
        p, r, f1 = prf(conf)
        if conf.tp + conf.fp == 0 or conf.tp + conf.fn == 0:
            degenerate.append(name)
        per_class.append(LabelMetrics(
            label=name, support=conf.tp + conf.fn,
            tp=conf.tp, fp=conf.fp, fn=conf.fn, tn=conf.tn,
            accuracy=conf.accuracy, precision=p, recall=r, f1=f1,
        ))

    total_support = sum(m.support for m in per_class)
    if total_support:
        weighted = tuple(
            sum(getattr(m, field) * m.support for m in per_class) / total_support
            for field in ("precision", "recall", "f1")
        )
    else:
        weighted = (0.0, 0.0, 0.0)
        degenerate.append("__all__")

    return ClassReport(
        per_class=tuple(per_class),
        weighted_precision=weighted[0],
        weighted_recall=weighted[1],
        weighted_f1=weighted[2],
        subset_accuracy=float((pred == gold).all(axis=1).mean()),
        mean_label_accuracy=sum(m.accuracy for m in per_class) / len(per_class),
        degenerate=tuple(degenerate),
    )


@dataclass(frozen=True)
class RocCurve:
    """Operating points sorted by threshold descending, starting at
    (fpr=0, tpr=0, threshold=inf) and ending at (1, 1, min score).

    ``auc`` is NaN when the gold vector is single-class (curve undefined);
    ``points`` is then empty.
    """

    points: tuple[tuple[float, float, float], ...]
    auc: float


def roc_auc(scores, gold) -> RocCurve:
    scores = np.asarray(scores, dtype=np.float64)
    gold = _as_binary(gold, "gold")
    if scores.shape != gold.shape or scores.ndim != 1 or scores.size < 1:
        raise DataError("scores and gold must be equal-length non-empty vectors")
    if not np.isfinite(scores).all():
        raise DataError("scores must be finite")
    pos = int(gold.sum())
    neg = gold.size - pos
    if pos == 0 or neg == 0:
        return RocCurve(points=(), auc=float("nan"))

    # One operating point per distinct score, highest first: the positives
    # and negatives scoring at or above it are running sums of the counts
    # per distinct score. The threshold is that score's first occurrence.
    distinct, first, group = np.unique(scores, return_index=True, return_inverse=True)
    tp = np.bincount(group, weights=gold, minlength=distinct.size)[::-1].cumsum()
    fp = np.bincount(group, weights=1 - gold, minlength=distinct.size)[::-1].cumsum()
    points = [(0.0, 0.0, float("inf"))]
    points += zip((fp / neg).tolist(), (tp / pos).tolist(), scores[first[::-1]].tolist())

    auc = 0.0
    for (fpr0, tpr0, _), (fpr1, tpr1, _) in zip(points, points[1:]):
        auc += (fpr1 - fpr0) * (tpr1 + tpr0) / 2.0
    return RocCurve(points=tuple(points), auc=auc)


def cohens_kappa(a1, a2) -> float:
    """Chance-corrected agreement over two equal-length label sequences."""
    a1, a2 = list(a1), list(a2)
    if len(a1) != len(a2):
        raise DataError(f"annotation lengths differ: {len(a1)} vs {len(a2)}")
    n = len(a1)
    if n < 1:
        raise DataError("kappa needs at least one item")
    p_o = sum(x == y for x, y in zip(a1, a2)) / n
    categories = set(a1) | set(a2)
    p_e = sum((a1.count(c) / n) * (a2.count(c) / n) for c in categories)
    if p_e == 1.0:
        if p_o == 1.0:
            return 1.0
        raise NumericError("kappa undefined: chance agreement is 1 without full agreement")
    return (p_o - p_e) / (1.0 - p_e)


def trustworthiness(annotator, expert) -> float:
    """Plain agreement fraction on a control set."""
    annotator, expert = list(annotator), list(expert)
    if len(annotator) != len(expert):
        raise DataError(
            f"annotation lengths differ: {len(annotator)} vs {len(expert)}"
        )
    if not annotator:
        raise DataError("trustworthiness needs at least one control item")
    return sum(a == e for a, e in zip(annotator, expert)) / len(annotator)
