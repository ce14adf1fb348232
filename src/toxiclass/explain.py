"""Local surrogate explanations for text classifiers.

The instance's distinct words are binary presence features. A perturbed
instance is the id row of the words its mask keeps; a weighted ridge model
over the presence masks, with samples weighted by similarity to the intact
instance, yields per-word attributions for one output class.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import id_rows, seeded_rng
from .errors import DataError, NumericError

DEFAULT_SAMPLES = 1000
KERNEL_WIDTH = 0.25
DEFAULT_RIDGE_LAMBDA = 1e-3
BINARY_TOP_K = 6
MULTILABEL_TOP_K = 10


@dataclass(frozen=True)
class Explanation:
    class_index: int
    class_name: str
    probability: float
    features: tuple[tuple[str, float], ...]  # ranked by |weight| descending
    intercept: float
    r2: float
    n_samples: int

    def render(self) -> str:
        """Plain-text bar chart, widest bar = strongest attribution."""
        lines = [f"class {self.class_name}  p={self.probability:.4f}  "
                 f"r2={self.r2:.3f}"]
        top = max((abs(v) for _, v in self.features), default=0.0)
        for word, value in self.features:
            bar = "#" * (1 + round(19 * abs(value) / top)) if top else ""
            sign = "+" if value >= 0 else "-"
            lines.append(f"  {word:<20} {sign}{abs(value):.4f} {bar}")
        return "\n".join(lines)


def distinct_words(tokens) -> list[str]:
    return list(dict.fromkeys(tokens))


def sample_perturbations(m: int, n: int = DEFAULT_SAMPLES,
                         seed: int = 0) -> np.ndarray:
    """(n, m) int64 presence masks over m distinct words (1 = kept); row 0
    keeps everything.

    Each other row deactivates a uniform count in [1, m] of uniformly
    chosen words. Deterministic for a given seed.
    """
    if m < 1:
        raise DataError("cannot perturb an instance with no words")
    if n < 1:
        raise DataError(f"need at least one sample, got {n}")
    rng = seeded_rng(seed)
    masks = np.ones((n, m), dtype=np.int64)
    for row in masks[1:]:
        drop = rng.integers(1, m + 1)
        row[rng.choice(m, size=drop, replace=False)] = 0
    return masks


def kernel_weights(masks) -> np.ndarray:
    """Per row of ``masks``: exp(-d^2 / KERNEL_WIDTH^2) where d is the cosine
    distance between the row and the all-ones mask. An all-zeros row has no
    direction: weight 0."""
    masks = np.asarray(masks)
    kept = masks.sum(axis=1)
    d = 1.0 - np.sqrt(kept / masks.shape[1])
    return np.where(kept > 0, np.exp(-(d ** 2) / KERNEL_WIDTH ** 2), 0.0)


def _fit(x: np.ndarray, weights: np.ndarray, y: np.ndarray,
         lam: float) -> tuple[np.ndarray, float]:
    """(beta, weighted squared error) of the weighted ridge fit of ``y`` on
    ``x`` plus an unpenalized intercept column, which is beta's last entry."""
    n, p = x.shape
    design = np.concatenate([x, np.ones((n, 1))], axis=1)
    wx = design * weights[:, None]
    a = design.T @ wx
    a[np.arange(p), np.arange(p)] += lam
    b = wx.T @ y
    try:
        beta = np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"surrogate system is singular: {exc}") from exc
    resid = y - design @ beta
    return beta, float(weights @ (resid ** 2))


def select_features(masks, weights, targets, k: int,
                    lam: float = DEFAULT_RIDGE_LAMBDA) -> list[int]:
    """Greedy forward selection: repeatedly add the feature whose ridge fit
    most reduces weighted squared error; stop at k features or when no
    candidate reduces the error."""
    masks = np.asarray(masks, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    n, m = masks.shape
    selected: list[int] = []
    _, current_sse = _fit(np.empty((n, 0)), weights, targets, lam)
    while len(selected) < min(k, m):
        best_j, best_sse = -1, current_sse
        for j in range(m):
            if j in selected:
                continue
            _, sse = _fit(masks[:, selected + [j]], weights, targets, lam)
            if sse < best_sse:
                best_j, best_sse = j, sse
        if best_j < 0:
            break
        selected.append(best_j)
        current_sse = best_sse
    return selected


def fit_surrogate(masks, weights, targets,
                  lam: float = DEFAULT_RIDGE_LAMBDA):
    """-> (coefficients, intercept, weighted R^2) of the local ridge model."""
    masks = np.asarray(masks, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    beta, sse = _fit(masks, weights, targets, lam)
    coef, intercept = beta[:-1], float(beta[-1])
    total_w = weights.sum()
    if total_w <= 0.0:
        raise NumericError("all sample weights are zero")
    mean = float(weights @ targets) / total_w
    sst = float(weights @ ((targets - mean) ** 2))
    # variance at rounding-noise scale means a constant target: the intercept
    # absorbs it exactly, so report a perfect (or failed) fit outright
    floor = 1e-15 * max(1.0, total_w)
    if sst > floor:
        r2 = 1.0 - sse / sst
    else:
        r2 = 1.0 if sse <= floor else 0.0
    return coef, intercept, r2


def explain_instance(predict, tokens, ids, max_len: int, class_index: int,
                     n: int = DEFAULT_SAMPLES, k: int = BINARY_TOP_K,
                     seed: int = 0, class_name: str | None = None) -> Explanation:
    """Explain one class probability of ``predict`` on the instance of
    whitespace ``tokens``, whose vocabulary ids are the int array ``ids``.

    ``predict`` maps an (n, max_len) int64 id array to an (n, classes) array
    of probabilities. It is called once, on one ``id_rows`` row per distinct
    mask, in the order the masks are first drawn: the ids of the tokens the
    mask keeps, which is what ``encode`` lays out for their text. Words past
    ``max_len`` stay features, since dropping an earlier word brings them in.
    """
    words = distinct_words(tokens)
    masks = sample_perturbations(len(words), n=n, seed=seed)
    # a mask fixes its row, so one row per distinct mask, in first-seen order
    _, first, inverse = np.unique(masks, axis=0, return_index=True,
                                  return_inverse=True)
    seen = np.argsort(first)
    row = np.argsort(seen)[inverse.reshape(-1)]  # each sample's row in rows
    column = {w: j for j, w in enumerate(words)}
    kept = masks[first[seen]][:, [column[t] for t in tokens]].astype(bool)
    rows = id_rows((ids[keep] for keep in kept), len(kept), max_len)
    outputs = np.asarray(predict(rows), dtype=np.float64)
    if outputs.ndim != 2 or len(outputs) != len(rows):
        raise DataError(f"predict returned shape {outputs.shape} for {len(rows)} rows")
    if class_index >= outputs.shape[1] or class_index < 0:
        raise DataError(
            f"class index {class_index} out of range for model with "
            f"{outputs.shape[1]} outputs"
        )
    targets = outputs[row, class_index]
    weights = kernel_weights(masks)

    picked = select_features(masks, weights, targets, k)
    coef, intercept, r2 = fit_surrogate(masks[:, picked], weights, targets)
    if not np.isfinite(coef).all() or not np.isfinite(intercept):
        raise NumericError("surrogate coefficients are not finite")
    order = np.argsort(-np.abs(coef), kind="stable")
    features = tuple((words[picked[int(i)]], float(coef[int(i)])) for i in order)
    return Explanation(
        class_index=class_index,
        class_name=class_name if class_name is not None else str(class_index),
        probability=float(targets[0]),
        features=features,
        intercept=intercept,
        r2=r2,
        n_samples=len(masks),
    )
