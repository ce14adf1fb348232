"""Local surrogate explanations for text classifiers.

The instance's distinct words are binary presence features. Perturbed texts
drop deactivated words; a weighted ridge model over the presence masks,
with samples weighted by similarity to the intact instance, yields per-word
attributions for one output class.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, NumericError

DEFAULT_SAMPLES = 1000
DEFAULT_KERNEL_WIDTH = 0.25
DEFAULT_RIDGE_LAMBDA = 1e-3
BINARY_TOP_K = 6
MULTILABEL_TOP_K = 10


@dataclass
class Perturbation:
    """One masked variant of the instance.

    ``mask`` has one slot per distinct word (1 = kept); ``text`` is the
    instance with deactivated words removed.
    """

    mask: np.ndarray
    text: str


@dataclass(frozen=True)
class Explanation:
    class_index: int
    class_name: str
    probability: float
    features: tuple[tuple[str, float], ...]  # ranked by |weight| descending
    intercept: float
    r2: float
    n_samples: int

    def to_dict(self) -> dict:
        return {
            "class_index": self.class_index,
            "class_name": self.class_name,
            "probability": self.probability,
            "features": [[w, float(v)] for w, v in self.features],
            "intercept": self.intercept,
            "r2": self.r2,
            "n_samples": self.n_samples,
        }

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
    seen = {}
    for t in tokens:
        seen.setdefault(t, None)
    return list(seen)


def sample_perturbations(tokens, n: int = DEFAULT_SAMPLES,
                         seed: int = 0) -> list[Perturbation]:
    """Presence masks over the distinct words; sample 0 keeps everything.

    Each other sample deactivates a uniform count in [1, m] of uniformly
    chosen words. Deterministic for a given seed.
    """
    tokens = list(tokens)
    words = distinct_words(tokens)
    m = len(words)
    if m == 0:
        raise DataError("cannot perturb an instance with no words")
    if n < 1:
        raise DataError(f"need at least one sample, got {n}")
    index = {w: i for i, w in enumerate(words)}
    rng = np.random.default_rng(np.random.PCG64(seed))

    out = [Perturbation(mask=np.ones(m, dtype=np.int64), text=" ".join(tokens))]
    for _ in range(n - 1):
        drop = rng.integers(1, m + 1)
        off = rng.choice(m, size=drop, replace=False)
        mask = np.ones(m, dtype=np.int64)
        mask[off] = 0
        text = " ".join(t for t in tokens if mask[index[t]])
        out.append(Perturbation(mask=mask, text=text))
    return out


def kernel_weight(mask, width: float = DEFAULT_KERNEL_WIDTH) -> float:
    """exp(-d^2 / width^2) where d is the cosine distance between the mask
    and the all-ones mask. The all-zeros mask has no direction: weight 0."""
    mask = np.asarray(mask, dtype=np.float64)
    m = mask.size
    kept = mask.sum()
    if kept == 0.0:
        return 0.0
    d = 1.0 - np.sqrt(kept / m)
    return float(np.exp(-(d ** 2) / width ** 2))


def _ridge_solve(x: np.ndarray, weights: np.ndarray, y: np.ndarray,
                 lam: float) -> np.ndarray:
    """Weighted ridge with an unpenalized trailing intercept column."""
    n, p = x.shape
    design = np.concatenate([x, np.ones((n, 1))], axis=1)
    wx = design * weights[:, None]
    a = design.T @ wx
    a[np.arange(p), np.arange(p)] += lam
    b = wx.T @ y
    try:
        return np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"surrogate system is singular: {exc}") from exc


def _weighted_sse(x, weights, y, beta) -> float:
    resid = y - (np.concatenate([x, np.ones((x.shape[0], 1))], axis=1) @ beta)
    return float(weights @ (resid ** 2))


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
    empty = np.empty((n, 0))
    current_sse = _weighted_sse(
        empty, weights, targets, _ridge_solve(empty, weights, targets, lam)
    )
    while len(selected) < min(k, m):
        best_j, best_sse = -1, current_sse
        for j in range(m):
            if j in selected:
                continue
            x = masks[:, selected + [j]]
            sse = _weighted_sse(x, weights, targets,
                                _ridge_solve(x, weights, targets, lam))
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
    beta = _ridge_solve(masks, weights, targets, lam)
    coef, intercept = beta[:-1], float(beta[-1])
    sse = _weighted_sse(masks, weights, targets, beta)
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


def explain_instance(predict, document: str, class_index: int,
                     n: int = DEFAULT_SAMPLES, k: int = BINARY_TOP_K,
                     seed: int = 0, class_name: str | None = None) -> Explanation:
    """Explain one class probability of ``predict`` on ``document``.

    ``predict`` maps a list of n texts to an (n, classes) array of
    probabilities; perturbed texts re-enter the model through whatever
    tokenization ``predict`` applies. It is called once, on the distinct
    perturbed texts.
    """
    tokens = document.split()
    perturbations = sample_perturbations(tokens, n=n, seed=seed)
    words = distinct_words(tokens)
    row = {}
    for p in perturbations:
        row.setdefault(p.text, len(row))
    outputs = np.asarray(predict(list(row)), dtype=np.float64)
    if outputs.ndim != 2 or len(outputs) != len(row):
        raise DataError(
            f"predict returned shape {outputs.shape} for {len(row)} texts")
    if class_index >= outputs.shape[1] or class_index < 0:
        raise DataError(
            f"class index {class_index} out of range for model with "
            f"{outputs.shape[1]} outputs"
        )
    targets = outputs[[row[p.text] for p in perturbations], class_index]
    weights = np.array([kernel_weight(p.mask) for p in perturbations])
    masks = np.stack([p.mask for p in perturbations]).astype(np.float64)

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
        n_samples=len(perturbations),
    )
