"""Acceptance gate: one test per shipping criterion, each printing a single
PASS line with the measured values. Criterion 10 needs externally supplied
artifacts and skips when they are absent."""

import itertools
import json
import math
import os
import time

import numpy as np
import pytest

from toxiclass import cli
from toxiclass import explain as X
from toxiclass import metrics as MT
from toxiclass import models as M
from toxiclass.corpus import (
    LABELS,
    Document,
    SplitSpec,
    TokenSequence,
    build_vocab,
    ingest,
    FormatSpec,
    stats,
    stratified_split,
    tokenize,
)
from toxiclass.embedding import random_table
from toxiclass.neural import Attention, BiLSTM, Conv1D, Dense, LSTM, MaxPool1D, Param
from toxiclass.neural.gradcheck import grad_check
from toxiclass.neural.losses import add_l2_gradients, bce_loss, l2_penalty


# --------------------------------------------------------------- criterion 1


def _layer_check(layer, x, rng, with_mask=False):
    """FD-check one layer's parameters and its input gradient; ``x`` has a
    leading batch axis."""
    for p in layer.params():
        p.zero_grad()
    out = layer.forward(x, np.ones(x.shape[:2])) if with_mask else layer.forward(x)
    r = rng.standard_normal(out.shape)

    def loss_fn():
        o = layer.forward(x, np.ones(x.shape[:2])) if with_mask else layer.forward(x)
        return float((o * r).sum())

    dx = layer.backward(r)
    arrays = [p.value for p in layer.params()] + [x]
    grads = [p.grad for p in layer.params()] + [dx]
    return grad_check(loss_fn, arrays, grads)


def test_criterion_01_gradient_suite():
    t0 = time.monotonic()
    rng = np.random.default_rng(0)
    worst_smooth = 0.0

    dense = Dense(5, 3, rng)
    worst_smooth = max(worst_smooth, _layer_check(dense, rng.standard_normal((1, 5)), rng))

    conv = Conv1D(3, 4, 5, rng)
    worst_smooth = max(worst_smooth,
                       _layer_check(conv, rng.standard_normal((1, 10, 4)), rng))

    pool = MaxPool1D(2)
    x = rng.standard_normal((1, 10, 3))  # distinct entries: locally linear
    out = pool.forward(x)
    r = rng.standard_normal(out.shape)
    dx = pool.backward(r)
    worst_smooth = max(worst_smooth, grad_check(
        lambda: float((pool.forward(x) * r).sum()), [x], [dx]))

    lstm = LSTM(4, 5, rng)
    worst_smooth = max(worst_smooth,
                       _layer_check(lstm, rng.standard_normal((1, 7, 4)), rng,
                                    with_mask=True))

    bilstm = BiLSTM(3, 4, rng)
    worst_smooth = max(worst_smooth,
                       _layer_check(bilstm, rng.standard_normal((1, 6, 3)), rng,
                                    with_mask=True))

    # attention: FD on the score weight and the input; the score bias shifts
    # every logit equally, so softmax cancels it and its gradient is exactly 0
    att = Attention(6, rng)
    for p in att.params():
        p.zero_grad()
    h = rng.standard_normal((1, 5, 6))
    _, z = att.forward(h)
    r = rng.standard_normal(z.shape)
    dh = att.backward(r)
    w = next(p for p in att.params() if p.name == "w")
    b = next(p for p in att.params() if p.name == "b")
    worst_smooth = max(worst_smooth, grad_check(
        lambda: float((att.forward(h)[1] * r).sum()), [w.value, h], [w.grad, dh]))
    assert float(np.max(np.abs(b.grad))) < 1e-12
    base = float((att.forward(h)[1] * r).sum())
    b.value += 123.0
    assert float((att.forward(h)[1] * r).sum()) == pytest.approx(base, abs=1e-9)
    b.value -= 123.0

    # BCE plus the L2 penalty
    p_vec = rng.uniform(0.05, 0.95, 6)
    y = rng.integers(0, 2, 6).astype(np.float64)
    w2 = Param("w", rng.standard_normal((4, 3)))
    lam = 1e-3
    _, dp = bce_loss(p_vec, y)
    w2.zero_grad()
    add_l2_gradients([w2], lam)
    worst_smooth = max(worst_smooth, grad_check(
        lambda: bce_loss(p_vec, y)[0] + l2_penalty([w2.value], lam),
        [p_vec, w2.value], [dp, w2.grad]))

    assert worst_smooth < 1e-6

    # composed toy stack: embedding dim 8, length 20, kernels 4/3/2.
    # seed 8 keeps every ReLU pre-activation and pool window away from the
    # non-smooth points that invalidate central differences.
    seed = 8
    cfg = M.MultiLabelModelConfig(conv_stack=((6, 4), (5, 3), (4, 2)), pool=2,
                                  bilstm_units=4)
    table = random_table(30, 8, seed=seed, trainable=True)
    model = M.MultiLabelModel(cfg, table, seq_len=20, seed=seed)
    r2 = np.random.default_rng(seed + 1000)
    seq = TokenSequence(input_ids=r2.integers(2, 30, 20), mask=np.ones(20),
                        true_length=20)
    y6 = r2.integers(0, 2, 6).astype(np.float64)
    weights = model.decayed_params()

    def composed_loss():
        return bce_loss(model.forward([seq])[0], y6)[0] \
            + l2_penalty((w.value for w in weights), lam)

    model.zero_grad()
    _, dp = bce_loss(model.forward([seq])[0], y6)
    model.backward(dp[None])
    add_l2_gradients(weights, lam)
    named = [(n, p) for n, p in model.named_tensors() if n != "attention.b"]
    worst_composed = grad_check(composed_loss, [p.value for _, p in named],
                                [p.grad for _, p in named])
    assert worst_composed < 1e-4

    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    print(f"[criterion 1] PASS gradient suite: smooth worst {worst_smooth:.2e} "
          f"(< 1e-6), composed stack {worst_composed:.2e} (< 1e-4), "
          f"{elapsed:.1f}s (< 60s)")


# --------------------------------------------------------------- criterion 2


def test_criterion_02_analytic_fixed_points():
    rng = np.random.default_rng(1)

    lstm = LSTM(4, 5, rng)
    for p in lstm.params():
        p.value[...] = 0.0
    h = lstm.forward(rng.standard_normal((1, 9, 4)), np.ones((1, 9)))
    assert np.all(h == 0.0)

    bilstm = BiLSTM(4, 3, rng)
    for p in bilstm.params():
        p.value[...] = 0.0
    hb = bilstm.forward(rng.standard_normal((1, 7, 4)), np.ones((1, 7)))[0]
    assert hb.shape == (7, 6) and np.all(hb == 0.0)

    att = Attention(5, rng)
    for p in att.params():
        p.value[...] = 0.0
    H = rng.standard_normal((8, 5))
    alpha, z = att.forward(H[None])
    assert np.allclose(alpha, 1.0 / 8.0, atol=1e-15)
    assert np.allclose(z, H.mean(axis=0), atol=1e-15)

    vocab = build_vocab(["aa bb cc dd ee ff gg hh"])
    seq = tokenize("aa bb cc dd ee ff gg hh", vocab, 20)
    binary = M.BinaryModel(M.desk_binary_config(),
                           random_table(len(vocab), 6, seed=0), seed=0)
    for _, p in binary.named_tensors():
        p.value[...] = 0.0
    assert binary.forward([seq])[0, 0] == 0.5

    multi = M.MultiLabelModel(M.desk_multilabel_config(),
                              random_table(len(vocab), 6, seed=0),
                              seq_len=20, seed=0)
    for _, p in multi.named_tensors():
        p.value[...] = 0.0
    assert np.all(multi.forward([seq]) == 0.5)

    ln2_err = abs(bce_loss(np.array([0.5]), np.array([1.0]))[0] - math.log(2.0))
    assert ln2_err < 1e-12

    print(f"[criterion 2] PASS fixed points: zero-weight LSTM/BiLSTM emit 0, "
          f"attention uniform, classifiers 0.5, |BCE(0.5,1) - ln 2| = "
          f"{ln2_err:.1e} (< 1e-12)")


# --------------------------------------------------------------- criterion 3


def _report_oracle(pred, gold):
    n, k = pred.shape
    sup = gold.sum(axis=0)
    ps, rs, fs = [], [], []
    for c in range(k):
        tp = int(((pred[:, c] == 1) & (gold[:, c] == 1)).sum())
        fp = int(((pred[:, c] == 1) & (gold[:, c] == 0)).sum())
        fn = int(((pred[:, c] == 0) & (gold[:, c] == 1)).sum())
        p = tp / (tp + fp) if tp + fp else 0.0
        r = tp / (tp + fn) if tp + fn else 0.0
        ps.append(p)
        rs.append(r)
        fs.append(2 * p * r / (p + r) if p + r else 0.0)
    total = sup.sum()

    def wavg(v):
        return sum(x * s for x, s in zip(v, sup)) / total if total else 0.0

    return wavg(ps), wavg(rs), wavg(fs), float((pred == gold).all(axis=1).mean())


def _auc_pair_oracle(scores, gold):
    pos = scores[gold == 1]
    neg = scores[gold == 0]
    wins = (pos[:, None] > neg[None, :]).sum()
    ties = (pos[:, None] == neg[None, :]).sum()
    return (wins + 0.5 * ties) / (len(pos) * len(neg))


def test_criterion_03_metric_oracles():
    rng = np.random.default_rng(2)
    worst = 0.0
    auc_trials = kappa_trials = 0
    for _ in range(1000):
        n = int(rng.integers(1, 51))
        pred = rng.integers(0, 2, (n, 6))
        gold = rng.integers(0, 2, (n, 6))
        rep = MT.multilabel_report(pred, gold)
        got = (rep.weighted_precision, rep.weighted_recall, rep.weighted_f1,
               rep.subset_accuracy)
        for a, b in zip(got, _report_oracle(pred, gold)):
            worst = max(worst, abs(a - b))

        a1 = rng.integers(0, 4, n)
        a2 = rng.integers(0, 4, n)
        cats = set(a1) | set(a2)
        p_e = sum((np.sum(a1 == c) / n) * (np.sum(a2 == c) / n) for c in cats)
        if p_e < 1.0:
            expected = (np.mean(a1 == a2) - p_e) / (1.0 - p_e)
            worst = max(worst, abs(MT.cohens_kappa(a1, a2) - expected))
            kappa_trials += 1

        g = rng.integers(0, 2, n)
        if 0 < g.sum() < n:
            scores = np.round(rng.random(n), 1)  # coarse grid forces ties
            worst = max(worst,
                        abs(MT.roc_auc(scores, g).auc - _auc_pair_oracle(scores, g)))
            auc_trials += 1
    assert worst < 1e-12

    kappa_zero = MT.cohens_kappa([1, 1, 0, 0], [1, 0, 0, 1])
    assert kappa_zero == 0.0

    pred = np.array([[1, 0], [1, 0], [0, 0], [0, 1]])
    gold = np.array([[1, 0], [1, 0], [1, 0], [0, 1]])
    wf1 = MT.multilabel_report(pred, gold, class_names=("a", "b")).weighted_f1
    assert abs(wf1 - 0.85) < 1e-12

    print(f"[criterion 3] PASS metric oracles: worst |diff| {worst:.2e} "
          f"(< 1e-12) over 1000 report trials, {kappa_trials} kappa trials, "
          f"{auc_trials} AUC trials; worked examples kappa = {kappa_zero}, "
          f"weighted F1 = {wf1:.2f}")


# --------------------------------------------------------------- criterion 4


def test_criterion_04_split_stratification():
    rng = np.random.default_rng(7)
    prevalence = (0.35, 0.25, 0.20, 0.15, 0.30, 0.10)
    docs = []
    for i in range(600):
        labels = tuple(int(rng.random() < p) for p in prevalence)
        docs.append(Document(id=f"d{i}", text=f"text {i}",
                             toxic=any(labels), labels=labels))
    spec = SplitSpec(train_fraction=0.60, val_fraction=0.24,
                     test_fraction=0.16, seed=5)
    folds = stratified_split(docs, spec)
    sizes = tuple(len(f) for f in folds)
    assert abs(sizes[0] - 360) <= 1
    assert abs(sizes[1] - 144) <= 1
    assert abs(sizes[2] - 96) <= 1
    assert sum(sizes) == 600

    worst_dev = 0
    totals = [sum(d.labels[c] for d in docs) for c in range(6)]
    for fold, fraction in zip(folds, (0.60, 0.24, 0.16)):
        for c in range(6):
            count = sum(d.labels[c] for d in fold)
            dev = abs(count - fraction * totals[c])
            worst_dev = max(worst_dev, dev)
            assert dev <= 2.0, f"label {c}: {count} vs {fraction * totals[c]}"

    again = stratified_split(docs, spec)
    for f1, f2 in zip(folds, again):
        assert [d.id for d in f1] == [d.id for d in f2]

    print(f"[criterion 4] PASS stratified split: sizes {sizes} "
          f"(360/144/96 ±1), worst per-label deviation {worst_dev:.1f} (≤ 2), "
          f"identical seed reproduces folds")


# --------------------------------------------------------------- criterion 5


def test_criterion_05_overfit_smoke():
    t0 = time.monotonic()
    keywords = ("grox", "vexa", "thorn", "krell", "plim", "snib")
    filler = ("river", "cloud", "stone", "light")
    rng = np.random.default_rng(123)
    corpus = []
    for i in range(48):
        classes = rng.choice(6, size=1 + (i % 2), replace=False)
        y = np.zeros(6)
        y[classes] = 1.0
        words = []
        for c in classes:
            words += [keywords[c]] * 3
        while len(words) < 10:
            words.append(filler[int(rng.integers(len(filler)))])
        rng.shuffle(words)
        corpus.append((" ".join(words), y))

    vocab = build_vocab(text for text, _ in corpus)
    data = [(tokenize(text, vocab, 12), y) for text, y in corpus]
    table = random_table(len(vocab), dim=24, seed=0, trainable=True)
    model = M.MultiLabelModel(
        M.MultiLabelModelConfig(conv_stack=((32, 3),), pool=2, bilstm_units=12),
        table, seq_len=12, seed=1)
    trained = M.train(model, data, data,
                      M.TrainingConfig(batch_size=4, learning_rate=1e-3,
                                       epochs=200, seed=0, patience=200))
    pred = np.stack([(M.predict_multilabel(model, s) >= 0.5).astype(int)
                     for s, _ in data])
    gold = np.stack([y for _, y in data]).astype(int)
    subset = float((pred == gold).all(axis=1).mean())
    elapsed = time.monotonic() - t0
    assert len(trained.history) <= 200
    assert subset >= 0.95
    assert elapsed < 300.0
    print(f"[criterion 5] PASS overfit smoke: 48 planted docs, lr 1e-3, "
          f"train subset accuracy {subset:.3f} (≥ 0.95) after "
          f"{len(trained.history)} epochs, {elapsed:.1f}s (< 300s)")


# --------------------------------------------------------------- criterion 6


def test_criterion_06_lime_fidelity():
    fidelity = 0
    oracle_agree = 0
    worst_r2 = 1.0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        m = 4 + seed % 9
        words = [f"w{i}" for i in range(m)]
        support = rng.choice(m, size=1 + seed % 3, replace=False)
        coef = np.zeros(m)
        for i in support:
            coef[i] = (0.5 + rng.random()) * (1 if rng.random() < 0.5 else -1)
        bias = rng.random()

        def predict_one(text, coef=coef, bias=bias, words=words):
            present = set(text.split())
            v = bias + sum(c for w, c in zip(words, coef) if c and w in present)
            return np.array([1.0 - v, v])

        def predict(texts, predict_one=predict_one):
            return np.array([predict_one(t) for t in texts])

        exp = X.explain_instance(predict, " ".join(words), class_index=1,
                                 n=500, k=len(support), seed=seed)
        got = dict(exp.features)
        planted = {words[i]: coef[i] for i in support}
        if (set(got) == set(planted)
                and all(np.sign(got[w]) == np.sign(planted[w]) for w in planted)
                and exp.r2 >= 0.9):
            fidelity += 1
        worst_r2 = min(worst_r2, exp.r2)

        masks = np.array(list(itertools.product([0, 1], repeat=m)),
                         dtype=np.float64)
        weights = np.array([X.kernel_weight(mk) for mk in masks])
        full, _, _ = X.fit_surrogate(masks, weights, masks @ coef + bias,
                                     lam=1e-9)
        if exp.features[0][0] == words[int(np.argmax(np.abs(full)))]:
            oracle_agree += 1

    assert fidelity >= 95
    assert oracle_agree == 100
    print(f"[criterion 6] PASS surrogate fidelity: support+signs+R² recovered "
          f"{fidelity}/100 (≥ 95), exhaustive-mask oracle top-feature "
          f"agreement {oracle_agree}/100 (= 100), worst R² {worst_r2:.4f}")


# --------------------------------------------------------------- criterion 7


def test_criterion_07_pipeline_routing():
    rng = np.random.default_rng(11)
    fallback = multi = nontoxic = 0
    for _ in range(10_000):
        p_toxic = float(rng.random())
        probs = rng.random(6)
        labels = M.route(p_toxic, probs)
        assert labels, "verdict must never be empty"
        if p_toxic < 0.5:
            assert labels == ["Non-toxic"]
            nontoxic += 1
        else:
            assert "Non-toxic" not in labels
            assert all(l in LABELS for l in labels)
            if probs.max() < 0.5:
                fallback += 1
                assert labels == [LABELS[int(np.argmax(probs))]]
            if len(labels) > 1:
                multi += 1
    assert fallback > 0, "argmax fallback never exercised"
    assert M.route(0.9, [0.1, 0.2, 0.45, 0.3, 0.2, 0.1]) == ["religious"]
    print(f"[criterion 7] PASS routing over 10000 draws: {nontoxic} gated "
          f"Non-toxic, {fallback} argmax fallbacks, {multi} multi-label "
          f"verdicts; invariants held on every draw")


# --------------------------------------------------------------- criterion 8


_SIG = {
    "vulgar": ("vix", "vox"), "hate": ("hax", "hox"),
    "religious": ("rel", "rix"), "threat": ("thx", "tox"),
    "troll": ("trl", "trx"), "insult": ("inx", "isx"),
}
_FILL = ("river", "cloud", "stone", "light", "grass", "plain")


def _write_corpus_csv(path, n=96):
    rows = ["id,text,toxic," + ",".join(LABELS)]
    for i in range(n):
        toxic = i % 2
        if toxic:
            c = (i // 2) % 6
            labels = [0] * 6
            labels[c] = 1
            words = list(_SIG[LABELS[c]]) * 2 + [_FILL[i % len(_FILL)]]
        else:
            labels = [0] * 6
            words = [_FILL[(i + j) % len(_FILL)] for j in range(4)]
        rows.append(f"d{i}," + " ".join(words) + f",{toxic},"
                    + ",".join(str(v) for v in labels))
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")


def test_criterion_08_determinism(tmp_path):
    csv_path = tmp_path / "corpus.csv"
    _write_corpus_csv(csv_path)

    def run(out_dir):
        base = ["--set", f"data.path={csv_path}",
                "--set", "data.toxic_field=toxic",
                "--set", "data.id_field=id",
                "--set", "tokenize.max_len=10",
                "--set", "embedding.dim=6",
                "--set", "binary.lstm_units=4",
                "--set", "binary.dense_hidden=4",
                "--set", "multilabel.conv_stack=6x3",
                "--set", "multilabel.bilstm_units=3",
                "--set", "train.batch_size=8",
                "--set", "train.epochs=3",
                "--set", "train.learning_rate=0.01",
                "--set", f"output.dir={out_dir}",
                "--set", "seed=0"]
        for command in (["prepare"], ["split"], ["train-binary"],
                        ["train-multilabel"],
                        ["evaluate", "--stage", "binary"],
                        ["evaluate", "--stage", "multilabel"]):
            assert cli.main(base + command) == 0, command

    run(tmp_path / "run_a")
    run(tmp_path / "run_b")

    files_a = sorted(p.relative_to(tmp_path / "run_a")
                     for p in (tmp_path / "run_a").rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(tmp_path / "run_b")
                     for p in (tmp_path / "run_b").rglob("*") if p.is_file())
    assert files_a == files_b and files_a
    for rel in files_a:
        assert (tmp_path / "run_a" / rel).read_bytes() \
            == (tmp_path / "run_b" / rel).read_bytes(), f"{rel} differs"
    print(f"[criterion 8] PASS determinism: {len(files_a)} artifacts "
          f"(checkpoints, reports, splits, vocab) byte-identical across two "
          f"full prepare→split→train→evaluate runs")


# --------------------------------------------------------------- criterion 9


def _write_marginal_csv(path):
    """Synthetic corpus with the reference per-class marginals: 16073 total,
    8488 toxic / 7585 non-toxic, class counts 2505/1898/1418/1419/1643/2719.
    Labels are assigned to toxic rows by a cycling cursor, so every toxic row
    carries at least one label (11602 assignments > 8488 rows)."""
    per_class = (2505, 1898, 1418, 1419, 1643, 2719)
    n_toxic, n_clean = 8488, 7585
    matrix = np.zeros((n_toxic, 6), dtype=int)
    cursor = 0
    for c, count in enumerate(per_class):
        for _ in range(count):
            matrix[cursor % n_toxic, c] = 1
            cursor += 1
    assert matrix.sum(axis=1).min() >= 1
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("text,toxic," + ",".join(LABELS) + "\n")
        for i in range(n_toxic):
            fh.write(f"doc {i},1," + ",".join(str(v) for v in matrix[i]) + "\n")
        for i in range(n_clean):
            fh.write(f"doc {n_toxic + i},0,0,0,0,0,0,0\n")


def test_criterion_09_dataset_statistics(tmp_path):
    path = os.environ.get("TOXICLASS_DATASET")
    if path is None:
        path = tmp_path / "dataset.csv"
        _write_marginal_csv(path)
        source = "synthetic file with the reference marginals"
    else:
        source = f"external dataset {path}"
    spec = FormatSpec(kind="csv", text_field="text", toxic_field="toxic",
                      label_fields=LABELS)
    result = stats(ingest(path, spec))
    assert result["total"] == 16073
    assert result["toxic"] == 8488
    assert result["non_toxic"] == 7585
    expected = dict(zip(LABELS, (2505, 1898, 1418, 1419, 1643, 2719)))
    assert result["per_class"] == expected
    print(f"[criterion 9] PASS dataset statistics: 16073 total, 8488 toxic, "
          f"7585 non-toxic, per-class {tuple(expected.values())} reproduced "
          f"from {source}")


# -------------------------------------------------------------- criterion 10


def test_criterion_10_full_scale_optional(tmp_path):
    dataset = os.environ.get("TOXICLASS_DATASET")
    embedding = os.environ.get("TOXICLASS_EMBEDDING")
    if not dataset or not embedding:
        print("[criterion 10] SKIP full-scale run: set TOXICLASS_DATASET and "
              "TOXICLASS_EMBEDDING to enable")
        pytest.skip("full-scale check needs TOXICLASS_DATASET and "
                    "TOXICLASS_EMBEDDING")
    out = tmp_path / "full"
    base = ["--set", f"data.path={dataset}",
            "--set", "data.toxic_field=toxic",
            "--set", f"embedding.path={embedding}",
            "--set", "embedding.trainable=false",
            "--set", f"output.dir={out}"]
    for command in (["prepare"], ["split"], ["train-multilabel"],
                    ["evaluate", "--stage", "multilabel"]):
        assert cli.main(base + command) == 0, command
    report = json.loads((out / "report_multilabel.json").read_text())
    wf1 = report["weighted_f1"]
    assert abs(wf1 - 0.86) <= 0.10
    print(f"[criterion 10] PASS full-scale: weighted F1 {wf1:.4f} within "
          f"±0.10 of 0.86")
