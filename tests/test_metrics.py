import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toxiclass import metrics as MT
from toxiclass.errors import DataError, NumericError


class TestConfusion:
    def test_perfect_predictions(self):
        c = MT.confusion([1, 0, 1], [1, 0, 1])
        assert c.fp == 0 and c.fn == 0 and c.tp == 2 and c.tn == 1

    def test_inverted_predictions(self):
        c = MT.confusion([1, 1], [0, 0])
        assert c.tp == 0 and c.tn == 0 and c.fp == 2

    def test_counts_sum_to_n(self):
        r = np.random.default_rng(0)
        pred, gold = r.integers(0, 2, 1000), r.integers(0, 2, 1000)
        c = MT.confusion(pred, gold)
        assert c.total == 1000
        assert c.tp == int(np.sum(pred & gold))
        assert c.tn == int(np.sum((1 - pred) & (1 - gold)))

    def test_length_mismatch(self):
        with pytest.raises(DataError):
            MT.confusion([1], [1, 0])

    def test_non_binary_rejected(self):
        with pytest.raises(DataError):
            MT.confusion([2, 0], [1, 0])


class TestPrf:
    def test_perfect(self):
        assert MT.prf(MT.ConfusionMatrix2x2(1, 0, 0, 0)) == (1.0, 1.0, 1.0)

    def test_no_true_positives(self):
        assert MT.prf(MT.ConfusionMatrix2x2(0, 3, 2, 1)) == (0.0, 0.0, 0.0)

    def test_hand_example(self):
        p, r, f1 = MT.prf(MT.ConfusionMatrix2x2(tp=3, fp=1, fn=2, tn=0))
        assert (p, r) == (0.75, 0.6)
        assert f1 == pytest.approx(2 * 0.45 / 1.35)

    def test_zero_everything(self):
        assert MT.prf(MT.ConfusionMatrix2x2(0, 0, 0, 0)) == (0.0, 0.0, 0.0)


def _report_oracle(pred, gold):
    n, k = pred.shape
    sup = gold.sum(axis=0)
    ps, rs, fs, accs = [], [], [], []
    for c in range(k):
        tp = int(((pred[:, c] == 1) & (gold[:, c] == 1)).sum())
        fp = int(((pred[:, c] == 1) & (gold[:, c] == 0)).sum())
        fn = int(((pred[:, c] == 0) & (gold[:, c] == 1)).sum())
        tn = n - tp - fp - fn
        p = tp / (tp + fp) if tp + fp else 0.0
        r = tp / (tp + fn) if tp + fn else 0.0
        fs.append(2 * p * r / (p + r) if p + r else 0.0)
        ps.append(p)
        rs.append(r)
        accs.append((tp + tn) / n)
    total = sup.sum()

    def wavg(v):
        return sum(x * s for x, s in zip(v, sup)) / total if total else 0.0

    return (wavg(ps), wavg(rs), wavg(fs),
            float((pred == gold).all(axis=1).mean()), sum(accs) / k)


class TestMultilabelReport:
    def test_identity_is_all_ones(self):
        r = np.random.default_rng(1)
        gold = r.integers(0, 2, (20, 6))
        gold[0] = 1  # ensure every label has support
        rep = MT.multilabel_report(gold, gold)
        assert rep.weighted_precision == rep.weighted_recall == rep.weighted_f1 == 1.0
        assert rep.subset_accuracy == 1.0 and rep.mean_label_accuracy == 1.0

    def test_complement_has_zero_subset_accuracy(self):
        r = np.random.default_rng(2)
        gold = r.integers(0, 2, (15, 6))
        assert MT.multilabel_report(1 - gold, gold).subset_accuracy == 0.0

    def test_weighted_f1_085_example(self):
        # label a: tp=2 fn=1 -> f1 0.8 support 3; label b: perfect, support 1
        pred = np.array([[1, 0], [1, 0], [0, 0], [0, 1]])
        gold = np.array([[1, 0], [1, 0], [1, 0], [0, 1]])
        rep = MT.multilabel_report(pred, gold, class_names=("a", "b"))
        assert rep.per_class[0].f1 == pytest.approx(0.8, abs=1e-12)
        assert rep.per_class[1].f1 == 1.0
        assert rep.weighted_f1 == pytest.approx(0.85, abs=1e-12)

    def test_against_oracle(self):
        r = np.random.default_rng(3)
        for _ in range(200):
            n = int(r.integers(1, 50))
            pred, gold = r.integers(0, 2, (n, 6)), r.integers(0, 2, (n, 6))
            rep = MT.multilabel_report(pred, gold)
            got = (rep.weighted_precision, rep.weighted_recall, rep.weighted_f1,
                   rep.subset_accuracy, rep.mean_label_accuracy)
            for a, b in zip(got, _report_oracle(pred, gold)):
                assert abs(a - b) < 1e-12

    def test_permutation_invariance(self):
        r = np.random.default_rng(4)
        pred, gold = r.integers(0, 2, (30, 6)), r.integers(0, 2, (30, 6))
        perm = r.permutation(30)
        a = MT.multilabel_report(pred, gold)
        b = MT.multilabel_report(pred[perm], gold[perm])
        assert a == b

    def test_weighted_f1_bounded_by_per_class(self):
        r = np.random.default_rng(5)
        for _ in range(50):
            pred, gold = r.integers(0, 2, (25, 6)), r.integers(0, 2, (25, 6))
            rep = MT.multilabel_report(pred, gold)
            f1s = [m.f1 for m in rep.per_class if m.support]
            if f1s:
                assert min(f1s) - 1e-12 <= rep.weighted_f1 <= max(f1s) + 1e-12

    def test_single_row_subset_accuracy_binary(self):
        pred = np.array([[1, 0, 0, 0, 0, 0]])
        assert MT.multilabel_report(pred, pred).subset_accuracy == 1.0
        gold = np.array([[0, 1, 0, 0, 0, 0]])
        assert MT.multilabel_report(pred, gold).subset_accuracy == 0.0

    def test_degenerate_labels_flagged(self):
        pred = np.array([[0, 1], [0, 1]])
        gold = np.array([[0, 1], [0, 1]])
        rep = MT.multilabel_report(pred, gold, class_names=("a", "b"))
        assert "a" in rep.degenerate and "b" not in rep.degenerate

    def test_no_gold_positive_flags_all(self):
        pred = np.array([[1, 0], [0, 0]])
        rep = MT.multilabel_report(pred, np.zeros((2, 2), int), class_names=("a", "b"))
        assert rep.degenerate == ("a", "b", "__all__")
        assert (rep.weighted_precision, rep.weighted_recall, rep.weighted_f1) == (0.0, 0.0, 0.0)

    def test_shape_mismatch(self):
        with pytest.raises(DataError):
            MT.multilabel_report(np.zeros((2, 6)), np.zeros((3, 6)))

    def test_report_serializes(self):
        rep = MT.multilabel_report(np.ones((2, 6), int), np.ones((2, 6), int))
        d = rep.to_dict()
        assert d["accuracy"] == 1.0 and len(d["per_class"]) == 6


def _auc_pair_oracle(scores, gold):
    pos = [s for s, g in zip(scores, gold) if g]
    neg = [s for s, g in zip(scores, gold) if not g]
    total = 0.0
    for a in pos:
        for b in neg:
            total += 1.0 if a > b else (0.5 if a == b else 0.0)
    return total / (len(pos) * len(neg))


class TestRocAuc:
    def test_perfect_ranking(self):
        assert MT.roc_auc([0.9, 0.8, 0.3, 0.1], [1, 1, 0, 0]).auc == 1.0

    def test_inverted_ranking(self):
        assert MT.roc_auc([0.3, 0.9], [1, 0]).auc == 0.0

    def test_matches_pair_oracle_with_ties(self):
        r = np.random.default_rng(6)
        checked = 0
        while checked < 200:
            n = int(r.integers(2, 50))
            gold = r.integers(0, 2, n)
            if gold.sum() in (0, n):
                continue
            scores = np.round(r.random(n), 2)
            curve = MT.roc_auc(scores, gold)
            assert abs(curve.auc - _auc_pair_oracle(scores, gold)) < 1e-12
            checked += 1

    def test_curve_shape(self):
        r = np.random.default_rng(7)
        gold = np.array([1, 0] * 10)
        curve = MT.roc_auc(r.random(20), gold)
        fprs = [p[0] for p in curve.points]
        tprs = [p[1] for p in curve.points]
        thresholds = [p[2] for p in curve.points]
        assert fprs == sorted(fprs) and tprs == sorted(tprs)
        assert thresholds == sorted(thresholds, reverse=True)
        assert curve.points[0][:2] == (0.0, 0.0)
        assert curve.points[-1][:2] == (1.0, 1.0)
        assert 0.0 <= curve.auc <= 1.0

    def test_complement_property_tie_free(self):
        r = np.random.default_rng(8)
        scores = r.permutation(30).astype(float)
        gold = np.array([1] * 10 + [0] * 20)
        assert MT.roc_auc(scores, gold).auc + MT.roc_auc(-scores, gold).auc \
            == pytest.approx(1.0, abs=1e-12)

    def test_single_class_gold_is_undefined(self):
        curve = MT.roc_auc([0.1, 0.9], [1, 1])
        assert math.isnan(curve.auc) and curve.points == () and not curve.defined

    def test_non_finite_scores_rejected(self):
        with pytest.raises(DataError):
            MT.roc_auc([np.nan, 0.5], [1, 0])


def sweep_roc(scores, gold):
    """The threshold sweep that ``roc_auc`` replaced, kept as its reference:
    one pass over the scores per distinct score."""
    scores = np.asarray(scores, dtype=np.float64)
    gold = np.asarray(gold, dtype=np.int64)
    pos = int(gold.sum())
    neg = gold.size - pos
    points = [(0.0, 0.0, float("inf"))]
    for threshold in sorted(set(scores.tolist()), reverse=True):
        predicted = scores >= threshold
        tpr = float((predicted & (gold == 1)).sum() / pos)
        fpr = float((predicted & (gold == 0)).sum() / neg)
        points.append((fpr, tpr, threshold))
    auc = 0.0
    for (fpr0, tpr0, _), (fpr1, tpr1, _) in zip(points, points[1:]):
        auc += (fpr1 - fpr0) * (tpr1 + tpr0) / 2.0
    return points, auc


def _bits(points):
    return [tuple(np.float64(v).view(np.int64) for v in p) for p in points]


class TestRocAucMatchesSweep:
    """Points and AUC are bit for bit those of the threshold sweep."""

    @pytest.mark.parametrize("scores", [
        lambda r: r.random(10_000),
        lambda r: r.integers(0, 50, 10_000) / 49.0,
        lambda r: np.round(r.standard_normal(10_000), 2),
    ], ids=["untied", "tied", "tied_signed"])
    def test_large(self, scores):
        r = np.random.default_rng(70)
        s = scores(r)
        gold = r.integers(0, 2, s.size)
        curve = MT.roc_auc(s, gold)
        points, auc = sweep_roc(s, gold)
        assert _bits(curve.points) == _bits(points)
        assert np.float64(curve.auc).view(np.int64) == np.float64(auc).view(np.int64)

    @pytest.mark.parametrize("scores, gold", [
        ([0.0, -0.0, 0.5, -0.0], [1, 0, 0, 1]),  # signed zeros tie
        ([-0.0, 0.0, 0.5], [1, 0, 1]),
        ([0.3, 0.3, 0.3], [1, 0, 1]),  # one distinct score
        ([0.9, 0.1], [0, 1]),
    ])
    def test_small(self, scores, gold):
        curve = MT.roc_auc(scores, gold)
        points, auc = sweep_roc(scores, gold)
        assert _bits(curve.points) == _bits(points)
        assert curve.auc == auc

    @settings(max_examples=200, derandomize=True, database=None)
    @given(st.lists(st.tuples(st.sampled_from([-1.5, -0.0, 0.0, 0.25, 0.25, 2.0]),
                              st.integers(0, 1)), min_size=2, max_size=30)
           .filter(lambda rows: len({g for _, g in rows}) == 2))
    def test_property(self, rows):
        scores, gold = zip(*rows)
        curve = MT.roc_auc(scores, gold)
        points, auc = sweep_roc(scores, gold)
        assert _bits(curve.points) == _bits(points)
        assert curve.auc == auc


class TestCohensKappa:
    def test_identical_annotations(self):
        assert MT.cohens_kappa([1, 0, 2, 1], [1, 0, 2, 1]) == 1.0

    def test_worked_zero_example(self):
        assert MT.cohens_kappa([1, 1, 0, 0], [1, 0, 0, 1]) == 0.0

    def test_matches_direct_formula(self):
        r = np.random.default_rng(9)
        checked = 0
        while checked < 200:
            n = int(r.integers(2, 50))
            a1 = [str(v) for v in r.integers(0, 4, n)]
            a2 = [str(v) for v in r.integers(0, 4, n)]
            cats = set(a1) | set(a2)
            p_e = sum((a1.count(c) / n) * (a2.count(c) / n) for c in cats)
            if p_e == 1.0:
                continue
            p_o = sum(x == y for x, y in zip(a1, a2)) / n
            assert abs(MT.cohens_kappa(a1, a2) - (p_o - p_e) / (1 - p_e)) < 1e-12
            checked += 1

    def test_relabeling_invariance(self):
        a1 = ["x", "y", "x", "z", "y"]
        a2 = ["x", "x", "x", "z", "y"]
        mapping = {"x": 1, "y": 2, "z": 3}
        assert MT.cohens_kappa(a1, a2) == pytest.approx(
            MT.cohens_kappa([mapping[v] for v in a1], [mapping[v] for v in a2]))

    @settings(max_examples=100)
    @given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                    min_size=1, max_size=40))
    def test_never_exceeds_one(self, pairs):
        a1 = [p[0] for p in pairs]
        a2 = [p[1] for p in pairs]
        try:
            k = MT.cohens_kappa(a1, a2)
        except NumericError:
            return
        assert k <= 1.0 + 1e-12
        if a1 == a2:
            assert k == 1.0

    def test_constant_identical_annotations(self):
        # chance agreement 1 with observed agreement 1
        assert MT.cohens_kappa(["t"] * 5, ["t"] * 5) == 1.0

    def test_length_mismatch(self):
        with pytest.raises(DataError):
            MT.cohens_kappa([1], [1, 0])


class TestTrustworthiness:
    def test_perfect(self):
        assert MT.trustworthiness([1] * 30, [1] * 30) == 1.0

    def test_24_of_30(self):
        assert MT.trustworthiness([1] * 24 + [0] * 6, [1] * 30) == 0.8

    def test_order_invariance(self):
        a = [1, 0, 1, 1, 0, 1]
        e = [1, 1, 1, 0, 0, 1]
        perm = [3, 0, 5, 1, 4, 2]
        assert MT.trustworthiness([a[i] for i in perm], [e[i] for i in perm]) \
            == MT.trustworthiness(a, e)

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            MT.trustworthiness([], [])
