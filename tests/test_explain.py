import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toxiclass import explain as EX
from toxiclass.corpus import PAD_ID, Vocabulary, encode
from toxiclass.errors import DataError

# Every word the instances below use has an id of its own; others read as UNK.
VOCAB = Vocabulary("alpha beta gamma delta epsilon zeta red blue green lonely".split())
MAX_LEN = 8


def _instance(document: str):
    """(tokens, ids): ``document`` as the explainer takes it."""
    tokens = document.split()
    return tokens, encode(tokens, VOCAB, 1)[:, 0]


def _explain(predict, document: str, class_index: int, **kwargs):
    return EX.explain_instance(predict, *_instance(document), MAX_LEN, class_index,
                               **kwargs)


class TestDistinctWords:
    def test_first_occurrence_order(self):
        assert EX.distinct_words("b a b c a".split()) == ["b", "a", "c"]

    def test_empty(self):
        assert EX.distinct_words([]) == []


def _reference_masks(m, n, seed):
    """The draws contract written out row by row: on PCG64(seed), each row
    after the first draws its drop count with ``integers`` and then the
    dropped words with ``choice``."""
    rng = np.random.default_rng(np.random.PCG64(seed))
    rows = [np.ones(m, dtype=np.int64)]
    for _ in range(n - 1):
        drop = rng.integers(1, m + 1)
        off = rng.choice(m, size=drop, replace=False)
        mask = np.ones(m, dtype=np.int64)
        mask[off] = 0
        rows.append(mask)
    return np.stack(rows)


def _texts(tokens, masks):
    """The text each mask keeps, over ``distinct_words(tokens)`` columns."""
    words = EX.distinct_words(tokens)
    return [" ".join(t for t in tokens if mask[words.index(t)])
            for mask in masks]


class TestSamplePerturbations:
    def test_first_sample_keeps_everything(self):
        masks = EX.sample_perturbations(3, n=5, seed=0)
        assert masks.shape == (5, 3) and masks.dtype == np.int64
        assert masks[0].tolist() == [1, 1, 1]

    def test_every_other_sample_drops_something(self):
        masks = EX.sample_perturbations(4, n=200, seed=1)
        dropped = 4 - masks[1:].sum(axis=1)
        assert dropped.min() >= 1 and dropped.max() <= 4

    @pytest.mark.parametrize("m", [1, 2, 5, 17, 30])
    @pytest.mark.parametrize("seed", [0, 7, 123])
    def test_matches_reference_draws(self, m, seed):
        masks = EX.sample_perturbations(m, n=300, seed=seed)
        assert np.array_equal(masks, _reference_masks(m, 300, seed))

    def test_single_word_document(self):
        masks = EX.sample_perturbations(1, n=10, seed=3)
        assert masks[0].tolist() == [1]
        assert (masks[1:] == 0).all()  # only possible drop count is 1

    def test_seed_determinism(self):
        a = EX.sample_perturbations(5, n=64, seed=7)
        assert np.array_equal(a, EX.sample_perturbations(5, n=64, seed=7))
        assert not np.array_equal(a, EX.sample_perturbations(5, n=64, seed=8))

    def test_full_drop_range_reached(self):
        masks = EX.sample_perturbations(3, n=500, seed=4)
        assert set((3 - masks[1:].sum(axis=1)).tolist()) == {1, 2, 3}

    def test_empty_document_rejected(self):
        with pytest.raises(DataError):
            EX.sample_perturbations(0, n=10)
        with pytest.raises(DataError, match="no words"):
            _explain(_linear_model({}, bias=0.5), "   ", 0, n=10)

    def test_zero_samples_rejected(self):
        with pytest.raises(DataError):
            EX.sample_perturbations(1, n=0)


def _scalar_weight(mask):
    """One row's weight by the scalar formula, as an oracle for the array."""
    mask = np.asarray(mask, dtype=np.float64)
    kept = mask.sum()
    if kept == 0.0:
        return 0.0
    d = 1.0 - np.sqrt(kept / mask.size)
    return float(np.exp(-(d ** 2) / EX.KERNEL_WIDTH ** 2))


class TestKernelWeight:
    def test_full_mask_weight_one(self):
        assert EX.kernel_weights(np.ones((1, 8))).tolist() == [1.0]

    def test_empty_mask_weight_zero(self):
        assert EX.kernel_weights(np.zeros((1, 8))).tolist() == [0.0]

    def test_half_mask_value(self):
        d = 1.0 - np.sqrt(0.5)
        expected = float(np.exp(-(d ** 2) / 0.25 ** 2))
        assert EX.kernel_weights([[1, 1, 0, 0]])[0] \
            == pytest.approx(expected, abs=1e-15)

    def test_monotone_in_kept_count(self):
        masks = np.tril(np.ones((8, 8)))  # row i keeps i + 1 words
        vals = EX.kernel_weights(masks).tolist()
        assert vals == sorted(vals)

    def test_depends_only_on_count(self):
        w = EX.kernel_weights([[1, 0, 1, 0], [0, 1, 0, 1]])
        assert w[0] == w[1]

    @pytest.mark.parametrize("m", [1, 2, 7, 30, 60])
    def test_rows_match_scalar_formula(self, m):
        masks = np.tril(np.ones((m + 1, m), dtype=np.int64), k=-1)
        expected = [_scalar_weight(mask) for mask in masks]
        assert EX.kernel_weights(masks).tolist() == expected

    @settings(max_examples=60)
    @given(st.integers(1, 30).flatmap(lambda m: st.lists(
        st.lists(st.integers(0, 1), min_size=m, max_size=m),
        min_size=1, max_size=8)))
    def test_range(self, rows):
        w = EX.kernel_weights(np.array(rows))
        assert w.shape == (len(rows),)
        assert ((0.0 <= w) & (w <= 1.0)).all()


class TestSelectFeatures:
    def _triple(self, seed, m, beta, intercept=0.0, noise=0.0):
        r = np.random.default_rng(seed)
        masks = r.integers(0, 2, (400, m)).astype(np.float64)
        weights = np.ones(400)
        targets = masks @ beta + intercept
        if noise:
            targets = targets + noise * r.standard_normal(400)
        return masks, weights, targets

    def test_single_planted_feature_found_first(self):
        beta = np.zeros(6)
        beta[3] = 2.0
        masks, weights, targets = self._triple(0, 6, beta)
        assert EX.select_features(masks, weights, targets, k=1) == [3]

    def test_strongest_feature_first(self):
        beta = np.array([0.5, 0.0, -3.0, 1.0])
        masks, weights, targets = self._triple(1, 4, beta)
        picked = EX.select_features(masks, weights, targets, k=3)
        assert picked[0] == 2
        assert set(picked) == {2, 3, 0}

    def test_k_at_least_m_selects_all_when_all_matter(self):
        beta = np.array([1.0, -2.0, 3.0, -4.0, 5.0])
        masks, weights, targets = self._triple(2, 5, beta, intercept=0.2,
                                               noise=0.01)
        assert sorted(EX.select_features(masks, weights, targets, k=9)) \
            == [0, 1, 2, 3, 4]

    def test_stops_when_nothing_reduces_error(self):
        # constant target: no feature can strictly reduce the error
        masks = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [0.0, 0.0]])
        weights = np.ones(4)
        targets = np.full(4, 0.7)
        assert EX.select_features(masks, weights, targets, k=2) == []

    def test_k_zero(self):
        masks, weights, targets = self._triple(3, 4, np.ones(4))
        assert EX.select_features(masks, weights, targets, k=0) == []


class TestFitSurrogate:
    def test_recovers_linear_model(self):
        r = np.random.default_rng(10)
        masks = r.integers(0, 2, (600, 5)).astype(np.float64)
        beta = np.array([0.8, -1.2, 0.0, 2.5, -0.4])
        targets = masks @ beta + 0.3
        weights = EX.kernel_weights(masks)
        coef, intercept, r2 = EX.fit_surrogate(masks, weights, targets,
                                                lam=1e-9)
        assert np.allclose(coef, beta, atol=1e-6)
        assert intercept == pytest.approx(0.3, abs=1e-6)
        assert r2 == pytest.approx(1.0, abs=1e-9)

    def test_constant_target_perfect_fit(self):
        masks = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        coef, intercept, r2 = EX.fit_surrogate(masks, np.ones(3),
                                               np.full(3, 0.42))
        assert r2 == 1.0
        assert intercept == pytest.approx(0.42, abs=1e-3)

    def test_duplicated_rows_equal_double_weight(self):
        r = np.random.default_rng(11)
        masks = r.integers(0, 2, (50, 3)).astype(np.float64)
        targets = r.random(50)
        weights = np.ones(50)
        coef_a, int_a, _ = EX.fit_surrogate(
            np.concatenate([masks, masks]), np.ones(100),
            np.concatenate([targets, targets]))
        coef_b, int_b, _ = EX.fit_surrogate(masks, 2.0 * weights, targets)
        assert np.allclose(coef_a, coef_b, atol=1e-10)
        assert int_a == pytest.approx(int_b, abs=1e-10)

    def test_zero_weights_rejected(self):
        with pytest.raises(Exception):
            EX.fit_surrogate(np.ones((3, 2)), np.zeros(3), np.ones(3))

    def test_intercept_only_when_no_features(self):
        coef, intercept, r2 = EX.fit_surrogate(
            np.empty((4, 0)), np.ones(4), np.array([1.0, 2.0, 3.0, 4.0]))
        assert coef.size == 0
        assert intercept == pytest.approx(2.5, abs=1e-12)
        assert r2 == pytest.approx(0.0, abs=1e-12)


def _linear_model(support: dict[str, float], bias: float):
    """(n, L) id rows -> rows of 2-vectors whose [1] entry is linear in the
    presence of each word's id."""
    def predict(rows: np.ndarray):
        v = bias + sum((w * (rows == VOCAB.get(word)).any(axis=1)
                        for word, w in support.items()), np.zeros(len(rows)))
        return np.stack([1.0 - v, v], axis=1)
    return predict


def _recorder():
    """(calls, predict): a predict of 0.5 everywhere that keeps each id
    array it is given in ``calls``."""
    calls = []

    def predict(rows):
        calls.append(rows)
        return np.full((len(rows), 2), 0.5)
    return calls, predict


def _kept_rows(tokens, n, seed, max_len):
    """``encode`` of the text each distinct mask of the explainer's draws
    keeps, in first-seen order: the rows it must hand ``predict``."""
    masks = _reference_masks(len(EX.distinct_words(tokens)), n, seed)
    return encode(list(dict.fromkeys(_texts(tokens, masks))), VOCAB, max_len)


class TestExplainInstance:
    DOC = "alpha beta gamma delta epsilon zeta"

    def test_planted_support_recovered(self):
        predict = _linear_model({"beta": 0.6, "delta": -0.9}, bias=0.5)
        exp = _explain(predict, self.DOC, class_index=1, n=400, k=2, seed=0)
        got = dict(exp.features)
        assert set(got) == {"beta", "delta"}
        assert got["beta"] == pytest.approx(0.6, abs=0.05)
        assert got["delta"] == pytest.approx(-0.9, abs=0.05)
        # strongest magnitude listed first
        assert exp.features[0][0] == "delta"
        assert exp.r2 > 0.99

    def test_probability_is_unperturbed_output(self):
        predict = _linear_model({"alpha": 0.25}, bias=0.25)
        exp = _explain(predict, self.DOC, class_index=1, n=100, k=1, seed=1)
        assert exp.probability == pytest.approx(0.5, abs=1e-12)

    def test_inert_words_not_selected(self):
        predict = _linear_model({"gamma": 1.0}, bias=0.0)
        exp = _explain(predict, self.DOC, class_index=1, n=400, k=4, seed=2)
        assert exp.features[0][0] == "gamma"
        for word, coef in exp.features[1:]:
            assert abs(coef) < 0.05

    def test_seed_determinism(self):
        predict = _linear_model({"zeta": 0.5, "alpha": -0.2}, bias=0.4)
        a = _explain(predict, self.DOC, 1, n=200, k=3, seed=9)
        b = _explain(predict, self.DOC, 1, n=200, k=3, seed=9)
        assert a == b

    def test_scale_equivariance(self):
        base = {"beta": 0.4, "epsilon": -0.3}
        p1 = _linear_model(base, bias=0.5)
        p2 = _linear_model({w: 2 * c for w, c in base.items()}, bias=1.0)
        e1 = _explain(p1, self.DOC, 1, n=300, k=2, seed=3)
        e2 = _explain(p2, self.DOC, 1, n=300, k=2, seed=3)
        c1, c2 = dict(e1.features), dict(e2.features)
        assert set(c1) == set(c2)
        for w in c1:
            assert c2[w] == pytest.approx(2 * c1[w], abs=1e-6)

    def test_class_index_selects_output(self):
        predict = _linear_model({"alpha": 0.8}, bias=0.1)
        e0 = _explain(predict, self.DOC, 0, n=300, k=1, seed=4)
        e1 = _explain(predict, self.DOC, 1, n=300, k=1, seed=4)
        assert e0.features[0][0] == e1.features[0][0] == "alpha"
        assert e0.features[0][1] == pytest.approx(-e1.features[0][1], abs=1e-9)

    def test_class_index_out_of_range(self):
        predict = _linear_model({}, bias=0.5)
        with pytest.raises(DataError):
            _explain(predict, self.DOC, class_index=5, n=10)

    def test_render_and_to_dict(self):
        predict = _linear_model({"beta": 0.6}, bias=0.2)
        exp = _explain(predict, self.DOC, 1, n=200, k=2, seed=5, class_name="hate")
        d = dataclasses.asdict(exp)
        assert d["class_name"] == "hate"
        assert d["n_samples"] == 200
        assert d["features"] == exp.features
        text = exp.render()
        assert "hate" in text and "beta" in text

    def test_predict_called_once_on_distinct_texts(self):
        calls = []
        linear = _linear_model({"beta": 0.6}, bias=0.2)

        def predict(rows):
            calls.append(rows)
            return linear(rows)

        _explain(predict, self.DOC, 1, n=300, k=2, seed=5)
        assert len(calls) == 1
        # first-seen order
        assert np.array_equal(calls[0], _kept_rows(self.DOC.split(), 300, 5, MAX_LEN))
        assert len(calls[0]) < 300

    def test_texts_match_masks(self):
        for document in ("red blue red green", "lonely"):
            calls, predict = _recorder()
            _explain(predict, document, 1, n=50, k=1, seed=2)
            assert len(calls) == 1
            assert np.array_equal(calls[0], _kept_rows(document.split(), 50, 2, MAX_LEN))
        # one real row and one all-PAD_ID row
        lonely = [VOCAB.get("lonely")] + [PAD_ID] * (MAX_LEN - 1)
        assert calls[0].tolist() == [lonely, [PAD_ID] * MAX_LEN]

    @pytest.mark.parametrize("document, max_len", [
        ("red blue red green blue red", 8),
        ("red owl blue yak owl", 8),
        ("<pad> red <unk> blue <pad> red", 8),
        ("lonely", 8),
        ("alpha beta gamma delta epsilon zeta beta red blue green", 4),
        ("red blue green alpha", 1),
    ], ids=["repeated", "out_of_vocabulary", "reserved_literals", "one_word",
            "longer_than_max_len", "max_len_1"])
    def test_rows_are_encode_of_kept_texts(self, document, max_len):
        """Each distinct mask's row is what ``encode`` makes of the text of
        the tokens it keeps, also past ``max_len``."""
        calls, predict = _recorder()
        tokens, ids = _instance(document)
        EX.explain_instance(predict, tokens, ids, max_len, 1, n=200, k=1, seed=6)
        assert len(calls) == 1 and calls[0].dtype == np.int64
        assert np.array_equal(calls[0], _kept_rows(tokens, 200, 6, max_len))

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.sampled_from(["red", "blue", "green", "owl", "<pad>", "<unk>"]),
                    min_size=1, max_size=14),
           st.integers(1, 10), st.integers(0, 2 ** 16))
    def test_rows_are_encode_of_kept_texts_drawn(self, tokens, max_len, seed):
        calls, predict = _recorder()
        EX.explain_instance(predict, tokens, encode(tokens, VOCAB, 1)[:, 0], max_len, 1,
                            n=40, k=1, seed=seed)
        assert np.array_equal(calls[0], _kept_rows(tokens, 40, seed, max_len))

    @pytest.mark.parametrize("predict", [
        lambda rows: np.zeros(len(rows)),
        lambda rows: np.zeros((len(rows) + 1, 2)),
    ], ids=["one_dimensional", "wrong_row_count"])
    def test_predict_shape_checked(self, predict):
        with pytest.raises(DataError, match="predict returned shape"):
            _explain(predict, self.DOC, class_index=0, n=10)
