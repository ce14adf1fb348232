import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toxiclass import explain as EX
from toxiclass.errors import DataError


class TestDistinctWords:
    def test_first_occurrence_order(self):
        assert EX.distinct_words("b a b c a".split()) == ["b", "a", "c"]

    def test_empty(self):
        assert EX.distinct_words([]) == []


class TestSamplePerturbations:
    def test_first_sample_keeps_everything(self):
        ps = EX.sample_perturbations("one two three".split(), n=5, seed=0)
        assert len(ps) == 5
        assert ps[0].mask.tolist() == [1, 1, 1]
        assert ps[0].text == "one two three"

    def test_every_other_sample_drops_something(self):
        ps = EX.sample_perturbations("a b c d".split(), n=200, seed=1)
        for p in ps[1:]:
            dropped = 4 - int(p.mask.sum())
            assert 1 <= dropped <= 4

    def test_text_matches_mask(self):
        tokens = "red blue red green".split()
        for p in EX.sample_perturbations(tokens, n=50, seed=2):
            words = EX.distinct_words(tokens)
            kept = {w for w, bit in zip(words, p.mask) if bit}
            assert p.text.split() == [t for t in tokens if t in kept]

    def test_single_word_document(self):
        ps = EX.sample_perturbations(["lonely"], n=10, seed=3)
        assert ps[0].mask.tolist() == [1]
        for p in ps[1:]:  # only possible drop count is 1
            assert p.mask.tolist() == [0] and p.text == ""

    def test_seed_determinism(self):
        a = EX.sample_perturbations("a b c d e".split(), n=64, seed=7)
        b = EX.sample_perturbations("a b c d e".split(), n=64, seed=7)
        assert all(x.mask.tolist() == y.mask.tolist() for x, y in zip(a, b))
        c = EX.sample_perturbations("a b c d e".split(), n=64, seed=8)
        assert any(x.mask.tolist() != y.mask.tolist() for x, y in zip(a, c))

    def test_full_drop_range_reached(self):
        ps = EX.sample_perturbations("a b c".split(), n=500, seed=4)
        counts = {3 - int(p.mask.sum()) for p in ps[1:]}
        assert counts == {1, 2, 3}

    def test_empty_document_rejected(self):
        with pytest.raises(DataError):
            EX.sample_perturbations([], n=10)

    def test_zero_samples_rejected(self):
        with pytest.raises(DataError):
            EX.sample_perturbations(["x"], n=0)


class TestKernelWeight:
    def test_full_mask_weight_one(self):
        assert EX.kernel_weight(np.ones(8)) == 1.0

    def test_empty_mask_weight_zero(self):
        assert EX.kernel_weight(np.zeros(8)) == 0.0

    def test_half_mask_value(self):
        d = 1.0 - np.sqrt(0.5)
        expected = float(np.exp(-(d ** 2) / 0.25 ** 2))
        assert EX.kernel_weight([1, 1, 0, 0]) == pytest.approx(expected, abs=1e-15)

    def test_monotone_in_kept_count(self):
        vals = []
        for kept in range(1, 9):
            mask = np.zeros(8)
            mask[:kept] = 1
            vals.append(EX.kernel_weight(mask))
        assert vals == sorted(vals)

    def test_depends_only_on_count(self):
        assert EX.kernel_weight([1, 0, 1, 0]) == EX.kernel_weight([0, 1, 0, 1])

    @settings(max_examples=60)
    @given(st.lists(st.integers(0, 1), min_size=1, max_size=30))
    def test_range(self, bits):
        w = EX.kernel_weight(np.array(bits))
        assert 0.0 <= w <= 1.0


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
        weights = np.array([EX.kernel_weight(m) for m in masks])
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
    """Texts -> rows of 2-vectors whose [1] entry is linear in word presence."""
    def predict_one(text: str):
        present = set(text.split())
        v = bias + sum(w for word, w in support.items() if word in present)
        return np.array([1.0 - v, v])

    def predict(texts: list[str]):
        return np.array([predict_one(t) for t in texts])
    return predict


class TestExplainInstance:
    DOC = "alpha beta gamma delta epsilon zeta"

    def test_planted_support_recovered(self):
        predict = _linear_model({"beta": 0.6, "delta": -0.9}, bias=0.5)
        exp = EX.explain_instance(predict, self.DOC, class_index=1,
                                  n=400, k=2, seed=0)
        got = dict(exp.features)
        assert set(got) == {"beta", "delta"}
        assert got["beta"] == pytest.approx(0.6, abs=0.05)
        assert got["delta"] == pytest.approx(-0.9, abs=0.05)
        # strongest magnitude listed first
        assert exp.features[0][0] == "delta"
        assert exp.r2 > 0.99

    def test_probability_is_unperturbed_output(self):
        predict = _linear_model({"alpha": 0.25}, bias=0.25)
        exp = EX.explain_instance(predict, self.DOC, class_index=1,
                                  n=100, k=1, seed=1)
        assert exp.probability == pytest.approx(0.5, abs=1e-12)

    def test_inert_words_not_selected(self):
        predict = _linear_model({"gamma": 1.0}, bias=0.0)
        exp = EX.explain_instance(predict, self.DOC, class_index=1,
                                  n=400, k=4, seed=2)
        assert exp.features[0][0] == "gamma"
        for word, coef in exp.features[1:]:
            assert abs(coef) < 0.05

    def test_seed_determinism(self):
        predict = _linear_model({"zeta": 0.5, "alpha": -0.2}, bias=0.4)
        a = EX.explain_instance(predict, self.DOC, 1, n=200, k=3, seed=9)
        b = EX.explain_instance(predict, self.DOC, 1, n=200, k=3, seed=9)
        assert a == b

    def test_scale_equivariance(self):
        base = {"beta": 0.4, "epsilon": -0.3}
        p1 = _linear_model(base, bias=0.5)
        p2 = _linear_model({w: 2 * c for w, c in base.items()}, bias=1.0)
        e1 = EX.explain_instance(p1, self.DOC, 1, n=300, k=2, seed=3)
        e2 = EX.explain_instance(p2, self.DOC, 1, n=300, k=2, seed=3)
        c1, c2 = dict(e1.features), dict(e2.features)
        assert set(c1) == set(c2)
        for w in c1:
            assert c2[w] == pytest.approx(2 * c1[w], abs=1e-6)

    def test_class_index_selects_output(self):
        predict = _linear_model({"alpha": 0.8}, bias=0.1)
        e0 = EX.explain_instance(predict, self.DOC, 0, n=300, k=1, seed=4)
        e1 = EX.explain_instance(predict, self.DOC, 1, n=300, k=1, seed=4)
        assert e0.features[0][0] == e1.features[0][0] == "alpha"
        assert e0.features[0][1] == pytest.approx(-e1.features[0][1], abs=1e-9)

    def test_class_index_out_of_range(self):
        predict = _linear_model({}, bias=0.5)
        with pytest.raises(DataError):
            EX.explain_instance(predict, self.DOC, class_index=5, n=10)

    def test_render_and_to_dict(self):
        predict = _linear_model({"beta": 0.6}, bias=0.2)
        exp = EX.explain_instance(predict, self.DOC, 1, n=200, k=2, seed=5,
                                  class_name="hate")
        d = exp.to_dict()
        assert d["class_name"] == "hate"
        assert d["n_samples"] == 200
        assert isinstance(d["features"], list)
        text = exp.render()
        assert "hate" in text and "beta" in text

    def test_predict_called_once_on_distinct_texts(self):
        calls = []
        linear = _linear_model({"beta": 0.6}, bias=0.2)

        def predict(texts):
            calls.append(texts)
            return linear(texts)

        EX.explain_instance(predict, self.DOC, 1, n=300, k=2, seed=5)
        sampled = EX.sample_perturbations(self.DOC.split(), n=300, seed=5)
        assert len(calls) == 1
        assert sorted(calls[0]) == sorted({p.text for p in sampled})
        assert len(calls[0]) < len(sampled)

    @pytest.mark.parametrize("predict", [
        lambda texts: np.zeros(len(texts)),
        lambda texts: np.zeros((len(texts) + 1, 2)),
    ], ids=["one_dimensional", "wrong_row_count"])
    def test_predict_shape_checked(self, predict):
        with pytest.raises(DataError, match="predict returned shape"):
            EX.explain_instance(predict, self.DOC, class_index=0, n=10)
