import numpy as np
import pytest

from multigram import autodiff as ad
from multigram.attention import (
    AttentionParams,
    ClassifierParams,
    attention_pool,
    attention_pool_segments,
    classification_loss,
    classification_loss_rows,
    init_attention_params,
    init_classifier_params,
    predict,
    predict_rows,
)
from multigram.autodiff import ParamStore, Tensor

from gradcheck import check_gradients

RNG = np.random.default_rng(777)


def make_params(width=4, attention_dim=3, classes=5, seed=0):
    store = ParamStore()
    rng = np.random.default_rng(seed)
    attn = init_attention_params(store, "attention", width, attention_dim, rng)
    clf = init_classifier_params(store, "classifier", width, classes, rng)
    return store, attn, clf


class TestAttentionPool:
    def test_single_unit_gets_all_mass(self):
        _, attn, _ = make_params()
        h = Tensor(RNG.normal(size=(1, 4)))
        alpha, pooled = attention_pool(h, attn)
        np.testing.assert_allclose(alpha.data, [1.0])
        np.testing.assert_allclose(pooled.data, h.data[0])

    def test_zero_scorer_gives_uniform_weights(self):
        _, attn, _ = make_params()
        attn.v.data[:] = 0.0
        h = Tensor(RNG.normal(size=(7, 4)))
        alpha, _ = attention_pool(h, attn)
        np.testing.assert_allclose(alpha.data, np.full(7, 1 / 7))

    def test_identical_rows_share_weight(self):
        _, attn, _ = make_params()
        row = RNG.normal(size=4)
        h = Tensor(np.stack([row, RNG.normal(size=4), row]))
        alpha, _ = attention_pool(h, attn)
        assert alpha.data[0] == pytest.approx(alpha.data[2], abs=1e-12)

    def test_pooled_vector_matches_brute_force(self):
        _, attn, _ = make_params()
        h = Tensor(RNG.normal(size=(5, 4)))
        alpha, pooled = attention_pool(h, attn)
        brute = sum(alpha.data[i] * h.data[i] for i in range(5))
        np.testing.assert_allclose(pooled.data, brute, atol=1e-12)

    def test_weights_normalize(self):
        _, attn, _ = make_params()
        alpha, _ = attention_pool(Tensor(RNG.normal(size=(9, 4)) * 5), attn)
        assert np.all(alpha.data >= 0)
        assert abs(alpha.data.sum() - 1.0) <= 1e-9

    def test_score_shift_invariance(self):
        # Adding a constant to every score leaves the weights unchanged.
        _, attn, _ = make_params()
        h = Tensor(RNG.normal(size=(6, 4)))
        from multigram.attention import attention_scores

        scores = attention_scores(h, attn)
        base = ad.softmax(scores).data
        shifted = ad.softmax(ad.add(scores, Tensor(np.full(6, 3.7)))).data
        np.testing.assert_allclose(base, shifted, atol=1e-12)

    def test_empty_units_rejected(self):
        _, attn, _ = make_params()
        with pytest.raises(ad.ShapeError):
            attention_pool(Tensor(np.zeros((0, 4))), attn)

    def test_segment_pooling_matches_per_document(self):
        _, attn, _ = make_params()
        docs = [Tensor(RNG.normal(size=(u, 4))) for u in (3, 5, 2)]
        stacked = Tensor(np.concatenate([d.data for d in docs]))
        bounds = np.cumsum([0, 3, 5, 2])
        alpha, pooled = attention_pool_segments(stacked, bounds, attn)
        offset = 0
        for i, doc in enumerate(docs):
            a, t = attention_pool(doc, attn)
            np.testing.assert_allclose(alpha.data[offset : offset + doc.shape[0]], a.data, atol=1e-12)
            np.testing.assert_allclose(pooled.data[i], t.data, atol=1e-12)
            offset += doc.shape[0]


class TestPredict:
    def test_zero_classifier_is_uniform(self):
        _, _, clf = make_params(classes=5)
        clf.w.data[:] = 0.0
        clf.b.data[:] = 0.0
        _, probs = predict(Tensor(RNG.normal(size=4)), clf)
        np.testing.assert_allclose(probs.data, [0.2] * 5)

    def test_logit_shift_leaves_probs_unchanged(self):
        logits = Tensor(RNG.normal(size=5))
        shifted = Tensor(logits.data + 11.3)
        np.testing.assert_allclose(
            ad.softmax(logits).data, ad.softmax(shifted).data, atol=1e-12
        )

    def test_argmax_consistency(self):
        _, _, clf = make_params()
        for seed in range(10):
            logits, probs = predict(Tensor(np.random.default_rng(seed).normal(size=4)), clf)
            assert np.argmax(logits.data) == np.argmax(probs.data)

    def test_probs_normalize(self):
        _, _, clf = make_params()
        _, probs = predict(Tensor(RNG.normal(size=4) * 10), clf)
        assert abs(probs.data.sum() - 1.0) <= 1e-9


class TestLoss:
    def test_uniform_probs_give_log_c(self):
        loss = classification_loss(Tensor(np.zeros(5)), 3)
        assert float(loss.data) == pytest.approx(np.log(5.0))

    def test_confident_correct_prediction_drives_loss_to_zero(self):
        logits = np.zeros(4)
        logits[1] = 50.0
        loss = classification_loss(Tensor(logits), 1)
        assert float(loss.data) == pytest.approx(0.0, abs=1e-12)

    def test_batch_loss_is_mean_of_per_example_losses(self):
        logit_rows = RNG.normal(size=(6, 4))
        golds = np.array([0, 1, 2, 3, 1, 0])
        batch = classification_loss_rows(Tensor(logit_rows), golds)
        singles = [
            float(classification_loss(Tensor(logit_rows[i]), int(golds[i])).data)
            for i in range(6)
        ]
        assert float(batch.data) == pytest.approx(np.mean(singles))

    def test_extreme_logits_stay_finite(self):
        loss = classification_loss(Tensor([1000.0, -1000.0, 0.0]), 1)
        assert np.isfinite(loss.data)
        assert float(loss.data) == pytest.approx(2000.0)


class TestGradients:
    def test_attention_and_classifier_gradients(self):
        store, attn, clf = make_params(width=4, attention_dim=3, classes=3, seed=9)
        h = Tensor(RNG.normal(size=(5, 4)))

        def closure():
            alpha, pooled = attention_pool(h, attn)
            logits, _ = predict(pooled, clf)
            return classification_loss(logits, 1)

        report = check_gradients(closure, store)
        assert report.ok, report.per_tensor

    def test_segment_path_gradients(self):
        store, attn, clf = make_params(width=3, attention_dim=3, classes=4, seed=10)
        h = Tensor(RNG.normal(size=(6, 3)))
        bounds = [0, 2, 6]
        golds = np.array([1, 3])

        def closure():
            alpha, pooled = attention_pool_segments(h, bounds, attn)
            logits, _ = predict_rows(pooled, clf)
            return classification_loss_rows(logits, golds)

        report = check_gradients(closure, store)
        assert report.ok, report.per_tensor


def test_classifier_requires_two_classes():
    store = ParamStore()
    with pytest.raises(ValueError):
        init_classifier_params(store, "clf", 4, 1, np.random.default_rng(0))
