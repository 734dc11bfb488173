import gc
import weakref

import numpy as np
import pytest

from multigram import autodiff as ad
from multigram.autodiff import Tape, Tensor
from multigram.data import Vocab
from multigram.errors import DataError
from multigram.model import ENCODER_KINDS, ModelConfig, TextClassifier

from conftest import count_parameters, left_branching_bracketing
from gradcheck import check_gradients


def build_model(encoder="leftforest", classes=3, embed_dim=6, hidden_dim=4,
                attention_dim=3, max_order=3, memory_update="hidden", dropout=0.2,
                vocab_tokens=("alpha", "beta", "gamma", "delta", "epsilon"),
                dtype=np.float64):
    vocab = Vocab.build([list(vocab_tokens)])
    values = np.random.default_rng(0).normal(size=(len(vocab), embed_dim)) * 0.4
    embeddings = Tensor(values.astype(dtype))
    config = ModelConfig(
        encoder=encoder,
        num_classes=classes,
        embed_dim=embed_dim,
        hidden_dim=hidden_dim,
        attention_dim=attention_dim,
        max_order=max_order,
        dropout=dropout,
        memory_update=memory_update,
    )
    labels = [f"c{i}" for i in range(classes)]
    return TextClassifier(config, vocab, labels, embeddings, init_seed=7)


def encoder_parameter_count(model):
    """Trainable parameters of the encoder alone (attention and classifier
    excluded)."""
    return sum(t.size for name, t in model.store.items() if name.startswith("encoder."))


ALL_ENCODERS = ("pyramid", "leftforest", "rightforest", "biforest", "bilstm", "cnn")


class TestForwardDoc:
    @pytest.mark.parametrize("encoder", ALL_ENCODERS)
    def test_output_invariants(self, encoder):
        model = build_model(encoder=encoder)
        ids = model.vocab.encode(["alpha", "beta", "gamma", "delta"])
        output, loss = model.forward_doc(ids, gold=1)
        assert abs(output.alpha.sum() - 1.0) <= 1e-9
        assert np.all(output.alpha >= 0)
        assert abs(output.probs.sum() - 1.0) <= 1e-9
        assert len(output.alpha) == len(output.unit_spans)
        assert np.isfinite(float(loss.data))

    def test_unit_spans_match_structure(self):
        model = build_model(encoder="leftforest", max_order=2)
        ids = model.vocab.encode(["alpha", "beta", "gamma"])
        output, _ = model.forward_doc(ids)
        spans = [(s.start, s.order) for s in output.unit_spans]
        assert spans == [(0, 1), (1, 1), (2, 1), (0, 2), (1, 2)]

    def test_tree_encoder_needs_parse(self):
        model = build_model(encoder="tree")
        ids = model.vocab.encode(["alpha", "beta"])
        with pytest.raises(DataError, match="parse"):
            model.forward_doc(ids)
        output, _ = model.forward_doc(ids, parse="(alpha beta)")
        assert len(output.unit_spans) == 3

    def test_parse_leaf_count_must_match(self):
        model = build_model(encoder="tree")
        ids = model.vocab.encode(["alpha", "beta", "gamma"])
        with pytest.raises(DataError, match="leaves"):
            model.forward_doc(ids, parse="(alpha beta)")

    def test_empty_document_rejected(self):
        model = build_model()
        with pytest.raises(DataError):
            model.forward_doc(np.array([], dtype=np.intp))

    def test_biforest_width(self):
        model = build_model(encoder="biforest", hidden_dim=5)
        ids = model.vocab.encode(["alpha", "beta"])
        output, _ = model.forward_doc(ids)
        assert output.text_vector.shape == (10,)

    def test_eval_forward_is_deterministic(self):
        model = build_model()
        ids = model.vocab.encode(["alpha", "beta", "gamma"])
        first, _ = model.forward_doc(ids)
        second, _ = model.forward_doc(ids)
        assert np.array_equal(first.probs, second.probs)

    def test_train_mode_dropout_changes_forward(self):
        model = build_model(dropout=0.5)
        ids = model.vocab.encode(["alpha", "beta", "gamma"])
        eval_out, _ = model.forward_doc(ids)
        train_out, _ = model.forward_doc(ids, train=True, rng=np.random.default_rng(1))
        assert not np.array_equal(eval_out.probs, train_out.probs)


class TestBatchedBilstm:
    def test_matches_per_document_forward(self):
        model = build_model(encoder="bilstm", hidden_dim=4)
        docs = [["alpha", "beta", "gamma"], ["delta", "alpha", "beta"]]
        ids = np.stack([model.vocab.encode(d) for d in docs])
        _, logits, probs = model.forward_batch_bilstm(ids)
        for b, doc in enumerate(docs):
            solo, _ = model.forward_doc(model.vocab.encode(doc))
            np.testing.assert_allclose(logits[b], solo.logits, atol=1e-12)
            np.testing.assert_allclose(probs[b], solo.probs, atol=1e-12)

    def test_batch_loss_matches_mean_of_singles(self):
        model = build_model(encoder="bilstm", hidden_dim=4)
        docs = [["alpha", "beta"], ["gamma", "delta"], ["beta", "alpha"]]
        golds = np.array([0, 2, 1])
        ids = np.stack([model.vocab.encode(d) for d in docs])
        loss, _, _ = model.forward_batch_bilstm(ids, golds)
        singles = [
            float(model.forward_doc(model.vocab.encode(doc), gold=int(g))[1].data)
            for doc, g in zip(docs, golds)
        ]
        assert float(loss.data) == pytest.approx(np.mean(singles), abs=1e-12)


class TestFullModelGradients:
    @pytest.mark.parametrize("encoder", ["leftforest", "biforest", "bilstm", "cnn"])
    def test_loss_gradients(self, encoder):
        model = build_model(encoder=encoder, dropout=0.0)
        ids = model.vocab.encode(["alpha", "beta", "gamma", "delta", "alpha"])

        def closure():
            _, loss = model.forward_doc(ids, gold=2)
            return loss

        report = check_gradients(closure, model.store, max_coords=12)
        assert report.ok, report.per_tensor

    @pytest.mark.parametrize("encoder", ["leftforest", "pyramid", "biforest"])
    def test_training_tape_keeps_no_array_backward_does_not_read(self, encoder, monkeypatch):
        # Gate pre-activations (linear_rows outputs), the cells' c in hidden
        # mode and the unit matrix concatenation are read by no gradient
        # formula, so they die when the forward pass drops them.
        refs = []

        def watch(name, arrays_of):
            original = getattr(ad, name)

            def watched(*args, **kwargs):
                result = original(*args, **kwargs)
                refs.extend(weakref.ref(a) for a in arrays_of(args, result))
                return result

            monkeypatch.setattr(ad, name, watched)

        watch("linear_rows", lambda args, out: [out.data])
        watch("tree_cell_gates", lambda args, out: [args[0].data, out[1].data])
        watch("concat_rows", lambda args, out: [out.data])
        model = build_model(encoder=encoder, dropout=0.3)
        ids = model.vocab.encode(["alpha", "beta", "gamma", "delta", "alpha"])

        def closure():
            _, loss = model.forward_doc(ids, gold=2, train=True, rng=np.random.default_rng(4))
            return loss

        model.store.zero_grad()
        with Tape() as tape:
            loss = closure()
        gc.collect()
        assert refs and all(ref() is None for ref in refs)
        tape.backward(loss)
        taped = {name: t.grad for name, t in model.store.items()}
        report = check_gradients(closure, model.store, max_coords=12)
        assert report.ok, report.per_tensor
        for name, t in model.store.items():
            if taped[name] is None:
                assert t.grad is None, name
            else:
                np.testing.assert_array_equal(t.grad, taped[name], err_msg=name)


class TestParameterCounts:
    def test_reference_scale_tree_lstm_count(self):
        # e=300, d=100: five of (d x e), ten of (d x d), five of (d,).
        model = build_model(
            encoder="leftforest", embed_dim=300, hidden_dim=100, max_order=7
        )
        assert encoder_parameter_count(model) == 5 * (300 * 100 + 100 * 100 + 100 * 100 + 100)
        assert encoder_parameter_count(model) == 250_500

    def test_forest_count_constant_in_max_order(self):
        counts = {
            k: count_parameters(
                ModelConfig(encoder="leftforest", num_classes=5, embed_dim=20,
                            hidden_dim=10, attention_dim=8, max_order=k)
            )
            for k in (1, 3, 7)
        }
        assert len(set(counts.values())) == 1

    def test_cnn_count_strictly_increases_with_max_order(self):
        counts = [
            count_parameters(
                ModelConfig(encoder="cnn", num_classes=5, embed_dim=20,
                            hidden_dim=10, attention_dim=8, max_order=k)
            )
            for k in range(1, 8)
        ]
        assert all(a < b for a, b in zip(counts, counts[1:]))

    def test_bilstm_count_independent_of_max_order(self):
        counts = {
            k: count_parameters(
                ModelConfig(encoder="bilstm", num_classes=5, embed_dim=20,
                            hidden_dim=10, attention_dim=8, max_order=k)
            )
            for k in (1, 5)
        }
        assert len(set(counts.values())) == 1

    def test_embeddings_excluded(self):
        model = build_model()
        explicit = sum(t.size for _, t in model.store.items())
        assert model.parameter_count() == explicit


class TestConfigValidation:
    def test_bad_encoder(self):
        with pytest.raises(ValueError, match="encoder"):
            ModelConfig(encoder="transformer", num_classes=2).validate()

    def test_bad_dropout(self):
        with pytest.raises(ValueError, match="dropout"):
            ModelConfig(encoder="cnn", num_classes=2, dropout=1.0).validate()

    def test_odd_bilstm_hidden(self):
        with pytest.raises(ValueError, match="even"):
            ModelConfig(encoder="bilstm", num_classes=2, hidden_dim=5).validate()


class TestFloat32Path:
    """The float32 training path against the float64 reference, built from
    the same values (float32 copies of the float64 draws)."""

    # Inputs and parameters differ by float32 rounding (eps/2 relative), so
    # every compared quantity may differ by a small multiple of eps.
    TOL = 16 * float(np.finfo(np.float32).eps)
    DOCS = (
        ["alpha", "beta", "gamma", "delta", "alpha"],
        ["gamma", "epsilon", "beta", "beta", "delta"],
    )

    def batch_pass(self, model):
        """Forward and backward over one two-document batch in train mode,
        the same dropout masks in either dtype.  Returns (tape, loss,
        [(alpha, probs)] per document, {name: grad})."""
        ids = [model.vocab.encode(doc) for doc in self.DOCS]
        parses = [left_branching_bracketing(doc) for doc in self.DOCS]
        golds = [0, 2]
        model.store.zero_grad()
        with Tape() as tape:
            if model.config.encoder == "bilstm":
                loss, _, probs = model.forward_batch_bilstm(
                    np.stack(ids), golds, train=True, rng=np.random.default_rng(4)
                )
                outputs = [(None, row) for row in probs]
                tape.backward(loss)
            else:
                outputs, losses = [], []
                for i, doc_ids in enumerate(ids):
                    out, loss = model.forward_doc(
                        doc_ids, gold=golds[i], parse=parses[i], train=True,
                        rng=np.random.default_rng(4 + i),
                    )
                    outputs.append((out.alpha, out.probs))
                    losses.append(loss)
                    tape.backward(loss, seed=0.5)
                loss = losses[0]
        grads = {name: t.grad for name, t in model.store.items()}
        return tape, loss, outputs, grads

    @pytest.mark.parametrize("encoder", ENCODER_KINDS)
    def test_forward_and_gradients_agree_with_float64(self, encoder):
        reference = build_model(encoder=encoder, dropout=0.3)
        single = build_model(encoder=encoder, dropout=0.3, dtype=np.float32)
        _, _, ref_out, ref_grads = self.batch_pass(reference)
        _, _, out, grads = self.batch_pass(single)
        for (ref_alpha, ref_probs), (alpha, probs) in zip(ref_out, out):
            np.testing.assert_allclose(probs, ref_probs, rtol=0, atol=self.TOL)
            if ref_alpha is not None:
                np.testing.assert_allclose(alpha, ref_alpha, rtol=0, atol=self.TOL)
        for name, ref in ref_grads.items():
            if ref is None:
                assert grads[name] is None, name
                continue
            scale = max(1.0, float(np.abs(ref).max()))
            np.testing.assert_allclose(grads[name], ref, rtol=0, atol=self.TOL * scale,
                                       err_msg=name)

    @pytest.mark.parametrize("encoder", ENCODER_KINDS)
    def test_no_float64_anywhere_on_the_float32_path(self, encoder, monkeypatch):
        model = build_model(encoder=encoder, dtype=np.float32)
        assert all(t.data.dtype == np.float32 for _, t in model.store.items())
        # Records keep output keys, not tensors: see every output as it is
        # recorded.
        recorded = []
        record = Tape._record

        def spy(tape, outputs, inputs, pull):
            recorded.extend(t.data.dtype for t in outputs)
            return record(tape, outputs, inputs, pull)

        monkeypatch.setattr(Tape, "_record", spy)
        tape, loss, outputs, grads = self.batch_pass(model)
        assert loss.data.dtype == np.float32
        assert len(recorded) >= len(tape) > 0
        assert all(dtype == np.float32 for dtype in recorded)
        for alpha, probs in outputs:
            assert probs.dtype == np.float32
            assert alpha is None or alpha.dtype == np.float32
        for name, grad in grads.items():
            assert grad is None or grad.dtype == np.float32, name
