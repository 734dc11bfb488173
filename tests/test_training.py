import sys
import threading
from dataclasses import replace

import numpy as np
import pytest

from multigram import structures, training
from multigram.autodiff import NumericError, ParamStore, Tape, Tensor
from multigram.data import Corpus
from multigram.errors import DataError
from multigram.model import ENCODER_KINDS, TextClassifier
from multigram.training import (
    METRICS_HEADER,
    Adam,
    DataBundle,
    EncodedDocs,
    TrainConfig,
    _KEY_DOC_DROPOUT,
    _train_batch,
    bench_tsv,
    benchmark,
    bucket_batches,
    derive_rng,
    evaluate,
    measure_encoder_macs,
    prepare_bundle,
    run_epoch,
    train,
)

from conftest import random_bracketing


class TestAdam:
    def make(self, value, lr=0.1):
        store = ParamStore()
        theta = store.add("theta", np.array([value]))
        return store, theta, Adam(store, learning_rate=lr)

    def test_first_step_moves_by_learning_rate(self):
        # Bias correction makes the very first update -lr * g/(|g| + eps').
        store, theta, adam = self.make(1.0, lr=0.1)
        theta.grad = np.array([0.3])
        adam.step()
        assert theta.data[0] == pytest.approx(1.0 - 0.1, abs=1e-6)
        store, theta, adam = self.make(1.0, lr=0.1)
        theta.grad = np.array([-0.7])
        adam.step()
        assert theta.data[0] == pytest.approx(1.0 + 0.1, abs=1e-6)

    def test_zero_gradient_leaves_fresh_params_unchanged(self):
        store, theta, adam = self.make(2.5)
        theta.grad = np.zeros(1)
        adam.step()
        assert theta.data[0] == 2.5
        assert adam.state.step_count == 1

    def test_missing_gradient_treated_as_zero(self):
        store, theta, adam = self.make(2.5)
        adam.step()
        assert theta.data[0] == 2.5
        assert adam.state.step_count == 1

    def test_float32_parameters_keep_their_dtype(self):
        store = ParamStore()
        theta = store.add("theta", np.array([1.0, -2.0], dtype=np.float32))
        adam = Adam(store, learning_rate=0.1)
        assert adam.state.m["theta"].dtype == np.float32
        theta.grad = np.array([0.3, -0.1], dtype=np.float32)
        adam.step()
        assert theta.data.dtype == np.float32
        assert adam.state.v["theta"].dtype == np.float32

    def test_non_finite_gradient_aborts_with_name(self):
        store, theta, adam = self.make(1.0)
        theta.grad = np.array([np.nan])
        with pytest.raises(NumericError, match="theta"):
            adam.step()


class TestBucketBatches:
    def test_same_length_only_and_size_cap(self):
        lengths = [3, 5, 3, 3, 5, 3, 7]
        batches = bucket_batches(lengths, range(7), batch_size=2)
        for batch in batches:
            assert len({lengths[i] for i in batch}) == 1
            assert len(batch) <= 2
        flat = sorted(int(i) for b in batches for i in b)
        assert flat == list(range(7))

    def test_respects_incoming_order(self):
        lengths = [4, 4, 4, 4]
        batches = bucket_batches(lengths, [2, 0, 3, 1], batch_size=2)
        assert [b.tolist() for b in batches] == [[2, 0], [3, 1]]


def toy_corpus(per_class=25, classes=2, length=6, seed=0):
    """Separable single-label toy data: one class-revealing token per doc."""
    rng = np.random.default_rng(seed)
    filler = [f"f{i}" for i in range(30)]
    docs, labels = [], []
    for c in range(classes):
        for _ in range(per_class):
            doc = [filler[j] for j in rng.integers(0, len(filler), size=length)]
            doc[int(rng.integers(0, length))] = f"key{c}"
            docs.append(doc)
            labels.append(c)
    return Corpus(docs, labels, [f"class{c}" for c in range(classes)])


def small_config(**overrides):
    base = dict(
        encoder="leftforest",
        embed_dim=12,
        hidden_dim=8,
        attention_dim=8,
        max_order=2,
        batch_size=10,
        epochs=3,
        patience=3,
        seed=0,
        dropout=0.2,
    )
    base.update(overrides)
    return TrainConfig(**base)


def history_signature(result):
    return [(h.epoch, h.train_loss, h.train_acc, h.dev_acc) for h in result.history]


class TestTrainLoop:
    def test_overfits_small_single_label_corpus(self):
        corpus = toy_corpus(per_class=25)
        bundle = prepare_bundle(corpus, None, embed_dim=12, seed=1)
        config = small_config(epochs=50, patience=50, dropout=0.0, learning_rate=0.01)
        result = train(config, bundle)
        assert max(h.train_acc for h in result.history) == 1.0

    def test_identical_seeds_reproduce_bit_identical_history(self):
        corpus = toy_corpus()
        bundle = prepare_bundle(corpus, None, embed_dim=12, seed=1)
        first = train(small_config(), bundle)
        second = train(small_config(), bundle)
        assert history_signature(first) == history_signature(second)
        assert first.model.store.state_dict().keys() == second.model.store.state_dict().keys()
        for name, value in first.model.store.state_dict().items():
            assert np.array_equal(value, second.model.store.state_dict()[name])

    def test_bundle_trains_in_float32(self):
        bundle = prepare_bundle(toy_corpus(), None, embed_dim=12, seed=1)
        assert bundle.embeddings.data.dtype == np.float32
        result = train(small_config(epochs=1, patience=1), bundle)
        for name, tensor in result.model.store.items():
            assert tensor.data.dtype == np.float32, name

    def test_embeddings_frozen_bit_identical(self):
        corpus = toy_corpus()
        bundle = prepare_bundle(corpus, None, embed_dim=12, seed=1)
        before = bundle.embeddings.data.copy()
        train(small_config(), bundle)
        assert np.array_equal(bundle.embeddings.data, before)
        assert bundle.embeddings.grad is None

    def test_dev_selection_keeps_best(self):
        corpus = toy_corpus()
        bundle = prepare_bundle(corpus, None, embed_dim=12, seed=1)
        result = train(small_config(epochs=8, patience=8), bundle)
        best = max(h.dev_acc for h in result.history)
        assert result.best_dev_accuracy == best
        assert result.best_dev_accuracy >= result.history[-1].dev_acc
        # The returned model scores exactly the recorded best dev accuracy.
        assert evaluate(result.model, bundle.dev).accuracy == pytest.approx(best)

    def test_stopping_at_the_best_epoch_returns_the_same_parameters(self):
        # The best epoch here is neither the first nor the last, so the
        # longer run hands back the copy taken when that epoch improved.
        bundle = prepare_bundle(toy_corpus(), None, embed_dim=12, seed=1)
        config = small_config(epochs=6, patience=6, seed=2, learning_rate=0.01)
        full = train(config, bundle)
        best = full.best_epoch
        assert 0 < best < len(full.history) - 1
        stopped = train(replace(config, epochs=best + 1), bundle)
        assert stopped.best_epoch == best
        assert history_signature(stopped) == history_signature(full)[: best + 1]
        full_state, stopped_state = full.model.store.state_dict(), stopped.model.store.state_dict()
        assert full_state.keys() == stopped_state.keys()
        for name, value in full_state.items():
            assert np.array_equal(value, stopped_state[name]), name
        assert evaluate(full.model, bundle.dev).accuracy == full.best_dev_accuracy

    def test_loss_non_increasing_first_steps_most_seeds(self):
        # Single-batch corpus, lr=1e-3: loss should fall monotonically over
        # the first 5 steps for nearly every init seed.
        corpus = toy_corpus(per_class=10, length=5, seed=4)
        bundle = prepare_bundle(corpus, None, embed_dim=12, seed=2)
        good = 0
        seeds = range(20)
        for seed in seeds:
            config = small_config(
                batch_size=64, epochs=5, patience=5, dropout=0.0,
                learning_rate=1e-3, seed=seed,
            )
            losses = [h.train_loss for h in train(config, bundle).history]
            good += int(all(a >= b - 1e-12 for a, b in zip(losses, losses[1:])))
        assert good >= 19

    def test_empty_dev_rejected(self):
        corpus = toy_corpus(per_class=3)
        with pytest.raises(DataError):
            prepare_bundle(corpus, None, embed_dim=12, seed=1)
        bundle = prepare_bundle(toy_corpus(per_class=10), None, embed_dim=12, seed=1)
        bundle.dev.ids.clear()
        with pytest.raises(DataError):
            train(small_config(), bundle)

    def test_metrics_tsv_format(self):
        corpus = toy_corpus()
        bundle = prepare_bundle(corpus, None, embed_dim=12, seed=1)
        result = train(small_config(epochs=2, patience=2), bundle)
        assert METRICS_HEADER == (
            "epoch\ttrain_loss\ttrain_acc\tdev_acc\ttrain_seconds\tdev_seconds\tseconds"
        )
        assert len(result.history) == 2
        for epoch, row in enumerate(result.history):
            fields = row.tsv_row().split("\t")
            assert len(fields) == 7 and fields[0] == str(epoch)
            assert row.seconds == row.train_seconds + row.dev_seconds
            assert fields[-1] == f"{row.seconds:.3f}"


class TestGradientBatchingConsistency:
    def test_doc_gradient_independent_of_batch_composition(self):
        # The batch gradient is the batch-order sum of each document's own
        # gradient of loss / batch size, computed here one document at a
        # time.  Each document's dropout mask is keyed by (seed, epoch,
        # document index) alone, so the batch index plays no part.
        corpus = toy_corpus(per_class=10)
        bundle = prepare_bundle(corpus, None, embed_dim=12, seed=1)
        config = small_config()
        assert config.dropout > 0
        model = TextClassifier(
            config.model_config(bundle.num_classes),
            bundle.vocab, bundle.label_names, bundle.embeddings, init_seed=0,
        )
        docs = bundle.train
        batch = np.array([0, 3, 7, 12])
        epoch = 1
        model.store.zero_grad()
        loss_sum, correct = _train_batch(model, docs, batch, epoch, 5, config)
        batched = {name: t.grad.copy() for name, t in model.store.items()}

        reference = {name: np.zeros_like(t.data) for name, t in model.store.items()}
        ref_loss, ref_correct = 0.0, 0
        for idx in batch:
            model.store.zero_grad()
            rng = derive_rng(config.seed, _KEY_DOC_DROPOUT, epoch, int(idx))
            with Tape() as tape:
                output, loss = model.forward_doc(
                    docs.ids[idx], gold=int(docs.labels[idx]), train=True, rng=rng
                )
                tape.backward(loss, seed=1 / len(batch))
            ref_loss += float(loss.data)
            ref_correct += int(output.predicted == docs.labels[idx])
            for name, tensor in model.store.items():
                reference[name] += tensor.grad
        assert (loss_sum, correct) == (ref_loss, ref_correct)
        for name in batched:
            assert np.array_equal(batched[name], reference[name]), name


# The helper runs only where the BLAS thread count can be set.
needs_helper = pytest.mark.skipif(
    training._openblas() is None, reason="the BLAS thread count cannot be read and set"
)


def use_helper(monkeypatch, on: bool) -> None:
    """Make training see two usable CPUs (backward passes on the helper) or
    one (inline)."""
    monkeypatch.setattr(training, "_usable_cpus", lambda: 2 if on else 1)


def helper_bundle(dtype=np.float32):
    """Two document lengths, with parses for the tree; embeddings in ``dtype``."""
    corpus = mixed_length_corpus((9, 12), per_class=6)
    rng = np.random.default_rng(2)
    corpus.parses = [random_bracketing(doc, rng) for doc in corpus.documents]
    bundle = prepare_bundle(corpus, None, embed_dim=12, seed=1)
    bundle.embeddings.data = bundle.embeddings.data.astype(dtype)
    return bundle


def helper_model(bundle, encoder):
    config = small_config(encoder=encoder, max_order=3, batch_size=6)
    model = TextClassifier(config.model_config(bundle.num_classes), bundle.vocab,
                           bundle.label_names, bundle.embeddings, init_seed=0)
    return model, Adam(model.store, config.learning_rate), config


@needs_helper
class TestBackwardHelper:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize(
        "encoder", ["tree", "pyramid", "leftforest", "rightforest", "biforest", "cnn"]
    )
    def test_helper_trains_bit_for_bit_as_inline(self, encoder, dtype, monkeypatch):
        bundle = helper_bundle(dtype)
        runs = []
        for on in (True, False):
            use_helper(monkeypatch, on)
            assert training.thread_plan(encoder).backward_on_helper is on
            model, adam, config = helper_model(bundle, encoder)
            stats = [run_epoch(model, bundle.train, adam, epoch, config) for epoch in range(2)]
            runs.append((stats, model.store.state_dict()))
        (helper_stats, helper_state), (inline_stats, inline_state) = runs
        assert helper_stats == inline_stats
        assert helper_state.keys() == inline_state.keys()
        for name, value in helper_state.items():
            assert value.dtype == dtype
            assert np.array_equal(value, inline_state[name]), name

    def test_bit_identity_holds_under_fast_thread_switching(self, monkeypatch):
        # A switch every few microseconds interleaves the forward and the
        # backward passes at many more points than the default 5 ms does.
        bundle = helper_bundle()
        interval = sys.getswitchinterval()
        runs = []
        try:
            sys.setswitchinterval(1e-5)
            for on in (True, False):
                use_helper(monkeypatch, on)
                model, adam, config = helper_model(bundle, "biforest")
                stats = [run_epoch(model, bundle.train, adam, epoch, config)
                         for epoch in range(3)]
                runs.append((stats, model.store.state_dict()))
        finally:
            sys.setswitchinterval(interval)
        (helper_stats, helper_state), (inline_stats, inline_state) = runs
        assert helper_stats == inline_stats
        for name, value in helper_state.items():
            assert np.array_equal(value, inline_state[name]), name

    def test_error_in_a_pull_surfaces_on_the_calling_thread(self, monkeypatch):
        bundle = helper_bundle()
        use_helper(monkeypatch, True)
        model, adam, config = helper_model(bundle, "leftforest")
        # Every pull recorded on the fourth document's tape fails.
        tapes, raised_on = [], []
        enter, record = Tape.__enter__, Tape._record

        def counting_enter(tape):
            tapes.append(tape)
            return enter(tape)

        def failing_record(tape, outputs, inputs, pull):
            def failing_pull(*grads):
                raised_on.append(threading.current_thread())
                raise RuntimeError("injected failure")

            record(tape, outputs, inputs, failing_pull if len(tapes) == 4 else pull)

        monkeypatch.setattr(Tape, "__enter__", counting_enter)
        monkeypatch.setattr(Tape, "_record", failing_record)
        with pytest.raises(RuntimeError, match="^injected failure$"):
            run_epoch(model, bundle.train, adam, 0, config)
        assert raised_on and raised_on[0] is not threading.current_thread()
        monkeypatch.setattr(Tape, "_record", record)
        loss, accuracy = run_epoch(model, bundle.train, adam, 1, config)
        assert np.isfinite(loss) and 0.0 <= accuracy <= 1.0

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("encoder, name, raised", [
        # The forward pass saturates; the helper's backward computes an
        # infinite gradient, which the ADAM step refuses.
        ("leftforest", "encoder.u_left", "non-finite gradient for parameter 'encoder.w'"),
        # The forward pass fails while the previous backward is in flight.
        ("cnn", "classifier.w", "non-finite loss"),
    ])
    def test_non_finite_parameter_gives_the_inline_error(self, encoder, name, raised,
                                                         monkeypatch):
        bundle = helper_bundle()
        for on in (False, True):
            use_helper(monkeypatch, on)
            model, adam, config = helper_model(bundle, encoder)
            parameter = model.store.get(name)
            kept = parameter.data.copy()
            parameter.data.reshape(-1)[0] = np.inf
            with pytest.raises(NumericError) as error:
                run_epoch(model, bundle.train, adam, 0, config)
            assert str(error.value) == raised
            parameter.data[...] = kept
            loss, accuracy = run_epoch(model, bundle.train, adam, 1, config)
            assert np.isfinite(loss) and 0.0 <= accuracy <= 1.0


def mixed_length_corpus(lengths, per_class=4):
    """``toy_corpus`` documents of every length in ``lengths``."""
    docs, labels = [], []
    for seed, length in enumerate(lengths):
        part = toy_corpus(per_class=per_class, length=length, seed=seed)
        docs += part.documents
        labels += part.labels
    return Corpus(docs, labels, part.label_names)


@pytest.mark.parametrize("encoder", ENCODER_KINDS)
def test_no_encoder_builds_a_node_graph(encoder):
    # Every encoder reads a structure's shape: its kind, length, effective
    # order and span list, and a parse tree's child ids (the library has no
    # node graph).  Training, evaluation and forward_doc run on documents of
    # several lengths, and each gives the unit count of its structure.
    lengths = (29, 31, 37, 41, 43)
    corpus = mixed_length_corpus(lengths)
    rng = np.random.default_rng(2)
    corpus.parses = [random_bracketing(doc, rng) for doc in corpus.documents]
    bundle = prepare_bundle(corpus, None, embed_dim=12, seed=1)
    result = train(small_config(encoder=encoder, max_order=4, epochs=1, patience=1), bundle)
    evaluate(result.model, bundle.test)
    seen = set()
    for i, ids in enumerate(bundle.train.ids):
        n = len(ids)
        if n not in seen:
            seen.add(n)
            output, _ = result.model.forward_doc(ids, parse=bundle.train.parse_for(i))
            units = {"tree": 2 * n - 1, "bilstm": n}.get(encoder, len(structures.ngram_spans(n, 4)))
            assert len(output.unit_spans) == units
    assert seen == set(lengths)


class TestEvaluate:
    def make_balanced_bundle(self, classes=5):
        rng = np.random.default_rng(0)
        docs = [[f"t{rng.integers(0, 20)}" for _ in range(4)] for _ in range(classes * 10)]
        labels = [i % classes for i in range(classes * 10)]
        corpus = Corpus(docs, labels, [f"c{i}" for i in range(classes)])
        return prepare_bundle(corpus, None, embed_dim=8, seed=0)

    def test_constant_predictor_on_balanced_classes(self):
        bundle = self.make_balanced_bundle()
        config = small_config(embed_dim=8)
        model = TextClassifier(
            config.model_config(5), bundle.vocab, bundle.label_names,
            bundle.embeddings, init_seed=0,
        )
        model.store.get("classifier.w").data[:] = 0.0
        bias = model.store.get("classifier.b")
        bias.data[:] = 0.0
        bias.data[2] = 10.0
        result = evaluate(model, bundle.train)
        assert result.accuracy == pytest.approx(0.2)

    def test_accuracy_matches_recount_from_predictions(self):
        bundle = self.make_balanced_bundle()
        config = small_config(embed_dim=8)
        model = TextClassifier(
            config.model_config(5), bundle.vocab, bundle.label_names,
            bundle.embeddings, init_seed=3,
        )
        result = evaluate(model, bundle.dev)
        recount = float(np.mean(result.predictions == bundle.dev.labels))
        assert result.accuracy == pytest.approx(recount)
        totals = sum(c["total"] for c in result.per_class.values())
        corrects = sum(c["correct"] for c in result.per_class.values())
        assert totals == len(bundle.dev)
        assert corrects / totals == pytest.approx(result.accuracy)

    def test_perfect_predictor_scores_one(self):
        corpus = toy_corpus(per_class=20)
        bundle = prepare_bundle(corpus, None, embed_dim=12, seed=1)
        result = train(
            small_config(epochs=40, patience=40, dropout=0.0, learning_rate=0.01), bundle
        )
        # The returned model is the best-dev checkpoint; on the dev split its
        # predictions are perfect and evaluate must report exactly 1.0.
        assert result.best_dev_accuracy == 1.0
        report = evaluate(result.model, bundle.dev)
        assert report.accuracy == 1.0
        for counts in report.per_class.values():
            assert counts["correct"] == counts["total"]


class TestBenchmark:
    def test_report_shape_and_param_constancy(self):
        corpus = toy_corpus(per_class=10, length=8)
        bundle = prepare_bundle(corpus, None, embed_dim=10, seed=1)
        config = small_config(embed_dim=10, max_order=3, epochs=1)
        rows = benchmark(config, bundle, encoders=("leftforest", "cnn"))
        assert [r.encoder for r in rows] == ["leftforest", "cnn"]
        for row in rows:
            assert row.train_epoch_seconds > 0
            assert row.eval_seconds > 0
            assert row.encoder_macs > 0
        text = bench_tsv(rows)
        assert text.startswith("encoder\ttrain_epoch_seconds")
        # Parameter count for the forest does not depend on max order.
        deep = benchmark(small_config(embed_dim=10, max_order=8, epochs=1), bundle,
                         encoders=("leftforest",))
        assert deep[0].parameters == rows[0].parameters

    def test_macs_match_closed_form_mixture(self):
        from reference import cnn_encoder_macs, forest_encoder_macs

        corpus = toy_corpus(per_class=10, length=7)
        bundle = prepare_bundle(corpus, None, embed_dim=10, seed=1)
        config = small_config(embed_dim=10, hidden_dim=8, max_order=3, epochs=1)
        rows = benchmark(config, bundle, encoders=("leftforest", "cnn"))
        lengths = [len(ids) for ids in bundle.train.ids]
        expect_forest = sum(forest_encoder_macs(n, 3, 10, 8) for n in lengths)
        expect_cnn = sum(cnn_encoder_macs(n, 3, 10, 8) for n in lengths)
        assert rows[0].encoder_macs == expect_forest
        assert rows[1].encoder_macs == expect_cnn

    def test_tree_macs_over_mixed_parses_match_closed_form(self):
        from reference import tree_encoder_macs

        rng = np.random.default_rng(4)
        docs = [[f"t{rng.integers(0, 20)}" for _ in range(rng.integers(1, 12))]
                for _ in range(30)]
        parses = [random_bracketing(doc, rng) for doc in docs]
        corpus = Corpus(docs, [i % 3 for i in range(30)], ["a", "b", "c"], parses)
        bundle = prepare_bundle(corpus, None, embed_dim=10, seed=1)
        config = small_config(encoder="tree", embed_dim=10, hidden_dim=8)
        model = TextClassifier(config.model_config(3), bundle.vocab, bundle.label_names,
                               bundle.embeddings, init_seed=0)
        docs_all = EncodedDocs.from_corpus(corpus, bundle.vocab)
        expected = sum(tree_encoder_macs(len(doc), 10, 8) for doc in docs)
        assert measure_encoder_macs(model, docs_all) == expected
