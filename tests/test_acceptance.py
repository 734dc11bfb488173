"""Acceptance suite: one test per shipping criterion, one printed verdict
line each.  Run with ``pytest -s tests/test_acceptance.py`` to watch the
lines appear; several criteria train real models and take a few minutes.

The heavyweight pipelines (criteria 6-8) run twice inside session fixtures;
criterion 10 compares the two runs bit for bit.
"""
import os
import time
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from multigram import autodiff as ad
from multigram.autodiff import Tensor
from multigram.data import Vocab, load_corpus, split_stratified
from multigram.explain import FidelityRow, fidelity_harness
from multigram.model import ModelConfig, TextClassifier
from multigram.synthetic import make_planted_corpus
from multigram.training import (
    TrainConfig,
    benchmark,
    evaluate,
    prepare_bundle,
    train,
)

from conftest import (
    count_parameters,
    level_schedule,
    node_for_span,
    random_bracketing,
    unfold_tokens,
)
from gradcheck import check_gradients
from reference import build_dag, cnn_encoder_macs, forest_encoder_macs


def verdict(number, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"\n[acceptance] criterion {number:>2} ({label}): {status}  {detail}")
    assert ok, f"criterion {number} ({label}) failed: {detail}"


# ---------------------------------------------------------------------------
# 1. Structure correctness
# ---------------------------------------------------------------------------


def test_criterion_1_structure_correctness():
    started = time.perf_counter()
    rng = np.random.default_rng(0)
    for n in range(1, 13):
        tokens = [f"t{i}" for i in range(n)]
        for max_order in range(1, 8):
            expected_size = sum(n - k + 1 for k in range(1, min(max_order, n) + 1))
            expected_spans = {
                (i, k)
                for k in range(1, min(max_order, n) + 1)
                for i in range(n - k + 1)
            }
            for kind in ("pyramid", "leftforest", "rightforest"):
                dag = build_dag(kind, tokens, max_order)
                spans = {(node.span.start, node.span.order) for node in dag.nodes}
                assert spans == expected_spans and len(dag.nodes) == expected_size
                assert len(level_schedule(dag)) == min(max_order, n)
                seen = set()
                for batch in level_schedule(dag):
                    for node_id in batch:
                        children = dag.nodes[node_id].children
                        if children is not None:
                            assert set(children) <= seen
                    seen.update(batch)
                for node in dag.nodes:
                    counts = unfold_tokens(dag, node.id)
                    covered = set(range(node.span.start, node.span.end))
                    assert set(counts) == covered
                    if kind != "pyramid":
                        assert all(c == 1 for c in counts.values())
                    elif node.span.order >= 3:
                        assert max(counts.values()) >= 2
            parse = random_bracketing(tokens, rng)
            tree = build_dag("tree", tokens, max_order, parse=parse)
            assert len(tree.nodes) == 2 * n - 1
            for node in tree.nodes:
                counts = unfold_tokens(tree, node.id)
                assert counts == Counter(range(node.span.start, node.span.end))

    # The four-token running example, verbatim.
    pyramid = build_dag("pyramid", ["w1", "w2", "w3", "w4"], 4)
    trigram = node_for_span(pyramid, 0, 3)
    left, right = trigram.children
    assert {pyramid.nodes[left].span, pyramid.nodes[right].span} == {
        node_for_span(pyramid, 0, 2).span,
        node_for_span(pyramid, 1, 2).span,
    }
    assert unfold_tokens(pyramid, trigram.id) == Counter({0: 1, 1: 2, 2: 1})
    elapsed = time.perf_counter() - started
    verdict(1, "structure correctness", True, f"n<=12, K<=7 in {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 2. Gradient checks
# ---------------------------------------------------------------------------


def test_criterion_2_gradient_checks():
    started = time.perf_counter()
    rng = np.random.default_rng(99)
    vocab = Vocab(["<oov>"] + [f"tok{i}" for i in range(10)])
    worst = 0.0
    configs = []
    for encoder in ("tree", "pyramid", "leftforest", "rightforest", "biforest"):
        configs += [(encoder, "hidden"), (encoder, "cell")]
    configs += [("bilstm", "hidden"), ("cnn", "hidden")]
    for encoder, memory_update in configs:
        config = ModelConfig(
            encoder=encoder, num_classes=3, embed_dim=7, hidden_dim=6,
            attention_dim=5, max_order=3, dropout=0.0, memory_update=memory_update,
        )
        embeddings = Tensor(rng.normal(scale=0.4, size=(len(vocab), 7)))
        model = TextClassifier(config, vocab, ["a", "b", "c"], embeddings, init_seed=5)
        n = int(rng.integers(4, 9))
        ids = rng.integers(1, len(vocab), size=n)
        parse = None
        if encoder == "tree":
            parse = random_bracketing([vocab.tokens[i] for i in ids], rng)
        gold = int(rng.integers(0, 3))

        def closure():
            _, loss = model.forward_doc(ids, gold=gold, parse=parse)
            return loss

        report = check_gradients(closure, model.store, epsilon=1e-3,
                                 tolerance=1e-4, max_coords=10, rng=rng)
        worst = max(worst, report.max_error)
        assert report.ok, (encoder, memory_update, report.per_tensor)
    elapsed = time.perf_counter() - started
    verdict(2, "gradient checks", worst < 1e-4,
            f"12 model variants, max rel err {worst:.2e} in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 3. Normalization invariants
# ---------------------------------------------------------------------------


def test_criterion_3_normalization_invariants():
    rng = np.random.default_rng(3)
    vocab = Vocab(["<oov>"] + [f"tok{i}" for i in range(12)])
    checked = 0
    for encoder in ("pyramid", "leftforest", "rightforest", "biforest", "bilstm", "cnn"):
        config = ModelConfig(
            encoder=encoder, num_classes=4, embed_dim=6, hidden_dim=6,
            attention_dim=5, max_order=3, dropout=0.3,
        )
        embeddings = Tensor(rng.normal(scale=3.0, size=(len(vocab), 6)))
        model = TextClassifier(config, vocab, list("abcd"), embeddings, init_seed=1)
        for n in (1, 2, 7, 15):
            ids = rng.integers(0, len(vocab), size=n)
            for train_mode in (False, True):
                out, _ = model.forward_doc(
                    ids, train=train_mode,
                    rng=np.random.default_rng(0) if train_mode else None,
                )
                assert abs(out.alpha.sum() - 1.0) <= 1e-9
                assert np.all(out.alpha >= 0)
                assert abs(out.probs.sum() - 1.0) <= 1e-9
                checked += 1
    verdict(3, "normalization invariants", True, f"{checked} forward passes")


# ---------------------------------------------------------------------------
# 4. Compactness
# ---------------------------------------------------------------------------


def test_criterion_4_parameter_compactness():
    def config_for(encoder, max_order):
        return ModelConfig(
            encoder=encoder, num_classes=5, embed_dim=300, hidden_dim=100,
            attention_dim=100, max_order=max_order,
        )

    forest_counts = [count_parameters(config_for("leftforest", k)) for k in range(1, 8)]
    cnn_counts = [count_parameters(config_for("cnn", k)) for k in range(1, 8)]
    constant = len(set(forest_counts)) == 1
    increasing = all(a < b for a, b in zip(cnn_counts, cnn_counts[1:]))
    dominated = cnn_counts[-1] > forest_counts[-1]
    verdict(
        4, "parameter compactness",
        constant and increasing and dominated,
        f"forest {forest_counts[-1]:,} constant in K; cnn grows to {cnn_counts[-1]:,} at K=7",
    )


# ---------------------------------------------------------------------------
# 5. Efficiency (exact operation counts and wall clock)
# ---------------------------------------------------------------------------


def test_criterion_5_efficiency():
    corpus = make_planted_corpus(num_docs=1000, length_range=(200, 200), seed=11).corpus
    bundle = prepare_bundle(corpus, None, embed_dim=300, seed=11)
    config = TrainConfig(
        embed_dim=300, hidden_dim=100, attention_dim=100, max_order=7,
        batch_size=50, epochs=1, seed=11,
    )
    rows = {r.encoder: r for r in benchmark(config, bundle, ("leftforest", "cnn"))}
    forest, cnn = rows["leftforest"], rows["cnn"]
    docs = len(bundle.train)
    assert forest.encoder_macs == docs * forest_encoder_macs(200, 7, 300, 100)
    assert cnn.encoder_macs == docs * cnn_encoder_macs(200, 7, 300, 100)
    macs_ok = forest.encoder_macs < cnn.encoder_macs
    clock_ok = forest.train_epoch_seconds < cnn.train_epoch_seconds
    detail = (
        f"macs {forest.encoder_macs / 1e9:.2f}G vs {cnn.encoder_macs / 1e9:.2f}G; "
        f"epoch {forest.train_epoch_seconds:.1f}s vs {cnn.train_epoch_seconds:.1f}s; "
        f"eval {forest.eval_seconds:.2f}s vs {cnn.eval_seconds:.2f}s"
    )
    verdict(5, "efficiency", macs_ok and clock_ok, detail)


# ---------------------------------------------------------------------------
# Shared synthetic pipelines for criteria 6-8 and the determinism criterion.
# ---------------------------------------------------------------------------

SYNTH_SEED = 42

BASE = dict(
    embed_dim=50, hidden_dim=50, attention_dim=50, batch_size=32,
    epochs=40, patience=10, seed=SYNTH_SEED, learning_rate=0.005, dropout=0.2,
)


def history_signature(result):
    return tuple((h.epoch, h.train_loss, h.train_acc, h.dev_acc) for h in result.history)


def evidence_overlap(model, planted, dev):
    """(dev accuracy, share of correctly classified dev documents whose
    top-weight unit overlaps the planted trigram)."""
    correct = hits = 0
    for i in range(len(dev)):
        output, _ = model.forward_doc(dev.ids[i])
        if output.predicted != int(dev.labels[i]):
            continue
        correct += 1
        span = output.unit_spans[int(np.argmax(output.alpha))]
        plant_start, plant_end = planted.plant_for(dev.origin[i])
        if span.start < plant_end and plant_start < span.end:
            hits += 1
    accuracy = evaluate(model, dev).accuracy
    return accuracy, (hits / correct if correct else 0.0)


@pytest.fixture(scope="session")
def planted_world():
    planted = make_planted_corpus(
        num_docs=500, num_classes=5, distractor_vocab=200,
        length_range=(30, 50), seed=SYNTH_SEED,
    )
    bundle = prepare_bundle(planted.corpus, None, embed_dim=50, seed=SYNTH_SEED)
    return planted, bundle


@pytest.fixture(scope="session")
def biforest_runs(planted_world):
    """The criterion-6 pipeline, executed twice for the determinism check."""
    _, bundle = planted_world
    config = TrainConfig(encoder="biforest", max_order=3, **BASE)
    return [train(config, bundle) for _ in range(2)]


@pytest.fixture(scope="session")
def order_sweep_runs(planted_world):
    """LeftForest at K=1 and K=3, each executed twice."""
    _, bundle = planted_world
    runs = {}
    for max_order in (1, 3):
        config = TrainConfig(encoder="leftforest", max_order=max_order, **BASE)
        runs[max_order] = [train(config, bundle) for _ in range(2)]
    return runs


@pytest.fixture(scope="session")
def fidelity_runs(planted_world, biforest_runs):
    _, bundle = planted_world
    explainer = biforest_runs[0].model
    max_len = max(len(ids) for ids in bundle.train.ids + bundle.dev.ids)
    probe = TrainConfig(encoder="bilstm", epochs=30, **{
        k: v for k, v in BASE.items() if k not in ("epochs",)
    })
    runs = [
        fidelity_harness(explainer, bundle, n_values=[3, max_len],
                         seed=SYNTH_SEED, probe_config=probe)
        for _ in range(2)
    ]
    return runs, max_len


def test_criterion_6_learning_and_evidence(planted_world, biforest_runs):
    planted, bundle = planted_world
    result = biforest_runs[0]
    accuracy, overlap = evidence_overlap(result.model, planted, bundle.dev)
    ok = accuracy >= 0.95 and overlap >= 0.90
    verdict(6, "synthetic learning + evidence",
            ok, f"dev accuracy {accuracy:.3f}, top-evidence overlap {overlap:.3f}")


def test_criterion_7_ngram_order_trend(order_sweep_runs):
    low = order_sweep_runs[1][0].best_dev_accuracy
    high = order_sweep_runs[3][0].best_dev_accuracy
    verdict(7, "ngram-order trend", high - low >= 0.10,
            f"dev accuracy K=3 {high:.3f} vs K=1 {low:.3f}")


def test_criterion_8_fidelity(fidelity_runs):
    rows, max_len = fidelity_runs
    table = {(r.n, r.condition): r.accuracy for r in rows[0]}
    upper = table[(None, "full")]
    extracted3 = table[(3, "extracted")]
    random3 = table[(3, "random")]
    extracted_full = table[(max_len, "extracted")]
    random_full = table[(max_len, "random")]
    ok = (
        extracted3 >= 0.9
        and random3 <= 0.5
        and abs(extracted_full - upper) <= 0.02
        and abs(random_full - upper) <= 0.02
    )
    verdict(
        8, "evidence fidelity", ok,
        f"upper {upper:.3f}; n=3 extracted {extracted3:.3f} vs random {random3:.3f}; "
        f"n={max_len} extracted {extracted_full:.3f}, random {random_full:.3f}",
    )


# ---------------------------------------------------------------------------
# 9. Optional paper-scale reproduction (needs the public medical dataset)
# ---------------------------------------------------------------------------

MEDICAL_TSV = os.environ.get(
    "MULTIGRAM_MEDICAL_TSV", str(Path(__file__).parent.parent / "data" / "medical.tsv")
)


@pytest.mark.skipif(
    not Path(MEDICAL_TSV).exists(),
    reason="public medical dataset not fetched (scripts/fetch_medical_dataset.py)",
)
def test_criterion_9_paper_scale_reproduction():
    corpus = load_corpus(MEDICAL_TSV)
    train_c, dev_c, test_c = split_stratified(corpus, seed=SYNTH_SEED)
    sizes = (len(train_c), len(dev_c), len(test_c))
    # Published split sizes, tolerated to within 1% (per-class rounding and
    # preprocessing are underspecified upstream).
    published = (11216, 1442, 1444)
    sizes_ok = all(abs(a - b) <= 0.01 * sum(published) for a, b in zip(sizes, published))

    bundle = prepare_bundle(corpus, os.environ.get("MULTIGRAM_GLOVE"), 300, SYNTH_SEED)
    scores = {}
    for encoder in ("biforest", "bilstm", "cnn"):
        config = TrainConfig(encoder=encoder, epochs=30, patience=5, seed=SYNTH_SEED)
        result = train(config, bundle)
        scores[encoder] = evaluate(result.model, bundle.test).accuracy
    margin_ok = (
        scores["biforest"] >= scores["bilstm"] - 0.02
        and scores["biforest"] >= scores["cnn"] - 0.02
    )
    verdict(9, "paper-scale reproduction", sizes_ok and margin_ok,
            f"splits {sizes}, test accuracy {scores}")


# ---------------------------------------------------------------------------
# 10. Determinism of the synthetic pipelines
# ---------------------------------------------------------------------------


def test_criterion_10_determinism(biforest_runs, order_sweep_runs, fidelity_runs):
    same_history = history_signature(biforest_runs[0]) == history_signature(biforest_runs[1])
    first_state = biforest_runs[0].model.store.state_dict()
    second_state = biforest_runs[1].model.store.state_dict()
    same_params = all(
        np.array_equal(first_state[name], second_state[name]) for name in first_state
    )
    same_sweep = all(
        history_signature(order_sweep_runs[k][0]) == history_signature(order_sweep_runs[k][1])
        for k in (1, 3)
    )
    fid_a, fid_b = fidelity_runs[0]
    same_fidelity = [(r.n, r.condition, r.accuracy) for r in fid_a] == [
        (r.n, r.condition, r.accuracy) for r in fid_b
    ]
    verdict(
        10, "determinism", same_history and same_params and same_sweep and same_fidelity,
        "criteria 6-8 pipelines reproduce bit-identically under the fixed seed",
    )
