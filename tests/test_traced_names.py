"""The benchmark's traced run (``perfbench/measure.py --trace 1``) wraps the
program's layer functions and methods by name and stops on any it cannot
find.  Installing its tracer here turns a renamed or deleted traced name
into a failing test, a traced training step checks that the tape's hooks
still report backward work, and a traced evaluation that its first-layer
products still show as ``linear_rows`` spans.  Both check that a forest
runs through ``encode_dag`` without building a node graph."""
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import measure  # noqa: E402


def test_benchmark_tracer_finds_every_traced_name():
    tracer = measure.install_tracer(measure.Modules())
    tracer.uninstall()


def test_traced_training_step_records_backward_spans_and_tape_size():
    # The tracer wraps Tape._record's pulls and reads len(tape) in
    # Tape.backward; a record layout that broke either would leave the
    # backward metrics at 0 without an error.
    mg = measure.Modules()
    vocab = mg.data.Vocab.build([["a", "b", "c"]])
    embeddings = mg.autodiff.Tensor(
        np.random.default_rng(0).normal(size=(len(vocab), 6)).astype(np.float32)
    )
    config = mg.model.ModelConfig(encoder="leftforest", num_classes=2, embed_dim=6,
                                  hidden_dim=4, attention_dim=3, max_order=3)
    model = mg.model.TextClassifier(config, vocab, ["x", "y"], embeddings)
    tracer = measure.install_tracer(mg)
    try:
        with mg.autodiff.Tape() as tape:
            _, loss = model.forward_doc(vocab.encode(["a", "b", "c", "a"]), gold=1,
                                        train=True, rng=np.random.default_rng(1))
            tape.backward(loss)
    finally:
        tracer.uninstall()
    totals = tracer.aggregate(0, 2**63)
    for primitive in ("linear_rows", "tree_cell_gates", "concat_rows", "dropout"):
        assert totals[f"autodiff.{primitive}_backward_calls"] >= 1, primitive
    assert totals["autodiff.backward_calls"] == 1
    assert totals["autodiff.tape_records"] == len(tape) > 0
    # A forest reads its structure's shape; it builds no node graph.
    assert totals["encoders.encode_dag_calls"] == 1
    assert "structures.build_structure_calls" not in totals


@pytest.mark.parametrize("encoder", ["leftforest", "cnn"])
def test_traced_evaluation_records_the_first_layer_products(encoder):
    # Evaluation builds each chunk's first-layer table through
    # autodiff.linear_rows, so the traced run still sees its products and
    # their MACs; the CNN's windows then need no conv_ngram at all.
    mg = measure.Modules()
    words = ["a", "b", "c", "d"]
    vocab = mg.data.Vocab.build([words])
    embeddings = mg.autodiff.Tensor(
        np.random.default_rng(0).normal(size=(len(vocab), 6)).astype(np.float32)
    )
    config = mg.model.ModelConfig(encoder=encoder, num_classes=2, embed_dim=6,
                                  hidden_dim=4, attention_dim=3, max_order=3)
    model = mg.model.TextClassifier(config, vocab, ["x", "y"], embeddings)
    tokens = [words, ["b", "a", "d"], ["c", "c", "a", "b", "d"]]
    docs = mg.training.EncodedDocs([vocab.encode(doc) for doc in tokens],
                                   np.array([0, 1, 0]), tokens)
    tracer = measure.install_tracer(mg)
    try:
        mg.training.evaluate(model, docs)
    finally:
        tracer.uninstall()
    totals = tracer.aggregate(0, 2**63)
    assert totals["training.evaluate_calls"] == 1
    assert totals["autodiff.linear_rows_calls"] >= 1
    assert totals["autodiff.linear_rows_ms"] > 0
    if encoder == "leftforest":
        assert totals["encoders.encode_dag_calls"] == len(tokens)
        assert "structures.build_structure_calls" not in totals
    if encoder == "cnn":
        # One product per (order, offset) for the chunk, one attention map per document.
        assert totals["autodiff.linear_rows_calls"] == 1 + 2 + 3 + len(tokens)
        assert "autodiff.conv_ngram_calls" not in totals
