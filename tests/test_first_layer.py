"""Evaluation reads each encoder's per-token first layer from a table
computed once per distinct token of a chunk (``TextClassifier.forward_chunk``)
instead of once per token occurrence (``forward_doc``).  These tests hold the
table path to ``forward_doc``'s outputs for every encoder, memory update and
dtype, and pin the saving as a count of multiply-accumulates."""
import numpy as np
import pytest

from multigram import autodiff as ad
from multigram import explain
from multigram.autodiff import Tensor, gate_count
from multigram.data import Vocab
from multigram.model import ENCODER_KINDS, ModelConfig, TextClassifier
from multigram.training import DataBundle, EncodedDocs, TrainConfig, evaluate, forward_chunks

from conftest import random_bracketing
from reference import cnn_encoder_macs, forest_encoder_macs

MAX_ORDER = 4
# A 1-token document, documents shorter than MAX_ORDER, and longer ones.
LENGTHS = (1, 5, 2, 3, 9, 1, 4, 7, 3, 6, 12, 2)
WORDS = [f"w{i}" for i in range(8)]


def seeded_model(encoder, memory_update, dtype, seed=11):
    """A model over an 8-word vocabulary and documents that repeat words and
    hold words outside the vocabulary, so their ids repeat the OOV row."""
    rng = np.random.default_rng(seed)
    vocab = Vocab.build([WORDS])
    embeddings = Tensor((rng.normal(size=(len(vocab), 10)) * 0.5).astype(dtype))
    config = ModelConfig(encoder=encoder, num_classes=3, embed_dim=10, hidden_dim=6,
                         attention_dim=5, max_order=MAX_ORDER, memory_update=memory_update)
    model = TextClassifier(config, vocab, ["a", "b", "c"], embeddings, init_seed=seed)
    pool = WORDS + ["unseen1", "unseen2"]
    tokens = [[pool[j] for j in rng.integers(0, len(pool), size=n)] for n in LENGTHS]
    parses = [random_bracketing(doc, rng) for doc in tokens]
    docs = EncodedDocs(
        ids=[vocab.encode(doc) for doc in tokens],
        labels=np.arange(len(tokens)) % 3,
        tokens=tokens,
        parses=parses,
    )
    return model, docs


def per_doc_outputs(model, docs):
    return [model.forward_doc(docs.ids[i], parse=docs.parse_for(i))[0] for i in range(len(docs))]


def assert_outputs_match(outputs, expected, atol):
    assert len(outputs) == len(expected)
    for out, ref in zip(outputs, expected):
        assert out.predicted == ref.predicted
        assert list(out.unit_spans) == list(ref.unit_spans)
        for field in ("alpha", "text_vector", "logits", "probs"):
            got, want = getattr(out, field), getattr(ref, field)
            assert got.dtype == want.dtype and got.shape == want.shape, field
            np.testing.assert_allclose(got, want, rtol=0, atol=atol, err_msg=field)


def test_the_corpus_has_what_the_table_must_handle():
    _, docs = seeded_model("leftforest", "hidden", np.float64)
    ids = np.concatenate(docs.ids)
    assert min(LENGTHS) == 1 and any(1 < n < MAX_ORDER for n in LENGTHS)
    assert (ids == 0).sum() >= 2  # out-of-vocabulary occurrences
    assert len(np.unique(ids)) < len(ids)


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
@pytest.mark.parametrize("memory_update", ["hidden", "cell"])
@pytest.mark.parametrize("encoder", ENCODER_KINDS)
def test_evaluate_predicts_what_forward_doc_predicts(encoder, memory_update, dtype):
    model, docs = seeded_model(encoder, memory_update, dtype)
    expected = [out.predicted for out in per_doc_outputs(model, docs)]
    for batch_size in (1, 2, len(docs) + 3):
        result = evaluate(model, docs, batch_size=batch_size)
        assert result.predictions.tolist() == expected, batch_size


@pytest.mark.parametrize("memory_update", ["hidden", "cell"])
@pytest.mark.parametrize("encoder", ENCODER_KINDS)
def test_chunk_outputs_match_forward_doc_in_float64(encoder, memory_update):
    model, docs = seeded_model(encoder, memory_update, np.float64)
    expected = per_doc_outputs(model, docs)
    for batch_size in (1, 5, len(docs) + 3):
        outputs = list(forward_chunks(model, docs, batch_size))
        assert_outputs_match(outputs, expected, atol=1e-12)


@pytest.mark.parametrize("encoder", ENCODER_KINDS)
def test_chunk_outputs_stay_float32_and_close_to_forward_doc(encoder):
    model, docs = seeded_model(encoder, "hidden", np.float32)
    assert_outputs_match(list(forward_chunks(model, docs, 4)), per_doc_outputs(model, docs),
                         atol=1e-5)


@pytest.mark.parametrize("encoder", ["biforest", "tree", "bilstm"])
def test_fidelity_collects_its_outputs_through_the_chunk_pass(encoder, monkeypatch):
    model, docs = seeded_model(encoder, "cell", np.float64)
    expected = per_doc_outputs(model, docs)

    def refuse(*args, **kwargs):
        raise AssertionError("forward_doc was called")

    monkeypatch.setattr(TextClassifier, "forward_doc", refuse)
    # The harness reduces the train split, then the dev split, by these outputs.
    reduced = []

    def keep_top_words(tokens, output, n):
        reduced.append(output)
        return list(tokens[:n])

    monkeypatch.setattr(explain, "keep_top_words", keep_top_words)
    bundle = DataBundle(model.vocab, model.label_names, model.embeddings, 1.0, docs, docs, docs)
    probe = TrainConfig(encoder="bilstm", embed_dim=10, hidden_dim=4, attention_dim=3,
                        epochs=1, patience=1)
    explain.fidelity_harness(model, bundle, n_values=[1], probe_config=probe)
    assert_outputs_match(reduced, expected + expected, atol=1e-12)


def test_an_empty_document_is_refused():
    from multigram.errors import DataError

    model, _ = seeded_model("cnn", "hidden", np.float64)
    with pytest.raises(DataError, match="empty document"):
        model.forward_chunk([np.array([1, 2]), np.array([], dtype=np.intp)], [None, None])


# ---------------------------------------------------------------------------
# The saving as a count
# ---------------------------------------------------------------------------

E, D_HIDDEN, N_TOKENS, COPIES = 10, 6, 7, 5


def first_layer_macs(encoder, n):
    """(MACs of the first layer over n distinct tokens, MACs one document of
    n tokens spends on that layer in ``forward_doc``).  The forest's leaves
    and shared unigram map are per token either way; the CNN's filter
    products run per window in ``forward_doc``, and per order and offset
    over the distinct tokens in the table."""
    if encoder == "leftforest":
        first = forest_encoder_macs(n, 1, E, D_HIDDEN) + n * gate_count(2) * D_HIDDEN * D_HIDDEN
        return first, first
    table = sum(k * n * E * D_HIDDEN for k in range(1, MAX_ORDER + 1))
    return table, cnn_encoder_macs(n, MAX_ORDER, E, D_HIDDEN)


@pytest.mark.parametrize("batch_size, chunks", [(COPIES, 1), (2, 3)])
@pytest.mark.parametrize("encoder", ["leftforest", "cnn"])
def test_copies_of_one_document_pay_its_first_layer_once_per_chunk(encoder, batch_size,
                                                                   chunks):
    vocab = Vocab.build([WORDS])
    embeddings = Tensor(np.random.default_rng(3).normal(size=(len(vocab), E)))
    config = ModelConfig(encoder=encoder, num_classes=2, embed_dim=E, hidden_dim=D_HIDDEN,
                         attention_dim=5, max_order=MAX_ORDER)
    model = TextClassifier(config, vocab, ["a", "b"], embeddings)
    ids = vocab.encode(WORDS[:N_TOKENS])  # distinct tokens
    docs = EncodedDocs([ids] * COPIES, np.zeros(COPIES, dtype=np.intp),
                       [WORDS[:N_TOKENS]] * COPIES)

    ad.reset_mac_count()
    model.encode_units(ids)
    formula = {"leftforest": forest_encoder_macs, "cnn": cnn_encoder_macs}[encoder]
    assert ad.mac_count() == formula(N_TOKENS, MAX_ORDER, E, D_HIDDEN)
    ad.reset_mac_count()
    model.forward_doc(ids)
    table, own = first_layer_macs(encoder, N_TOKENS)
    rest = ad.mac_count() - own

    ad.reset_mac_count()
    evaluate(model, docs, batch_size=batch_size)
    assert ad.mac_count() == chunks * table + COPIES * rest
