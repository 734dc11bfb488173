#!/usr/bin/env python3
"""Seeded digests of training, evaluation and explanation outputs.

Trains every encoder, with each memory update where the encoder has one
(12 configurations), for two seeded epochs on a small planted corpus with
random parses, then prints one SHA-256 per configuration over:

- the bundle's vocabulary;
- the trained parameters (``ParamStore.state_dict``);
- the epoch history, without its wall-clock seconds;
- ``evaluate``'s predictions on the test split;
- ``forward_chunks``' outputs on the dev and test splits;
- ``forward_doc``'s outputs and losses on the test split;
- ``extract_evidence``'s report on each test document at thresholds 0.05
  and 0.0 (the latter reports every unit, so it fixes their whole order).

Then one line digests ``fidelity_tsv`` of the fidelity harness on the
left-forest explainer at n = 1 and 3, which retrains a BiLSTM probe on the
reduced documents.  The next line digests the float32 embedding matrix that
``prepare_bundle`` builds from a seeded GloVe-format file: two lines outside
the vocabulary per line inside, one token listed twice and more than two
blocks of in-vocabulary rows.

A last line digests one seeded float32 left-forest epoch at the reference
shapes (e=300, d=100, K=7, eight 200-token documents in one batch): the
trained parameters and the predictions on those documents.  Its products
are large enough that OpenBLAS sums them in another order with two threads
than with one, so this line, unlike the others, shows which BLAS thread
count training ran with.

A refactor that keeps every digest computes the same numbers bit for bit.
Compare two checkouts by running each one's copy of this script; it
imports the ``src`` next to it and pins one BLAS thread unless
``OPENBLAS_NUM_THREADS`` is set.  Takes about 5 s on a 2-vCPU host.

    python3 scripts/seeded_digest.py
"""
import os
import sys
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import hashlib  # noqa: E402
import tempfile  # noqa: E402
from dataclasses import replace  # noqa: E402

import numpy as np  # noqa: E402

from multigram.data import Vocab, load_embeddings  # noqa: E402
from multigram.explain import extract_evidence, fidelity_harness, fidelity_tsv  # noqa: E402
from multigram.model import TextClassifier  # noqa: E402
from multigram.synthetic import make_planted_corpus  # noqa: E402
from multigram.training import (  # noqa: E402
    Adam,
    EncodedDocs,
    TrainConfig,
    evaluate,
    forward_chunks,
    prepare_bundle,
    run_epoch,
    train,
)

CONFIGURATIONS = [
    (encoder, memory_update)
    for encoder in ("tree", "pyramid", "leftforest", "rightforest", "biforest")
    for memory_update in ("hidden", "cell")
] + [("bilstm", "hidden"), ("cnn", "hidden")]


def random_bracketing(tokens, rng) -> str:
    """A uniformly split random binary bracketing over ``tokens``."""
    if len(tokens) == 1:
        return tokens[0]
    cut = 1 + int(rng.integers(0, len(tokens) - 1))
    return f"({random_bracketing(tokens[:cut], rng)} {random_bracketing(tokens[cut:], rng)})"


def planted_bundle():
    corpus = make_planted_corpus(
        num_docs=150, num_classes=3, distractor_vocab=40, length_range=(4, 20), seed=5
    ).corpus
    rng = np.random.default_rng(6)
    parses = [random_bracketing(doc, rng) for doc in corpus.documents]
    return prepare_bundle(replace(corpus, parses=parses), None, embed_dim=10, seed=5)


class Digest:
    def __init__(self):
        self.sha = hashlib.sha256()

    def text(self, value) -> None:
        self.sha.update(repr(value).encode())

    def array(self, value) -> None:
        value = np.ascontiguousarray(value)
        self.text((value.dtype.str, value.shape))
        self.sha.update(value.tobytes())

    def output(self, output) -> None:
        for field in (output.alpha, output.text_vector, output.logits, output.probs):
            self.array(field)
        self.text([(span.start, span.order) for span in output.unit_spans])

    def report(self, report) -> None:
        self.text((report.predicted_label, report.tokens, report.threshold))
        self.text([(ev.span.start, ev.span.order, ev.text, ev.weight) for ev in report.evidence])


def small_config(encoder: str, memory_update: str = "hidden") -> TrainConfig:
    return TrainConfig(
        encoder=encoder, memory_update=memory_update, embed_dim=10, hidden_dim=8,
        attention_dim=6, max_order=4, batch_size=8, epochs=2, patience=2, seed=7,
    )


def digest(bundle, encoder: str, memory_update: str) -> str:
    result = train(small_config(encoder, memory_update), bundle)
    model, out = result.model, Digest()
    out.text(bundle.vocab.tokens)
    for name, value in sorted(model.store.state_dict().items()):
        out.text(name)
        out.array(value)
    for row in result.history:
        out.text((row.epoch, row.train_loss, row.train_acc, row.dev_acc))
    out.text((result.best_dev_accuracy, result.best_epoch))
    out.array(evaluate(model, bundle.test).predictions)
    for docs in (bundle.dev, bundle.test):
        for output in forward_chunks(model, docs):
            out.output(output)
    for output, tokens in zip(forward_chunks(model, bundle.test), bundle.test.tokens):
        label = bundle.label_names[output.predicted]
        for threshold in (0.05, 0.0):
            out.report(extract_evidence(output, tokens, label, threshold))
    for i in range(len(bundle.test)):
        output, loss = model.forward_doc(
            bundle.test.ids[i], gold=int(bundle.test.labels[i]), parse=bundle.test.parse_for(i)
        )
        out.output(output)
        out.array(loss.data)
    return out.sha.hexdigest()


def fidelity_digest(bundle) -> str:
    explainer = train(small_config("leftforest"), bundle).model
    rows = fidelity_harness(explainer, bundle, n_values=[1, 3], seed=7,
                            probe_config=small_config("bilstm"))
    return hashlib.sha256(fidelity_tsv(rows).encode()).hexdigest()


def embeddings_digest() -> str:
    corpus = make_planted_corpus(
        num_docs=60, num_classes=3, distractor_vocab=600, length_range=(30, 50), seed=5
    ).corpus
    vocab = sorted({token for doc in corpus.documents for token in doc})
    words = vocab + vocab[:1] + [f"x{i}" for i in range(2 * len(vocab))]
    rng = np.random.default_rng(8)
    lines = [" ".join([words[j], *map(repr, rng.normal(size=10).tolist())]) + "\n"
             for j in rng.permutation(len(words))]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "glove.txt"
        path.write_text("".join(lines), encoding="utf-8")
        bundle = prepare_bundle(corpus, path, embed_dim=10, seed=5)
    out = Digest()
    out.array(bundle.embeddings.data)
    return out.sha.hexdigest()


def reference_epoch_digest() -> str:
    corpus = make_planted_corpus(
        num_docs=8, num_classes=2, distractor_vocab=200, length_range=(200, 200), seed=5
    ).corpus
    vocab = Vocab.build(corpus.documents)
    embeddings, _ = load_embeddings(None, vocab, 300, seed=5)
    embeddings.data = embeddings.data.astype(np.float32)
    docs = EncodedDocs.from_corpus(corpus, vocab)
    config = TrainConfig(encoder="leftforest", embed_dim=300, hidden_dim=100, attention_dim=100,
                         max_order=7, batch_size=8, seed=7)
    model = TextClassifier(config.model_config(2), vocab, corpus.label_names, embeddings,
                           init_seed=config.seed)
    run_epoch(model, docs, Adam(model.store, config.learning_rate), 0, config)
    out = Digest()
    for name, value in sorted(model.store.state_dict().items()):
        out.text(name)
        out.array(value)
    out.array(evaluate(model, docs).predictions)
    return out.sha.hexdigest()


def main() -> None:
    bundle = planted_bundle()
    for encoder, memory_update in CONFIGURATIONS:
        print(f"{encoder}\t{memory_update}\t{digest(bundle, encoder, memory_update)}")
    print(f"fidelity\tleftforest\t{fidelity_digest(bundle)}")
    print(f"embeddings\tglove\t{embeddings_digest()}")
    print(f"reference\tleftforest\t{reference_epoch_digest()}")


if __name__ == "__main__":
    main()
