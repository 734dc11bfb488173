"""Attention-weighted evidence extraction and its fidelity evaluation.

Evidence is every unit whose attention weight clears a threshold.  The
fidelity harness measures how much label signal the evidence carries: it
reduces every document to its top-n most important words (importance = the
best attention weight among units covering the word), retrains a fresh
BiLSTM classifier on the reduced texts, and compares against random
contiguous subsequences of the same size and against the full-text model.
"""
from __future__ import annotations

import html as html_lib
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .attention import ModelOutput
from .data import Corpus
from .errors import DataError
from .model import TextClassifier
from .structures import Span
from .training import (
    DataBundle,
    EncodedDocs,
    TrainConfig,
    derive_rng,
    evaluate,
    forward_chunks,
    train,
)

_KEY_RANDOM_WINDOW = 5


@dataclass
class Evidence:
    span: Span
    text: list[str]
    weight: float


@dataclass
class EvidenceReport:
    predicted_label: str
    evidence: list[Evidence]
    tokens: list[str]
    threshold: float


def extract_evidence(
    output: ModelOutput,
    tokens: Sequence[str],
    predicted_label: str,
    threshold: float = 0.05,
) -> EvidenceReport:
    """All units with attention weight strictly above ``threshold``, sorted
    by descending weight (span start breaks ties).  Overlapping spans are
    all retained."""
    if len(output.alpha) != len(output.unit_spans):
        raise DataError("attention weights are misaligned with the unit spans")
    picked = [
        Evidence(span, list(tokens[span.start : span.end]), float(weight))
        for span, weight in zip(output.unit_spans, output.alpha)
        if weight > threshold
    ]
    picked.sort(key=lambda ev: (-ev.weight, ev.span.start))
    return EvidenceReport(
        predicted_label=predicted_label,
        evidence=picked,
        tokens=list(tokens),
        threshold=threshold,
    )


def word_importance(output: ModelOutput, length: int) -> np.ndarray:
    """Per-word importance: the largest attention weight among units whose
    span covers the word."""
    importance = np.zeros(length)
    for span, weight in zip(output.unit_spans, output.alpha):
        stop = min(span.end, length)
        if span.start < stop:
            importance[span.start : stop] = np.maximum(importance[span.start : stop], weight)
    return importance


def keep_top_words(tokens: Sequence[str], output: ModelOutput, n: int) -> list[str]:
    """The n most important words, emitted in original document order.

    Ties break toward earlier positions; n is clamped to the length.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    length = len(tokens)
    n = min(n, length)
    importance = word_importance(output, length)
    # Stable sort on negated importance keeps earlier positions on ties.
    ranked = np.argsort(-importance, kind="stable")[:n]
    keep = np.sort(ranked)
    return [tokens[i] for i in keep]


def random_subsequence(tokens: Sequence[str], n: int, rng: np.random.Generator) -> list[str]:
    """A contiguous window of min(n, len) tokens at a uniform random start."""
    if n < 1:
        raise ValueError("n must be at least 1")
    length = len(tokens)
    n = min(n, length)
    start = int(rng.integers(0, length - n + 1))
    return list(tokens[start : start + n])


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def _segments(report: EvidenceReport) -> list[tuple[int, int, list[int]]]:
    """Maximal token runs with a constant set of covering evidence items.
    Crossing overlaps are split at boundaries so mark nesting stays proper."""
    length = len(report.tokens)
    covering: list[tuple[int, ...]] = []
    for i in range(length):
        items = [
            j for j, ev in enumerate(report.evidence) if ev.span.covers(i)
        ]
        covering.append(tuple(items))
    segments = []
    start = 0
    for i in range(1, length + 1):
        if i == length or covering[i] != covering[start]:
            segments.append((start, i, list(covering[start])))
            start = i
    return segments


def render_highlights(report: EvidenceReport, format: str = "plain") -> str:
    """Document text with evidence marked: ``**..**`` in plain mode, nested
    ``<mark data-weight="..">`` elements in html mode."""
    if format not in ("plain", "html"):
        raise ValueError(f"format must be 'plain' or 'html', got {format!r}")
    pieces = []
    for start, stop, items in _segments(report):
        text = " ".join(report.tokens[start:stop])
        if format == "plain":
            pieces.append(f"**{text}**" if items else text)
        else:
            text = html_lib.escape(text)
            # Innermost mark is the heaviest evidence.
            for j in sorted(items, key=lambda j: report.evidence[j].weight):
                text = f'<mark data-weight="{report.evidence[j].weight:.4f}">{text}</mark>'
            pieces.append(text)
    return " ".join(pieces)


# ---------------------------------------------------------------------------
# Quantitative fidelity harness
# ---------------------------------------------------------------------------


@dataclass
class FidelityRow:
    n: Optional[int]  # None marks the full-text upper bound
    condition: str  # "extracted" | "random" | "full"
    accuracy: float


def fidelity_tsv(rows: Sequence[FidelityRow]) -> str:
    lines = ["n\tcondition\taccuracy"]
    for row in rows:
        n = "-" if row.n is None else str(row.n)
        lines.append(f"{n}\t{row.condition}\t{row.accuracy:.4f}")
    return "\n".join(lines) + "\n"


def _reduced_corpus(
    docs: EncodedDocs,
    label_names: Sequence[str],
    n: int,
    condition: str,
    outputs: Optional[list[ModelOutput]],
    seed: int,
) -> Corpus:
    documents = []
    for i in range(len(docs)):
        tokens = docs.tokens[i]
        if condition == "extracted":
            documents.append(keep_top_words(tokens, outputs[i], n))
        else:
            rng = derive_rng(seed, _KEY_RANDOM_WINDOW, n, i)
            documents.append(random_subsequence(tokens, n, rng))
    return Corpus(documents, [int(l) for l in docs.labels], list(label_names))


def _retrain_accuracy(
    train_corpus: Corpus,
    dev_corpus: Corpus,
    bundle: DataBundle,
    config: TrainConfig,
) -> float:
    sub_bundle = DataBundle(
        vocab=bundle.vocab,
        label_names=bundle.label_names,
        embeddings=bundle.embeddings,
        coverage=bundle.coverage,
        train=EncodedDocs.from_corpus(train_corpus, bundle.vocab),
        dev=EncodedDocs.from_corpus(dev_corpus, bundle.vocab),
        test=EncodedDocs.from_corpus(dev_corpus, bundle.vocab),
    )
    result = train(config, sub_bundle)
    return evaluate(result.model, sub_bundle.dev).accuracy


def fidelity_harness(
    explainer: TextClassifier,
    bundle: DataBundle,
    n_values: Sequence[int] = (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 20, 30, 40, 50),
    seed: int = 0,
    probe_config: Optional[TrainConfig] = None,
) -> list[FidelityRow]:
    """For each n, retrain a fresh BiLSTM on train/dev copies reduced to n
    words (attention-extracted vs random window) and record dev accuracy;
    also reports the full-text BiLSTM upper bound."""
    if probe_config is None:
        probe_config = TrainConfig(encoder="bilstm", embed_dim=explainer.config.embed_dim)
    probe_config = replace(probe_config, encoder="bilstm", seed=seed)
    train_alphas = list(forward_chunks(explainer, bundle.train))
    dev_alphas = list(forward_chunks(explainer, bundle.dev))

    rows = []
    full_train = Corpus(bundle.train.tokens, [int(l) for l in bundle.train.labels], bundle.label_names)
    full_dev = Corpus(bundle.dev.tokens, [int(l) for l in bundle.dev.labels], bundle.label_names)
    upper = _retrain_accuracy(full_train, full_dev, bundle, probe_config)
    rows.append(FidelityRow(None, "full", upper))
    for n in n_values:
        for condition, outputs in (("extracted", (train_alphas, dev_alphas)), ("random", None)):
            train_out, dev_out = outputs if outputs else (None, None)
            reduced_train = _reduced_corpus(
                bundle.train, bundle.label_names, n, condition, train_out, seed
            )
            reduced_dev = _reduced_corpus(
                bundle.dev, bundle.label_names, n, condition, dev_out, seed
            )
            accuracy = _retrain_accuracy(reduced_train, reduced_dev, bundle, probe_config)
            rows.append(FidelityRow(n, condition, accuracy))
    return rows
