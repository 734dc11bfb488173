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
from .data import Vocab
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


def _reduced_docs(
    docs: EncodedDocs, vocab: Vocab, n: int, condition: str, outputs: list[ModelOutput], seed: int
) -> EncodedDocs:
    documents = []
    for i, tokens in enumerate(docs.tokens):
        if condition == "extracted":
            documents.append(keep_top_words(tokens, outputs[i], n))
        else:
            rng = derive_rng(seed, _KEY_RANDOM_WINDOW, n, i)
            documents.append(random_subsequence(tokens, n, rng))
    return EncodedDocs([vocab.encode(doc) for doc in documents], docs.labels, documents)


def _retrain_accuracy(
    bundle: DataBundle, train_docs: EncodedDocs, dev_docs: EncodedDocs, config: TrainConfig
) -> float:
    sub_bundle = replace(bundle, train=train_docs, dev=dev_docs, test=dev_docs)
    return evaluate(train(config, sub_bundle).model, dev_docs).accuracy


def fidelity_harness(
    explainer: TextClassifier,
    bundle: DataBundle,
    n_values: Sequence[int],
    probe_config: TrainConfig,
    seed: int = 0,
) -> list[FidelityRow]:
    """For each n, retrain a fresh BiLSTM on train/dev copies reduced to n
    words (attention-extracted vs random window) and record dev accuracy;
    also reports the full-text BiLSTM upper bound.  The probe trains with
    ``probe_config``'s settings, as a BiLSTM and with ``seed``."""
    probe_config = replace(probe_config, encoder="bilstm", seed=seed)
    splits = (bundle.train, bundle.dev)
    outputs = [list(forward_chunks(explainer, docs)) for docs in splits]
    rows = [FidelityRow(None, "full", _retrain_accuracy(bundle, *splits, probe_config))]
    for n in n_values:
        for condition in ("extracted", "random"):
            reduced_train, reduced_dev = (
                _reduced_docs(docs, bundle.vocab, n, condition, out, seed)
                for docs, out in zip(splits, outputs)
            )
            accuracy = _retrain_accuracy(bundle, reduced_train, reduced_dev, probe_config)
            rows.append(FidelityRow(n, condition, accuracy))
    return rows
