"""Output checks for the benchmark.

Every check returns a list of failure messages, empty when the outputs are
right.  The references are computed here, apart from the code under test, or
are properties the method must have: a central difference of the loss in
float64, the span set of all ngrams, normalised distributions, the document
text under the highlight markers, the generator's recorded plants.  No
check compares against a stored output of an earlier run.
"""
from __future__ import annotations

import html
import re
from dataclasses import dataclass
from typing import Sequence

import numpy as np

# float32 against float64 of the same parameters.  The tolerances are about
# 25-50 times the largest difference seen on the four workloads (probabilities
# 2.5e-7, relative attention 3.7e-6, sums 3e-7), far below a wrong result.
PROB_ATOL = 1e-5
ALPHA_RTOL = 1e-4
ALPHA_ATOL = 1e-7
# The distributions are normalised in float32 over at most ~1,400 units.
SUM_TOL = 1e-5
# The float32 directional derivative against the float64 central difference;
# relative differences seen were 3e-8 to 2e-5.
GRADIENT_RTOL = 1e-3
FD_STEP = 1e-4
# Adam's moment decay rates, the defaults of the method.
ADAM_BETAS = (0.9, 0.999)
# Training: every parameter tensor moves on average by at least this share of
# one learning-rate step; a step whose gradient is zero moves nothing.
MIN_MEAN_STEP = 0.25
# Argmax may differ between two float32 paths only at a near tie.
TIE_MARGIN = 1e-4
# Learning on the short planted corpus: above chance by this margin, and the
# top unit on the plant for at least this share of correct documents.
ACCURACY_MARGIN = 0.3
PLANT_HIT_SHARE = 0.5


@dataclass
class DocOutput:
    """What the checks read from one ``forward_doc`` result."""

    probs: np.ndarray
    alpha: np.ndarray
    spans: list[tuple[int, int]]  # (start, order) per unit

    @classmethod
    def of(cls, output) -> "DocOutput":
        return cls(
            np.asarray(output.probs),
            np.asarray(output.alpha),
            [(span.start, span.order) for span in output.unit_spans],
        )


def check_gradient(analytic: float, numeric: float) -> list[str]:
    """Directional derivative from the tape against the central difference."""
    if not np.isfinite(analytic) or abs(analytic - numeric) > GRADIENT_RTOL * abs(numeric):
        return [
            f"gradient: tape gives {analytic:.8g} along the direction, "
            f"central difference {numeric:.8g}"
        ]
    return []


def adam_reach(steps: int, betas: tuple[float, float] = ADAM_BETAS) -> float:
    """The furthest, in learning rates, that ``steps`` bias-corrected Adam
    steps can move one parameter, whatever the gradients.

    At step t the update is lr * sum(a_i g_i) / sqrt(sum(b_i g_i^2)) with
    a_i, b_i the normalised decay weights of the two moments; by
    Cauchy-Schwarz its size is at most lr * sqrt(sum(a_i^2 / b_i)).
    """
    beta1, beta2 = betas
    reach = 0.0
    for t in range(1, steps + 1):
        age = np.arange(t)
        a = (1 - beta1) * beta1**age / (1 - beta1**t)
        b = (1 - beta2) * beta2**age / (1 - beta2**t)
        reach += float(np.sqrt((a * a / b).sum()))
    return reach


def check_training(
    initial: dict[str, np.ndarray], trained: dict[str, np.ndarray], learning_rate: float,
    steps: int,
) -> list[str]:
    """Training moved every parameter tensor, and no parameter further than
    ``steps`` Adam steps at ``learning_rate`` can reach."""
    failures = []
    reach = adam_reach(steps) * learning_rate
    for name, start in initial.items():
        moved = np.abs(trained[name].astype(np.float64) - start)
        if moved.max() > reach * (1 + 1e-3):
            failures.append(
                f"training: {name} moved {moved.max():.3g}, beyond the {reach:.3g} "
                f"that {steps} Adam steps reach"
            )
        if moved.mean() < MIN_MEAN_STEP * learning_rate:
            failures.append(
                f"training: {name} moved {moved.mean():.3g} on average, less than "
                f"{MIN_MEAN_STEP} of a {learning_rate} step"
            )
    return failures


def check_loss_falls(before: float, after: float) -> list[str]:
    """Training lowered the mean training loss (dropout off)."""
    if not after < before:
        return [f"training: mean training loss went from {before:.6f} to {after:.6f}"]
    return []


def check_distributions(outputs: Sequence[DocOutput]) -> list[str]:
    failures = []
    for i, out in enumerate(outputs):
        for what, values in (("attention", out.alpha), ("probabilities", out.probs)):
            if values.min() < 0 or abs(float(values.sum(dtype=np.float64)) - 1.0) > SUM_TOL:
                failures.append(
                    f"doc {i}: {what} min {values.min():.3g}, sum {values.sum(dtype=np.float64):.8f}"
                )
    return failures


def expected_spans(length: int, encoder: str, max_order: int) -> set[tuple[int, int]]:
    if encoder == "bilstm":
        return {(i, 1) for i in range(length)}
    return {
        (start, order)
        for order in range(1, min(max_order, length) + 1)
        for start in range(length - order + 1)
    }


def check_unit_spans(
    outputs: Sequence[DocOutput], lengths: Sequence[int], encoder: str, max_order: int
) -> list[str]:
    failures = []
    for i, (out, length) in enumerate(zip(outputs, lengths)):
        expected = expected_spans(length, encoder, max_order)
        if len(out.spans) != len(expected) or set(out.spans) != expected:
            failures.append(
                f"doc {i}: {len(out.spans)} unit spans, expected the {len(expected)} "
                f"spans of a {length}-token document"
            )
        elif len(out.alpha) != len(out.spans):
            failures.append(f"doc {i}: {len(out.alpha)} weights for {len(out.spans)} units")
    return failures


def check_float64_agreement(
    outputs32: Sequence[DocOutput], outputs64: Sequence[DocOutput]
) -> list[str]:
    failures = []
    for i, (a, b) in enumerate(zip(outputs32, outputs64)):
        if not np.allclose(a.probs, b.probs, rtol=0.0, atol=PROB_ATOL):
            failures.append(f"doc {i}: float32 and float64 probabilities differ")
        if a.alpha.shape != b.alpha.shape or not np.allclose(
            a.alpha, b.alpha, rtol=ALPHA_RTOL, atol=ALPHA_ATOL
        ):
            failures.append(f"doc {i}: float32 and float64 attention weights differ")
    return failures


def check_eval_agreement(predictions: Sequence[int], outputs: Sequence[DocOutput]) -> list[str]:
    failures = []
    for i, (predicted, out) in enumerate(zip(predictions, outputs)):
        best = int(np.argmax(out.probs))
        if predicted != best and out.probs[predicted] < out.probs[best] - TIE_MARGIN:
            failures.append(f"doc {i}: evaluate predicts {predicted}, forward_doc {best}")
    return failures


def check_reload(trained: Sequence[DocOutput], reloaded: Sequence[DocOutput]) -> list[str]:
    failures = []
    for i, (a, b) in enumerate(zip(trained, reloaded)):
        if not (np.array_equal(a.probs, b.probs) and np.array_equal(a.alpha, b.alpha)):
            failures.append(f"doc {i}: reloaded checkpoint changes the outputs")
    return failures


_MARK = re.compile(r'<mark data-weight="[0-9.]+">|</mark>')


def check_evidence(
    outputs: Sequence[DocOutput],
    reports,
    plain: Sequence[str],
    rendered_html: Sequence[str],
    documents: Sequence[Sequence[str]],
    threshold: float,
) -> list[str]:
    """Evidence is exactly the units above the threshold, heaviest first,
    and both renderings give back the document once the markers go."""
    failures = []
    for i, (out, report) in enumerate(zip(outputs, reports)):
        weights = [ev.weight for ev in report.evidence]
        above = int((out.alpha > threshold).sum())
        if len(weights) != above or any(w <= threshold for w in weights):
            failures.append(f"doc {i}: {len(weights)} evidence units, {above} above threshold")
        if any(a < b for a, b in zip(weights, weights[1:])):
            failures.append(f"doc {i}: evidence is not in descending weight order")
        text = " ".join(documents[i])
        if plain[i].replace("**", "") != text:
            failures.append(f"doc {i}: plain rendering does not strip back to the document")
        if html.unescape(_MARK.sub("", rendered_html[i])) != text:
            failures.append(f"doc {i}: html rendering does not strip back to the document")
    return failures


def check_accuracy(accuracy: float, classes: int) -> list[str]:
    if accuracy < 1.0 / classes + ACCURACY_MARGIN:
        return [f"test accuracy {accuracy:.3f} is within {ACCURACY_MARGIN} of chance"]
    return []


def check_plant_overlap(
    correct_top_spans: Sequence[tuple[int, int]], plants: Sequence[tuple[int, int]]
) -> list[str]:
    """``correct_top_spans`` and ``plants`` are (start, end) token ranges of
    the top unit and the planted trigram of each correctly classified
    document."""
    hits = sum(s < pe and ps < e for (s, e), (ps, pe) in zip(correct_top_spans, plants))
    if hits < PLANT_HIT_SHARE * len(plants):
        return [f"top unit on the plant for {hits} of {len(plants)} correct documents"]
    return []
