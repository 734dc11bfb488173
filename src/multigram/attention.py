"""Attention pooling over unit representations and the prediction layer.

A single additive attention head scores every unit, the softmax weights sum
unit rows into one text vector, and an affine layer maps that vector to
class probabilities.  The attention weights are what the explanation
pipeline later reads off as evidence strengths.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import ParamStore, ShapeError, Tensor
from .encoders import glorot
from .structures import Span


@dataclass
class AttentionParams:
    w: Tensor  # (attention_dim, input_width)
    v: Tensor  # (attention_dim,)


@dataclass
class ClassifierParams:
    w: Tensor  # (classes, input_width)
    b: Tensor  # (classes,)


@dataclass
class ModelOutput:
    """Numeric results of one document forward pass."""

    alpha: np.ndarray
    text_vector: np.ndarray
    logits: np.ndarray
    probs: np.ndarray
    unit_spans: Sequence[Span] = ()

    @property
    def predicted(self) -> int:
        return int(np.argmax(self.logits))


def init_attention_params(
    store: ParamStore, prefix: str, input_width: int, attention_dim: int, rng: np.random.Generator
) -> AttentionParams:
    return AttentionParams(
        w=store.add(f"{prefix}.w", glorot(rng, attention_dim, input_width, input_width, attention_dim)),
        v=store.add(f"{prefix}.v", glorot(rng, 1, attention_dim, attention_dim, 1)[0]),
    )


def init_classifier_params(
    store: ParamStore, prefix: str, input_width: int, num_classes: int, rng: np.random.Generator
) -> ClassifierParams:
    if num_classes < 2:
        raise ValueError(f"need at least 2 classes, got {num_classes}")
    return ClassifierParams(
        w=store.add(f"{prefix}.w", glorot(rng, num_classes, input_width, input_width, num_classes)),
        b=store.add(f"{prefix}.b", np.zeros(num_classes)),
    )


def attention_scores(h: Tensor, params: AttentionParams) -> Tensor:
    if h.data.ndim != 2 or h.shape[0] == 0:
        raise ShapeError(f"attention needs a non-empty unit matrix, got {h.shape}")
    return ad.matvec(ad.tanh(ad.linear_rows(h, params.w)), params.v)


def attention_pool(h: Tensor, params: AttentionParams) -> tuple[Tensor, Tensor]:
    """Score rows of ``h``, softmax into weights, and sum the rows.

    Returns (alpha, text_vector); alpha is nonnegative and sums to one.
    """
    alpha = ad.softmax(attention_scores(h, params))
    return alpha, ad.weighted_sum(alpha, h)


def attention_pool_segments(
    h: Tensor, bounds: Sequence[int], params: AttentionParams
) -> tuple[Tensor, Tensor]:
    """Batched pooling: rows of ``h`` hold several documents back to back and
    ``bounds`` delimits them; returns per-document weights and text vectors."""
    alpha = ad.segment_softmax(attention_scores(h, params), bounds)
    return alpha, ad.segment_weighted_sum(alpha, h, bounds)


def predict(text_vector: Tensor, params: ClassifierParams) -> tuple[Tensor, Tensor]:
    logits = ad.add(ad.matvec(params.w, text_vector), params.b)
    return logits, ad.softmax(logits)


def predict_rows(text_vectors: Tensor, params: ClassifierParams) -> tuple[Tensor, Tensor]:
    logits = ad.linear_rows(text_vectors, params.w, params.b)
    return logits, ad.softmax_rows(logits)


def classification_loss(logits: Tensor, gold: int) -> Tensor:
    """Cross-entropy of the gold class, computed in log-sum-exp form."""
    return ad.cross_entropy(logits, gold)


def classification_loss_rows(logits: Tensor, golds) -> Tensor:
    return ad.cross_entropy_rows(logits, golds)
