"""Full classifier: encoder + attention pooling + prediction layer."""
from __future__ import annotations

from dataclasses import dataclass, asdict
from typing import Optional, Sequence

import numpy as np

from . import autodiff as ad
from . import encoders as enc
from .attention import (
    AttentionParams,
    ClassifierParams,
    ModelOutput,
    attention_pool,
    attention_pool_segments,
    classification_loss,
    classification_loss_rows,
    init_attention_params,
    init_classifier_params,
    predict,
    predict_rows,
)
from .autodiff import ParamStore, Tensor
from .errors import DataError
from .structures import NgramDag, build_structure, bracketing_leaves, ngram_dag, parse_bracketing

ENCODER_KINDS = ("tree", "pyramid", "leftforest", "rightforest", "biforest", "bilstm", "cnn")
FOREST_KINDS = ("pyramid", "leftforest", "rightforest")


@dataclass
class ModelConfig:
    encoder: str
    num_classes: int
    embed_dim: int = 300
    hidden_dim: int = 100
    attention_dim: int = 100
    max_order: int = 7
    dropout: float = 0.2
    memory_update: str = "hidden"

    def validate(self) -> None:
        if self.encoder not in ENCODER_KINDS:
            raise ValueError(f"unknown encoder {self.encoder!r}; pick one of {ENCODER_KINDS}")
        if self.num_classes < 2:
            raise ValueError("need at least 2 classes")
        if min(self.embed_dim, self.hidden_dim, self.attention_dim, self.max_order) < 1:
            raise ValueError("dimensions and max_order must be positive")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must be in [0, 1)")
        if self.memory_update not in enc.MEMORY_UPDATES:
            raise ValueError(f"memory_update must be one of {enc.MEMORY_UPDATES}")
        if self.encoder == "bilstm" and self.hidden_dim % 2 != 0:
            raise ValueError("bilstm needs an even hidden size")

    @property
    def encoder_width(self) -> int:
        return 2 * self.hidden_dim if self.encoder == "biforest" else self.hidden_dim

    def to_dict(self) -> dict:
        return asdict(self)


class TextClassifier:
    """Attention classifier over one of the unit encoders.

    Trainable parameters live in a ``ParamStore``; the word embedding matrix
    stays outside it and is never updated.  Parameters take the embeddings'
    dtype, so float32 embeddings give a float32 model end to end.
    """

    def __init__(
        self,
        config: ModelConfig,
        vocab,
        label_names: Sequence[str],
        embeddings: Tensor,
        init_seed: int = 0,
    ):
        config.validate()
        if len(label_names) != config.num_classes:
            raise ValueError("label_names must match num_classes")
        if embeddings.shape[1] != config.embed_dim:
            raise ValueError(
                f"embedding width {embeddings.shape[1]} != configured {config.embed_dim}"
            )
        self.config = config
        self.vocab = vocab
        self.label_names = list(label_names)
        self.embeddings = embeddings
        self.embeddings.requires_grad = False
        self.store = ParamStore()
        rng = np.random.default_rng(np.random.SeedSequence(entropy=init_seed, spawn_key=(0,)))

        e, d = config.embed_dim, config.hidden_dim
        self.tree_params = None
        self.left_params = None
        self.right_params = None
        self.bilstm_params = None
        self.cnn_params = None
        if config.encoder in ("tree", *FOREST_KINDS):
            self.tree_params = enc.init_tree_lstm_params(self.store, "encoder", e, d, rng)
        elif config.encoder == "biforest":
            self.left_params = enc.init_tree_lstm_params(self.store, "encoder.left", e, d, rng)
            self.right_params = enc.init_tree_lstm_params(self.store, "encoder.right", e, d, rng)
        elif config.encoder == "bilstm":
            self.bilstm_params = enc.init_bilstm_params(self.store, "encoder", e, d, rng)
        elif config.encoder == "cnn":
            self.cnn_params = enc.init_cnn_params(self.store, "encoder", e, d, config.max_order, rng)
        self.attention = init_attention_params(
            self.store, "attention", config.encoder_width, config.attention_dim, rng
        )
        self.classifier = init_classifier_params(
            self.store, "classifier", config.encoder_width, config.num_classes, rng
        )
        for _, tensor in self.store.items():
            tensor.data = tensor.data.astype(embeddings.data.dtype, copy=False)

    # -- structure plumbing -------------------------------------------------

    def _tree_dag(self, parse: Optional[str], n: int) -> NgramDag:
        if parse is None:
            raise DataError("the tree encoder needs a bracketed parse for every document")
        leaves = bracketing_leaves(parse_bracketing(parse))
        dag = build_structure("tree", leaves, self.config.max_order, parse)
        if dag.token_count != n:
            raise DataError(
                f"parse has {dag.token_count} leaves but the document has {n} tokens"
            )
        return dag

    def _encode(self, x: Tensor, parse: Optional[str]) -> enc.EncoderOutput:
        kind = self.config.encoder
        n = x.shape[0]
        mu = self.config.memory_update
        if kind in FOREST_KINDS:
            dag = ngram_dag(kind, n, self.config.max_order)
            return enc.encode_dag(dag, x, self.tree_params, mu)
        if kind == "tree":
            return enc.encode_dag(self._tree_dag(parse, n), x, self.tree_params, mu)
        if kind == "biforest":
            return enc.encode_bi_forest(
                x, self.left_params, self.right_params, self.config.max_order, mu
            )
        if kind == "bilstm":
            return enc.bilstm_encode(x, self.bilstm_params)
        return enc.cnn_encode(x, self.cnn_params)

    # -- forward passes -----------------------------------------------------

    def encode_units(self, token_ids, parse: Optional[str] = None) -> enc.EncoderOutput:
        """Unit representations only (no dropout, attention or prediction)."""
        ids = np.asarray(token_ids, dtype=np.intp)
        return self._encode(ad.row_lookup(self.embeddings, ids), parse)

    def _embed(self, token_ids, train: bool, rng) -> Tensor:
        ids = np.asarray(token_ids, dtype=np.intp)
        if ids.size == 0:
            raise DataError("cannot classify an empty document")
        x = ad.row_lookup(self.embeddings, ids)
        return ad.dropout(x, self.config.dropout, train, rng)

    def forward_doc(
        self,
        token_ids,
        gold: Optional[int] = None,
        parse: Optional[str] = None,
        train: bool = False,
        rng: Optional[np.random.Generator] = None,
    ) -> tuple[ModelOutput, Optional[Tensor]]:
        """Classify one document; returns the numeric output and, when a gold
        label is given, the scalar loss tensor for backward."""
        x = self._embed(token_ids, train, rng)
        encoded = self._encode(x, parse)
        h = ad.dropout(encoded.h, self.config.dropout, train, rng)
        alpha, text_vector = attention_pool(h, self.attention)
        pooled = ad.dropout(text_vector, self.config.dropout, train, rng)
        logits, probs = predict(pooled, self.classifier)
        loss = classification_loss(logits, gold) if gold is not None else None
        output = ModelOutput(
            alpha=np.array(alpha.data),
            text_vector=np.array(text_vector.data),
            logits=np.array(logits.data),
            probs=np.array(probs.data),
            unit_spans=encoded.spans,
        )
        return output, loss

    def forward_batch_bilstm(
        self,
        ids_batch: np.ndarray,
        golds=None,
        train: bool = False,
        rng: Optional[np.random.Generator] = None,
    ) -> tuple[Optional[Tensor], np.ndarray, np.ndarray]:
        """Step-batched forward over same-length documents (bilstm only).

        ``ids_batch`` is (batch, length); returns (loss, logits, probs) with
        one row per document.
        """
        assert self.config.encoder == "bilstm"
        batch, length = ids_batch.shape
        x = self._embed(ids_batch.reshape(-1), train, rng)
        h = enc.bilstm_encode_batch(x, batch, length, self.bilstm_params)
        h = ad.dropout(h, self.config.dropout, train, rng)
        bounds = np.arange(batch + 1) * length
        alpha, text_vectors = attention_pool_segments(h, bounds, self.attention)
        pooled = ad.dropout(text_vectors, self.config.dropout, train, rng)
        logits, probs = predict_rows(pooled, self.classifier)
        loss = classification_loss_rows(logits, golds) if golds is not None else None
        return loss, np.array(logits.data), np.array(probs.data)

    # -- bookkeeping ----------------------------------------------------------

    def parameter_count(self) -> int:
        """Trainable parameters; the frozen embedding matrix is excluded."""
        return self.store.total_size()

    def encoder_parameter_count(self) -> int:
        if self.config.encoder == "biforest":
            sides = [*self.left_params.tensors(), *self.right_params.tensors()]
            return sum(t.size for t in sides)
        params = self.tree_params or self.bilstm_params or self.cnn_params
        return sum(t.size for t in params.tensors())


def count_parameters(config: ModelConfig) -> int:
    """Exact trainable-parameter count for a model configuration."""
    model = TextClassifier(
        config,
        vocab=None,
        label_names=[f"c{i}" for i in range(config.num_classes)],
        embeddings=Tensor(np.zeros((1, config.embed_dim))),
    )
    return model.parameter_count()
