"""Unit-representation encoders.

The main encoder runs a binary tree-LSTM over any of the ngram structures,
so one shared parameter set composes every ngram bottom-up.  Two baselines
share the same output contract: a BiLSTM over word positions and a bank of
per-order ngram convolutions.

All encoders return an ``EncoderOutput``: one representation row per unit,
aligned with a span list, ready for attention pooling.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import GATE_COUNT, LEAF_GATE_COUNT, ParamStore, ShapeError, Tensor, leaf_gate_rows
from .structures import NgramDag, Span, ngram_dag, ngram_spans

MEMORY_UPDATES = ("hidden", "cell")


@dataclass
class EncoderOutput:
    """Unit representations: row i of ``h`` describes ``spans[i]``."""

    h: Tensor
    spans: Sequence[Span]

    @property
    def width(self) -> int:
        return self.h.shape[1]


@dataclass
class TreeLstmParams:
    """Shared binary tree-LSTM weights, stored gate-fused.

    ``w`` is (5d, e), ``u_left``/``u_right`` are (5d, d) and ``bias`` is
    (5d,); rows are grouped per gate in the order input, forget-left,
    forget-right, output, candidate.  Row block g*d:(g+1)*d is the usual
    per-gate matrix, so the fusion changes the memory layout only.  Leaves
    have no children and use only the input, output and candidate rows of
    ``w`` and ``bias``; internal nodes have no label embedding, so the
    forget rows of ``w`` never receive a gradient.
    """

    w: Tensor
    u_left: Tensor
    u_right: Tensor
    bias: Tensor

    @property
    def hidden_dim(self) -> int:
        return self.w.shape[0] // GATE_COUNT

    @property
    def embed_dim(self) -> int:
        return self.w.shape[1]

    def tensors(self) -> list[Tensor]:
        return [self.w, self.u_left, self.u_right, self.bias]


def glorot(rng: np.random.Generator, rows: int, cols: int, fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(rows, cols))


def init_tree_lstm_params(
    store: ParamStore, prefix: str, embed_dim: int, hidden_dim: int, rng: np.random.Generator
) -> TreeLstmParams:
    d, e = hidden_dim, embed_dim
    return TreeLstmParams(
        w=store.add(f"{prefix}.w", glorot(rng, GATE_COUNT * d, e, e, d)),
        u_left=store.add(f"{prefix}.u_left", glorot(rng, GATE_COUNT * d, d, d, d)),
        u_right=store.add(f"{prefix}.u_right", glorot(rng, GATE_COUNT * d, d, d, d)),
        bias=store.add(f"{prefix}.bias", np.zeros(GATE_COUNT * d)),
    )


def _leaf_level(x_rows: Tensor, params: TreeLstmParams) -> tuple[Tensor, Tensor]:
    """All leaves at once, computing only their three live gates."""
    rows = leaf_gate_rows(params.hidden_dim)
    pre = ad.linear_rows(
        x_rows, ad.row_lookup(params.w, rows), ad.row_lookup(params.bias, rows)
    )
    return ad.tree_cell_gates(pre, None, None)


def _check_alignment(dag: NgramDag, token_embeddings: Tensor) -> None:
    if token_embeddings.data.ndim != 2 or token_embeddings.shape[0] != dag.token_count:
        raise ShapeError(
            f"embedding rows {token_embeddings.shape} do not align with "
            f"{dag.token_count} tokens"
        )


def encode_dag(
    dag: NgramDag,
    token_embeddings: Tensor,
    params: TreeLstmParams,
    memory_update: str = "hidden",
) -> EncoderOutput:
    """Encode every node of ``dag`` bottom-up, one vectorized pass per level.

    Leaves consume their word embedding with zero child states; internal
    nodes consume their children's states with a zero label embedding.  Row
    order equals node-id order (level by level, left to right).
    """
    if memory_update not in MEMORY_UPDATES:
        raise ValueError(f"memory_update must be one of {MEMORY_UPDATES}, got {memory_update!r}")
    _check_alignment(dag, token_embeddings)
    if dag.kind == "tree":
        return _encode_tree(dag, token_embeddings, params, memory_update)
    return _encode_ngram(dag, token_embeddings, params, memory_update)


def _encode_ngram(dag, token_embeddings, params, memory_update):
    n = dag.token_count
    depth = len(dag.levels)
    track_c = memory_update == "cell"
    leaf_h, leaf_c = _leaf_level(token_embeddings, params)
    h_levels, c_levels = [leaf_h], [leaf_c]
    # In the forests one child of every composition is a unigram, so its
    # child-state projection, with the gate bias folded in, can be computed
    # once and sliced per level instead of recomputed; the pyramid has no
    # such shared operand.
    unigram_proj = None
    if depth >= 2 and dag.kind == "leftforest":
        unigram_proj = ad.linear_rows(leaf_h, params.u_right, params.bias)
    elif depth >= 2 and dag.kind == "rightforest":
        unigram_proj = ad.linear_rows(leaf_h, params.u_left, params.bias)
    for order in range(2, depth + 1):
        m = n - order + 1
        prev_h, unigram_h = h_levels[-1], h_levels[0]
        if dag.kind == "pyramid":
            left_h = ad.slice_rows(prev_h, 0, m)
            right_h = ad.slice_rows(prev_h, 1, m + 1)
            pre = ad.linear_rows(
                right_h, params.u_right, params.bias,
                addend=ad.linear_rows(left_h, params.u_left),
            )
            if track_c:
                left_mem = ad.slice_rows(c_levels[-1], 0, m)
                right_mem = ad.slice_rows(c_levels[-1], 1, m + 1)
            else:
                left_mem, right_mem = left_h, right_h
        elif dag.kind == "leftforest":
            left_h = ad.slice_rows(prev_h, 0, m)
            pre = ad.linear_rows(
                left_h, params.u_left, addend=ad.slice_rows(unigram_proj, order - 1, n)
            )
            if track_c:
                left_mem = ad.slice_rows(c_levels[-1], 0, m)
                right_mem = ad.slice_rows(c_levels[0], order - 1, n)
            else:
                left_mem = left_h
                right_mem = ad.slice_rows(unigram_h, order - 1, n)
        elif dag.kind == "rightforest":
            right_h = ad.slice_rows(prev_h, 1, m + 1)
            pre = ad.linear_rows(
                right_h, params.u_right, addend=ad.slice_rows(unigram_proj, 0, m)
            )
            if track_c:
                left_mem = ad.slice_rows(c_levels[0], 0, m)
                right_mem = ad.slice_rows(c_levels[-1], 1, m + 1)
            else:
                left_mem = ad.slice_rows(unigram_h, 0, m)
                right_mem = right_h
        else:  # pragma: no cover - guarded upstream
            raise ValueError(f"unsupported structure kind {dag.kind!r}")
        h, c = ad.tree_cell_gates(pre, left_mem, right_mem)
        h_levels.append(h)
        c_levels.append(c)
    full = h_levels[0] if len(h_levels) == 1 else ad.concat_rows(h_levels)
    return EncoderOutput(full, dag.spans)


def _encode_tree(dag, token_embeddings, params, memory_update):
    track_c = memory_update == "cell"
    h_all, c_all = _leaf_level(token_embeddings, params)
    for level in dag.levels[1:]:
        left_ids = np.array([dag.nodes[i].children[0] for i in level], dtype=np.intp)
        right_ids = np.array([dag.nodes[i].children[1] for i in level], dtype=np.intp)
        left_h = ad.row_lookup(h_all, left_ids)
        right_h = ad.row_lookup(h_all, right_ids)
        if track_c:
            left_mem = ad.row_lookup(c_all, left_ids)
            right_mem = ad.row_lookup(c_all, right_ids)
        else:
            left_mem, right_mem = left_h, right_h
        pre = ad.linear_rows(
            right_h, params.u_right, params.bias,
            addend=ad.linear_rows(left_h, params.u_left),
        )
        h, c = ad.tree_cell_gates(pre, left_mem, right_mem)
        h_all = ad.concat_rows([h_all, h])
        if track_c:
            c_all = ad.concat_rows([c_all, c])
    return EncoderOutput(h_all, dag.spans)


def encode_bi_forest(
    token_embeddings: Tensor,
    left_params: TreeLstmParams,
    right_params: TreeLstmParams,
    max_order: int,
    memory_update: str = "hidden",
) -> EncoderOutput:
    """Concatenate left-forest and right-forest representations per span."""
    n = token_embeddings.shape[0]
    left_dag = ngram_dag("leftforest", n, max_order)
    right_dag = ngram_dag("rightforest", n, max_order)
    left_out = encode_dag(left_dag, token_embeddings, left_params, memory_update)
    right_out = encode_dag(right_dag, token_embeddings, right_params, memory_update)
    return EncoderOutput(ad.concat_cols([left_out.h, right_out.h]), left_out.spans)


# ---------------------------------------------------------------------------
# BiLSTM baseline (basic units = word positions)
# ---------------------------------------------------------------------------

LSTM_GATES = 4  # input, forget, output, candidate


@dataclass
class LstmDirectionParams:
    w: Tensor  # (4*dir, e)
    u: Tensor  # (4*dir, dir)
    bias: Tensor  # (4*dir,)

    @property
    def hidden_dim(self) -> int:
        return self.w.shape[0] // LSTM_GATES


@dataclass
class BiLstmParams:
    forward: LstmDirectionParams
    backward: LstmDirectionParams

    def tensors(self) -> list[Tensor]:
        return [
            self.forward.w, self.forward.u, self.forward.bias,
            self.backward.w, self.backward.u, self.backward.bias,
        ]


def init_bilstm_params(
    store: ParamStore, prefix: str, embed_dim: int, hidden_dim: int, rng: np.random.Generator
) -> BiLstmParams:
    if hidden_dim % 2 != 0:
        raise ValueError(f"BiLSTM needs an even hidden size, got {hidden_dim}")
    direction = hidden_dim // 2

    def one(side: str) -> LstmDirectionParams:
        return LstmDirectionParams(
            w=store.add(f"{prefix}.{side}.w", glorot(rng, LSTM_GATES * direction, embed_dim, embed_dim, direction)),
            u=store.add(f"{prefix}.{side}.u", glorot(rng, LSTM_GATES * direction, direction, direction, direction)),
            bias=store.add(f"{prefix}.{side}.bias", np.zeros(LSTM_GATES * direction)),
        )

    return BiLstmParams(one("fwd"), one("bwd"))


def _lstm_direction(
    x_stacked: Tensor, batch: int, length: int, params: LstmDirectionParams, reverse: bool
) -> Tensor:
    """Run one direction over a (batch*length, e) doc-major block; returns
    hidden states doc-major, (batch*length, dir)."""
    steps = range(length - 1, -1, -1) if reverse else range(length)
    h: Optional[Tensor] = None
    c: Optional[Tensor] = None
    outputs: list[Tensor] = []
    doc_starts = np.arange(batch, dtype=np.intp) * length
    for t in steps:
        x_t = ad.row_lookup(x_stacked, doc_starts + t)
        pre = ad.linear_rows(x_t, params.w, params.bias)
        if h is not None:
            pre = ad.add(pre, ad.linear_rows(h, params.u))
        gate_in, gate_f, gate_out, gate_cand = ad.split_last(pre, LSTM_GATES)
        new_c = ad.mul(ad.sigmoid(gate_in), ad.tanh(gate_cand))
        if c is not None:
            new_c = ad.add(new_c, ad.mul(ad.sigmoid(gate_f), c))
        c = new_c
        h = ad.mul(ad.sigmoid(gate_out), ad.tanh(c))
        outputs.append(h)
    step_major = outputs[0] if length == 1 else ad.concat_rows(outputs)
    if batch == 1 and not reverse:
        return step_major
    # Rearrange (step, doc) rows into doc-major (doc, step) order.
    step_index = np.empty(length, dtype=np.intp)
    for j, t in enumerate(steps):
        step_index[t] = j
    perm = np.tile(step_index, batch) * batch + np.repeat(np.arange(batch), length)
    return ad.row_lookup(step_major, perm)


def bilstm_encode_batch(
    x_stacked: Tensor, batch: int, length: int, params: BiLstmParams
) -> Tensor:
    """Doc-major (batch*length, 2*dir) hidden matrix for same-length docs."""
    if length < 1:
        raise ShapeError("cannot encode an empty text")
    if x_stacked.shape[0] != batch * length:
        raise ShapeError(
            f"x has {x_stacked.shape[0]} rows, expected batch {batch} x length {length}"
        )
    fwd = _lstm_direction(x_stacked, batch, length, params.forward, reverse=False)
    bwd = _lstm_direction(x_stacked, batch, length, params.backward, reverse=True)
    return ad.concat_cols([fwd, bwd])


def bilstm_encode(token_embeddings: Tensor, params: BiLstmParams) -> EncoderOutput:
    n = token_embeddings.shape[0]
    h = bilstm_encode_batch(token_embeddings, 1, n, params)
    return EncoderOutput(h, ngram_spans(n, 1))


# ---------------------------------------------------------------------------
# CNN baseline (basic units = all ngrams up to a maximum order)
# ---------------------------------------------------------------------------


@dataclass
class CnnParams:
    filters: list[Tensor]  # filters[k-1] has shape (k*e, d)
    biases: list[Tensor]

    @property
    def max_order(self) -> int:
        return len(self.filters)

    def tensors(self) -> list[Tensor]:
        return [*self.filters, *self.biases]


def init_cnn_params(
    store: ParamStore, prefix: str, embed_dim: int, hidden_dim: int, max_order: int, rng: np.random.Generator
) -> CnnParams:
    filters, biases = [], []
    for k in range(1, max_order + 1):
        filters.append(
            store.add(
                f"{prefix}.order{k}.w",
                glorot(rng, k * embed_dim, hidden_dim, k * embed_dim, hidden_dim),
            )
        )
        biases.append(store.add(f"{prefix}.order{k}.bias", np.zeros(hidden_dim)))
    return CnnParams(filters, biases)


def cnn_encode(token_embeddings: Tensor, params: CnnParams) -> EncoderOutput:
    """One tanh convolution per ngram order; unit set equals the ngram span
    set, so attention is comparable like-for-like with the forests."""
    n = token_embeddings.shape[0]
    blocks = []
    for k in range(1, min(params.max_order, n) + 1):
        conv = ad.conv_ngram(token_embeddings, params.filters[k - 1], params.biases[k - 1], k)
        blocks.append(ad.tanh(conv))
    h = blocks[0] if len(blocks) == 1 else ad.concat_rows(blocks)
    return EncoderOutput(h, ngram_spans(n, params.max_order))


# ---------------------------------------------------------------------------
# Analytic multiply-accumulate counts (forward); instrumented counts from
# autodiff.mac_count must match these exactly.
# ---------------------------------------------------------------------------


def _leaf_macs(n: int, embed_dim: int, hidden_dim: int) -> int:
    """Leaves cost the input maps of their three live gates only: with no
    children, the two forget gates would multiply nothing."""
    return n * LEAF_GATE_COUNT * embed_dim * hidden_dim


def forest_encoder_macs(n: int, max_order: int, embed_dim: int, hidden_dim: int) -> int:
    """Forward MACs for leftforest/rightforest.

    Leaves cost three input maps.  One child of every composition is a
    unigram whose five state maps are computed once for the whole document
    (n rows) and sliced per level; only the other child pays per node.
    """
    depth = min(max_order, n)
    leaf = _leaf_macs(n, embed_dim, hidden_dim)
    if depth < 2:
        return leaf
    shared_unigram = n * GATE_COUNT * hidden_dim * hidden_dim
    internal_nodes = sum(n - k + 1 for k in range(2, depth + 1))
    return leaf + shared_unigram + internal_nodes * GATE_COUNT * hidden_dim * hidden_dim


def pyramid_encoder_macs(n: int, max_order: int, embed_dim: int, hidden_dim: int) -> int:
    """Three-gate leaves; the pyramid shares no per-level operand, so both
    children of every internal node pay the five state maps."""
    depth = min(max_order, n)
    leaf = _leaf_macs(n, embed_dim, hidden_dim)
    internal_nodes = sum(n - k + 1 for k in range(2, depth + 1))
    return leaf + internal_nodes * 2 * GATE_COUNT * hidden_dim * hidden_dim


def tree_encoder_macs(n: int, embed_dim: int, hidden_dim: int) -> int:
    """Three-gate leaves plus both children's five state maps per internal
    node."""
    leaf = _leaf_macs(n, embed_dim, hidden_dim)
    return leaf + (n - 1) * 2 * GATE_COUNT * hidden_dim * hidden_dim


def cnn_encoder_macs(n: int, max_order: int, embed_dim: int, hidden_dim: int) -> int:
    return sum(
        (n - k + 1) * k * embed_dim * hidden_dim for k in range(1, min(max_order, n) + 1)
    )


def bilstm_encoder_macs(n: int, embed_dim: int, hidden_dim: int) -> int:
    direction = hidden_dim // 2
    per_direction = n * LSTM_GATES * direction * embed_dim
    recurrent = (n - 1) * LSTM_GATES * direction * direction
    return 2 * (per_direction + recurrent)
