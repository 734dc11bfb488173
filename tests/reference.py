"""Node-at-a-time and step-at-a-time oracles for the vectorized encoders.

``build_dag`` builds a structure as a node graph, every node with its span,
children and level; ``dag_records`` dumps it in ``dump-structure``'s record
format.  The structure tests and the node-walking helpers of ``conftest``
read it, and ``structures.structure_records`` must print its records.

``composed_cell`` is the LSTM cell of ``autodiff.tree_cell_gates`` built
from the elementwise primitives.  ``tree_lstm_cell`` evaluates one gated
binary composition with it, and ``encode_dag_reference`` applies that once
per structure node; ``bilstm_reference`` runs one document's chain LSTM one
position at a time in each direction.  Slow but obviously faithful to the
cell semantics; the encoder tests compare ``encoders.encode_dag`` and
``encoders.bilstm_encode_batch`` against them.

The ``*_encoder_macs`` functions are the closed forms of each encoder's
forward multiply-accumulates; instrumented counts from
``autodiff.mac_count`` must match them exactly.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from multigram import autodiff as ad
from multigram.autodiff import Tensor, gate_count
from multigram.encoders import (
    MEMORY_UPDATES,
    BiLstmParams,
    EncoderOutput,
    TreeLstmParams,
    _check_alignment,
)
from multigram.structures import Span, child_rows, ngram_shape, tree_shape


@dataclass(frozen=True, slots=True)
class NgramNode:
    """One unit in a structure: a span plus optional (left, right) children."""

    id: int
    span: Span
    children: Optional[tuple[int, int]]
    level: int


@dataclass(frozen=True)
class NgramDag:
    kind: str
    token_count: int
    max_order: int
    nodes: tuple[NgramNode, ...]
    levels: tuple[tuple[int, ...], ...]
    spans: tuple[Span, ...]  # spans[i] is nodes[i].span


def build_dag(
    kind: str,
    tokens: Sequence[str] | int,
    max_order: int,
    parse: Optional[str] = None,
) -> NgramDag:
    """The node graph of the structure ``kind`` over ``tokens`` (or a bare
    length).  Node ids are assigned level by level, left to right, so
    children always precede parents; an ngram node finds its children by
    looking their spans up among the nodes already built."""
    n = tokens if isinstance(tokens, int) else len(tokens)
    if kind == "tree":
        shape = tree_shape(parse, tokens)
        nodes = [NgramNode(i, span, None, 1) for i, span in enumerate(shape.spans[:n])]
        levels = [tuple(range(n))]
        for level, (left, right) in enumerate(shape.children, start=2):
            levels.append(tuple(range(len(nodes), len(nodes) + len(left))))
            nodes += [NgramNode(i, shape.spans[i], pair, level)
                      for i, pair in zip(levels[-1], zip(left, right))]
        return NgramDag("tree", n, n, tuple(nodes), tuple(levels), shape.spans)

    shape = ngram_shape(kind, n, max_order)
    span_ids: dict[Span, int] = {}
    nodes: list[NgramNode] = []
    levels: list[list[int]] = [[] for _ in range(shape.max_order)]
    for node_id, span in enumerate(shape.spans):
        children = None
        if span.order > 1:
            children = tuple(
                span_ids[Span(span.start + side.shift, side.order)]
                for side in child_rows(kind, span.order)
            )
        span_ids[span] = node_id
        nodes.append(NgramNode(node_id, span, children, span.order))
        levels[span.order - 1].append(node_id)
    return NgramDag(kind, n, shape.max_order, tuple(nodes), tuple(map(tuple, levels)), shape.spans)


def dag_records(dag: NgramDag) -> list[str]:
    """``id<TAB>start<TAB>order<TAB>leftId<TAB>rightId`` per node, with -1
    for an absent child."""
    lines = []
    for node in dag.nodes:
        left, right = node.children if node.children is not None else (-1, -1)
        lines.append(f"{node.id}\t{node.span.start}\t{node.span.order}\t{left}\t{right}")
    return lines


@dataclass
class NodeState:
    """State of one structure node: hidden vector h and memory vector c."""

    h: Tensor
    c: Tensor


def zero_state(hidden_dim: int) -> NodeState:
    return NodeState(Tensor(np.zeros(hidden_dim)), Tensor(np.zeros(hidden_dim)))


def composed_cell(pre: Tensor, mems: Sequence[Optional[Tensor]]) -> NodeState:
    """The cell of ``autodiff.tree_cell_gates`` on one gate pre-activation
    vector, blocks input, output, candidate, then one forget gate per memory
    input; a None memory input is a structurally zero term and is skipped,
    which is exact."""
    gate_in, gate_out, gate_cand, *forgets = ad.split_last(pre, gate_count(len(mems)))
    c = ad.mul(ad.sigmoid(gate_in), ad.tanh(gate_cand))
    for gate, mem in zip(forgets, mems):
        if mem is not None:
            c = ad.add(c, ad.mul(ad.sigmoid(gate), mem))
    h = ad.mul(ad.sigmoid(gate_out), ad.tanh(c))
    return NodeState(h, c)


def tree_lstm_cell(
    x: Optional[Tensor],
    left: Optional[NodeState],
    right: Optional[NodeState],
    params: TreeLstmParams,
    memory_update: str = "hidden",
) -> NodeState:
    """One gated binary composition step.

    ``x`` is the node's label embedding (None means the zero vector used for
    internal nodes), and absent children stand for zero states; terms whose
    operand is structurally zero are skipped, which is exact.  With the
    default ``memory_update="hidden"`` the children enter the memory sum
    through their hidden vectors; ``"cell"`` substitutes their memory
    vectors, the conventional tree-LSTM update.
    """
    if memory_update not in MEMORY_UPDATES:
        raise ValueError(f"memory_update must be one of {MEMORY_UPDATES}, got {memory_update!r}")
    pre = params.bias
    if x is not None:
        pre = ad.add(ad.matvec(params.w, x), pre)
    if left is not None:
        pre = ad.add(pre, ad.matvec(params.u_left, left.h))
    if right is not None:
        pre = ad.add(pre, ad.matvec(params.u_right, right.h))
    mems = [
        None if child is None else child.h if memory_update == "hidden" else child.c
        for child in (left, right)
    ]
    return composed_cell(pre, mems)


def encode_dag_reference(
    dag: NgramDag,
    token_embeddings: Tensor,
    params: TreeLstmParams,
    memory_update: str = "hidden",
    node_order: Optional[Sequence[int]] = None,
    cell=tree_lstm_cell,
) -> EncoderOutput:
    """Evaluate one cell per node in ``node_order`` (any order that visits
    children first; defaults to level order) and stack hidden vectors by
    node id."""
    _check_alignment(dag, token_embeddings)
    order = list(node_order) if node_order is not None else [i for lvl in dag.levels for i in lvl]
    states: dict[int, NodeState] = {}
    for node_id in order:
        node = dag.nodes[node_id]
        if node.children is None:
            x = ad.pick_row(token_embeddings, node.span.start)
            states[node_id] = cell(x, None, None, params, memory_update)
        else:
            left, right = node.children
            states[node_id] = cell(None, states[left], states[right], params, memory_update)
    h = ad.stack_rows([states[i].h for i in range(len(dag.nodes))])
    return EncoderOutput(h, dag.spans)


def bilstm_reference(token_embeddings: Tensor, params: BiLstmParams) -> Tensor:
    """(n, 2*dir) hidden states of one document: each direction runs one
    ``composed_cell`` per position with a single memory input, absent at its
    first position; row t holds the forward then the backward state."""
    n = token_embeddings.shape[0]
    halves = []
    for direction, order in ((params.forward, range(n)), (params.backward, range(n - 1, -1, -1))):
        state: Optional[NodeState] = None
        hidden = {}
        for t in order:
            pre = ad.add(ad.matvec(direction.w, ad.pick_row(token_embeddings, t)), direction.bias)
            if state is not None:
                pre = ad.add(pre, ad.matvec(direction.u, state.h))
            state = composed_cell(pre, (None if state is None else state.c,))
            hidden[t] = state.h
        halves.append(ad.stack_rows([hidden[t] for t in range(n)]))
    return ad.concat_cols(halves)


def forest_encoder_macs(n: int, max_order: int, embed_dim: int, hidden_dim: int) -> int:
    """Forward MACs for leftforest/rightforest.

    Leaves cost three input maps.  One child of every composition is a
    unigram whose five state maps are computed once for the whole document
    (n rows) and sliced per level; only the other child pays per node.
    """
    depth = min(max_order, n)
    leaf = n * gate_count(0) * embed_dim * hidden_dim
    if depth < 2:
        return leaf
    shared_unigram = n * gate_count(2) * hidden_dim * hidden_dim
    internal_nodes = sum(n - k + 1 for k in range(2, depth + 1))
    return leaf + shared_unigram + internal_nodes * gate_count(2) * hidden_dim * hidden_dim


def pyramid_encoder_macs(n: int, max_order: int, embed_dim: int, hidden_dim: int) -> int:
    """Three-gate leaves; the pyramid shares no per-level operand, so both
    children of every internal node pay the five state maps."""
    depth = min(max_order, n)
    leaf = n * gate_count(0) * embed_dim * hidden_dim
    internal_nodes = sum(n - k + 1 for k in range(2, depth + 1))
    return leaf + internal_nodes * 2 * gate_count(2) * hidden_dim * hidden_dim


def tree_encoder_macs(n: int, embed_dim: int, hidden_dim: int) -> int:
    """Three-gate leaves plus both children's five state maps per internal
    node."""
    leaf = n * gate_count(0) * embed_dim * hidden_dim
    return leaf + (n - 1) * 2 * gate_count(2) * hidden_dim * hidden_dim


def cnn_encoder_macs(n: int, max_order: int, embed_dim: int, hidden_dim: int) -> int:
    return sum(
        (n - k + 1) * k * embed_dim * hidden_dim for k in range(1, min(max_order, n) + 1)
    )


def bilstm_encoder_macs(n: int, embed_dim: int, hidden_dim: int) -> int:
    """Per direction: the first step maps its input to the three live gates;
    every later step maps input and previous hidden state to all four."""
    direction = hidden_dim // 2
    inputs = (gate_count(0) + (n - 1) * gate_count(1)) * direction * embed_dim
    recurrent = (n - 1) * gate_count(1) * direction * direction
    return 2 * (inputs + recurrent)
