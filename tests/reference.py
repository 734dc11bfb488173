"""Node-at-a-time tree-LSTM oracle for the vectorized encoders.

``tree_lstm_cell`` evaluates one gated binary composition with the vector
primitives, and ``encode_dag_reference`` applies it once per structure node.
Slow but obviously faithful to the cell semantics; the encoder tests compare
``encoders.encode_dag`` against it.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from multigram import autodiff as ad
from multigram.autodiff import GATE_COUNT, Tensor
from multigram.encoders import MEMORY_UPDATES, EncoderOutput, TreeLstmParams, _check_alignment
from multigram.structures import NgramDag


@dataclass
class NodeState:
    """State of one structure node: hidden vector h and memory vector c."""

    h: Tensor
    c: Tensor


def zero_state(hidden_dim: int) -> NodeState:
    return NodeState(Tensor(np.zeros(hidden_dim)), Tensor(np.zeros(hidden_dim)))


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
    gate_in, gate_fl, gate_fr, gate_out, gate_cand = ad.split_last(pre, GATE_COUNT)
    c = ad.mul(ad.sigmoid(gate_in), ad.tanh(gate_cand))
    if left is not None:
        source = left.h if memory_update == "hidden" else left.c
        c = ad.add(c, ad.mul(ad.sigmoid(gate_fl), source))
    if right is not None:
        source = right.h if memory_update == "hidden" else right.c
        c = ad.add(c, ad.mul(ad.sigmoid(gate_fr), source))
    h = ad.mul(ad.sigmoid(gate_out), ad.tanh(c))
    return NodeState(h, c)


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
        if node.is_leaf:
            x = ad.pick_row(token_embeddings, node.span.start)
            states[node_id] = cell(x, None, None, params, memory_update)
        else:
            left, right = node.children
            states[node_id] = cell(None, states[left], states[right], params, memory_update)
    h = ad.stack_rows([states[i].h for i in range(len(dag.nodes))])
    return EncoderOutput(h, dag.spans)
