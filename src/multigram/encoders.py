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
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import ParamStore, ShapeError, Tensor, gate_count
from .structures import NgramShape, Span, child_rows, ngram_shape, ngram_spans

MEMORY_UPDATES = ("hidden", "cell")


@dataclass
class EncoderOutput:
    """Unit representations: row i of ``h`` describes ``spans[i]``."""

    h: Tensor
    spans: Sequence[Span]


@dataclass
class TreeLstmParams:
    """Shared binary tree-LSTM weights, stored gate-fused.

    ``w`` is (5d, e), ``u_left``/``u_right`` are (5d, d) and ``bias`` is
    (5d,); rows are grouped per gate in the order input, output, candidate,
    forget-left, forget-right (``autodiff.tree_cell_gates``).  Row block
    g*d:(g+1)*d is the usual per-gate matrix, so the fusion changes the
    memory layout only.  Leaves have no children and use only the leading
    3d rows of ``w`` and ``bias``; internal nodes have no label embedding,
    so the forget rows of ``w`` never receive a gradient.
    """

    w: Tensor
    u_left: Tensor
    u_right: Tensor
    bias: Tensor

    @property
    def hidden_dim(self) -> int:
        return self.w.shape[0] // gate_count(2)


def glorot(rng: np.random.Generator, rows: int, cols: int, fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(rows, cols))


def glorot_gates(rng: np.random.Generator, memories: int, hidden_dim: int, in_dim: int) -> np.ndarray:
    """Fused gate weights of a cell with ``memories`` memory inputs, drawn
    with the forget gates second, the order they were once stored in, so a
    seed keeps giving every gate the same initial weights."""
    draw = glorot(rng, gate_count(memories) * hidden_dim, in_dim, in_dim, hidden_dim)
    gate_in, *forgets, gate_out, gate_cand = np.split(draw, gate_count(memories))
    return np.concatenate([gate_in, gate_out, gate_cand, *forgets])


def init_tree_lstm_params(
    store: ParamStore, prefix: str, embed_dim: int, hidden_dim: int, rng: np.random.Generator
) -> TreeLstmParams:
    d, e = hidden_dim, embed_dim
    return TreeLstmParams(
        w=store.add(f"{prefix}.w", glorot_gates(rng, 2, d, e)),
        u_left=store.add(f"{prefix}.u_left", glorot_gates(rng, 2, d, d)),
        u_right=store.add(f"{prefix}.u_right", glorot_gates(rng, 2, d, d)),
        bias=store.add(f"{prefix}.bias", np.zeros(gate_count(2) * d)),
    )


def _memoryless_cell(
    x_rows: Tensor, params: TreeLstmParams | LstmDirectionParams
) -> tuple[Tensor, Tensor]:
    """Cells with no memory input (tree leaves, a chain's first step): the
    three live gates only, through the leading rows of ``w`` and ``bias``."""
    live = gate_count(0) * params.hidden_dim
    w, bias = ad.slice_rows(params.w, 0, live), ad.slice_rows(params.bias, 0, live)
    pre = ad.linear_rows(x_rows, w, bias)
    return ad.tree_cell_gates(pre, ())


def _unigram_map(leaf_h: Tensor, params: TreeLstmParams, side: int) -> Tensor:
    """The five state maps of a forest's shared side, whose child is one
    token at every order, with the gate bias folded in."""
    return ad.linear_rows(leaf_h, (params.u_left, params.u_right)[side], params.bias)


# ---------------------------------------------------------------------------
# The per-token first layer
# ---------------------------------------------------------------------------


class TokenRows:
    """The rows an encoder's first layer gives each token position.

    Units are context-free, so every encoder's first layer reads one token
    only: tree-LSTM leaf states and the forests' shared unigram map, the
    CNN's filter products and the BiLSTM's input maps.  ``TokenRows(x)``
    computes them from ``x``, one embedding row per token occurrence; this
    is the arithmetic of training and of gradient checks.
    ``TokenTable.rows_at`` reads the same rows from a table computed once
    per distinct token.  Every encoder takes token rows or a bare embedding
    matrix, which it wraps in ``TokenRows``.
    """

    def __init__(self, x: Tensor):
        self.x = x

    @property
    def shape(self) -> tuple[int, ...]:
        return self.x.shape

    def leaves(
        self, params: TreeLstmParams, cells: bool, shared: int | None = None
    ) -> tuple[Tensor, Tensor | None, Tensor | None]:
        """Tree-LSTM leaf ``(h, c, unigram map)``.  ``cells`` says whether
        the caller reads ``c``; the unigram map is that of side ``shared``,
        or None when no side is shared."""
        h, c = _memoryless_cell(self.x, params)
        return h, c, None if shared is None else _unigram_map(h, params, shared)

    def ngram_conv(self, params: CnnParams, order: int) -> Tensor:
        """Pre-activations of the order-``order`` filters, one row per window."""
        return ad.conv_ngram(self.x, params.filters[order - 1], params.biases[order - 1], order)

    def lstm_start(
        self, params: LstmDirectionParams, steps: np.ndarray, batch: int
    ) -> tuple[Tensor, Tensor, Tensor]:
        """One BiLSTM direction's first-step ``(h, c)`` and the input maps
        of its later steps; ``steps`` lists the positions step-major in
        processing order, so its first ``batch`` entries are the first
        step.  The later maps run as one product ahead of the recurrence."""
        x_steps = ad.row_lookup(self.x, steps)
        h, c = _memoryless_cell(ad.slice_rows(x_steps, 0, batch), params)
        maps = ad.linear_rows(ad.slice_rows(x_steps, batch, len(steps)), params.w, params.bias)
        return h, c, maps


class TokenTable:
    """An encoder's first layer evaluated once per distinct token.

    ``x`` holds one embedding row per distinct token.  Each block (leaf
    states, a unigram map, one filter product per order and offset, an
    input map) is computed on first use through the same ``autodiff``
    products as ``TokenRows`` and then kept, so the table holds distinct
    tokens x first-layer width values.  ``rows_at`` reads one document's
    rows from it by token position.  Reads copy plain arrays and record
    nothing on a tape: a table serves inference only.
    """

    def __init__(self, x: Tensor):
        self.x = x
        self._blocks: dict[tuple, object] = {}

    def block(self, key: tuple, compute):
        if key not in self._blocks:
            self._blocks[key] = compute()
        return self._blocks[key]

    def rows_at(self, positions: np.ndarray) -> "TokenRows":
        """The first-layer rows of a document whose token ``i`` is the
        table's distinct token ``positions[i]``."""
        return _TableRows(self, positions)


class _TableRows(TokenRows):
    """``TokenRows`` read from a ``TokenTable`` by token position."""

    def __init__(self, table: TokenTable, positions: np.ndarray):
        self.table = table
        self.positions = positions

    @property
    def shape(self) -> tuple[int, ...]:
        return (len(self.positions), self.table.x.shape[1])

    def leaves(self, params, cells, shared=None):
        table = self.table

        def leaf_block():
            h, c = _memoryless_cell(table.x, params)
            return h, c if cells else None

        h, c = table.block(("leaves", id(params), cells), leaf_block)
        proj = None if shared is None else table.block(
            ("unigram", id(params), shared), lambda: _unigram_map(h, params, shared)
        )
        return tuple(None if t is None else Tensor(t.data[self.positions]) for t in (h, c, proj))

    def ngram_conv(self, params, order):
        # Window i is bias + sum over offsets o of T[order, o][token i + o],
        # added in conv_ngram's order.
        table, e = self.table, self.table.x.shape[1]
        filters = params.filters[order - 1].data
        m = len(self.positions) - order + 1
        out = np.tile(params.biases[order - 1].data, (m, 1))
        for offset in range(order):
            block = table.block(
                ("filter", id(params), order, offset),
                lambda: ad.linear_rows(table.x, Tensor(filters[offset * e : (offset + 1) * e].T)),
            )
            out += block.data[self.positions[offset : offset + m]]
        return Tensor(out)

    def lstm_start(self, params, steps, batch):
        # The first step's memoryless cell reads the leading three gate
        # blocks of the same full input maps.
        table = self.table
        maps = table.block(
            ("input", id(params)), lambda: ad.linear_rows(table.x, params.w, params.bias)
        )
        rows = self.positions[steps]
        live = gate_count(0) * params.hidden_dim
        h, c = ad.tree_cell_gates(Tensor(maps.data[rows[:batch], :live]), ())
        return h, c, Tensor(maps.data[rows[batch:]])


def _token_rows(x: Tensor | TokenRows) -> TokenRows:
    return x if isinstance(x, TokenRows) else TokenRows(x)


def _check_alignment(shape: NgramShape, token_embeddings: Tensor | TokenRows) -> None:
    if len(token_embeddings.shape) != 2 or token_embeddings.shape[0] != shape.token_count:
        raise ShapeError(
            f"embedding rows {token_embeddings.shape} do not align with "
            f"{shape.token_count} tokens"
        )


def encode_dag(
    shape: NgramShape,
    token_embeddings: Tensor | TokenRows,
    params: TreeLstmParams,
    memory_update: str = "hidden",
) -> EncoderOutput:
    """Encode every unit of ``shape`` bottom-up, one vectorized pass per level.

    Leaves consume their word embedding with zero child states; internal
    nodes consume their children's states with a zero label embedding.  Row
    order equals node-id order (level by level, left to right).  A parse
    tree's levels read the child ids of its shape; an ngram structure's
    follow from ``child_rows``.
    """
    if memory_update not in MEMORY_UPDATES:
        raise ValueError(f"memory_update must be one of {MEMORY_UPDATES}, got {memory_update!r}")
    _check_alignment(shape, token_embeddings)
    rows = _token_rows(token_embeddings)
    if shape.kind == "tree":
        return _encode_tree(shape, rows, params, memory_update)
    return _encode_ngram(shape, rows, params, memory_update)


def _encode_ngram(shape, first, params, memory_update):
    n = shape.token_count
    u = (params.u_left, params.u_right)
    # A side whose child is a unigram at every order (the forests' shared
    # side) has its child-state projection, with the gate bias folded in,
    # computed with the leaves, once for every token, and sliced per level.
    shared = next((i for i, side in enumerate(child_rows(shape.kind, 2)) if side.unigram), None)
    leaf_h, leaf_c, unigram_proj = first.leaves(
        params, memory_update == "cell", shared if shape.max_order >= 2 else None
    )
    h_levels, c_levels = [leaf_h], [leaf_c]
    for order in range(2, shape.max_order + 1):
        m = n - order + 1
        sides = child_rows(shape.kind, order)

        def rows(block, side):
            return ad.slice_rows(block, side.shift, side.shift + m)

        own_h = {
            i: rows(h_levels[side.order - 1], side) for i, side in enumerate(sides) if i != shared
        }
        pre = None if shared is None else rows(unigram_proj, sides[shared])
        for i, child_h in own_h.items():
            # Without a shared projection the last (right) product adds the bias.
            bias = params.bias if shared is None and i == 1 else None
            pre = ad.linear_rows(child_h, u[i], bias, addend=pre)
        if memory_update == "cell":
            mems = tuple(rows(c_levels[side.order - 1], side) for side in sides)
        else:
            mems = tuple(
                own_h[i] if i in own_h else rows(h_levels[side.order - 1], side)
                for i, side in enumerate(sides)
            )
        h, c = ad.tree_cell_gates(pre, mems)
        h_levels.append(h)
        c_levels.append(c)
    full = h_levels[0] if len(h_levels) == 1 else ad.concat_rows(h_levels)
    return EncoderOutput(full, shape.spans)


def _encode_tree(shape, first, params, memory_update):
    track_c = memory_update == "cell"
    h_all, c_all, _ = first.leaves(params, track_c)
    for left, right in shape.children:
        left_ids = np.array(left, dtype=np.intp)
        right_ids = np.array(right, dtype=np.intp)
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
        h, c = ad.tree_cell_gates(pre, (left_mem, right_mem))
        h_all = ad.concat_rows([h_all, h])
        if track_c:
            c_all = ad.concat_rows([c_all, c])
    return EncoderOutput(h_all, shape.spans)


def encode_bi_forest(
    token_embeddings: Tensor | TokenRows,
    left_params: TreeLstmParams,
    right_params: TreeLstmParams,
    max_order: int,
    memory_update: str = "hidden",
) -> EncoderOutput:
    """Concatenate left-forest and right-forest representations per span."""
    n = token_embeddings.shape[0]
    left = ngram_shape("leftforest", n, max_order)
    right = ngram_shape("rightforest", n, max_order)
    left_out = encode_dag(left, token_embeddings, left_params, memory_update)
    right_out = encode_dag(right, token_embeddings, right_params, memory_update)
    return EncoderOutput(ad.concat_cols([left_out.h, right_out.h]), left_out.spans)


# ---------------------------------------------------------------------------
# BiLSTM baseline (basic units = word positions)
# ---------------------------------------------------------------------------

@dataclass
class LstmDirectionParams:
    """One direction's weights, gate-fused for the cell with one memory
    input: ``w`` (4*dir, e), ``u`` (4*dir, dir) and ``bias`` (4*dir,), rows
    in the gate order input, output, candidate, forget."""

    w: Tensor
    u: Tensor
    bias: Tensor

    @property
    def hidden_dim(self) -> int:
        return self.w.shape[0] // gate_count(1)


@dataclass
class BiLstmParams:
    forward: LstmDirectionParams
    backward: LstmDirectionParams


def init_bilstm_params(
    store: ParamStore, prefix: str, embed_dim: int, hidden_dim: int, rng: np.random.Generator
) -> BiLstmParams:
    if hidden_dim % 2 != 0:
        raise ValueError(f"BiLSTM needs an even hidden size, got {hidden_dim}")
    direction = hidden_dim // 2

    def one(side: str) -> LstmDirectionParams:
        return LstmDirectionParams(
            w=store.add(f"{prefix}.{side}.w", glorot_gates(rng, 1, direction, embed_dim)),
            u=store.add(f"{prefix}.{side}.u", glorot_gates(rng, 1, direction, direction)),
            bias=store.add(f"{prefix}.{side}.bias", np.zeros(gate_count(1) * direction)),
        )

    return BiLstmParams(one("fwd"), one("bwd"))


def _lstm_direction(
    rows: TokenRows, batch: int, length: int, params: LstmDirectionParams, reverse: bool
) -> Tensor:
    """Run one direction over (batch*length) doc-major token rows; returns
    hidden states doc-major, (batch*length, dir).  Rows are read step-major
    in processing order."""
    steps = np.arange(length - 1, -1, -1) if reverse else np.arange(length)
    order = (steps[:, None] + np.arange(batch) * length).ravel()
    h, c, x_maps = rows.lstm_start(params, order, batch)
    outputs = [h]
    for j in range(1, length):
        step_map = ad.slice_rows(x_maps, (j - 1) * batch, j * batch)
        h, c = ad.tree_cell_gates(ad.linear_rows(h, params.u, addend=step_map), (c,))
        outputs.append(h)
    return ad.row_lookup(ad.concat_rows(outputs), np.argsort(order))


def bilstm_encode_batch(
    x_stacked: Tensor | TokenRows, batch: int, length: int, params: BiLstmParams
) -> Tensor:
    """Doc-major (batch*length, 2*dir) hidden matrix for same-length docs."""
    if length < 1:
        raise ShapeError("cannot encode an empty text")
    if x_stacked.shape[0] != batch * length:
        raise ShapeError(
            f"x has {x_stacked.shape[0]} rows, expected batch {batch} x length {length}"
        )
    rows = _token_rows(x_stacked)
    fwd = _lstm_direction(rows, batch, length, params.forward, reverse=False)
    bwd = _lstm_direction(rows, batch, length, params.backward, reverse=True)
    return ad.concat_cols([fwd, bwd])


def bilstm_encode(token_embeddings: Tensor | TokenRows, params: BiLstmParams) -> EncoderOutput:
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


def cnn_encode(token_embeddings: Tensor | TokenRows, params: CnnParams) -> EncoderOutput:
    """One tanh convolution per ngram order; unit set equals the ngram span
    set, so attention is comparable like-for-like with the forests."""
    n = token_embeddings.shape[0]
    rows = _token_rows(token_embeddings)
    blocks = []
    for k in range(1, min(params.max_order, n) + 1):
        blocks.append(ad.tanh(rows.ngram_conv(params, k)))
    h = blocks[0] if len(blocks) == 1 else ad.concat_rows(blocks)
    return EncoderOutput(h, ngram_spans(n, params.max_order))
