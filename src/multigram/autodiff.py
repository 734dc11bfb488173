"""Dense float tensors with taped reverse-mode differentiation.

The engine is deliberately small: a ``Tensor`` wraps a numpy array, and while
a ``Tape`` is active every primitive records how to push gradients back to
its inputs.  ``Tape.backward`` replays the records in exact reverse recording
order, so a value used m times accumulates exactly m gradient contributions
(structures that share child nodes rely on this).

Only the shapes this package needs are supported: scalars ``()``, vectors
``(n,)`` and matrices ``(m, n)``.  A tensor holds float32 or float64 (other
inputs become float64), and every primitive computes and returns gradients
in its inputs' dtype: training runs in float32, while gradient checking
against central finite differences, the correctness standard, runs in
float64.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence

import numpy as np


class ShapeError(ValueError):
    """Operand shapes are incompatible with the requested primitive."""


class NumericError(RuntimeError):
    """A non-finite value appeared where finite arithmetic was required."""


# Active tapes, innermost last.
_TAPES: list["Tape"] = []
_macs = 0


def reset_mac_count() -> None:
    global _macs
    _macs = 0


def mac_count() -> int:
    """Multiply-accumulate operations performed by forward linear algebra
    since the last reset."""
    return _macs


def _add_macs(n: int) -> None:
    global _macs
    _macs += n


_FLOAT_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "name")

    def __init__(self, data, requires_grad: bool = False, name: Optional[str] = None):
        data = np.asarray(data)
        # float32 and float64 are kept; lists, integers and booleans become float64.
        self.data = data if data.dtype in _FLOAT_DTYPES else data.astype(np.float64)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad)
        self.name = name

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def __repr__(self) -> str:
        label = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.shape},{label} requires_grad={self.requires_grad})"


class RowSpanGrad:
    """Gradient covering rows [start, stop) of a larger matrix; lets slice
    backward skip materializing a full-size zero matrix per record."""

    __slots__ = ("start", "stop", "rows", "full_shape")

    def __init__(self, start: int, stop: int, rows: np.ndarray, full_shape: tuple):
        self.start = start
        self.stop = stop
        self.rows = rows
        self.full_shape = full_shape

    def densify(self) -> np.ndarray:
        full = np.zeros(self.full_shape, dtype=self.rows.dtype)
        full[self.start : self.stop] = self.rows
        return full


def _accumulate_grad(store: dict, key, grad):
    """Add ``grad`` (dense array or RowSpanGrad) into ``store[key]``; spans
    stay sparse until a second contribution or a consumer forces them."""
    current = store.get(key)
    if current is None:
        store[key] = grad
        return
    if isinstance(current, RowSpanGrad):
        current = current.densify()
        store[key] = current
    if isinstance(grad, RowSpanGrad):
        current[grad.start : grad.stop] += grad.rows
    else:
        current += grad


class Tape:
    """Ordered record of primitive applications for one forward pass."""

    def __init__(self):
        # Each record: (outputs tuple, inputs tuple, pull function).
        # pull receives one output gradient per output (None if unused) and
        # returns one gradient per input (None to skip).
        self._records: list[tuple[tuple[Tensor, ...], tuple[Tensor, ...], Callable]] = []
        self._produced: set[int] = set()

    def __enter__(self) -> "Tape":
        _TAPES.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        popped = _TAPES.pop()
        assert popped is self

    def _record(self, outputs: tuple[Tensor, ...], inputs: tuple[Tensor, ...], pull) -> None:
        self._records.append((outputs, inputs, pull))
        for out in outputs:
            self._produced.add(id(out))

    def __len__(self) -> int:
        return len(self._records)

    def backward(self, loss: Tensor, seed: float = 1.0) -> None:
        """Propagate d(seed * loss)/d(tensor) to every recorded tensor.

        Gradients for leaf tensors (those not produced on this tape) are
        added into ``tensor.grad``, so successive calls accumulate.
        """
        if loss.shape != ():
            raise ShapeError(f"backward needs a scalar loss, got shape {loss.shape}")
        if id(loss) not in self._produced:
            raise ValueError("loss was not produced under this tape")
        grads: dict[int, object] = {id(loss): np.asarray(seed, dtype=loss.data.dtype)}
        leaves: dict[int, Tensor] = {}
        for outputs, inputs, pull in reversed(self._records):
            out_grads = []
            missing = True
            for out in outputs:
                g = grads.pop(id(out), None)
                if isinstance(g, RowSpanGrad):
                    g = g.densify()
                if g is not None:
                    missing = False
                out_grads.append(g)
            if missing:
                continue
            in_grads = pull(*out_grads)
            for tensor, grad in zip(inputs, in_grads):
                if grad is None or not tensor.requires_grad:
                    continue
                key = id(tensor)
                # Pulls hand over ownership: each returned array is fresh, a
                # dead buffer, or a view disjoint from its siblings, so the
                # accumulator may store and mutate it without copying.
                _accumulate_grad(grads, key, grad)
                if key not in self._produced:
                    leaves[key] = tensor
        for key, tensor in leaves.items():
            grad = grads[key]
            if isinstance(grad, RowSpanGrad):
                grad = grad.densify()
            if tensor.grad is None:
                tensor.grad = grad
            else:
                tensor.grad += grad


def _tape() -> Optional[Tape]:
    return _TAPES[-1] if _TAPES else None


def _result(data: np.ndarray, inputs: Sequence[Tensor], pull_builder) -> Tensor:
    """Wrap ``data``; record a pull closure when a tape is active and any
    input participates in differentiation."""
    tape = _tape()
    needs = tape is not None and any(t.requires_grad for t in inputs)
    out = Tensor(data, requires_grad=needs)
    if needs:
        tape._record((out,), tuple(inputs), pull_builder())
    return out


def _check_same_shape(a: Tensor, b: Tensor, op: str) -> None:
    if a.shape != b.shape:
        raise ShapeError(f"{op}: shape mismatch {a.shape} vs {b.shape}")


# ---------------------------------------------------------------------------
# Elementwise and reduction primitives
# ---------------------------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b, "add")

    def build():
        def pull(g):
            if a.requires_grad and b.requires_grad:
                # Distinct arrays: the two gradient sinks must not alias.
                return (g, g.copy())
            return (g if a.requires_grad else None, g if b.requires_grad else None)
        return pull

    return _result(a.data + b.data, (a, b), build)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b, "mul")
    a_data, b_data = a.data, b.data

    def build():
        def pull(g):
            return (
                g * b_data if a.requires_grad else None,
                g * a_data if b.requires_grad else None,
            )
        return pull

    return _result(a_data * b_data, (a, b), build)


def scale(x: Tensor, factor: float) -> Tensor:
    def build():
        def pull(g):
            return (g * factor,)
        return pull

    return _result(x.data * factor, (x,), build)


def sigmoid(x: Tensor) -> Tensor:
    # tanh form stays finite for any input, unlike 1/(1+exp(-x)).
    s = 0.5 * (1.0 + np.tanh(0.5 * x.data))

    def build():
        def pull(g):
            return (g * s * (1.0 - s),)
        return pull

    return _result(s, (x,), build)


def tanh(x: Tensor) -> Tensor:
    t = np.tanh(x.data)

    def build():
        def pull(g):
            return (g * (1.0 - t * t),)
        return pull

    return _result(t, (x,), build)


def sum_all(x: Tensor) -> Tensor:
    shape = x.shape

    def build():
        def pull(g):
            return (np.full(shape, g, dtype=g.dtype),)
        return pull

    return _result(np.asarray(x.data.sum()), (x,), build)


def dot(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 1 or b.data.ndim != 1 or a.shape != b.shape:
        raise ShapeError(f"dot: need equal-length vectors, got {a.shape} and {b.shape}")
    a_data, b_data = a.data, b.data
    _add_macs(a.size)

    def build():
        def pull(g):
            return (
                g * b_data if a.requires_grad else None,
                g * a_data if b.requires_grad else None,
            )
        return pull

    return _result(np.asarray(a_data @ b_data), (a, b), build)


# ---------------------------------------------------------------------------
# Linear algebra
# ---------------------------------------------------------------------------


def matvec(w: Tensor, x: Tensor) -> Tensor:
    if w.data.ndim != 2 or x.data.ndim != 1 or w.shape[1] != x.shape[0]:
        raise ShapeError(f"matvec: incompatible shapes {w.shape} @ {x.shape}")
    w_data, x_data = w.data, x.data
    _add_macs(w.shape[0] * w.shape[1])

    def build():
        def pull(g):
            return (
                np.outer(g, x_data) if w.requires_grad else None,
                w_data.T @ g if x.requires_grad else None,
            )
        return pull

    return _result(w_data @ x_data, (w, x), build)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: incompatible shapes {a.shape} @ {b.shape}")
    a_data, b_data = a.data, b.data
    _add_macs(a.shape[0] * a.shape[1] * b.shape[1])

    def build():
        def pull(g):
            return (
                g @ b_data.T if a.requires_grad else None,
                a_data.T @ g if b.requires_grad else None,
            )
        return pull

    return _result(a_data @ b_data, (a, b), build)


def linear_rows(
    x: Tensor,
    w: Tensor,
    bias: Optional[Tensor] = None,
    addend: Optional[Tensor] = None,
) -> Tensor:
    """Rows of ``x`` through the map ``w`` stored as (out, in):
    x @ w.T (+ bias) (+ addend).  The fused addend keeps two-operand
    pre-activation sums to a single record; both are added in place into
    the fresh product."""
    if x.data.ndim != 2 or w.data.ndim != 2 or x.shape[1] != w.shape[1]:
        raise ShapeError(f"linear_rows: incompatible shapes {x.shape} vs {w.shape}")
    if bias is not None and bias.shape != (w.shape[0],):
        raise ShapeError(f"linear_rows: bias shape {bias.shape} vs out dim {w.shape[0]}")
    x_data, w_data = x.data, w.data
    out = x_data @ w_data.T
    if bias is not None:
        out += bias.data
    if addend is not None:
        if addend.shape != out.shape:
            raise ShapeError(f"linear_rows: addend shape {addend.shape} vs {out.shape}")
        out += addend.data
    _add_macs(x.shape[0] * x.shape[1] * w.shape[0])
    inputs = tuple(t for t in (x, w, bias, addend) if t is not None)

    def build():
        def pull(g):
            parts = [
                g @ w_data if x.requires_grad else None,
                g.T @ x_data if w.requires_grad else None,
            ]
            if bias is not None:
                parts.append(g.sum(axis=0) if bias.requires_grad else None)
            if addend is not None:
                parts.append(g if addend.requires_grad else None)
            return tuple(parts)
        return pull

    return _result(out, inputs, build)


def weighted_sum(alpha: Tensor, rows: Tensor) -> Tensor:
    """Convex-ish combination of matrix rows: sum_i alpha_i * rows_i."""
    if alpha.data.ndim != 1 or rows.data.ndim != 2 or alpha.shape[0] != rows.shape[0]:
        raise ShapeError(f"weighted_sum: {alpha.shape} vs {rows.shape}")
    alpha_data, rows_data = alpha.data, rows.data
    _add_macs(rows.size)

    def build():
        def pull(g):
            return (
                rows_data @ g if alpha.requires_grad else None,
                np.outer(alpha_data, g) if rows.requires_grad else None,
            )
        return pull

    return _result(alpha_data @ rows_data, (alpha, rows), build)


def conv_ngram(x: Tensor, w: Tensor, bias: Tensor, order: int) -> Tensor:
    """Order-k ngram convolution: row i is window [x_i .. x_{i+k-1}] through
    the (k*e, d) filter bank ``w`` plus bias.  Output has n-k+1 rows."""
    n, e = x.shape
    if w.data.ndim != 2 or w.shape[0] != order * e:
        raise ShapeError(f"conv_ngram: filter shape {w.shape} vs order*{e}")
    d = w.shape[1]
    if bias.shape != (d,):
        raise ShapeError(f"conv_ngram: bias shape {bias.shape} vs ({d},)")
    m = n - order + 1
    if m < 1:
        raise ShapeError(f"conv_ngram: order {order} exceeds {n} tokens")
    x_data, w_data = x.data, w.data
    out = np.tile(bias.data, (m, 1))
    for offset in range(order):
        out += x_data[offset : offset + m] @ w_data[offset * e : (offset + 1) * e]
    _add_macs(m * order * e * d)

    def build():
        def pull(g):
            dx = np.zeros_like(x_data) if x.requires_grad else None
            # Every filter block is written exactly once, so no zeroing.
            dw = np.empty_like(w_data) if w.requires_grad else None
            for offset in range(order):
                block = w_data[offset * e : (offset + 1) * e]
                if dx is not None:
                    dx[offset : offset + m] += g @ block.T
                if dw is not None:
                    dw[offset * e : (offset + 1) * e] = x_data[offset : offset + m].T @ g
            db = g.sum(axis=0) if bias.requires_grad else None
            return (dx, dw, db)
        return pull

    return _result(out, (x, w, bias), build)


# Tree-LSTM gate layout.  A node with children carries five gate blocks of
# width d: input, forget-left, forget-right, output, candidate.  A leaf has no
# children to forget, so it carries only the three live blocks, input, output,
# candidate, in the same relative order.  Either way the candidate is the last
# block and every block before it is a sigmoid gate.
GATE_COUNT = 5
LEAF_GATE_COUNT = 3


def leaf_gate_rows(hidden_dim: int) -> np.ndarray:
    """Rows of a five-gate weight block that feed the three leaf gates."""
    d = hidden_dim
    return np.r_[0:d, 3 * d : 5 * d]


def tree_cell_gates(
    pre: Tensor, left_mem: Optional[Tensor], right_mem: Optional[Tensor]
) -> tuple[Tensor, Tensor]:
    """Fused gate application for a batch of tree-LSTM nodes.

    ``pre`` holds the stacked gate pre-activations: (rows, 5d) for nodes
    with children, (rows, 3d) for leaves (both memory inputs None).  The
    memory inputs are the children's contribution to the memory sum (their
    hidden or memory vectors, or None for absent children).  Computes

        i, f_l, f_r, o = sigmoid(pre gates), u = tanh(pre gate)
        c = i*u + f_l*left_mem + f_r*right_mem
        h = o * tanh(c)

    in one tape record; identical results to composing the elementwise
    primitives, with far less dispatch overhead on the training hot path.
    """
    rows, width = pre.shape
    has_children = left_mem is not None or right_mem is not None
    gates = GATE_COUNT if has_children else LEAF_GATE_COUNT
    if width % gates != 0:
        raise ShapeError(f"gate block width {width} is not a multiple of {gates}")
    d = width // gates
    for mem in (left_mem, right_mem):
        if mem is not None and mem.shape != (rows, d):
            raise ShapeError(f"memory input shape {mem.shape} vs ({rows}, {d})")
    p = pre.data
    # The sigmoids are 0.5*(1 + tanh(0.5*x)), which stays finite for any x.
    # Every pass but one runs over the whole contiguous block, which numpy
    # does several times faster than over strided column blocks; the
    # candidate block is then overwritten with tanh(x).
    activated = np.multiply(p, 0.5)
    np.tanh(activated, out=activated)
    activated += 1.0
    activated *= 0.5
    cand = activated[:, -d:]
    np.tanh(p[:, -d:], out=cand)
    gate_i = activated[:, :d]
    gate_o = activated[:, -2 * d : -d]
    gate_fl = activated[:, d : 2 * d] if has_children else None
    gate_fr = activated[:, 2 * d : 3 * d] if has_children else None
    left_data = None if left_mem is None else left_mem.data
    right_data = None if right_mem is None else right_mem.data
    c_data = gate_i * cand
    if has_children:
        term = np.empty_like(c_data)
        for gate, mem in ((gate_fl, left_data), (gate_fr, right_data)):
            if mem is not None:
                np.multiply(gate, mem, out=term)
                c_data += term
    tanh_c = np.tanh(c_data)
    h_data = gate_o * tanh_c

    tape = _tape()
    inputs = tuple(t for t in (pre, left_mem, right_mem) if t is not None)
    needs = tape is not None and any(t.requires_grad for t in inputs)
    h = Tensor(h_data, requires_grad=needs)
    c = Tensor(c_data, requires_grad=needs)
    if not needs:
        return h, c

    def pull(gh, gc):
        # total = d(loss)/dc, through h and directly.
        if gh is None:
            total = gc
        else:
            total = tanh_c * tanh_c
            np.subtract(1.0, total, out=total)
            total *= gate_o
            total *= gh
            if gc is not None:
                total += gc
        # Upstream gradient of every gate block, then one pass times the
        # activation derivatives: s*(1-s) for the sigmoids, 1-u*u for the
        # candidate.
        gpre = np.empty_like(p)
        np.multiply(total, cand, out=gpre[:, :d])
        if has_children:
            for block, mem in ((gpre[:, d : 2 * d], left_data), (gpre[:, 2 * d : 3 * d], right_data)):
                if mem is None:
                    block.fill(0.0)
                else:
                    np.multiply(total, mem, out=block)
        if gh is None:
            gpre[:, -2 * d : -d] = 0.0
        else:
            np.multiply(gh, tanh_c, out=gpre[:, -2 * d : -d])
        np.multiply(total, gate_i, out=gpre[:, -d:])
        slope = np.subtract(1.0, activated)
        slope *= activated
        cand_slope = slope[:, -d:]
        np.multiply(cand, cand, out=cand_slope)
        np.subtract(1.0, cand_slope, out=cand_slope)
        gpre *= slope
        grads = [gpre if pre.requires_grad else None]
        for gate, mem in ((gate_fl, left_mem), (gate_fr, right_mem)):
            if mem is not None:
                grads.append(total * gate if mem.requires_grad else None)
        return tuple(grads)

    tape._record((h, c), inputs, pull)
    return h, c


# ---------------------------------------------------------------------------
# Shape plumbing: concat / split / slicing / gathering
# ---------------------------------------------------------------------------


def concat(parts: Sequence[Tensor]) -> Tensor:
    if not parts or any(p.data.ndim != 1 for p in parts):
        raise ShapeError("concat expects one or more vectors")
    sizes = [p.shape[0] for p in parts]
    offsets = np.cumsum([0] + sizes)
    parts = tuple(parts)

    def build():
        def pull(g):
            return tuple(
                g[offsets[i] : offsets[i + 1]] if p.requires_grad else None
                for i, p in enumerate(parts)
            )
        return pull

    return _result(np.concatenate([p.data for p in parts]), parts, build)


def _concat_axis(parts: Sequence[Tensor], axis: int) -> Tensor:
    if not parts or any(p.data.ndim != 2 for p in parts):
        raise ShapeError("matrix concat expects one or more matrices")
    sizes = [p.shape[axis] for p in parts]
    offsets = np.cumsum([0] + sizes)
    parts = tuple(parts)

    def build():
        def pull(g):
            outs = []
            for i, p in enumerate(parts):
                if not p.requires_grad:
                    outs.append(None)
                elif axis == 0:
                    outs.append(g[offsets[i] : offsets[i + 1], :])
                else:
                    outs.append(g[:, offsets[i] : offsets[i + 1]])
            return tuple(outs)
        return pull

    return _result(np.concatenate([p.data for p in parts], axis=axis), parts, build)


def concat_rows(parts: Sequence[Tensor]) -> Tensor:
    return _concat_axis(parts, 0)


def concat_cols(parts: Sequence[Tensor]) -> Tensor:
    return _concat_axis(parts, 1)


def split_last(x: Tensor, parts: int) -> list[Tensor]:
    """Split a vector or matrix into ``parts`` equal chunks along the last
    axis.  One record covers all outputs."""
    width = x.shape[-1]
    if width % parts != 0:
        raise ShapeError(f"split_last: {width} not divisible by {parts}")
    step = width // parts
    chunks = [
        x.data[..., i * step : (i + 1) * step] for i in range(parts)
    ]
    tape = _tape()
    needs = tape is not None and x.requires_grad
    outs = [Tensor(c, requires_grad=needs) for c in chunks]
    if needs:
        shape = x.shape

        def pull(*gs):
            full = np.zeros(shape, dtype=x.data.dtype)
            for i, g in enumerate(gs):
                if g is not None:
                    full[..., i * step : (i + 1) * step] = g
            return (full,)

        tape._record(tuple(outs), (x,), pull)
    return outs


def slice_rows(x: Tensor, start: int, stop: int) -> Tensor:
    if x.data.ndim != 2:
        raise ShapeError("slice_rows expects a matrix")
    if not (0 <= start <= stop <= x.shape[0]):
        raise ShapeError(f"slice_rows: [{start}:{stop}] out of range for {x.shape}")
    shape = x.shape

    def build():
        def pull(g):
            return (RowSpanGrad(start, stop, g, shape),)
        return pull

    return _result(x.data[start:stop], (x,), build)


def pick_row(x: Tensor, index: int) -> Tensor:
    if x.data.ndim != 2:
        raise ShapeError("pick_row expects a matrix")
    shape = x.shape

    def build():
        def pull(g):
            full = np.zeros(shape, dtype=g.dtype)
            full[index] = g
            return (full,)
        return pull

    return _result(x.data[index], (x,), build)


def row_lookup(table: Tensor, indices) -> Tensor:
    """Gather rows of a matrix (or entries of a vector): out[i] =
    table[indices[i]].  The usual embedding lookup, also the child-state
    gather for tree structures and the leaf-gate gather of the tree-LSTM
    weights."""
    idx = np.asarray(indices, dtype=np.intp)
    if table.data.ndim not in (1, 2) or idx.ndim != 1:
        raise ShapeError("row_lookup expects a vector or matrix and a 1-d index array")
    table_data = table.data
    shape = table.shape

    def build():
        def pull(g):
            full = np.zeros(shape, dtype=g.dtype)
            if len(np.unique(idx)) == len(idx):
                full[idx] = g
            else:
                np.add.at(full, idx, g)
            return (full,)
        return pull

    return _result(table_data[idx], (table,), build)


def stack_rows(vectors: Sequence[Tensor]) -> Tensor:
    if not vectors or any(v.data.ndim != 1 for v in vectors):
        raise ShapeError("stack_rows expects one or more vectors")
    vectors = tuple(vectors)

    def build():
        def pull(g):
            return tuple(g[i] if v.requires_grad else None for i, v in enumerate(vectors))
        return pull

    return _result(np.stack([v.data for v in vectors]), vectors, build)


# ---------------------------------------------------------------------------
# Softmax family (normalization asserted on every application)
# ---------------------------------------------------------------------------

def _normalization_tol(dtype) -> float:
    """Allowed |sum - 1| of softmax mass in ``dtype``: 1e-9 in float64, and
    1024 ulps of 1.0 in coarser dtypes, where one ulp already exceeds 1e-9.
    Rounding costs a few ulps in practice, so the bound still catches any
    real loss of mass."""
    return max(1e-9, 1024 * float(np.finfo(dtype).eps))


def _stable_softmax(row: np.ndarray) -> np.ndarray:
    shifted = row - row.max()
    exps = np.exp(shifted)
    out = exps / exps.sum()
    assert abs(out.sum() - 1.0) <= _normalization_tol(out.dtype), "softmax mass must sum to 1"
    return out


def softmax(x: Tensor) -> Tensor:
    if x.data.ndim != 1 or x.shape[0] == 0:
        raise ShapeError(f"softmax expects a non-empty vector, got {x.shape}")
    y = _stable_softmax(x.data)

    def build():
        def pull(g):
            return (y * (g - g @ y),)
        return pull

    return _result(y, (x,), build)


def softmax_rows(x: Tensor) -> Tensor:
    if x.data.ndim != 2:
        raise ShapeError("softmax_rows expects a matrix")
    shifted = x.data - x.data.max(axis=1, keepdims=True)
    exps = np.exp(shifted)
    y = exps / exps.sum(axis=1, keepdims=True)
    assert np.all(np.abs(y.sum(axis=1) - 1.0) <= _normalization_tol(y.dtype))

    def build():
        def pull(g):
            inner = (g * y).sum(axis=1, keepdims=True)
            return (y * (g - inner),)
        return pull

    return _result(y, (x,), build)


def segment_softmax(scores: Tensor, bounds: Sequence[int]) -> Tensor:
    """Softmax independently over contiguous segments [bounds[i], bounds[i+1])."""
    if scores.data.ndim != 1:
        raise ShapeError("segment_softmax expects a vector")
    bounds = list(bounds)
    y = np.empty_like(scores.data)
    for a, b in zip(bounds, bounds[1:]):
        if b <= a:
            raise ShapeError("segment_softmax: empty segment")
        y[a:b] = _stable_softmax(scores.data[a:b])

    def build():
        def pull(g):
            dx = np.empty_like(y)
            for a, b in zip(bounds, bounds[1:]):
                seg_y, seg_g = y[a:b], g[a:b]
                dx[a:b] = seg_y * (seg_g - seg_g @ seg_y)
            return (dx,)
        return pull

    return _result(y, (scores,), build)


def segment_weighted_sum(alpha: Tensor, rows: Tensor, bounds: Sequence[int]) -> Tensor:
    """Per-segment weighted sum of rows; output has one row per segment."""
    if alpha.data.ndim != 1 or rows.data.ndim != 2 or alpha.shape[0] != rows.shape[0]:
        raise ShapeError(f"segment_weighted_sum: {alpha.shape} vs {rows.shape}")
    bounds = list(bounds)
    alpha_data, rows_data = alpha.data, rows.data
    out = np.stack([
        alpha_data[a:b] @ rows_data[a:b] for a, b in zip(bounds, bounds[1:])
    ])
    _add_macs(rows.size)

    def build():
        def pull(g):
            da = np.empty_like(alpha_data) if alpha.requires_grad else None
            dr = np.zeros_like(rows_data) if rows.requires_grad else None
            for i, (a, b) in enumerate(zip(bounds, bounds[1:])):
                if da is not None:
                    da[a:b] = rows_data[a:b] @ g[i]
                if dr is not None:
                    dr[a:b] = np.outer(alpha_data[a:b], g[i])
            return (da, dr)
        return pull

    return _result(out, (alpha, rows), build)


# ---------------------------------------------------------------------------
# Losses
# ---------------------------------------------------------------------------


def cross_entropy(logits: Tensor, gold: int) -> Tensor:
    """Negative log-likelihood of class ``gold`` in log-sum-exp form."""
    if logits.data.ndim != 1:
        raise ShapeError("cross_entropy expects a logit vector")
    if not 0 <= gold < logits.shape[0]:
        raise IndexError(f"gold label {gold} out of range for {logits.shape[0]} classes")
    row = logits.data
    m = row.max()
    lse = m + np.log(np.exp(row - m).sum())
    value = lse - row[gold]
    if not np.isfinite(value):
        raise NumericError("non-finite loss")

    def build():
        def pull(g):
            grad = _stable_softmax(row)
            grad[gold] -= 1.0
            return (grad * g,)
        return pull

    return _result(np.asarray(value), (logits,), build)


def cross_entropy_rows(logits: Tensor, golds) -> Tensor:
    """Mean negative log-likelihood over rows of a (batch, classes) matrix."""
    if logits.data.ndim != 2:
        raise ShapeError("cross_entropy_rows expects a logit matrix")
    golds = np.asarray(golds, dtype=np.intp)
    batch, classes = logits.shape
    if golds.shape != (batch,):
        raise ShapeError(f"cross_entropy_rows: {golds.shape} golds for {batch} rows")
    if golds.min() < 0 or golds.max() >= classes:
        raise IndexError("gold label out of range")
    rows = logits.data
    m = rows.max(axis=1)
    lse = m + np.log(np.exp(rows - m[:, None]).sum(axis=1))
    values = lse - rows[np.arange(batch), golds]
    if not np.all(np.isfinite(values)):
        raise NumericError("non-finite loss")

    def build():
        def pull(g):
            shifted = rows - rows.max(axis=1, keepdims=True)
            exps = np.exp(shifted)
            probs = exps / exps.sum(axis=1, keepdims=True)
            probs[np.arange(batch), golds] -= 1.0
            return (probs * (g / batch),)
        return pull

    return _result(np.asarray(values.mean()), (logits,), build)


# ---------------------------------------------------------------------------
# Dropout
# ---------------------------------------------------------------------------


def dropout(x: Tensor, p: float, train: bool, rng: Optional[np.random.Generator] = None) -> Tensor:
    """Inverted dropout: training masks with probability ``p`` and rescales
    survivors by 1/(1-p); evaluation is the exact identity."""
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
    if not train or p == 0.0:
        return x
    if rng is None:
        raise ValueError("training-mode dropout needs a random generator")
    keep = 1.0 - p
    # Draws stay float64 so a seed gives the same mask in every dtype.
    mask = ((rng.random(x.shape) >= p) / keep).astype(x.data.dtype, copy=False)

    def build():
        def pull(g):
            return (g * mask,)
        return pull

    return _result(x.data * mask, (x,), build)


# ---------------------------------------------------------------------------
# Parameters
# ---------------------------------------------------------------------------


class ParamStore:
    """Named trainable tensors with persistent gradient accumulators."""

    def __init__(self):
        self._params: dict[str, Tensor] = {}

    def add(self, name: str, data) -> Tensor:
        if name in self._params:
            raise ValueError(f"duplicate parameter name: {name!r}")
        tensor = Tensor(data, requires_grad=True, name=name)
        self._params[name] = tensor
        return tensor

    def get(self, name: str) -> Tensor:
        return self._params[name]

    def items(self) -> list[tuple[str, Tensor]]:
        return list(self._params.items())

    def names(self) -> list[str]:
        return list(self._params)

    def __len__(self) -> int:
        return len(self._params)

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def total_size(self) -> int:
        return sum(t.size for t in self._params.values())

    def zero_grad(self) -> None:
        for tensor in self._params.values():
            tensor.grad = None

    def state_dict(self) -> dict[str, np.ndarray]:
        return {name: tensor.data.copy() for name, tensor in self._params.items()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        for name, tensor in self._params.items():
            if name not in state:
                raise KeyError(f"missing parameter in state: {name!r}")
            value = np.asarray(state[name], dtype=tensor.data.dtype)
            if value.shape != tensor.shape:
                raise ShapeError(
                    f"parameter {name!r}: stored shape {value.shape} vs expected {tensor.shape}"
                )
            tensor.data = value.copy()


# ---------------------------------------------------------------------------
# Gradient checking
# ---------------------------------------------------------------------------


@dataclass
class GradCheckReport:
    per_tensor: dict[str, float] = field(default_factory=dict)
    tolerance: float = 1e-4

    @property
    def max_error(self) -> float:
        return max(self.per_tensor.values(), default=0.0)

    @property
    def ok(self) -> bool:
        return self.max_error < self.tolerance


def check_gradients(
    closure: Callable[[], Tensor],
    params: Iterable[tuple[str, Tensor]] | ParamStore,
    epsilon: float = 1e-3,
    tolerance: float = 1e-4,
    max_coords: int = 64,
    rng: Optional[np.random.Generator] = None,
) -> GradCheckReport:
    """Compare analytic gradients of ``closure`` against central finite
    differences, coordinate by coordinate (sampled for large tensors).

    The closure must be deterministic: run dropout in eval mode or with a
    fixed mask.  The checked tensors' ``.grad`` is cleared and then holds
    the analytic gradient.  Per-coordinate error is |a - n| / max(|a|, |n|,
    1), i.e. relative error with a unit-scale guard so near-zero coordinates
    are compared absolutely instead of amplifying truncation noise.
    """
    if isinstance(params, ParamStore):
        params = params.items()
    params = list(params)
    report = GradCheckReport(tolerance=tolerance)
    if not params:
        return report
    rng = rng or np.random.default_rng(0)

    for _, tensor in params:
        tensor.grad = None
    with Tape() as tape:
        loss = closure()
        if loss.requires_grad:
            tape.backward(loss)
    if not np.isfinite(loss.data):
        raise NumericError("non-finite loss during gradient check")

    for name, tensor in params:
        flat = tensor.data.reshape(-1)
        count = flat.size
        coords = (
            np.arange(count)
            if count <= max_coords
            else rng.choice(count, size=max_coords, replace=False)
        )
        grad_flat = np.zeros(count) if tensor.grad is None else tensor.grad.reshape(-1)
        worst = 0.0
        for c in coords:
            original = flat[c]
            flat[c] = original + epsilon
            f_plus = float(closure().data)
            flat[c] = original - epsilon
            f_minus = float(closure().data)
            flat[c] = original
            if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
                raise NumericError(f"non-finite perturbed loss for {name!r}")
            numeric = (f_plus - f_minus) / (2.0 * epsilon)
            a = grad_flat[c]
            err = abs(a - numeric) / max(abs(a), abs(numeric), 1.0)
            worst = max(worst, err)
        report.per_tensor[name] = worst
    return report
