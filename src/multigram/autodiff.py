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

import itertools
import threading
from typing import Callable, Optional, Sequence

import numpy as np


class ShapeError(ValueError):
    """Operand shapes are incompatible with the requested primitive."""


class NumericError(RuntimeError):
    """A non-finite value appeared where finite arithmetic was required."""


class _ActiveTapes(threading.local):
    """Each thread's active tapes, innermost last: a primitive records on
    the innermost tape of the thread that runs it, so one thread's forward
    pass never records on a tape another thread has active."""

    def __init__(self):
        self.stack: list["Tape"] = []


_ACTIVE = _ActiveTapes()
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
_serials = itertools.count()


class Tensor:
    """A numpy array with an optional gradient.  ``key`` is a serial number
    unique in the process; tapes use it, not ``id()``, because CPython
    reuses the id of a freed tensor."""

    __slots__ = ("data", "grad", "requires_grad", "name", "key")

    def __init__(self, data, requires_grad: bool = False, name: Optional[str] = None):
        self.key = next(_serials)
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
    """Ordered record of primitive applications for one forward pass.

    A record keeps the serial key of each output and, per input, its key
    and ``requires_grad`` flag; it holds an input ``Tensor`` only when that
    input was not produced on this tape (a parameter or another leaf, whose
    ``.grad`` backward writes).  Each record's pull closure holds only the
    arrays and flags its gradient formula reads, so an intermediate array
    that no formula reads (a gate pre-activation, a concatenation) is freed
    as soon as the forward pass drops it.  ``backward`` releases each record
    as soon as it has consumed it, so the arrays a pull kept are freed
    during the backward pass.  ``len(tape)`` counts the records recorded on
    the tape, and backward does not lower it.
    """

    def __init__(self):
        # Each record: (output keys, input sources, pull function), where a
        # source is (key, requires_grad, leaf tensor or None).  pull receives
        # one output gradient per output (None if unused) and returns one
        # gradient per input (None to skip).
        self._records: list[tuple[tuple[int, ...], tuple, Callable]] = []
        self._produced: set[int] = set()
        self._released = 0

    def __enter__(self) -> "Tape":
        _ACTIVE.stack.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        popped = _ACTIVE.stack.pop()
        assert popped is self

    def _record(self, outputs: tuple[Tensor, ...], inputs: tuple[Tensor, ...], pull) -> None:
        produced = self._produced
        sources = tuple(
            (t.key, t.requires_grad,
             t if t.requires_grad and t.key not in produced else None)
            for t in inputs
        )
        out_keys = tuple(t.key for t in outputs)
        produced.update(out_keys)
        self._records.append((out_keys, sources, pull))

    def __len__(self) -> int:
        return len(self._records) + self._released

    def backward(self, loss: Tensor, seed: float = 1.0) -> None:
        """Propagate d(seed * loss)/d(tensor) to every recorded tensor.

        Gradients for leaf tensors (those not produced on this tape) are
        summed over the whole pass and then added into ``tensor.grad``, so
        successive calls accumulate.  Each record that passes a gradient on
        is released as soon as its pull has run; records the loss does not
        reach stay for a later backward.  A backward that needs a record an
        earlier one released is a ``ValueError``.
        """
        if loss.shape != ():
            raise ShapeError(f"backward needs a scalar loss, got shape {loss.shape}")
        if loss.key not in self._produced:
            raise ValueError("loss was not produced under this tape")
        grads: dict[int, object] = {loss.key: np.asarray(seed, dtype=loss.data.dtype)}
        leaves: dict[int, Tensor] = {}
        records = self._records
        released = 0
        try:
            for index in range(len(records) - 1, -1, -1):
                out_keys, sources, pull = records[index]
                out_grads = []
                missing = True
                for key in out_keys:
                    g = grads.pop(key, None)
                    if isinstance(g, RowSpanGrad):
                        g = g.densify()
                    if g is not None:
                        missing = False
                    out_grads.append(g)
                if missing:
                    continue
                records[index] = None
                released += 1
                in_grads = pull(*out_grads)
                del pull
                for (key, needs_grad, leaf), grad in zip(sources, in_grads):
                    if grad is None or not needs_grad:
                        continue
                    # Pulls hand over ownership: each returned array is fresh,
                    # a dead buffer, or a view disjoint from its siblings, so
                    # the accumulator may store and mutate it without copying.
                    _accumulate_grad(grads, key, grad)
                    if leaf is not None:
                        leaves[key] = leaf
                del in_grads, out_grads
        finally:
            # Also when a pull raises: no hole is left among the records,
            # and len(tape) still counts every one.
            if released:
                self._records = [record for record in records if record is not None]
                self._released += released
        if len(grads) != len(leaves):
            # A gradient is left for a value produced on this tape whose
            # record an earlier backward consumed.
            raise ValueError("backward needs records that an earlier backward released")
        for key, tensor in leaves.items():
            grad = grads[key]
            if isinstance(grad, RowSpanGrad):
                grad = grad.densify()
            if tensor.grad is None:
                tensor.grad = grad
            else:
                tensor.grad += grad


def _results(datas: Sequence[np.ndarray], inputs: Sequence[Tensor], pull) -> tuple[Tensor, ...]:
    """Wrap each array of ``datas``; record ``pull`` for all of them when a
    tape is active and any input participates in differentiation."""
    tapes = _ACTIVE.stack
    tape = tapes[-1] if tapes else None
    needs = tape is not None and any(t.requires_grad for t in inputs)
    outs = tuple(Tensor(data, requires_grad=needs) for data in datas)
    if needs:
        tape._record(outs, tuple(inputs), pull)
    return outs


def _result(data: np.ndarray, inputs: Sequence[Tensor], pull) -> Tensor:
    """``_results`` for a primitive with one output."""
    return _results((data,), inputs, pull)[0]


def _check_same_shape(a: Tensor, b: Tensor, op: str) -> None:
    if a.shape != b.shape:
        raise ShapeError(f"{op}: shape mismatch {a.shape} vs {b.shape}")


# ---------------------------------------------------------------------------
# Elementwise and reduction primitives
# ---------------------------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b, "add")
    both = a.requires_grad and b.requires_grad

    def pull(g):
        # Distinct arrays when both take a gradient: the sinks must not alias.
        return (g, g.copy() if both else g)

    return _result(a.data + b.data, (a, b), pull)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b, "mul")
    # Each operand's gradient reads the other one; keep only those read.
    b_kept = b.data if a.requires_grad else None
    a_kept = a.data if b.requires_grad else None

    def pull(g):
        return (
            None if b_kept is None else g * b_kept,
            None if a_kept is None else g * a_kept,
        )

    return _result(a.data * b.data, (a, b), pull)


def scale(x: Tensor, factor: float) -> Tensor:
    def pull(g):
        return (g * factor,)

    return _result(x.data * factor, (x,), pull)


def sigmoid(x: Tensor) -> Tensor:
    # tanh form stays finite for any input, unlike 1/(1+exp(-x)).
    s = 0.5 * (1.0 + np.tanh(0.5 * x.data))

    def pull(g):
        return (g * s * (1.0 - s),)

    return _result(s, (x,), pull)


def tanh(x: Tensor) -> Tensor:
    t = np.tanh(x.data)

    def pull(g):
        return (g * (1.0 - t * t),)

    return _result(t, (x,), pull)


def sum_all(x: Tensor) -> Tensor:
    shape = x.shape

    def pull(g):
        return (np.full(shape, g, dtype=g.dtype),)

    return _result(np.asarray(x.data.sum()), (x,), pull)


def dot(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 1 or b.data.ndim != 1 or a.shape != b.shape:
        raise ShapeError(f"dot: need equal-length vectors, got {a.shape} and {b.shape}")
    b_kept = b.data if a.requires_grad else None
    a_kept = a.data if b.requires_grad else None
    _add_macs(a.size)

    def pull(g):
        return (
            None if b_kept is None else g * b_kept,
            None if a_kept is None else g * a_kept,
        )

    return _result(np.asarray(a.data @ b.data), (a, b), pull)


# ---------------------------------------------------------------------------
# Linear algebra
# ---------------------------------------------------------------------------


def matvec(w: Tensor, x: Tensor) -> Tensor:
    if w.data.ndim != 2 or x.data.ndim != 1 or w.shape[1] != x.shape[0]:
        raise ShapeError(f"matvec: incompatible shapes {w.shape} @ {x.shape}")
    x_kept = x.data if w.requires_grad else None
    w_kept = w.data if x.requires_grad else None
    _add_macs(w.shape[0] * w.shape[1])

    def pull(g):
        return (
            None if x_kept is None else np.outer(g, x_kept),
            None if w_kept is None else w_kept.T @ g,
        )

    return _result(w.data @ x.data, (w, x), pull)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: incompatible shapes {a.shape} @ {b.shape}")
    b_kept = b.data if a.requires_grad else None
    a_kept = a.data if b.requires_grad else None
    _add_macs(a.shape[0] * a.shape[1] * b.shape[1])

    def pull(g):
        return (
            None if b_kept is None else g @ b_kept.T,
            None if a_kept is None else a_kept.T @ g,
        )

    return _result(a.data @ b.data, (a, b), pull)


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
    out = x.data @ w.data.T
    if bias is not None:
        out += bias.data
    if addend is not None:
        if addend.shape != out.shape:
            raise ShapeError(f"linear_rows: addend shape {addend.shape} vs {out.shape}")
        out += addend.data
    _add_macs(x.shape[0] * x.shape[1] * w.shape[0])
    inputs = tuple(t for t in (x, w, bias, addend) if t is not None)
    # dx reads w and dw reads x; neither reads the output.
    w_kept = w.data if x.requires_grad else None
    x_kept = x.data if w.requires_grad else None
    has_bias, has_addend = bias is not None, addend is not None

    def pull(g):
        parts = [
            None if w_kept is None else g @ w_kept,
            None if x_kept is None else g.T @ x_kept,
        ]
        if has_bias:
            parts.append(g.sum(axis=0))
        if has_addend:
            parts.append(g)
        return tuple(parts)

    return _result(out, inputs, pull)


def weighted_sum(alpha: Tensor, rows: Tensor) -> Tensor:
    """Convex-ish combination of matrix rows: sum_i alpha_i * rows_i."""
    if alpha.data.ndim != 1 or rows.data.ndim != 2 or alpha.shape[0] != rows.shape[0]:
        raise ShapeError(f"weighted_sum: {alpha.shape} vs {rows.shape}")
    rows_kept = rows.data if alpha.requires_grad else None
    alpha_kept = alpha.data if rows.requires_grad else None
    _add_macs(rows.size)

    def pull(g):
        return (
            None if rows_kept is None else rows_kept @ g,
            None if alpha_kept is None else np.outer(alpha_kept, g),
        )

    return _result(alpha.data @ rows.data, (alpha, rows), pull)


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
    # dx reads the filters and dw the input windows.
    w_kept = w_data if x.requires_grad else None
    x_kept = x_data if w.requires_grad else None
    x_spec, w_spec = (x.shape, x_data.dtype), (w.shape, w_data.dtype)
    bias_grad = bias.requires_grad

    def pull(g):
        dx = None if w_kept is None else np.zeros(*x_spec)
        # Every filter block is written exactly once, so no zeroing.
        dw = None if x_kept is None else np.empty(*w_spec)
        for offset in range(order):
            if dx is not None:
                dx[offset : offset + m] += g @ w_kept[offset * e : (offset + 1) * e].T
            if dw is not None:
                dw[offset * e : (offset + 1) * e] = x_kept[offset : offset + m].T @ g
        db = g.sum(axis=0) if bias_grad else None
        return (dx, dw, db)

    return _result(out, (x, w, bias), pull)


def gate_count(memories: int) -> int:
    """Gate blocks of an LSTM cell with ``memories`` memory inputs: three
    live gates and one forget gate per memory input."""
    return 3 + memories


def tree_cell_gates(pre: Tensor, mems: Sequence[Tensor]) -> tuple[Tensor, Tensor]:
    """Fused LSTM cell for a batch of rows with k = len(mems) memory inputs:
    Tai et al.'s N-ary tree-LSTM (arXiv 1503.00075), with k = 0 at tree
    leaves, 1 for a chain-LSTM step and 2 at binary tree nodes.

    ``pre`` holds the stacked gate pre-activations, (rows, (3 + k)d), in the
    block order input, output, candidate, forget_1 .. forget_k; the live
    gates lead, so a cell with fewer memory inputs runs on a leading row
    slice of the same weights.  ``mems`` are the (rows, d) memory inputs: a
    tree node's children's hidden or memory vectors, a chain step's
    previous memory, nothing at a leaf.  Computes

        i, o, f_j = sigmoid(pre gates), u = tanh(candidate pre-activation)
        c = i*u + f_1*mems[1] + ... + f_k*mems[k]
        h = o * tanh(c)

    in one tape record; identical results to composing the elementwise
    primitives, with far less dispatch overhead on the training hot path.
    """
    rows, width = pre.shape
    gates = gate_count(len(mems))
    if width % gates != 0:
        raise ShapeError(f"gate block width {width} is not a multiple of {gates}")
    d = width // gates
    for mem in mems:
        if mem.shape != (rows, d):
            raise ShapeError(f"memory input shape {mem.shape} vs ({rows}, {d})")
    p = pre.data
    mem_datas = tuple(mem.data for mem in mems)
    # The sigmoids are 0.5*(1 + tanh(0.5*x)), which stays finite for any x.
    # Every pass but one runs over the whole contiguous block, which numpy
    # does several times faster than over strided column blocks; the
    # candidate block is then overwritten with tanh(x).
    activated = np.multiply(p, 0.5)
    np.tanh(activated, out=activated)
    activated += 1.0
    activated *= 0.5
    cand = activated[:, 2 * d : 3 * d]
    np.tanh(p[:, 2 * d : 3 * d], out=cand)
    gate_i = activated[:, :d]
    gate_o = activated[:, d : 2 * d]
    forgets = [activated[:, (3 + j) * d : (4 + j) * d] for j in range(len(mems))]
    c_data = gate_i * cand
    term = np.empty_like(c_data)
    for gate, mem in zip(forgets, mem_datas):
        np.multiply(gate, mem, out=term)
        c_data += term
    tanh_c = np.tanh(c_data)
    h_data = gate_o * tanh_c
    # The pull reads the activations, tanh(c) and the memory inputs, never
    # the pre-activations or c.
    pre_grad = pre.requires_grad
    mem_grads = tuple(mem.requires_grad for mem in mems)

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
        gpre = np.empty_like(activated)
        np.multiply(total, cand, out=gpre[:, :d])
        if gh is None:
            gpre[:, d : 2 * d] = 0.0
        else:
            np.multiply(gh, tanh_c, out=gpre[:, d : 2 * d])
        np.multiply(total, gate_i, out=gpre[:, 2 * d : 3 * d])
        for j, mem in enumerate(mem_datas):
            np.multiply(total, mem, out=gpre[:, (3 + j) * d : (4 + j) * d])
        slope = np.subtract(1.0, activated)
        slope *= activated
        cand_slope = slope[:, 2 * d : 3 * d]
        np.multiply(cand, cand, out=cand_slope)
        np.subtract(1.0, cand_slope, out=cand_slope)
        gpre *= slope
        return (
            gpre if pre_grad else None,
            *(total * gate if wanted else None for gate, wanted in zip(forgets, mem_grads)),
        )

    return _results((h_data, c_data), (pre, *mems), pull)


# ---------------------------------------------------------------------------
# Shape plumbing: concat / split / slicing / gathering
# ---------------------------------------------------------------------------


def concat(parts: Sequence[Tensor]) -> Tensor:
    if not parts or any(p.data.ndim != 1 for p in parts):
        raise ShapeError("concat expects one or more vectors")
    sizes = [p.shape[0] for p in parts]
    offsets = np.cumsum([0] + sizes)
    parts = tuple(parts)
    wanted = tuple(p.requires_grad for p in parts)

    def pull(g):
        return tuple(
            g[offsets[i] : offsets[i + 1]] if grad else None for i, grad in enumerate(wanted)
        )

    return _result(np.concatenate([p.data for p in parts]), parts, pull)


def _concat_axis(parts: Sequence[Tensor], axis: int) -> Tensor:
    if not parts or any(p.data.ndim != 2 for p in parts):
        raise ShapeError("matrix concat expects one or more matrices")
    sizes = [p.shape[axis] for p in parts]
    offsets = np.cumsum([0] + sizes)
    parts = tuple(parts)
    wanted = tuple(p.requires_grad for p in parts)

    def pull(g):
        outs = []
        for i, grad in enumerate(wanted):
            if not grad:
                outs.append(None)
            elif axis == 0:
                outs.append(g[offsets[i] : offsets[i + 1], :])
            else:
                outs.append(g[:, offsets[i] : offsets[i + 1]])
        return tuple(outs)

    return _result(np.concatenate([p.data for p in parts], axis=axis), parts, pull)


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
    shape, dtype = x.shape, x.data.dtype

    def pull(*gs):
        full = np.zeros(shape, dtype=dtype)
        for i, g in enumerate(gs):
            if g is not None:
                full[..., i * step : (i + 1) * step] = g
        return (full,)

    return list(_results(chunks, (x,), pull))


def slice_rows(x: Tensor, start: int, stop: int) -> Tensor:
    """Rows [start, stop) of a matrix, or entries of a vector, as a view."""
    if x.data.ndim not in (1, 2):
        raise ShapeError("slice_rows expects a vector or matrix")
    if not (0 <= start <= stop <= x.shape[0]):
        raise ShapeError(f"slice_rows: [{start}:{stop}] out of range for {x.shape}")
    shape = x.shape

    def pull(g):
        return (RowSpanGrad(start, stop, g, shape),)

    return _result(x.data[start:stop], (x,), pull)


def pick_row(x: Tensor, index: int) -> Tensor:
    if x.data.ndim != 2:
        raise ShapeError("pick_row expects a matrix")
    shape = x.shape

    def pull(g):
        full = np.zeros(shape, dtype=g.dtype)
        full[index] = g
        return (full,)

    return _result(x.data[index], (x,), pull)


def row_lookup(table: Tensor, indices) -> Tensor:
    """Gather rows of a matrix: out[i] = table[indices[i]].  The usual
    embedding lookup, also the child-state gather for tree structures."""
    idx = np.asarray(indices, dtype=np.intp)
    if table.data.ndim != 2 or idx.ndim != 1:
        raise ShapeError("row_lookup expects a matrix and a 1-d index array")
    table_data = table.data
    shape = table.shape

    def pull(g):
        full = np.zeros(shape, dtype=g.dtype)
        if len(np.unique(idx)) == len(idx):
            full[idx] = g
        else:
            np.add.at(full, idx, g)
        return (full,)

    return _result(table_data[idx], (table,), pull)


def stack_rows(vectors: Sequence[Tensor]) -> Tensor:
    if not vectors or any(v.data.ndim != 1 for v in vectors):
        raise ShapeError("stack_rows expects one or more vectors")
    vectors = tuple(vectors)
    wanted = tuple(v.requires_grad for v in vectors)

    def pull(g):
        return tuple(g[i] if grad else None for i, grad in enumerate(wanted))

    return _result(np.stack([v.data for v in vectors]), vectors, pull)


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

    def pull(g):
        return (y * (g - g @ y),)

    return _result(y, (x,), pull)


def softmax_rows(x: Tensor) -> Tensor:
    if x.data.ndim != 2:
        raise ShapeError("softmax_rows expects a matrix")
    shifted = x.data - x.data.max(axis=1, keepdims=True)
    exps = np.exp(shifted)
    y = exps / exps.sum(axis=1, keepdims=True)
    assert np.all(np.abs(y.sum(axis=1) - 1.0) <= _normalization_tol(y.dtype))

    def pull(g):
        inner = (g * y).sum(axis=1, keepdims=True)
        return (y * (g - inner),)

    return _result(y, (x,), pull)


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

    def pull(g):
        dx = np.empty_like(y)
        for a, b in zip(bounds, bounds[1:]):
            seg_y, seg_g = y[a:b], g[a:b]
            dx[a:b] = seg_y * (seg_g - seg_g @ seg_y)
        return (dx,)

    return _result(y, (scores,), pull)


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
    rows_kept = rows_data if alpha.requires_grad else None
    alpha_kept = alpha_data if rows.requires_grad else None
    alpha_spec, rows_spec = (alpha.shape, alpha_data.dtype), (rows.shape, rows_data.dtype)

    def pull(g):
        da = None if rows_kept is None else np.empty(*alpha_spec)
        dr = None if alpha_kept is None else np.zeros(*rows_spec)
        for i, (a, b) in enumerate(zip(bounds, bounds[1:])):
            if da is not None:
                da[a:b] = rows_kept[a:b] @ g[i]
            if dr is not None:
                dr[a:b] = np.outer(alpha_kept[a:b], g[i])
        return (da, dr)

    return _result(out, (alpha, rows), pull)


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

    def pull(g):
        grad = _stable_softmax(row)
        grad[gold] -= 1.0
        return (grad * g,)

    return _result(np.asarray(value), (logits,), pull)


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

    def pull(g):
        shifted = rows - rows.max(axis=1, keepdims=True)
        exps = np.exp(shifted)
        probs = exps / exps.sum(axis=1, keepdims=True)
        probs[np.arange(batch), golds] -= 1.0
        return (probs * (g / batch),)

    return _result(np.asarray(values.mean()), (logits,), pull)


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
    # Draws stay float64 so a seed gives the same mask in every dtype.  The
    # tape keeps the boolean mask and one scalar: (v * kept) * scale has the
    # same bits as v times the float mask 0 or scale.
    kept = rng.random(x.shape) >= p
    scale = x.data.dtype.type(1.0 / (1.0 - p))

    def pull(g):
        grad = g * kept
        grad *= scale
        return (grad,)

    out = x.data * kept
    out *= scale
    return _result(out, (x,), pull)


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
