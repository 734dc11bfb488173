"""Hierarchical ngram structures over token sequences.

Every encoder in this package walks one of four unit structures built over a
document: a binarized parse tree, a pyramid of all ngrams, or a left- or
right-branching forest of all ngrams.  Nodes are organized into dependency
levels so that a whole level can be evaluated at once.  An ngram structure
depends only on (kind, length, max order): its span list is built once per
process and shared, and the level-wise encoder reads the rest from the one
child rule, so no node graph is kept per length.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import NamedTuple, Optional, Sequence

from .errors import DataError

STRUCTURE_KINDS = ("tree", "pyramid", "leftforest", "rightforest")


class BracketingError(DataError):
    """Raised for malformed or misaligned bracketed-tree input."""


@dataclass(frozen=True, slots=True)
class Span:
    """A contiguous token range: ``order`` tokens starting at ``start``."""

    start: int
    order: int

    @property
    def end(self) -> int:
        return self.start + self.order

    def covers(self, index: int) -> bool:
        return self.start <= index < self.end

    def overlaps(self, other: "Span") -> bool:
        return self.start < other.end and other.start < self.end


@dataclass(frozen=True, slots=True)
class NgramNode:
    """One unit in a structure: a span plus optional (left, right) children."""

    id: int
    span: Span
    children: Optional[tuple[int, int]]
    level: int

    @property
    def is_leaf(self) -> bool:
        return self.children is None


@dataclass(frozen=True)
class NgramDag:
    kind: str
    token_count: int
    max_order: int
    nodes: tuple[NgramNode, ...]
    levels: tuple[tuple[int, ...], ...]
    spans: tuple[Span, ...]  # spans[i] is nodes[i].span


class NgramShape(NamedTuple):
    """All the level-wise encoder reads of an ngram structure: its kind,
    token count, effective order and span list.  ``NgramDag`` has the same
    fields; the node graph follows from them by ``child_rows``."""

    kind: str
    token_count: int
    max_order: int
    spans: tuple[Span, ...]


@cache
def ngram_spans(n: int, max_order: int) -> tuple[Span, ...]:
    """Every span of order 1..min(max_order, n) over ``n`` tokens, order by
    order and left to right.  This is the unit set of the ngram structures
    and of the CNN bank; ``max_order=1`` gives the BiLSTM's word positions."""
    return tuple(
        Span(start, order)
        for order in range(1, min(max_order, n) + 1)
        for start in range(n - order + 1)
    )


# How each ngram kind composes a span of order k >= 2: its (left, right)
# children are its (k-1)-token prefix or suffix, or its first or last token.
_CHILD_RULES = {
    "pyramid": ("prefix", "suffix"),
    "leftforest": ("prefix", "last"),
    "rightforest": ("first", "suffix"),
}


class ChildRows(NamedTuple):
    """Where one side's child of every span of a level lies: the child of
    the span starting at s is the span (s + shift, order).  ``unigram``
    marks a side whose child is one token at every order of the kind."""

    order: int
    shift: int
    unigram: bool


def child_rows(kind: str, order: int) -> tuple[ChildRows, ChildRows]:
    """The left and right ``ChildRows`` of the spans of ``order`` >= 2 in
    the ngram structure ``kind``: the one child rule that both the DAG
    builder and the level-wise encoder read."""
    parts = {
        "prefix": ChildRows(order - 1, 0, False),
        "suffix": ChildRows(order - 1, 1, False),
        "first": ChildRows(1, 0, True),
        "last": ChildRows(1, order - 1, True),
    }
    left, right = _CHILD_RULES[kind]
    return parts[left], parts[right]


def ngram_shape(kind: str, n: int, max_order: int) -> NgramShape:
    """The shape of the ngram structure ``kind`` over ``n`` tokens:
    ``max_order`` clamped to ``n``, and the shared span list."""
    if n < 1:
        raise ValueError("cannot build a structure over an empty token sequence")
    if kind not in _CHILD_RULES:
        raise ValueError(f"unknown ngram structure kind: {kind!r}")
    if max_order < 1:
        raise ValueError(f"max_order must be >= 1, got {max_order}")
    return NgramShape(kind, n, min(max_order, n), ngram_spans(n, max_order))


def build_structure(
    kind: str,
    tokens: Sequence[str] | int,
    max_order: int,
    parse: Optional[str] = None,
) -> NgramDag:
    """Build the unit structure of the given kind over ``tokens``, with
    every node and its children.

    ``tokens`` may be a bare length when only span structure matters.
    ``max_order`` is clamped to the sentence length for the ngram kinds and
    ignored for ``tree`` (a parse tree contributes whatever phrases its
    bracketing defines).  Node ids are assigned level by level, left to
    right, so ids are deterministic and children always precede parents.
    """
    n = tokens if isinstance(tokens, int) else len(tokens)
    if kind == "tree":
        if n < 1:
            raise ValueError("cannot build a structure over an empty token sequence")
        if parse is None:
            raise BracketingError("tree structure requires a bracketed parse")
        return _build_tree(tokens, n, parse)

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


# ---------------------------------------------------------------------------
# Bracketed binary trees
#
# Format: fully binary, parenthesis-delimited, e.g. ``((w1 w2) (w3 w4))``.
# A single-token sentence is just the bare token.
# ---------------------------------------------------------------------------


def read_bracketing(parse: str, n: int) -> tuple[list[str], list[tuple[int, int, int, int]]]:
    """The leaf words and the internal nodes, children before parents, of a
    strictly binary bracketing over ``n`` tokens.  A node is ``(height,
    start, mid, end)``: it covers tokens start:end, its children start:mid
    and mid:end, and it sits at level ``height`` (leaves are level 1).  One
    left-to-right pass over a stack reads a tree of any depth; a bracketing
    that is not one binary tree, or has other than ``n`` leaves, is a
    ``BracketingError``."""
    leaves: list[str] = []
    nodes: list[tuple[int, int, int, int]] = []
    stack: list = []  # "(" marks and finished subtrees as (start, height)
    for item in parse.replace("(", " ( ").replace(")", " ) ").split():
        if item == "(":
            stack.append(item)
        elif item != ")":
            stack.append((len(leaves), 1))
            leaves.append(item)
        elif len(stack) < 3 or stack[-3] != "(" or "(" in stack[-2:]:
            raise BracketingError("')' does not close a bracket of exactly two subtrees")
        else:
            (start, left_height), (mid, right_height) = stack[-2:]
            height = 1 + max(left_height, right_height)
            nodes.append((height, start, mid, len(leaves)))
            stack[-3:] = [(start, height)]
    if len(stack) != 1 or stack[0] == "(":
        raise BracketingError("bracketing is not a single tree")
    if len(leaves) != n:
        raise BracketingError(f"bracketing has {len(leaves)} leaves but the sentence has {n} tokens")
    return leaves, nodes


def _build_tree(tokens: Sequence[str] | int, n: int, parse: str) -> NgramDag:
    leaves, internal = read_bracketing(parse, n)
    if not isinstance(tokens, int) and [w.lower() for w in leaves] != [t.lower() for t in tokens]:
        raise BracketingError("bracketing leaves do not match the sentence tokens")
    # Ids level by level, then by start, so children always come first.
    nodes = [NgramNode(i, Span(i, 1), None, 1) for i in range(n)]
    id_of = {(i, i + 1): i for i in range(n)}
    for height, start, mid, end in sorted(internal):
        id_of[start, end] = len(nodes)
        children = (id_of[start, mid], id_of[mid, end])
        nodes.append(NgramNode(len(nodes), Span(start, end - start), children, height))
    levels: list[list[int]] = [[] for _ in range(nodes[-1].level)]
    for node in nodes:
        levels[node.level - 1].append(node.id)
    return NgramDag("tree", n, n, tuple(nodes), tuple(map(tuple, levels)),
                    tuple(node.span for node in nodes))


def left_branching_bracketing(tokens: Sequence[str]) -> str:
    """``(((w1 w2) w3) w4)`` style bracketing, handy for tests and demos."""
    if len(tokens) == 1:
        return tokens[0]
    out = tokens[0]
    for tok in tokens[1:]:
        out = f"({out} {tok})"
    return out


def structure_records(dag: NgramDag) -> list[str]:
    """Line-oriented dump: ``id<TAB>start<TAB>order<TAB>leftId<TAB>rightId``
    with -1 for an absent child."""
    lines = []
    for node in dag.nodes:
        left, right = node.children if node.children is not None else (-1, -1)
        lines.append(f"{node.id}\t{node.span.start}\t{node.span.order}\t{left}\t{right}")
    return lines
