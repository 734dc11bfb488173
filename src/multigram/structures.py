"""Hierarchical ngram structures over token sequences.

Every encoder in this package walks one of four unit structures built over a
document: a binarized parse tree, a pyramid of all ngrams, or a left- or
right-branching forest of all ngrams.  Nodes are organized into dependency
levels so that a whole level can be evaluated at once.  A structure is an
``NgramShape``: the encoders read it, and ``dump-structure`` prints it.  An
ngram structure depends only on (kind, length, max order): its span list is
built once per process and shared, and its children follow from the one
child rule.  A parse tree's shape lists its child ids per level.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import NamedTuple, Optional, Sequence

from .errors import DataError


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


class NgramShape(NamedTuple):
    """All the level-wise encoder reads of a structure: its kind, token
    count, effective order and span list in node-id order.  A parse tree
    adds, per level above the leaves, the ids of its nodes' left and right
    children; an ngram kind's children follow from ``child_rows``, so its
    ``children`` is empty."""

    kind: str
    token_count: int
    max_order: int
    spans: tuple[Span, ...]
    children: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...] = ()


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
NGRAM_KINDS = tuple(_CHILD_RULES)
STRUCTURE_KINDS = ("tree", *NGRAM_KINDS)


class ChildRows(NamedTuple):
    """Where one side's child of every span of a level lies: the child of
    the span starting at s is the span (s + shift, order).  ``unigram``
    marks a side whose child is one token at every order of the kind."""

    order: int
    shift: int
    unigram: bool


def child_rows(kind: str, order: int) -> tuple[ChildRows, ChildRows]:
    """The left and right ``ChildRows`` of the spans of ``order`` >= 2 in
    the ngram structure ``kind``: the one child rule that both the
    level-wise encoder and ``structure_records`` read."""
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
) -> NgramShape:
    """The shape of the structure ``kind`` over ``tokens``, or over a bare
    length: ``tree_shape`` of ``parse`` for a tree (which ignores
    ``max_order``), else ``ngram_shape``."""
    if kind == "tree":
        return tree_shape(parse, tokens)
    return ngram_shape(kind, tokens if isinstance(tokens, int) else len(tokens), max_order)


def structure_records(shape: NgramShape) -> list[str]:
    """Line-oriented dump: ``id<TAB>start<TAB>order<TAB>leftId<TAB>rightId``
    with -1 for an absent child.  Ids are positions in ``shape.spans``: an
    ngram span (s, k) has id ``offset[k] + s``, and a tree lists its
    children's ids."""
    n = shape.token_count
    if shape.kind == "tree":
        children = [(-1, -1)] * n + [pair for level in shape.children for pair in zip(*level)]
    else:
        offset = [0, 0]  # offset[k]: the id of the span (0, k)
        for order in range(1, shape.max_order):
            offset.append(offset[-1] + n - order + 1)
        children = [
            (-1, -1) if span.order == 1 else tuple(
                offset[side.order] + span.start + side.shift
                for side in child_rows(shape.kind, span.order)
            )
            for span in shape.spans
        ]
    return [
        f"{node_id}\t{span.start}\t{span.order}\t{left}\t{right}"
        for node_id, (span, (left, right)) in enumerate(zip(shape.spans, children))
    ]


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


def tree_shape(parse: Optional[str], tokens: Sequence[str] | int) -> NgramShape:
    """The shape of the parse tree ``parse`` over ``tokens``, or over a bare
    length, whose leaf words are then not compared.  Node ids run leaves
    first, then level by level and left to right, so children precede
    parents; a node's level is one more than its higher child's."""
    n = tokens if isinstance(tokens, int) else len(tokens)
    if n < 1:
        raise ValueError("cannot build a structure over an empty token sequence")
    if parse is None:
        raise BracketingError("tree structure requires a bracketed parse")
    leaves, internal = read_bracketing(parse, n)
    if not isinstance(tokens, int) and [w.lower() for w in leaves] != [t.lower() for t in tokens]:
        raise BracketingError("bracketing leaves do not match the sentence tokens")
    spans = list(ngram_spans(n, 1))
    id_of = {(i, i + 1): i for i in range(n)}
    children: list[tuple[list[int], list[int]]] = []
    for height, start, mid, end in sorted(internal):
        if height > len(children) + 1:
            children.append(([], []))
        id_of[start, end] = len(spans)
        spans.append(Span(start, end - start))
        children[-1][0].append(id_of[start, mid])
        children[-1][1].append(id_of[mid, end])
    return NgramShape("tree", n, n, tuple(spans), tuple(tuple(map(tuple, c)) for c in children))
