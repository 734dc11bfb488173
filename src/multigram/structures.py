"""Hierarchical ngram structures over token sequences.

Every encoder in this package walks one of four unit structures built over a
document: a binarized parse tree, a pyramid of all ngrams, or a left- or
right-branching forest of all ngrams.  Nodes are organized into dependency
levels so that a whole level can be evaluated at once.  Span lists and ngram
structures depend only on (kind, length, max order), so they are built once
per process and shared.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cache
from typing import Optional, Sequence

STRUCTURE_KINDS = ("tree", "pyramid", "leftforest", "rightforest")


class BracketingError(ValueError):
    """Raised for malformed or misaligned bracketed-tree input."""


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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

    def node_for_span(self, start: int, order: int) -> NgramNode:
        for node in self.nodes:
            if node.span.start == start and node.span.order == order:
                return node
        raise KeyError(f"no node with span ({start}, {order})")


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


def _ngram_children(kind: str, start: int, order: int) -> tuple[Span, Span]:
    # Child rules for order >= 2.  All three share the same span set but
    # decompose a span differently.
    if kind == "pyramid":
        return Span(start, order - 1), Span(start + 1, order - 1)
    if kind == "leftforest":
        return Span(start, order - 1), Span(start + order - 1, 1)
    if kind == "rightforest":
        return Span(start, 1), Span(start + 1, order - 1)
    raise ValueError(f"unknown ngram structure kind: {kind!r}")


def build_structure(
    kind: str,
    tokens: Sequence[str] | int,
    max_order: int,
    parse: Optional[str] = None,
) -> NgramDag:
    """Build the unit structure of the given kind over ``tokens``.

    ``tokens`` may be a bare length when only span structure matters.
    ``max_order`` is clamped to the sentence length for the ngram kinds and
    ignored for ``tree`` (a parse tree contributes whatever phrases its
    bracketing defines).  Node ids are assigned level by level, left to
    right, so ids are deterministic and children always precede parents.
    """
    n = tokens if isinstance(tokens, int) else len(tokens)
    if n < 1:
        raise ValueError("cannot build a structure over an empty token sequence")
    if kind == "tree":
        if parse is None:
            raise BracketingError("tree structure requires a bracketed parse")
        return _build_tree(tokens, parse)
    if kind not in STRUCTURE_KINDS:
        raise ValueError(f"unknown structure kind: {kind!r}")
    if max_order < 1:
        raise ValueError(f"max_order must be >= 1, got {max_order}")

    effective = min(max_order, n)
    spans = ngram_spans(n, max_order)
    span_ids: dict[Span, int] = {}
    nodes: list[NgramNode] = []
    levels: list[list[int]] = [[] for _ in range(effective)]
    for node_id, span in enumerate(spans):
        children = None
        if span.order > 1:
            left, right = _ngram_children(kind, span.start, span.order)
            children = (span_ids[left], span_ids[right])
        span_ids[span] = node_id
        nodes.append(NgramNode(node_id, span, children, span.order))
        levels[span.order - 1].append(node_id)
    return NgramDag(kind, n, effective, tuple(nodes), tuple(map(tuple, levels)), spans)


@cache
def ngram_dag(kind: str, n: int, max_order: int) -> NgramDag:
    """``build_structure(kind, n, max_order)`` for the ngram kinds, built
    once per process: the structure depends only on its arguments."""
    return build_structure(kind, n, max_order)


def level_schedule(dag: NgramDag) -> list[list[int]]:
    """Node-id batches in dependency order; within a batch all nodes are
    mutually independent and every child sits in an earlier batch."""
    return [list(level) for level in dag.levels]


def unfold_tokens(dag: NgramDag, node_id: int) -> Counter:
    """Leaf-token multiset of the computation tree rooted at ``node_id``,
    expanding shared children fully."""
    if node_id < 0 or node_id >= len(dag.nodes):
        raise KeyError(f"unknown node id: {node_id}")
    memo: dict[int, Counter] = {}
    # Children always have smaller ids, so a single id-ordered sweep works.
    for node in dag.nodes:
        if node.id > node_id:
            break
        if node.children is None:
            memo[node.id] = Counter({node.span.start: 1})
        else:
            left, right = node.children
            memo[node.id] = memo[left] + memo[right]
    return memo[node_id]


def ngram_text(dag: NgramDag, node_id: int, tokens: Sequence[str]) -> list[str]:
    node = dag.nodes[node_id]
    return list(tokens[node.span.start : node.span.end])


# ---------------------------------------------------------------------------
# Bracketed binary trees
#
# Format: fully binary, parenthesis-delimited, e.g. ``((w1 w2) (w3 w4))``.
# A single-token sentence is just the bare token.
# ---------------------------------------------------------------------------


def _tokenize_bracketing(text: str) -> list[str]:
    return text.replace("(", " ( ").replace(")", " ) ").split()


def _parse_node(items: list[str], pos: int):
    """Returns (subtree, next_pos); a subtree is either a leaf word or a
    (left, right) pair."""
    if pos >= len(items):
        raise BracketingError("unexpected end of bracketing")
    item = items[pos]
    if item == "(":
        left, pos = _parse_node(items, pos + 1)
        right, pos = _parse_node(items, pos)
        if pos >= len(items) or items[pos] != ")":
            raise BracketingError("expected ')' closing a binary node")
        return (left, right), pos + 1
    if item == ")":
        raise BracketingError("unexpected ')'")
    return item, pos + 1


def parse_bracketing(text: str) -> object:
    """Parse a fully binary bracketed tree; leaves are whitespace tokens."""
    items = _tokenize_bracketing(text)
    if not items:
        raise BracketingError("empty bracketing")
    tree, pos = _parse_node(items, 0)
    if pos != len(items):
        raise BracketingError("trailing content after bracketing")
    return tree


def bracketing_leaves(tree: object) -> list[str]:
    if isinstance(tree, tuple):
        return bracketing_leaves(tree[0]) + bracketing_leaves(tree[1])
    return [tree]  # type: ignore[list-item]


def _build_tree(tokens: Sequence[str] | int, parse: str) -> NgramDag:
    tree = parse_bracketing(parse)
    leaves = bracketing_leaves(tree)
    n = tokens if isinstance(tokens, int) else len(tokens)
    if len(leaves) != n:
        raise BracketingError(
            f"bracketing has {len(leaves)} leaves but the sentence has {n} tokens"
        )
    if not isinstance(tokens, int):
        if [w.lower() for w in leaves] != [t.lower() for t in tokens]:
            raise BracketingError("bracketing leaves do not match the sentence tokens")

    # First pass: collect (span, children-as-spans, level) bottom-up.
    entries: dict[Span, tuple[Optional[tuple[Span, Span]], int]] = {}

    def walk(sub, start: int) -> tuple[Span, int]:
        if not isinstance(sub, tuple):
            span = Span(start, 1)
            entries[span] = (None, 1)
            return span, start + 1
        left_span, nxt = walk(sub[0], start)
        right_span, nxt = walk(sub[1], nxt)
        span = Span(start, nxt - start)
        if span in entries:
            raise BracketingError(f"duplicate span {span} in bracketing")
        level = 1 + max(entries[left_span][1], entries[right_span][1])
        entries[span] = ((left_span, right_span), level)
        return span, nxt

    walk(tree, 0)

    ordered = sorted(entries.items(), key=lambda kv: (kv[1][1], kv[0].start))
    span_ids = {span: idx for idx, (span, _) in enumerate(ordered)}
    nodes = []
    max_level = ordered[-1][1][1]
    levels: list[list[int]] = [[] for _ in range(max_level)]
    for span, (child_spans, level) in ordered:
        node_id = span_ids[span]
        children = None
        if child_spans is not None:
            children = (span_ids[child_spans[0]], span_ids[child_spans[1]])
        nodes.append(NgramNode(node_id, span, children, level))
        levels[level - 1].append(node_id)
    return NgramDag(
        "tree", n, max(span.order for span in entries), tuple(nodes),
        tuple(tuple(level) for level in levels), tuple(node.span for node in nodes),
    )


def left_branching_bracketing(tokens: Sequence[str]) -> str:
    """``(((w1 w2) w3) w4)`` style bracketing, handy for tests and demos."""
    if len(tokens) == 1:
        return tokens[0]
    out = tokens[0]
    for tok in tokens[1:]:
        out = f"({out} {tok})"
    return out


def random_bracketing(tokens: Sequence[str], rng) -> str:
    """A uniformly split random binary bracketing over ``tokens``."""
    if len(tokens) == 1:
        return tokens[0]
    cut = 1 + int(rng.integers(0, len(tokens) - 1))
    left = random_bracketing(tokens[:cut], rng)
    right = random_bracketing(tokens[cut:], rng)
    return f"({left} {right})"


def structure_records(dag: NgramDag) -> list[str]:
    """Line-oriented dump: ``id<TAB>start<TAB>order<TAB>leftId<TAB>rightId``
    with -1 for an absent child."""
    lines = []
    for node in dag.nodes:
        left, right = node.children if node.children is not None else (-1, -1)
        lines.append(f"{node.id}\t{node.span.start}\t{node.span.order}\t{left}\t{right}")
    return lines
