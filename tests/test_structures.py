from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multigram.structures import (
    BracketingError,
    Span,
    build_structure,
    structure_records,
)

from conftest import (
    left_branching_bracketing,
    level_schedule,
    ngram_text,
    node_for_span,
    random_bracketing,
    unfold_tokens,
)
from reference import build_dag, dag_records

TOKENS4 = ["w1", "w2", "w3", "w4"]
NGRAM_KINDS = ("pyramid", "leftforest", "rightforest")


def spans_of(dag):
    return {(node.span.start, node.span.order) for node in dag.nodes}


def children_spans(dag, start, order):
    node = node_for_span(dag, start, order)
    left, right = node.children
    ls, rs = dag.nodes[left].span, dag.nodes[right].span
    return (ls.start, ls.order), (rs.start, rs.order)


def brute_force_spans(n, max_order):
    # Independent enumeration of every contiguous (start, order) window.
    return {
        (i, k)
        for k in range(1, min(max_order, n) + 1)
        for i in range(n - k + 1)
    }


class TestFourTokenInstances:
    """The running w1..w4 example, all four structures."""

    def test_pyramid_shape_and_children(self):
        dag = build_dag("pyramid", TOKENS4, 4)
        assert len(dag.nodes) == 10
        assert [len(level) for level in dag.levels] == [4, 3, 2, 1]
        assert children_spans(dag, 0, 3) == ((0, 2), (1, 2))

    def test_leftforest_children_share_prefix(self):
        dag = build_dag("leftforest", TOKENS4, 4)
        assert spans_of(dag) == brute_force_spans(4, 4)
        assert children_spans(dag, 0, 3) == ((0, 2), (2, 1))

    def test_rightforest_children_share_suffix(self):
        dag = build_dag("rightforest", TOKENS4, 4)
        assert children_spans(dag, 0, 3) == ((0, 1), (1, 2))

    def test_tree_from_bracketing(self):
        dag = build_dag("tree", TOKENS4, 4, parse="((w1 w2) (w3 w4))")
        assert len(dag.nodes) == 2 * 4 - 1
        assert spans_of(dag) == {(0, 1), (1, 1), (2, 1), (3, 1), (0, 2), (2, 2), (0, 4)}

    def test_pyramid_reuses_middle_token_twice(self):
        dag = build_dag("pyramid", TOKENS4, 4)
        node = node_for_span(dag, 0, 3)
        assert unfold_tokens(dag, node.id) == Counter({0: 1, 1: 2, 2: 1})

    def test_leftforest_unfolds_each_token_once(self):
        dag = build_dag("leftforest", TOKENS4, 4)
        node = node_for_span(dag, 0, 3)
        assert unfold_tokens(dag, node.id) == Counter({0: 1, 1: 1, 2: 1})


class TestDegenerateAndClamped:
    def test_single_token(self):
        for kind in NGRAM_KINDS:
            dag = build_dag(kind, ["only"], 7)
            assert len(dag.nodes) == 1
            assert dag.nodes[0].children is None

    def test_order_clamped_to_length(self):
        dag = build_dag("pyramid", ["a", "b", "c", "d", "e"], 3)
        assert len(dag.nodes) == 5 + 4 + 3
        assert dag.max_order == 3

    def test_invalid_max_order(self):
        with pytest.raises(ValueError):
            build_structure("pyramid", TOKENS4, 0)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            build_structure("swamp", TOKENS4, 2)

    def test_unknown_node_id(self):
        dag = build_dag("pyramid", TOKENS4, 2)
        with pytest.raises(KeyError):
            unfold_tokens(dag, 99)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 12), max_order=st.integers(1, 7))
def test_span_sets_agree_across_ngram_kinds(n, max_order):
    expected = brute_force_spans(n, max_order)
    tokens = [f"t{i}" for i in range(n)]
    for kind in NGRAM_KINDS:
        dag = build_dag(kind, tokens, max_order)
        assert spans_of(dag) == expected
        assert len(dag.nodes) == sum(n - k + 1 for k in range(1, min(max_order, n) + 1))


# The child rules as the paper's figures draw them, written out here
# independently of ``structures.child_rows``.
EXPECTED_CHILDREN = {
    "pyramid": lambda s, k: ((s, k - 1), (s + 1, k - 1)),
    "leftforest": lambda s, k: ((s, k - 1), (s + k - 1, 1)),
    "rightforest": lambda s, k: ((s, 1), (s + 1, k - 1)),
}


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 12), max_order=st.integers(1, 8))
def test_every_internal_node_has_the_kinds_children(n, max_order):
    # Read from the records ``dump-structure`` prints: a child id names the
    # record of the child's span.
    for kind, expected in EXPECTED_CHILDREN.items():
        records = [
            tuple(map(int, line.split("\t")))
            for line in structure_records(build_structure(kind, n, max_order))
        ]
        assert [record[0] for record in records] == list(range(len(records)))
        assert {record[1:3] for record in records} == brute_force_spans(n, max_order)
        for _, start, order, left, right in records:
            if order == 1:
                assert (left, right) == (-1, -1)
            else:
                children = (records[left][1:3], records[right][1:3])
                assert children == expected(start, order)


@settings(max_examples=80, deadline=None)
@given(
    kind=st.sampled_from(("tree", *NGRAM_KINDS)),
    n=st.integers(1, 12),
    max_order=st.integers(1, 8),
    seed=st.integers(0, 10_000),
    bare_length=st.booleans(),
)
def test_records_equal_the_node_graphs(kind, n, max_order, seed, bare_length):
    # The program prints a structure from its shape; the oracle walks every
    # node of its node graph.  The two dumps agree byte for byte.
    tokens = [f"t{i}" for i in range(n)]
    parse = random_bracketing(tokens, np.random.default_rng(seed)) if kind == "tree" else None
    source = n if bare_length else tokens
    expected = dag_records(build_dag(kind, source, max_order, parse=parse))
    assert structure_records(build_structure(kind, source, max_order, parse=parse)) == expected


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 10), max_order=st.integers(1, 7))
def test_forest_unfolding_is_exact(n, max_order):
    tokens = [f"t{i}" for i in range(n)]
    for kind in ("leftforest", "rightforest"):
        dag = build_dag(kind, tokens, max_order)
        for node in dag.nodes:
            expected = Counter(range(node.span.start, node.span.end))
            assert unfold_tokens(dag, node.id) == expected


@settings(max_examples=40, deadline=None)
@given(n=st.integers(3, 10), max_order=st.integers(3, 7))
def test_pyramid_duplicates_above_order_two(n, max_order):
    dag = build_dag("pyramid", [f"t{i}" for i in range(n)], max_order)
    for node in dag.nodes:
        counts = unfold_tokens(dag, node.id)
        if node.span.order >= 3:
            assert max(counts.values()) >= 2
        else:
            assert max(counts.values()) == 1
        assert set(counts) == set(range(node.span.start, node.span.end))


@settings(max_examples=30, deadline=None)
@given(n=st.integers(2, 9), seed=st.integers(0, 999))
def test_random_tree_unfolding_is_exact(n, seed):
    tokens = [f"t{i}" for i in range(n)]
    parse = random_bracketing(tokens, np.random.default_rng(seed))
    dag = build_dag("tree", tokens, 7, parse=parse)
    assert len(dag.nodes) == 2 * n - 1
    for node in dag.nodes:
        expected = Counter(range(node.span.start, node.span.end))
        assert unfold_tokens(dag, node.id) == expected


class TestSchedule:
    def test_pyramid_batches(self):
        dag = build_dag("pyramid", TOKENS4, 4)
        assert [len(b) for b in level_schedule(dag)] == [4, 3, 2, 1]

    def test_depth_is_capped_by_max_order(self):
        dag = build_dag("leftforest", [f"t{i}" for i in range(200)], 7)
        assert len(level_schedule(dag)) == 7

    def test_left_branching_tree_depth(self):
        parse = left_branching_bracketing(TOKENS4)
        dag = build_dag("tree", TOKENS4, 4, parse=parse)
        assert [len(b) for b in level_schedule(dag)] == [4, 1, 1, 1]

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 12), max_order=st.integers(1, 7))
    def test_children_precede_their_batch(self, n, max_order):
        tokens = [f"t{i}" for i in range(n)]
        for kind in NGRAM_KINDS:
            dag = build_dag(kind, tokens, max_order)
            batches = level_schedule(dag)
            assert len(batches) == min(max_order, n)
            seen = set()
            for batch in batches:
                for node_id in batch:
                    node = dag.nodes[node_id]
                    if node.children is not None:
                        assert set(node.children) <= seen
                seen.update(batch)

    def test_deterministic_construction(self):
        a = build_structure("leftforest", TOKENS4, 3)
        b = build_structure("leftforest", TOKENS4, 3)
        assert a == b


class TestNgramText:
    def test_inner_bigram(self):
        dag = build_dag("pyramid", list("abcd"), 4)
        assert ngram_text(dag, node_for_span(dag, 1, 2).id, list("abcd")) == ["b", "c"]

    def test_whole_sentence(self):
        dag = build_dag("pyramid", list("abcd"), 4)
        assert ngram_text(dag, node_for_span(dag, 0, 4).id, list("abcd")) == list("abcd")

    def test_last_unigram(self):
        dag = build_dag("pyramid", list("abcd"), 4)
        assert ngram_text(dag, node_for_span(dag, 3, 1).id, list("abcd")) == ["d"]


class TestBracketing:
    def test_malformed(self):
        for bad in ["((a b)", "(a b))", "(a)", "(a b c)", "", "( )"]:
            with pytest.raises(BracketingError):
                build_structure("tree", ["a", "b"], 2, parse=bad)

    def test_leaf_count_mismatch(self):
        with pytest.raises(BracketingError, match="leaves"):
            build_structure("tree", ["a", "b", "c"], 3, parse="(a b)")

    def test_leaf_word_mismatch(self):
        with pytest.raises(BracketingError, match="match"):
            build_structure("tree", ["a", "b"], 2, parse="(a c)")

    def test_tree_requires_parse(self):
        with pytest.raises(BracketingError):
            build_structure("tree", ["a", "b"], 2)

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(1, 10), seed=st.integers(0, 500))
    def test_random_bracketing_round_trip(self, n, seed):
        # A random bracketing of the tokens reads back as those tokens, in order.
        tokens = [f"t{i}" for i in range(n)]
        parse = random_bracketing(tokens, np.random.default_rng(seed))
        dag = build_dag("tree", tokens, 7, parse=parse)
        leaves = [node for node in dag.nodes if node.children is None]
        assert [ngram_text(dag, leaf.id, tokens) for leaf in leaves] == [[t] for t in tokens]
        if n > 1:
            with pytest.raises(BracketingError, match="match"):
                build_structure("tree", tokens[::-1], 7, parse=parse)

    def test_deep_left_branching_tree_builds(self):
        # One level per token: a recursive reader would exceed Python's stack.
        n = 5000
        parse = left_branching_bracketing([f"w{i}" for i in range(n)])
        dag = build_dag("tree", n, 7, parse=parse)
        assert len(dag.levels) == n
        assert dag.nodes[-1].span == Span(0, n)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 60), seed=st.integers(0, 10_000))
    def test_tree_nodes_follow_the_bracketing_rules(self, n, seed):
        """Leaves sit at level 1.  An internal node's span is its left
        child's span followed by its right child's, and its level is one
        more than its higher child's.  Ids run level by level, then by start."""
        parse = random_bracketing([f"t{i}" for i in range(n)], np.random.default_rng(seed))
        dag = build_dag("tree", n, 7, parse=parse)
        assert len(dag.nodes) == 2 * n - 1
        assert [node.id for node in dag.nodes] == list(range(2 * n - 1))
        for node in dag.nodes:
            assert dag.spans[node.id] == node.span
            if node.children is None:
                assert node.level == 1 and node.span.order == 1
                continue
            left, right = (dag.nodes[i] for i in node.children)
            assert left.span.start == node.span.start
            assert right.span.start == left.span.end
            assert right.span.end == node.span.end
            assert node.level == 1 + max(left.level, right.level)
        keys = [(node.level, node.span.start) for node in dag.nodes]
        assert keys == sorted(keys) and len(set(keys)) == len(keys)
        assert dag.levels == tuple(
            tuple(node.id for node in dag.nodes if node.level == level)
            for level in range(1, len(dag.levels) + 1)
        )
        assert [node.span.start for node in dag.nodes if node.children is None] == list(range(n))


def test_structure_records_format():
    records = structure_records(build_structure("pyramid", TOKENS4, 4))
    assert len(records) == 10
    assert records[0] == "0\t0\t1\t-1\t-1"
    # (0, 2) is the first order-2 node: id 4, children are unigrams 0 and 1.
    assert records[4] == "4\t0\t2\t0\t1"
    for record in records:
        assert len(record.split("\t")) == 5
