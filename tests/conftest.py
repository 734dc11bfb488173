from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from multigram.autodiff import ParamStore, Tensor
from multigram.encoders import (
    init_bilstm_params,
    init_cnn_params,
    init_tree_lstm_params,
)
from multigram.model import TextClassifier


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def fresh_tree_params(embed_dim, hidden_dim, seed=0, prefix="encoder"):
    store = ParamStore()
    params = init_tree_lstm_params(
        store, prefix, embed_dim, hidden_dim, np.random.default_rng(seed)
    )
    return store, params


def fresh_bilstm_params(embed_dim, hidden_dim, seed=0):
    store = ParamStore()
    params = init_bilstm_params(store, "encoder", embed_dim, hidden_dim, np.random.default_rng(seed))
    return store, params


def fresh_cnn_params(embed_dim, hidden_dim, max_order, seed=0):
    store = ParamStore()
    params = init_cnn_params(
        store, "encoder", embed_dim, hidden_dim, max_order, np.random.default_rng(seed)
    )
    return store, params


def random_embeddings(n, embed_dim, seed=0, scale=0.5):
    return Tensor(np.random.default_rng(seed).normal(scale=scale, size=(n, embed_dim)))


def random_bracketing(tokens, rng) -> str:
    """A uniformly split random binary bracketing over ``tokens``."""
    if len(tokens) == 1:
        return tokens[0]
    cut = 1 + int(rng.integers(0, len(tokens) - 1))
    left = random_bracketing(tokens[:cut], rng)
    right = random_bracketing(tokens[cut:], rng)
    return f"({left} {right})"


def left_branching_bracketing(tokens) -> str:
    """``(((w1 w2) w3) w4)`` style bracketing."""
    out = tokens[0]
    for tok in tokens[1:]:
        out = f"({out} {tok})"
    return out


def save_corpus(corpus, path) -> None:
    """Write ``corpus`` as the ``label<TAB>text`` TSV that ``load_corpus`` reads."""
    lines = [
        f"{corpus.label_names[label]}\t{' '.join(doc)}"
        for doc, label in zip(corpus.documents, corpus.labels)
    ]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def count_parameters(config) -> int:
    """Exact trainable-parameter count for a model configuration."""
    model = TextClassifier(
        config,
        vocab=None,
        label_names=[f"c{i}" for i in range(config.num_classes)],
        embeddings=Tensor(np.zeros((1, config.embed_dim))),
    )
    return model.parameter_count()


def node_for_span(dag, start, order):
    """The node of ``dag`` covering ``order`` tokens from ``start``."""
    for node in dag.nodes:
        if node.span.start == start and node.span.order == order:
            return node
    raise KeyError(f"no node with span ({start}, {order})")


def level_schedule(dag) -> list[list[int]]:
    """Node-id batches in dependency order; within a batch all nodes are
    mutually independent and every child sits in an earlier batch."""
    return [list(level) for level in dag.levels]


def unfold_tokens(dag, node_id: int) -> Counter:
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


def ngram_text(dag, node_id: int, tokens) -> list[str]:
    """The tokens under node ``node_id`` of ``dag``."""
    node = dag.nodes[node_id]
    return list(tokens[node.span.start : node.span.end])


def rewrite_checkpoint_header(path, header: dict) -> None:
    """Replace the JSON header of the checkpoint at ``path``, keeping its blobs."""
    import json
    import struct

    blob = json.dumps(header).encode("utf-8")
    raw = path.read_bytes()
    (old_len,) = struct.unpack("<I", raw[8:12])
    path.write_bytes(raw[:8] + struct.pack("<I", len(blob)) + blob + raw[12 + old_len :])
