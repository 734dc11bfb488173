import numpy as np
import pytest

from multigram.autodiff import ParamStore, Tensor
from multigram.encoders import (
    init_bilstm_params,
    init_cnn_params,
    init_tree_lstm_params,
)


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


def rewrite_checkpoint_header(path, header: dict) -> None:
    """Replace the JSON header of the checkpoint at ``path``, keeping its blobs."""
    import json
    import struct

    blob = json.dumps(header).encode("utf-8")
    raw = path.read_bytes()
    (old_len,) = struct.unpack("<I", raw[8:12])
    path.write_bytes(raw[:8] + struct.pack("<I", len(blob)) + blob + raw[12 + old_len :])
