"""The benchmark's workloads.

Each workload trains one encoder in a fresh process, so no encoder inherits
another's warmed-up interpreter, BLAS threads or grown heap.
"""
from __future__ import annotations

from dataclasses import dataclass

MAX_ORDER = 7
HIDDEN_DIM = 100
# The CLI's default evidence threshold.
THRESHOLD = 0.05
# The split seed is fixed, so every benchmark seed splits the same document
# lengths into train, dev and test (see inputs.py); the benchmark seed
# drives the corpus content and the model's initialisation, dropout and
# shuffling.
SPLIT_SEED = 0
# Training epochs per round; patience equals it, so there is no early stop.
EPOCHS = 1

# Document lengths, each used once per class (see inputs.py).
# 200 documents of exactly 200 tokens; the 2:1:1 split trains on 100 of them,
# two full batches of 50.
REF_LENGTHS = (200,) * 40
# Two documents of every length from 8 to 64 tokens per class, 570 in all;
# the 3:1:2 split trains on 285 and holds out 190 for evaluation.
SHORT_LENGTHS = tuple(range(8, 65)) * 2


@dataclass(frozen=True)
class Workload:
    encoder: str
    lengths: tuple[int, ...]
    ratios: tuple[int, int, int]
    learning_rate: float
    learns: bool  # trained enough that accuracy and plant overlap are checked


WORKLOADS = {
    "ref-leftforest": Workload("leftforest", REF_LENGTHS, (2, 1, 1), 0.001, False),
    "ref-cnn": Workload("cnn", REF_LENGTHS, (2, 1, 1), 0.001, False),
    "short-biforest": Workload("biforest", SHORT_LENGTHS, (3, 1, 2), 0.005, True),
    "short-bilstm": Workload("bilstm", SHORT_LENGTHS, (3, 1, 2), 0.005, True),
}

WHY = {
    "ref-leftforest": "The paper's reference scale (200-token documents, K=7, e=300, d=100) on the "
                      "left forest: tree-LSTM GEMMs, gate math and the backward pass dominate",
    "ref-cnn": "The same inputs with the CNN bank, criterion 5's baseline: conv_ngram and the "
               "per-document Span lists dominate and no tree-LSTM code runs",
    "short-biforest": "8-64-token documents and a biforest that learns the plant: per-call costs "
                      "dominate (tape, one Adam step per small batch, a DAG per length, evidence)",
    "short-bilstm": "8-64-token documents and a BiLSTM that learns the plant: the only step-batched "
                    "path (forward_batch_bilstm, segment attention, row-wise loss); no tree-LSTM code runs",
}
