"""Seeded benchmark inputs: a planted-trigram corpus and a GloVe-format
embeddings file.

The benchmark owns this generator so that its inputs stay fixed when the
program's own synthetic corpora change.  Document ``i`` has label
``i % CLASSES`` and length ``lengths[i // CLASSES]``: every class gets the
same length multiset and the schedule does not depend on the seed, so a
split made with a fixed split seed holds the same lengths, hence the same
work, for every seed.  The seed draws the distractor tokens, the plant
positions and the embedding vectors.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

SIGNATURE_WORDS = ("siga", "sigb", "sigc")
# One ordering of the signature words per class: word identity carries no
# label signal, only units that see word order do.
PERMUTATIONS = ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1))
CLASSES = len(PERMUTATIONS)
PLANT_LENGTH = 3
EMBED_DIM = 300
DISTRACTORS = 1000  # distractor vocabulary size
OOV_PER_VOCAB = 3  # embedding lines outside the vocabulary per line inside it


@dataclass
class Inputs:
    corpus_path: Path
    embeddings_path: Path
    plants: list[int]  # start of the planted trigram, per document in file order


def signature(label: int) -> list[str]:
    return [SIGNATURE_WORDS[i] for i in PERMUTATIONS[label]]


def write_inputs(lengths: Sequence[int], seed: int, directory: Path) -> Inputs:
    """Write ``corpus.tsv`` and ``embeddings.txt`` into ``directory``, with
    ``CLASSES`` documents of each of ``lengths``."""
    if min(lengths) < PLANT_LENGTH:
        raise ValueError(f"documents must fit the {PLANT_LENGTH}-token plant")
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(101,)))
    directory.mkdir(parents=True, exist_ok=True)
    distractors = [f"w{i:04d}" for i in range(DISTRACTORS)]

    lines, plants = [], []
    for i in range(len(lengths) * CLASSES):
        label = i % CLASSES
        length = lengths[i // CLASSES]
        tokens = [distractors[j] for j in rng.integers(0, DISTRACTORS, size=length)]
        start = int(rng.integers(0, length - PLANT_LENGTH + 1))
        tokens[start : start + PLANT_LENGTH] = signature(label)
        lines.append(f"class{label}\t{' '.join(tokens)}\n")
        plants.append(start)
    corpus_path = directory / "corpus.tsv"
    corpus_path.write_text("".join(lines), encoding="utf-8")

    # As in a real GloVe file, most lines are for tokens the corpus never uses.
    vocab = distractors + list(SIGNATURE_WORDS)
    outside = [f"x{i:06d}" for i in range(OOV_PER_VOCAB * len(vocab))]
    pool = vocab + outside
    words = [pool[j] for j in rng.permutation(len(pool))]
    embeddings_path = directory / "embeddings.txt"
    with embeddings_path.open("w", encoding="utf-8") as handle:
        for word in words:
            vector = rng.normal(0.0, 0.4, size=EMBED_DIM)
            handle.write(word + " " + " ".join(f"{v:.5f}" for v in vector) + "\n")
    return Inputs(corpus_path, embeddings_path, plants)
