"""Corpus ingestion, vocabulary, embedding loading, splits and checkpoints.

File formats owned here:

* corpus: TSV, one ``label<TAB>text`` line per document;
* parses: one bracketed binary tree per line, aligned with the corpus;
* embeddings: GloVe text, ``token v1 .. ve`` per line;
* checkpoints: magic ``MGNC``, u32 version, u32 JSON header length, JSON
  header (config, label names, vocab, tensor index, dtype), then raw
  little-endian row-major blobs in the header's dtype (``float32`` or
  ``float64``; a header without the field is float64): embedding matrix
  first, parameters after, in header order.
"""
from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .autodiff import Tensor
from .errors import DataError
from .model import ModelConfig, TextClassifier

CHECKPOINT_MAGIC = b"MGNC"
CHECKPOINT_VERSION = 1
_BLOB_DTYPES = {"float32": np.dtype("<f4"), "float64": np.dtype("<f8")}

OOV_TOKEN = "<oov>"
OOV_ID = 0


def tokenize(text: str) -> list[str]:
    """Lowercase + whitespace split; recorded in checkpoints for audit."""
    return text.lower().split()


@dataclass
class Corpus:
    documents: list[list[str]]
    labels: list[int]
    label_names: list[str]
    parses: Optional[list[str]] = None
    origin: Optional[list[int]] = None  # indices into the pre-split corpus

    def __len__(self) -> int:
        return len(self.documents)

    def class_counts(self) -> list[int]:
        counts = [0] * len(self.label_names)
        for label in self.labels:
            counts[label] += 1
        return counts

    def length_stats(self) -> dict:
        lengths = np.array([len(doc) for doc in self.documents])
        return {
            "documents": int(lengths.size),
            "mean_tokens": float(lengths.mean()),
            "min_tokens": int(lengths.min()),
            "max_tokens": int(lengths.max()),
        }

    def subset(self, indices: Sequence[int]) -> "Corpus":
        indices = list(indices)
        return Corpus(
            documents=[self.documents[i] for i in indices],
            labels=[self.labels[i] for i in indices],
            label_names=self.label_names,
            parses=None if self.parses is None else [self.parses[i] for i in indices],
            origin=[self.origin[i] if self.origin else i for i in indices],
        )


def load_corpus(
    path, label_names: Optional[Sequence[str]] = None, parse_path=None
) -> Corpus:
    """Read a ``label<TAB>text`` TSV.  When ``label_names`` is given, any
    other label is an error; otherwise labels are collected and sorted."""
    path = Path(path)
    if not path.exists():
        raise DataError(f"corpus file not found: {path}")
    raw: list[tuple[str, list[str]]] = []
    for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        if not line.strip():
            continue
        if "\t" not in line:
            raise DataError(f"{path}:{lineno}: expected 'label<TAB>text'")
        label, text = line.split("\t", 1)
        tokens = tokenize(text)
        if not tokens:
            raise DataError(f"{path}:{lineno}: document is empty after tokenization")
        raw.append((label, tokens))
    if not raw:
        raise DataError(f"corpus file is empty: {path}")

    if label_names is None:
        names = sorted({label for label, _ in raw})
    else:
        names = list(label_names)
    index = {name: i for i, name in enumerate(names)}
    labels = []
    for lineno, (label, _) in enumerate(raw, start=1):
        if label not in index:
            raise DataError(f"{path}:{lineno}: unknown label {label!r}")
        labels.append(index[label])

    parses = None
    if parse_path is not None:
        parse_path = Path(parse_path)
        if not parse_path.exists():
            raise DataError(f"parse file not found: {parse_path}")
        parses = [ln for ln in parse_path.read_text(encoding="utf-8").splitlines() if ln.strip()]
        if len(parses) != len(raw):
            raise DataError(
                f"{parse_path}: {len(parses)} parses for {len(raw)} documents"
            )
    return Corpus([tokens for _, tokens in raw], labels, names, parses)


def save_corpus(corpus: Corpus, path) -> None:
    lines = [
        f"{corpus.label_names[label]}\t{' '.join(doc)}"
        for doc, label in zip(corpus.documents, corpus.labels)
    ]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def split_stratified(
    corpus: Corpus, ratios: tuple[int, int, int] = (8, 1, 1), seed: int = 0
) -> tuple[Corpus, Corpus, Corpus]:
    """Per-class shuffled split; dev/test take their floored shares and the
    rounding remainder goes to train.  No document lands in two splits."""
    total = sum(ratios)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(7,)))
    train_idx: list[int] = []
    dev_idx: list[int] = []
    test_idx: list[int] = []
    for class_id, name in enumerate(corpus.label_names):
        members = [i for i, label in enumerate(corpus.labels) if label == class_id]
        if len(members) < 3:
            raise DataError(
                f"class {name!r} has only {len(members)} instances; need at least 3"
            )
        members = [members[j] for j in rng.permutation(len(members))]
        n_dev = len(members) * ratios[1] // total
        n_test = len(members) * ratios[2] // total
        dev_idx.extend(members[:n_dev])
        test_idx.extend(members[n_dev : n_dev + n_test])
        train_idx.extend(members[n_dev + n_test :])
    return (
        corpus.subset(sorted(train_idx)),
        corpus.subset(sorted(dev_idx)),
        corpus.subset(sorted(test_idx)),
    )


# ---------------------------------------------------------------------------
# Vocabulary and embeddings
# ---------------------------------------------------------------------------


@dataclass
class Vocab:
    tokens: list[str]
    id_of: dict[str, int] = field(default_factory=dict)

    def __post_init__(self):
        if not self.id_of:
            self.id_of = {tok: i for i, tok in enumerate(self.tokens)}

    @classmethod
    def build(cls, documents: Sequence[Sequence[str]]) -> "Vocab":
        seen = sorted({tok for doc in documents for tok in doc})
        return cls([OOV_TOKEN] + seen)

    def __len__(self) -> int:
        return len(self.tokens)

    def encode(self, tokens: Sequence[str]) -> np.ndarray:
        return np.array([self.id_of.get(tok, OOV_ID) for tok in tokens], dtype=np.intp)


def load_embeddings(
    path, vocab: Vocab, dim: int, seed: int = 0
) -> tuple[Tensor, float]:
    """Embedding matrix aligned with ``vocab``; returns (matrix, coverage).

    Tokens found in the file get the file vector verbatim; every other row,
    including the OOV row, gets its own seeded uniform draw in [-0.05, 0.05].
    ``path=None`` means fully random embeddings (coverage 0.0).
    """
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(3,)))
    matrix = rng.uniform(-0.05, 0.05, size=(len(vocab), dim))
    covered = 0
    if path is not None:
        path = Path(path)
        if not path.exists():
            raise DataError(f"embedding file not found: {path}")
        with path.open(encoding="utf-8") as handle:
            for lineno, line in enumerate(handle, start=1):
                parts = line.rstrip("\n").split(" ")
                if len(parts) < 2:
                    continue
                token = parts[0]
                if token not in vocab.id_of:
                    continue
                if len(parts) - 1 != dim:
                    raise DataError(
                        f"{path}:{lineno}: {len(parts) - 1} values, expected {dim}"
                    )
                try:
                    row = np.array(parts[1:], dtype=np.float64)
                except ValueError:
                    raise DataError(f"{path}:{lineno}: non-numeric embedding value") from None
                if not np.all(np.isfinite(row)):
                    raise DataError(f"{path}:{lineno}: non-finite embedding value")
                matrix[vocab.id_of[token]] = row
                covered += 1
    in_vocab = max(len(vocab) - 1, 1)
    tensor = Tensor(matrix, requires_grad=False, name="embeddings")
    return tensor, covered / in_vocab


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------


def save_checkpoint(model: TextClassifier, path, extra: Optional[dict] = None) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tensors = model.store.items()
    dtype = model.embeddings.data.dtype.name
    blob_dtype = _BLOB_DTYPES[dtype]
    header = {
        "config": model.config.to_dict(),
        "label_names": model.label_names,
        "vocab": model.vocab.tokens,
        "tokenizer": "lowercase_whitespace",
        "embedding_shape": list(model.embeddings.shape),
        "tensors": [{"name": name, "shape": list(t.shape)} for name, t in tensors],
        "dtype": dtype,
        "extra": extra or {},
    }
    blob = json.dumps(header).encode("utf-8")
    with path.open("wb") as handle:
        handle.write(CHECKPOINT_MAGIC)
        handle.write(struct.pack("<I", CHECKPOINT_VERSION))
        handle.write(struct.pack("<I", len(blob)))
        handle.write(blob)
        handle.write(np.ascontiguousarray(model.embeddings.data, dtype=blob_dtype).tobytes())
        for _, tensor in tensors:
            handle.write(np.ascontiguousarray(tensor.data, dtype=blob_dtype).tobytes())


def _read_exact(handle, count: int, what: str) -> bytes:
    blob = handle.read(count)
    if len(blob) != count:
        raise DataError(f"truncated checkpoint while reading {what}")
    return blob


def read_checkpoint_header(path) -> dict:
    path = Path(path)
    if not path.exists():
        raise DataError(f"checkpoint not found: {path}")
    with path.open("rb") as handle:
        magic = _read_exact(handle, 4, "magic")
        if magic != CHECKPOINT_MAGIC:
            raise DataError(f"{path} is not a checkpoint (bad magic)")
        (version,) = struct.unpack("<I", _read_exact(handle, 4, "version"))
        if version != CHECKPOINT_VERSION:
            raise DataError(
                f"checkpoint version {version} unsupported (expected {CHECKPOINT_VERSION})"
            )
        (header_len,) = struct.unpack("<I", _read_exact(handle, 4, "header length"))
        blob = _read_exact(handle, header_len, "header")
    try:
        header = json.loads(blob)
    except ValueError:
        raise DataError(f"{path}: checkpoint header is not valid JSON") from None
    if not isinstance(header, dict):
        raise DataError(f"{path}: checkpoint header is not a JSON object")
    return header


def _stored_config(path: Path, header: dict) -> ModelConfig:
    stored = header.get("config")
    if not isinstance(stored, dict):
        raise DataError(f"{path}: checkpoint header has no config object")
    # Every field is required: a missing one must not load as its default.
    odd = sorted(set(stored) ^ {f.name for f in fields(ModelConfig)})
    if odd:
        state = "unknown" if odd[0] in stored else "missing"
        raise DataError(f"{path}: {state} config key {odd[0]!r} in checkpoint header")
    try:
        config = ModelConfig(**stored)
        config.validate()
    except (TypeError, ValueError) as exc:
        raise DataError(f"{path}: invalid stored config: {exc}") from None
    return config


def load_checkpoint(path, require: Optional[dict] = None) -> TextClassifier:
    """Rebuild a model whose forward outputs are bit-identical to the saved
    one.  ``require`` pins config fields (e.g. ``memory_update``); a stored
    value that disagrees is refused instead of silently reinterpreted."""
    path = Path(path)
    header = read_checkpoint_header(path)
    config = _stored_config(path, header)
    if require:
        for key, wanted in require.items():
            stored = getattr(config, key)
            if stored != wanted:
                raise DataError(
                    f"checkpoint was written with {key}={stored!r}; refusing to load "
                    f"it as {key}={wanted!r}"
                )
    # Headers written before the field existed hold float64 blobs.
    dtype = header.get("dtype", "float64")
    if not isinstance(dtype, str) or dtype not in _BLOB_DTYPES:
        raise DataError(f"checkpoint dtype {dtype!r} unsupported (expected one of "
                        f"{sorted(_BLOB_DTYPES)})")
    blob_dtype = _BLOB_DTYPES[dtype]
    width = blob_dtype.itemsize
    with path.open("rb") as handle:
        _read_exact(handle, 4, "magic")
        _read_exact(handle, 4, "version")
        (header_len,) = struct.unpack("<I", _read_exact(handle, 4, "header length"))
        _read_exact(handle, header_len, "header")
        emb_shape = tuple(header["embedding_shape"])
        emb_count = int(np.prod(emb_shape))
        embeddings = np.frombuffer(
            _read_exact(handle, emb_count * width, "embeddings"), dtype=blob_dtype
        ).reshape(emb_shape)
        state: dict[str, np.ndarray] = {}
        for entry in header["tensors"]:
            shape = tuple(entry["shape"])
            count = int(np.prod(shape)) if shape else 1
            blob = _read_exact(handle, count * width, f"tensor {entry['name']!r}")
            state[entry["name"]] = np.frombuffer(blob, dtype=blob_dtype).reshape(shape)
        if handle.read(1):
            raise DataError("checkpoint has trailing bytes")

    vocab = Vocab(list(header["vocab"]))
    model = TextClassifier(
        config, vocab, list(header["label_names"]), Tensor(embeddings.astype(dtype))
    )
    model.store.load_state_dict(state)
    return model
