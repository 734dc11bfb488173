"""Corpus ingestion, vocabulary, embedding loading, splits and checkpoints.

File formats owned here:

* corpus: TSV, one ``label<TAB>text`` line per document;
* parses: one bracketed binary tree per line, aligned with the corpus and
  checked against it when read;
* embeddings: GloVe text, ``token v1 .. ve`` per line;
* checkpoints: magic ``MGNC``, u32 version, u32 JSON header length, JSON
  header (config, label names, vocab, tensor index, dtype), then raw
  little-endian row-major blobs in the header's dtype (``float32`` or
  ``float64``): embedding matrix first, parameters after, in header order.
  Version 2 has the gate order of ``autodiff.tree_cell_gates``; version 1
  files had another and are refused.
"""
from __future__ import annotations

import json
import struct
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Iterator, Optional, Sequence

import numpy as np

from .autodiff import Tensor
from .errors import DataError
from .model import ModelConfig, TextClassifier
from .structures import BracketingError, read_bracketing

CHECKPOINT_MAGIC = b"MGNC"
CHECKPOINT_VERSION = 2
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


def read_lines(path, what: str) -> Iterator[tuple[int, str]]:
    """(line number, text) of each line of the UTF-8 file ``path``, read one
    line at a time and without its line ending.  A missing or unreadable
    file, or a line that is not UTF-8, is a ``DataError`` naming the file
    (``what`` says which input it is) and the line."""
    path = Path(path)
    try:
        handle = path.open("rb")
    except FileNotFoundError:
        raise DataError(f"{what} file not found: {path}") from None
    except OSError as exc:
        raise DataError(f"cannot read {what} file {path}: {exc.strerror}") from None
    with handle:
        # Binary lines decoded one by one, so an error names its own line.
        for lineno, raw in enumerate(handle, start=1):
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise DataError(f"{path}:{lineno}: not UTF-8 ({exc.reason})") from None
            yield lineno, line.rstrip("\r\n")


def load_corpus(
    path, label_names: Optional[Sequence[str]] = None, parse_path=None
) -> Corpus:
    """Read a ``label<TAB>text`` TSV.  When ``label_names`` is given, any
    other label is an error; otherwise labels are collected and sorted.
    Equal tokens and labels share one string, so the documents hold one
    string per distinct token, not one per occurrence."""
    raw: list[tuple[int, str, list[str]]] = []  # (file line, label, tokens)
    shared: dict[str, str] = {}
    for lineno, line in read_lines(path, "corpus"):
        if not line.strip():
            continue
        if "\t" not in line:
            raise DataError(f"{path}:{lineno}: expected 'label<TAB>text'")
        label, text = line.split("\t", 1)
        label = shared.setdefault(label, label)
        tokens = tokenize(text)
        tokens = list(map(shared.setdefault, tokens, tokens))
        if not tokens:
            raise DataError(f"{path}:{lineno}: document is empty after tokenization")
        raw.append((lineno, label, tokens))
    if not raw:
        raise DataError(f"corpus file is empty: {path}")

    if label_names is None:
        names = sorted({label for _, label, _ in raw})
    else:
        names = list(label_names)
    index = {name: i for i, name in enumerate(names)}
    labels = []
    for lineno, label, _ in raw:
        if label not in index:
            raise DataError(f"{path}:{lineno}: unknown label {label!r}")
        labels.append(index[label])

    parses = None
    if parse_path is not None:
        lines = [(lineno, ln) for lineno, ln in read_lines(parse_path, "parse") if ln.strip()]
        if len(lines) != len(raw):
            raise DataError(f"{parse_path}: {len(lines)} parses for {len(raw)} documents")
        for (lineno, parse), (_, _, tokens) in zip(lines, raw):
            try:
                read_bracketing(parse, len(tokens))
            except BracketingError as exc:
                raise DataError(f"{parse_path}:{lineno}: {exc}") from None
        parses = [parse for _, parse in lines]
    return Corpus([tokens for _, _, tokens in raw], labels, names, parses)


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
        """``OOV_TOKEN`` at ``OOV_ID``, then the documents' distinct tokens
        sorted; a document token spelled ``OOV_TOKEN`` reads the OOV row."""
        seen = {tok for doc in documents for tok in doc}
        seen.discard(OOV_TOKEN)
        return cls([OOV_TOKEN] + sorted(seen))

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
        for lineno, line in read_lines(path, "embedding"):
            # Only lines in the vocabulary are split and checked.
            token, _, values = line.partition(" ")
            if token not in vocab.id_of:
                continue
            parts = values.split(" ") if values else []
            if len(parts) != dim:
                raise DataError(f"{path}:{lineno}: {len(parts)} values, expected {dim}")
            try:
                row = np.array(parts, dtype=np.float64)
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
        "config": asdict(model.config),
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
        raise DataError(f"{handle.name}: truncated checkpoint while reading {what}")
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
                f"{path}: checkpoint version {version} unsupported (expected "
                f"{CHECKPOINT_VERSION}; version 1 holds an older gate layout)"
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
    for key in ("vocab", "label_names", "embedding_shape", "tensors", "dtype"):
        if key not in header:
            raise DataError(f"{path}: checkpoint header has no {key!r}")
    if require:
        for key, wanted in require.items():
            stored = getattr(config, key)
            if stored != wanted:
                raise DataError(
                    f"{path}: checkpoint was written with {key}={stored!r}; refusing to "
                    f"load it as {key}={wanted!r}"
                )
    dtype = header["dtype"]
    if not isinstance(dtype, str) or dtype not in _BLOB_DTYPES:
        raise DataError(f"{path}: checkpoint dtype {dtype!r} unsupported (expected one of "
                        f"{sorted(_BLOB_DTYPES)})")
    blob_dtype = _BLOB_DTYPES[dtype]
    width = blob_dtype.itemsize
    # A mistyped header field fails below as a LookupError, TypeError or ValueError.
    try:
        with path.open("rb") as handle:
            handle.seek(8)  # read_checkpoint_header checked the magic and version
            (header_len,) = struct.unpack("<I", handle.read(4))
            handle.seek(header_len, 1)
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
                raise DataError(f"{path}: checkpoint has trailing bytes")
        vocab = Vocab(list(header["vocab"]))
        if len(vocab) != emb_shape[0]:
            raise ValueError(f"{len(vocab)} vocabulary entries for {emb_shape[0]} embedding rows")
        model = TextClassifier(
            config, vocab, list(header["label_names"]), Tensor(embeddings.astype(dtype))
        )
        model.store.load_state_dict(state)
    except (LookupError, TypeError, ValueError) as exc:
        raise DataError(f"{path}: malformed checkpoint: {exc}") from None
    return model
