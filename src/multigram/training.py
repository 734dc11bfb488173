"""Mini-batch training with ADAM, frozen embeddings and dev-set selection.

Batches contain same-length documents only (exact-length bucketing), which
removes padding entirely.  Per-document encoders run each document under its
own tape and backpropagate its share of the batch loss straight into the
parameters' ``.grad``, in batch order; the step-batched BiLSTM runs the whole
batch under one tape.  On a machine with two or more usable CPUs, each
document's backward pass runs on a one-worker executor while the next
document's forward pass runs on the calling thread, with one backward in
flight at a time (``thread_plan``).
"""
from __future__ import annotations

import contextlib
import ctypes
import functools
import os
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from . import autodiff as ad
from .attention import ModelOutput
from .autodiff import NumericError, ParamStore, Tape, Tensor
from .data import Corpus, Vocab, load_embeddings, split_stratified
from .errors import DataError
from .model import ModelConfig, TextClassifier

# Every encoder trains in this dtype, so timings compare like for like; the
# float64 path stays the reference that gradient checks run in.
TRAINING_DTYPE = np.float32

# spawn_key tags for the package's seeded generators, so every random
# decision is reproducible from one seed.
_KEY_SHUFFLE = 1
_KEY_DOC_DROPOUT = 2
_KEY_EMBEDDINGS = 3
_KEY_BATCH_DROPOUT = 4


def derive_rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=tuple(key)))


@dataclass
class TrainConfig:
    encoder: str = "biforest"
    learning_rate: float = 0.001
    batch_size: int = 50
    dropout: float = 0.2
    hidden_dim: int = 100
    embed_dim: int = 300
    attention_dim: int = 100
    max_order: int = 7
    epochs: int = 100
    patience: int = 5
    seed: int = 0
    memory_update: str = "hidden"

    def model_config(self, num_classes: int) -> ModelConfig:
        return ModelConfig(
            encoder=self.encoder,
            num_classes=num_classes,
            embed_dim=self.embed_dim,
            hidden_dim=self.hidden_dim,
            attention_dim=self.attention_dim,
            max_order=self.max_order,
            dropout=self.dropout,
            memory_update=self.memory_update,
        )

    def validate(self) -> None:
        if self.learning_rate <= 0 or self.batch_size < 1 or self.epochs < 1:
            raise ValueError("learning_rate, batch_size and epochs must be positive")
        if self.patience < 1:
            raise ValueError("patience must be positive")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


# ---------------------------------------------------------------------------
# ADAM
# ---------------------------------------------------------------------------


# ADAM's moment decay rates and denominator guard: the method's defaults.
ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON = 0.9, 0.999, 1e-8


@dataclass
class AdamState:
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    step_count: int = 0


class Adam:
    """Bias-corrected ADAM over a parameter store.  Frozen tensors never
    enter the store, so embeddings are untouched by construction."""

    def __init__(self, store: ParamStore, learning_rate: float = 0.001):
        self.store = store
        self.learning_rate = learning_rate
        self.state = AdamState(
            m={name: np.zeros_like(t.data) for name, t in store.items()},
            v={name: np.zeros_like(t.data) for name, t in store.items()},
        )

    def step(self) -> None:
        state = self.state
        state.step_count += 1
        t = state.step_count
        for name, param in self.store.items():
            grad = param.grad if param.grad is not None else np.zeros_like(param.data)
            if not np.all(np.isfinite(grad)):
                raise NumericError(f"non-finite gradient for parameter {name!r}")
            m = state.m[name]
            v = state.v[name]
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * grad
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * grad * grad
            m_hat = m / (1.0 - ADAM_BETA1 ** t)
            v_hat = v / (1.0 - ADAM_BETA2 ** t)
            param.data -= self.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPSILON)

    def zero_grad(self) -> None:
        self.store.zero_grad()


# ---------------------------------------------------------------------------
# Encoded data
# ---------------------------------------------------------------------------


@dataclass
class EncodedDocs:
    ids: list[np.ndarray]
    labels: np.ndarray
    tokens: list[list[str]]
    parses: Optional[list[str]] = None
    origin: Optional[list[int]] = None

    @classmethod
    def from_corpus(cls, corpus: Corpus, vocab: Vocab) -> "EncodedDocs":
        return cls(
            ids=[vocab.encode(doc) for doc in corpus.documents],
            labels=np.array(corpus.labels, dtype=np.intp),
            tokens=corpus.documents,
            parses=corpus.parses,
            origin=corpus.origin,
        )

    def __len__(self) -> int:
        return len(self.ids)

    @property
    def lengths(self) -> np.ndarray:
        return np.array([len(ids) for ids in self.ids])

    def parse_for(self, index: int) -> Optional[str]:
        return None if self.parses is None else self.parses[index]


@dataclass
class DataBundle:
    vocab: Vocab
    label_names: list[str]
    embeddings: Tensor
    coverage: Optional[float]  # share of the vocabulary an embedding file held
    train: EncodedDocs
    dev: EncodedDocs
    test: EncodedDocs

    @property
    def num_classes(self) -> int:
        return len(self.label_names)


def split_bundle(
    corpus: Corpus,
    vocab: Vocab,
    embeddings: Tensor,
    seed: int,
    ratios: tuple[int, int, int] = (8, 1, 1),
    coverage: Optional[float] = None,
) -> DataBundle:
    """The stratified ``ratios`` split of ``corpus`` by ``seed``, encoded
    with ``vocab``.  A split that comes out empty is a ``DataError``."""
    splits = dict(zip(("train", "dev", "test"), split_stratified(corpus, ratios, seed)))
    empty = [name for name, split in splits.items() if len(split) == 0]
    if empty:
        raise DataError(
            f"the {':'.join(map(str, ratios))} split of {len(corpus)} documents with seed "
            f"{seed} gives an empty {' and an empty '.join(empty)} split"
        )
    encoded = {name: EncodedDocs.from_corpus(split, vocab) for name, split in splits.items()}
    return DataBundle(vocab, corpus.label_names, embeddings, coverage, **encoded)


def prepare_bundle(
    corpus: Corpus,
    embedding_path=None,
    embed_dim: int = 300,
    seed: int = 0,
    ratios: tuple[int, int, int] = (8, 1, 1),
) -> DataBundle:
    """Build the vocabulary, load (or randomize) embeddings, and split.

    The vocabulary covers the whole corpus; embeddings are frozen, so no
    trained signal leaks across splits.  The matrix is cast to
    ``TRAINING_DTYPE``, which every model built on the bundle inherits.
    """
    vocab = Vocab.build(corpus.documents)
    embeddings, coverage = load_embeddings(embedding_path, vocab, embed_dim, seed)
    embeddings.data = embeddings.data.astype(TRAINING_DTYPE)
    return split_bundle(corpus, vocab, embeddings, seed, ratios, coverage)


def bucket_batches(lengths: Sequence[int], order: Sequence[int], batch_size: int) -> list[np.ndarray]:
    """Group a (shuffled) document order into same-length batches of at most
    ``batch_size``; leftovers flush in ascending length order."""
    open_buckets: dict[int, list[int]] = {}
    batches: list[np.ndarray] = []
    for idx in order:
        bucket = open_buckets.setdefault(int(lengths[idx]), [])
        bucket.append(int(idx))
        if len(bucket) == batch_size:
            batches.append(np.array(bucket, dtype=np.intp))
            open_buckets[int(lengths[idx])] = []
    for length in sorted(open_buckets):
        if open_buckets[length]:
            batches.append(np.array(open_buckets[length], dtype=np.intp))
    return batches


# ---------------------------------------------------------------------------
# Both cores: a helper thread for the backward passes
# ---------------------------------------------------------------------------


@functools.cache
def _openblas() -> Optional[tuple[Callable[[], int], Callable[[int], None]]]:
    """(get, set) for the thread count of the OpenBLAS bundled with numpy,
    or None when that library or its symbols cannot be found."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for prefix, suffix in (("scipy_openblas_", "64_"), ("scipy_openblas_", ""),
                               ("openblas_", "")):
            get = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
            put = getattr(lib, f"{prefix}set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.restype, get.argtypes = ctypes.c_int, ()
                put.restype, put.argtypes = None, (ctypes.c_int,)
                return get, put
    return None


@functools.cache
def _blas_threads_at_start() -> Optional[int]:
    """The BLAS thread count before training first changed it (training
    restores it after every epoch)."""
    blas = _openblas()
    return None if blas is None else blas[0]()


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on Linux
        return os.cpu_count() or 1


@dataclass(frozen=True)
class ThreadPlan:
    """How training uses the cores: the BLAS thread count the process
    started with and the count training runs with (None where it cannot be
    read), and whether each document's backward runs on a helper thread."""

    blas_threads_at_start: Optional[int]
    blas_threads_in_training: Optional[int]
    backward_on_helper: bool


def thread_plan(encoder: str) -> ThreadPlan:
    """The helper thread runs the backward passes of every per-document
    encoder when two or more CPUs are usable and the BLAS thread count can
    be read and set; training then runs one BLAS thread, since two pipeline
    threads on two BLAS threads each would oversubscribe two cores.  Else
    the backward passes run inline, on the calling thread, at the BLAS
    thread count the process has."""
    start = _blas_threads_at_start()
    helper = encoder != "bilstm" and start is not None and _usable_cpus() > 1
    return ThreadPlan(start, 1 if helper else start, helper)


@contextlib.contextmanager
def _blas_threads(plan: ThreadPlan):
    """One BLAS thread while the helper runs, the old count afterwards."""
    if not plan.backward_on_helper:
        yield
        return
    get, put = _openblas()
    old = get()
    put(plan.blas_threads_in_training)
    try:
        yield
    finally:
        put(old)


# ---------------------------------------------------------------------------
# Batch execution
# ---------------------------------------------------------------------------


def _train_batch(
    model, docs, batch, epoch, batch_index, config, helper: Optional[ThreadPoolExecutor] = None
) -> tuple[float, int]:
    """Accumulate the gradient of one batch's mean loss into the parameters;
    returns (summed loss, correct predictions).  A per-document encoder runs
    each document's backward pass on ``helper`` (inline when None) while the
    next document's forward pass runs: document j's backward is submitted
    once document j-1's has ended, so one is in flight at a time.  All have
    ended, in batch order, when this returns."""
    if model.config.encoder == "bilstm":
        ids_matrix = np.stack([docs.ids[idx] for idx in batch])
        golds = docs.labels[batch]
        rng = derive_rng(config.seed, _KEY_BATCH_DROPOUT, epoch, batch_index)
        with Tape() as tape:
            loss, logits, _ = model.forward_batch_bilstm(ids_matrix, golds, train=True, rng=rng)
            tape.backward(loss)
        return float(loss.data) * len(batch), int((logits.argmax(axis=1) == golds).sum())
    loss_sum, correct = 0.0, 0
    pending: Optional[Future] = None
    try:
        for idx in batch:
            gold = int(docs.labels[idx])
            rng = derive_rng(config.seed, _KEY_DOC_DROPOUT, epoch, int(idx))
            with Tape() as tape:
                output, loss = model.forward_doc(
                    docs.ids[idx], gold=gold, parse=docs.parse_for(idx), train=True, rng=rng
                )
            if pending is not None:
                previous, pending = pending, None
                previous.result()  # re-raises the helper's error here
            if helper is None:
                tape.backward(loss, seed=1.0 / len(batch))
            else:
                pending = helper.submit(tape.backward, loss, seed=1.0 / len(batch))
            loss_sum += float(loss.data)
            correct += int(output.predicted == gold)
    finally:
        # Also when a forward pass raises: its predecessor's error, if any,
        # is the one raised, as inline.
        if pending is not None:
            pending.result()
    return loss_sum, correct


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


@dataclass
class EvalResult:
    accuracy: float
    per_class: dict[str, dict[str, int]]
    predictions: np.ndarray


def forward_chunks(
    model: TextClassifier, docs: EncodedDocs, batch_size: int = 128
) -> Iterator[ModelOutput]:
    """Every document's ``ModelOutput`` with dropout off, in order, through
    ``TextClassifier.forward_chunk`` on consecutive chunks of at most
    ``batch_size`` documents."""
    for start in range(0, len(docs), batch_size):
        chunk = range(start, min(start + batch_size, len(docs)))
        yield from model.forward_chunk(
            [docs.ids[i] for i in chunk], [docs.parse_for(i) for i in chunk]
        )


def evaluate(model: TextClassifier, docs: EncodedDocs, batch_size: int = 128) -> EvalResult:
    """Accuracy with dropout disabled, plus per-class correct/total counts.

    Documents run in consecutive chunks of at most ``batch_size``; each
    chunk evaluates the encoder's per-token first layer once per distinct
    token it holds and reads those rows by token position
    (``forward_chunks``).  The chunk's table holds distinct tokens x
    first-layer width values; at d = 100 that is 600 per token for a
    ``hidden`` forest (leaf h and the shared side's five state maps; a
    ``cell`` forest adds leaf c) and 2,800 for the K=7 CNN (one product
    per order and offset).  The pyramid and the tree keep d per token (2d
    with ``cell``), the biforest twice a forest's, the BiLSTM 4d for its
    two input maps.  Predictions equal ``forward_doc``'s.
    """
    predictions = np.array(
        [output.predicted for output in forward_chunks(model, docs, batch_size)], dtype=np.intp
    )
    per_class = {
        name: {"correct": 0, "total": 0} for name in model.label_names
    }
    for gold, pred in zip(docs.labels, predictions):
        bucket = per_class[model.label_names[int(gold)]]
        bucket["total"] += 1
        bucket["correct"] += int(gold == pred)
    accuracy = float((predictions == docs.labels).mean()) if len(docs) else 0.0
    return EvalResult(accuracy, per_class, predictions)


# ---------------------------------------------------------------------------
# Training loop
# ---------------------------------------------------------------------------


METRICS_HEADER = "epoch\ttrain_loss\ttrain_acc\tdev_acc\ttrain_seconds\tdev_seconds\tseconds"


@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    train_acc: float
    dev_acc: float
    train_seconds: float
    dev_seconds: float

    @property
    def seconds(self) -> float:
        return self.train_seconds + self.dev_seconds

    def tsv_row(self) -> str:
        """One ``metrics.tsv`` line, in ``METRICS_HEADER``'s columns."""
        return (
            f"{self.epoch}\t{self.train_loss:.6f}\t{self.train_acc:.6f}\t{self.dev_acc:.6f}"
            f"\t{self.train_seconds:.3f}\t{self.dev_seconds:.3f}\t{self.seconds:.3f}"
        )


@dataclass
class TrainResult:
    model: TextClassifier
    history: list[EpochStats]
    best_dev_accuracy: float
    best_epoch: int


def run_epoch(model, docs, adam, epoch: int, config: TrainConfig) -> tuple[float, float]:
    """One pass over ``docs``: shuffle, bucket into same-length batches, and
    take one ADAM step per batch.  Returns (mean loss, training accuracy)."""
    order = derive_rng(config.seed, _KEY_SHUFFLE, epoch).permutation(len(docs))
    batches = bucket_batches(docs.lengths, order, config.batch_size)
    plan = thread_plan(model.config.encoder)
    helper = (ThreadPoolExecutor(1, thread_name_prefix="multigram-backward")
              if plan.backward_on_helper else contextlib.nullcontext())
    loss_sum, correct = 0.0, 0
    with _blas_threads(plan), helper as helper:
        for batch_index, batch in enumerate(batches):
            adam.zero_grad()
            batch_loss, batch_correct = _train_batch(
                model, docs, batch, epoch, batch_index, config, helper
            )
            loss_sum += batch_loss
            correct += batch_correct
            adam.step()
    # The last batch's gradients are spent; freeing them leaves room for the
    # dev evaluation's first-layer table.
    adam.zero_grad()
    return loss_sum / len(docs), correct / len(docs)


def train(
    config: TrainConfig,
    bundle: DataBundle,
    on_epoch: Optional[Callable[[EpochStats], None]] = None,
) -> TrainResult:
    """Train with per-epoch shuffling and dev-set model selection: the
    returned model carries the best-dev parameters, and training stops after
    ``patience`` epochs without a dev improvement.  ``on_epoch`` receives
    each epoch's record as soon as the epoch ends."""
    config.validate()
    if len(bundle.train) == 0 or len(bundle.dev) == 0:
        raise DataError("training needs non-empty train and dev splits")
    model = TextClassifier(
        config.model_config(bundle.num_classes),
        bundle.vocab,
        bundle.label_names,
        bundle.embeddings,
        init_seed=config.seed,
    )
    adam = Adam(model.store, config.learning_rate)
    history: list[EpochStats] = []
    # Epoch 0 always beats -1, so the initial parameters need no copy; one is
    # taken after each epoch that improves on the best dev accuracy.
    best_state = None
    best_acc, best_epoch, stale = -1.0, -1, 0
    for epoch in range(config.epochs):
        started = time.perf_counter()
        train_loss, train_acc = run_epoch(model, bundle.train, adam, epoch, config)
        trained = time.perf_counter()
        dev_acc = evaluate(model, bundle.dev).accuracy
        history.append(EpochStats(epoch, train_loss, train_acc, dev_acc,
                                  trained - started, time.perf_counter() - trained))
        if on_epoch is not None:
            on_epoch(history[-1])
        if dev_acc > best_acc:
            best_acc, best_epoch, stale = dev_acc, epoch, 0
            best_state = model.store.state_dict()
        else:
            stale += 1
            if stale >= config.patience:
                break
    model.store.load_state_dict(best_state)
    return TrainResult(model, history, best_acc, best_epoch)


# ---------------------------------------------------------------------------
# Benchmarking
# ---------------------------------------------------------------------------


@dataclass
class BenchRow:
    encoder: str
    train_epoch_seconds: float
    eval_seconds: float
    parameters: int
    encoder_macs: int
    threads: ThreadPlan


def measure_encoder_macs(model: TextClassifier, docs: EncodedDocs) -> int:
    """Exact forward multiply-accumulates spent encoding every document.

    The count is a function of document length only (for fixed encoder; a
    binary parse tree over n tokens always has n - 1 internal nodes), so
    equal-length documents share one instrumented run.
    """
    per_length: dict[int, int] = {}
    total = 0
    for idx, ids in enumerate(docs.ids):
        if len(ids) not in per_length:
            ad.reset_mac_count()
            model.encode_units(ids, docs.parse_for(idx))
            per_length[len(ids)] = ad.mac_count()
        total += per_length[len(ids)]
    return total


def benchmark(
    config: TrainConfig, bundle: DataBundle, encoders: Sequence[str] = ("leftforest", "cnn")
) -> list[BenchRow]:
    """Wall-clock one training epoch and one dev evaluation per encoder,
    plus parameter counts and instrumented encoder MACs on the train set.
    Every encoder is built and warmed up (one training batch and one dev
    evaluation) before any is timed, so no encoder meets a heap that only
    the encoders timed before it have grown."""
    runs = []
    for kind in encoders:
        cfg = replace(config, encoder=kind)
        model = TextClassifier(
            cfg.model_config(bundle.num_classes),
            bundle.vocab,
            bundle.label_names,
            bundle.embeddings,
            init_seed=cfg.seed,
        )
        adam = Adam(model.store, cfg.learning_rate)
        warm = bucket_batches(bundle.train.lengths, np.arange(len(bundle.train)), cfg.batch_size)[0]
        _train_batch(model, bundle.train, warm, 0, 0, cfg)
        adam.zero_grad()
        evaluate(model, bundle.dev)
        runs.append((kind, cfg, model, adam))
    rows = []
    for kind, cfg, model, adam in runs:
        started = time.perf_counter()
        run_epoch(model, bundle.train, adam, 0, cfg)
        train_seconds = time.perf_counter() - started
        started = time.perf_counter()
        evaluate(model, bundle.dev)
        eval_seconds = time.perf_counter() - started
        rows.append(
            BenchRow(
                encoder=kind,
                train_epoch_seconds=train_seconds,
                eval_seconds=eval_seconds,
                parameters=model.parameter_count(),
                encoder_macs=measure_encoder_macs(model, bundle.train),
                threads=thread_plan(kind),
            )
        )
    return rows


def bench_tsv(rows: Sequence[BenchRow]) -> str:
    lines = ["encoder\ttrain_epoch_seconds\teval_seconds\tparameters\tencoder_macs"
             "\tblas_threads_at_start\tblas_threads_in_training\tbackward_on_helper"]
    for row in rows:
        lines.append(
            f"{row.encoder}\t{row.train_epoch_seconds:.3f}\t{row.eval_seconds:.3f}"
            f"\t{row.parameters}\t{row.encoder_macs}\t{row.threads.blas_threads_at_start}"
            f"\t{row.threads.blas_threads_in_training}\t{row.threads.backward_on_helper}"
        )
    return "\n".join(lines) + "\n"
