"""The measured process of one benchmark run.

``run.py`` writes the workload's inputs and starts this script in a fresh
interpreter, passing the moment it started it, so that a set-up counts
everything a user of ``multigram train`` waits for before the first epoch:
interpreter start, imports, ``load_corpus`` and ``prepare_bundle``.

After set-up the process repeats whole rounds until ``--seconds`` have
passed.  A round follows ``multigram train``, ``eval`` and ``explain``:
train for a fixed number of epochs with no early stop and save the
checkpoint; evaluate on the held-out split; load the checkpoint and explain
every held-out document.  Throughputs are rates over all rounds.  The checks
in ``checks.py`` then run on the first round's outputs, untimed.

After each round, untimed, the process starts one more copy of this script
that only sets up, so every set-up it times is cold.  ``setup_s`` is the
median of the run's cold set-ups: spread over the run, they meet the host in
the states the rounds meet, not only in the one the run started in.

With ``--trace 1`` the program's layers run under the tracer and the last
line carries the per-layer metrics instead of the end-to-end ones.
"""
from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from inputs import EMBED_DIM, PLANT_LENGTH  # noqa: E402
from workloads import (  # noqa: E402
    EPOCHS, HIDDEN_DIM, MAX_ORDER, SPLIT_SEED, THRESHOLD, WORKLOADS,
)

PACKAGE = "multigram"
# A cold set-up takes about half a second.
SETUP_TIMEOUT_S = 30

TRACED_FUNCTIONS = {
    "autodiff": (
        "add", "mul", "scale", "sigmoid", "tanh", "sum_all", "dot", "matvec", "matmul",
        "linear_rows", "weighted_sum", "conv_ngram", "tree_cell_gates", "concat",
        "concat_rows", "concat_cols", "split_last", "slice_rows", "pick_row", "row_lookup",
        "stack_rows", "softmax", "softmax_rows", "segment_softmax", "segment_weighted_sum",
        "cross_entropy", "cross_entropy_rows", "dropout",
    ),
    "data": ("load_corpus", "load_embeddings", "split_stratified", "save_checkpoint",
             "load_checkpoint"),
    "structures": ("build_structure",),
    "encoders": ("encode_dag", "encode_bi_forest", "bilstm_encode", "bilstm_encode_batch",
                 "cnn_encode"),
    "attention": ("attention_pool", "attention_pool_segments", "predict", "predict_rows",
                  "classification_loss", "classification_loss_rows"),
    "training": ("prepare_bundle", "train", "run_epoch", "evaluate"),
    "explain": ("extract_evidence", "render_highlights"),
}
# Primitives whose forward time the multiply-accumulate count is spent in.
MAC_PRIMITIVES = ("matvec", "matmul", "dot", "linear_rows", "weighted_sum",
                  "segment_weighted_sum", "conv_ngram")

# Per-layer metrics of the traced run (see ``per_layer``).  ``_ms`` is
# inclusive time, ``_self_ms`` excludes traced callees, ``_backward_ms`` is
# the time of the pull closures the primitive recorded.
_PRIMITIVE_METRICS = tuple(
    f"autodiff.{name}{suffix}"
    for name in ("tree_cell_gates", "linear_rows", "conv_ngram", "dropout", "row_lookup",
                 "slice_rows", "concat_rows", "concat_cols", "split_last", "tanh",
                 "sigmoid", "matvec", "add", "weighted_sum", "softmax", "softmax_rows",
                 "segment_softmax", "segment_weighted_sum", "cross_entropy",
                 "cross_entropy_rows")
    for suffix in ("_ms", "_backward_ms", "_calls")
)
PER_LAYER = _PRIMITIVE_METRICS + (
    "autodiff.backward_ms", "autodiff.backward_self_ms", "autodiff.backward_calls",
    "autodiff.tape_records", "autodiff.forward_gmacs", "autodiff.gmacs_per_s",
    "structures.build_structure_ms", "structures.build_structure_calls",
    "encoders.encode_dag_self_ms", "encoders.encode_dag_calls",
    "encoders.encode_bi_forest_self_ms", "encoders.cnn_encode_self_ms",
    "encoders.bilstm_encode_self_ms", "encoders.bilstm_encode_batch_self_ms",
    "attention.attention_pool_ms", "attention.attention_pool_segments_ms",
    "attention.predict_ms", "attention.predict_rows_ms",
    "attention.classification_loss_ms", "attention.classification_loss_rows_ms",
    "model.forward_doc_self_ms", "model.forward_doc_calls",
    "model.forward_batch_bilstm_self_ms", "model.forward_batch_bilstm_calls",
    "training.run_epoch_self_ms", "training.evaluate_self_ms",
    "training.adam_step_ms", "training.adam_step_calls",
    "training.minor_faults", "training.evaluate_minor_faults",
    "explain.extract_evidence_ms", "explain.render_highlights_ms",
    "explain.evidence_units", "explain.minor_faults",
    "data.save_checkpoint_ms", "data.load_checkpoint_ms",
    "data.load_corpus_ms", "data.load_embeddings_ms", "data.setup_minor_faults",
)
END_TO_END = ("setup_s", "train_docs_per_s", "eval_docs_per_s", "explain_docs_per_s",
              "peak_rss_mb")
SETUP_METRICS = ("data.load_corpus_ms", "data.load_embeddings_ms", "data.setup_minor_faults")
HIGHER_IS_BETTER = ("autodiff.gmacs_per_s",)


def unit_of(metric: str) -> str:
    if metric.endswith("_ms"):
        return "ms"
    if metric.endswith("gmacs_per_s"):
        return "GMAC/s"
    if metric.endswith("_gmacs"):
        return "GMAC"
    return "count"


def minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


@dataclass
class Round:
    stamps: list[int]  # perf_counter_ns at the start of train, eval, explain, and the end
    faults: list[int]  # minor page faults at the same moments
    macs: int  # forward multiply-accumulates over the round
    evidence_units: int
    model: object
    evaluation: object
    outputs: list
    reports: list
    pages: list[str]

    def seconds(self, phase: int) -> float:
        return (self.stamps[phase + 1] - self.stamps[phase]) / 1e9


def cold_setup(args) -> float:
    """Seconds from starting a fresh copy of this script to the end of its
    ``prepare_bundle``."""
    command = [
        sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", "0", "--inputs", str(args.inputs),
        "--setup-only", "--spawned-at", repr(time.monotonic()),
    ]
    done = subprocess.run(command, capture_output=True, text=True, check=True,
                          timeout=SETUP_TIMEOUT_S)
    return float(done.stdout.split()[-1])


def run_round(mg, config, bundle, checkpoint: Path) -> Round:
    autodiff, data, explain, training = mg.autodiff, mg.data, mg.explain, mg.training
    stamps, faults = [], []

    def mark():
        stamps.append(time.perf_counter_ns())
        faults.append(minor_faults())

    macs = autodiff.mac_count()
    mark()
    result = training.train(config, bundle)
    data.save_checkpoint(result.model, checkpoint)
    mark()
    evaluation = training.evaluate(result.model, bundle.test)
    mark()
    loaded = data.load_checkpoint(checkpoint)
    test = bundle.test
    outputs, reports, pages = [], [], []
    for i in range(len(test)):
        output, _ = loaded.forward_doc(test.ids[i])
        report = explain.extract_evidence(
            output, test.tokens[i], loaded.label_names[output.predicted], THRESHOLD
        )
        pages.append(explain.render_highlights(report, "html"))
        outputs.append(output)
        reports.append(report)
    mark()
    return Round(stamps, faults, autodiff.mac_count() - macs,
                 sum(len(r.evidence) for r in reports), result.model, evaluation,
                 outputs, reports, pages)


# ---------------------------------------------------------------------------
# Checks that need the program
# ---------------------------------------------------------------------------


def float64_copy(mg, model):
    copy = mg.model.TextClassifier(
        model.config, model.vocab, model.label_names,
        mg.autodiff.Tensor(model.embeddings.data.astype("float64")),
    )
    copy.store.load_state_dict(model.store.state_dict())
    return copy


def held_out_group(docs, size: int = 3) -> list[int]:
    """Up to ``size`` held-out documents of one length, so that the BiLSTM's
    step-batched path can take them as one batch."""
    by_length: dict[int, list[int]] = {}
    for i in range(len(docs)):
        by_length.setdefault(len(docs.ids[i]), []).append(i)
    return max(by_length.values(), key=len)[:size]


def _mean_loss(mg, model, docs, group, tape: bool):
    """Mean loss over ``group`` with dropout off; with ``tape``, also
    accumulate its gradient into the parameters through ``Tape.backward``."""
    import numpy as np

    Tape = mg.autodiff.Tape
    if model.config.encoder == "bilstm":
        ids = np.stack([docs.ids[i] for i in group])
        golds = docs.labels[group]
        if not tape:
            return float(model.forward_batch_bilstm(ids, golds)[0].data)
        with Tape() as t:
            loss = model.forward_batch_bilstm(ids, golds)[0]
            t.backward(loss)
        return float(loss.data)
    total = 0.0
    for i in group:
        if not tape:
            total += float(model.forward_doc(docs.ids[i], gold=int(docs.labels[i]))[1].data)
            continue
        with Tape() as t:
            loss = model.forward_doc(docs.ids[i], gold=int(docs.labels[i]))[1]
            t.backward(loss, seed=1.0 / len(group))
        total += float(loss.data)
    return total / len(group)


def directional_derivative(mg, model, docs, group, seed: int) -> tuple[float, float]:
    """(tape, central difference) derivative of the mean held-out loss along
    one random unit direction over all trainable parameters.

    The tape derivative comes from the float32 model; the central difference
    from a float64 copy of it.  The direction's signs follow the gradient's,
    so the derivative is far from zero and its relative error is meaningful.
    """
    import numpy as np

    model.store.zero_grad()
    _mean_loss(mg, model, docs, group, tape=True)
    rng = np.random.default_rng(seed)
    direction, analytic, norm2 = {}, 0.0, 0.0
    for name, tensor in model.store.items():
        grad = np.zeros(tensor.shape) if tensor.grad is None else tensor.grad.astype(np.float64)
        step = np.abs(rng.standard_normal(tensor.shape)) * np.where(grad >= 0, 1.0, -1.0)
        direction[name] = step
        analytic += float((grad * step).sum())
        norm2 += float((step * step).sum())
    model.store.zero_grad()
    norm = np.sqrt(norm2)
    analytic /= norm
    copy = float64_copy(mg, model)
    base = copy.store.state_dict()

    def loss_at(h: float) -> float:
        copy.store.load_state_dict({n: base[n] + (h / norm) * direction[n] for n in base})
        return _mean_loss(mg, copy, docs, group, tape=False)

    numeric = (loss_at(checks.FD_STEP) - loss_at(-checks.FD_STEP)) / (2 * checks.FD_STEP)
    return analytic, numeric


def initial_model(mg, config, bundle):
    """The model ``training.train`` starts from under ``config``."""
    return mg.model.TextClassifier(
        config.model_config(bundle.num_classes), bundle.vocab, bundle.label_names,
        bundle.embeddings, init_seed=config.seed,
    )


def mean_loss(model, docs) -> float:
    """Mean loss over ``docs``, with dropout off."""
    total = sum(float(model.forward_doc(docs.ids[i], gold=int(docs.labels[i]))[1].data)
                for i in range(len(docs)))
    return total / len(docs)


def adam_steps(docs, batch_size: int) -> int:
    """Optimiser steps in training: one per same-length batch of at most
    ``batch_size`` documents, per epoch."""
    per_length = Counter(len(ids) for ids in docs.ids)
    return EPOCHS * sum(-(-count // batch_size) for count in per_length.values())


def run_checks(mg, workload, config, bundle, rounds: list[Round], plants: list[int]) -> list[str]:
    import numpy as np

    first = rounds[0]
    test = bundle.test
    initial = initial_model(mg, config, bundle)
    failures = checks.check_training(
        initial.store.state_dict(), first.model.store.state_dict(),
        config.learning_rate, adam_steps(bundle.train, config.batch_size),
    )
    failures += checks.check_loss_falls(mean_loss(initial, bundle.train),
                                        mean_loss(first.model, bundle.train))
    for index, later in enumerate(rounds[1:], start=2):
        if not np.array_equal(later.evaluation.predictions, first.evaluation.predictions):
            failures.append(f"round {index}: evaluation differs from round 1 under the same seed")
    loaded = [checks.DocOutput.of(o) for o in first.outputs]
    trained = [checks.DocOutput.of(first.model.forward_doc(ids)[0]) for ids in test.ids]
    copy = float64_copy(mg, first.model)
    wide = [checks.DocOutput.of(copy.forward_doc(ids)[0]) for ids in test.ids]
    lengths = [len(ids) for ids in test.ids]
    failures += checks.check_reload(trained, loaded)
    failures += checks.check_distributions(loaded)
    failures += checks.check_unit_spans(loaded, lengths, workload.encoder, MAX_ORDER)
    failures += checks.check_eval_agreement(list(first.evaluation.predictions), loaded)
    failures += checks.check_float64_agreement(trained, wide)
    failures += checks.check_gradient(
        *directional_derivative(mg, first.model, test, held_out_group(test), config.seed)
    )
    plain = [mg.explain.render_highlights(r, "plain") for r in first.reports]
    failures += checks.check_evidence(loaded, first.reports, plain, first.pages, test.tokens,
                                      THRESHOLD)
    if workload.learns:
        failures += checks.check_accuracy(first.evaluation.accuracy, bundle.num_classes)
    # Forest and CNN units see only their own span, so a correct prediction
    # rests on a unit that covers the plant.  A BiLSTM's word-position units
    # carry context from the whole document, so its top unit need not.
    if workload.learns and workload.encoder != "bilstm":
        top, planted = [], []
        for i, out in enumerate(first.outputs):
            if out.predicted != int(test.labels[i]):
                continue
            span = out.unit_spans[int(np.argmax(out.alpha))]
            start = plants[test.origin[i]]
            top.append((span.start, span.end))
            planted.append((start, start + PLANT_LENGTH))
        failures += checks.check_plant_overlap(top, planted)
    return failures


# ---------------------------------------------------------------------------
# Tracing
# ---------------------------------------------------------------------------


def install_tracer(mg):
    from tracing import Tracer

    tracer = Tracer(PACKAGE)
    missing = [
        f"{layer}.{name}"
        for layer, names in TRACED_FUNCTIONS.items()
        for name in names
        if not tracer.patch_function(getattr(mg, layer), name, primitive=layer == "autodiff")
    ]
    methods = (
        (mg.autodiff.Tape, "backward", "autodiff.backward",
         lambda tape: tracer.count("autodiff.tape_records", len(tape))),
        (mg.training.Adam, "step", "training.adam_step", None),
        (mg.model.TextClassifier, "forward_doc", "model.forward_doc", None),
        (mg.model.TextClassifier, "forward_batch_bilstm", "model.forward_batch_bilstm", None),
    )
    missing += [name for cls, attr, name, before in methods
                if not tracer.patch_method(cls, attr, name, before)]
    if missing:
        # A metric of a function the program no longer has would read 0.
        tracer.uninstall()
        raise RuntimeError(f"the program has none of the traced functions {missing}")
    tracer.attribute_backward(mg.autodiff.Tape)
    return tracer


def per_layer(tracer, setup_window, setup_faults: int, rounds: list[Round]) -> dict[str, float]:
    """Per-layer metrics: per round, averaged over the run's rounds, except
    the set-up ones, which happen once."""
    setup = tracer.aggregate(*setup_window)
    setup["data.setup_minor_faults"] = setup_faults
    total = tracer.aggregate(rounds[0].stamps[0], rounds[-1].stamps[-1])
    total["training.minor_faults"] = sum(r.faults[1] - r.faults[0] for r in rounds)
    total["training.evaluate_minor_faults"] = sum(r.faults[2] - r.faults[1] for r in rounds)
    total["explain.minor_faults"] = sum(r.faults[3] - r.faults[2] for r in rounds)
    total["explain.evidence_units"] = sum(r.evidence_units for r in rounds)
    macs = sum(r.macs for r in rounds)
    total["autodiff.forward_gmacs"] = macs / 1e9
    mac_ms = sum(total.get(f"autodiff.{p}_ms", 0.0) for p in MAC_PRIMITIVES)
    metrics = {
        name: setup.get(name, 0.0) if name in SETUP_METRICS else total.get(name, 0.0) / len(rounds)
        for name in PER_LAYER
    }
    metrics["autodiff.gmacs_per_s"] = macs / 1e6 / mac_ms if mac_ms else 0.0
    return metrics


# ---------------------------------------------------------------------------


class Modules:
    """The program's modules, imported from the checkout's ``src``."""

    def __init__(self):
        sys.path.insert(0, str(ROOT / "src"))
        import multigram

        expected = (ROOT / "src" / PACKAGE).resolve()
        if Path(multigram.__file__).resolve().parent != expected:
            raise ImportError(f"{PACKAGE} was imported from {multigram.__file__}, not {expected}")
        from multigram import attention, autodiff, data, encoders, explain, model, structures, training

        self.attention, self.autodiff, self.data, self.encoders = attention, autodiff, data, encoders
        self.explain, self.model, self.structures, self.training = explain, model, structures, training


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inputs", type=Path, required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() when the parent started this process")
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the seconds since --spawned-at and exit")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    mg = Modules()
    tracer = install_tracer(mg) if args.trace else None
    setup_started, faults = time.perf_counter_ns(), minor_faults()
    corpus = mg.data.load_corpus(args.inputs / "corpus.tsv")
    bundle = mg.training.prepare_bundle(
        corpus, args.inputs / "embeddings.txt", EMBED_DIM, seed=SPLIT_SEED, ratios=workload.ratios
    )
    setups = [time.monotonic() - args.spawned_at]
    if args.setup_only:
        print(repr(setups[0]))
        return 0
    setup_window = (setup_started, time.perf_counter_ns())
    setup_faults = minor_faults() - faults

    config = mg.training.TrainConfig(
        encoder=workload.encoder, learning_rate=workload.learning_rate, embed_dim=EMBED_DIM,
        hidden_dim=HIDDEN_DIM, attention_dim=HIDDEN_DIM, max_order=MAX_ORDER,
        epochs=EPOCHS, patience=EPOCHS, seed=args.seed,
    )
    checkpoint = args.inputs / "model.ckpt"
    rounds: list[Round] = []
    deadline = time.perf_counter_ns() + int(args.seconds * 1e9)
    while not rounds or time.perf_counter_ns() < deadline:
        done = run_round(mg, config, bundle, checkpoint)
        if rounds:  # only the first round's outputs are checked in full
            done.model = done.outputs = done.reports = done.pages = None
        rounds.append(done)
        if len(rounds) == 1:
            # The heap settles over later rounds, so a peak read at the end
            # would depend on how many rounds fitted in the run.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer is None:
            setups.append(cold_setup(args))
    if tracer is not None:
        tracer.uninstall()

    plants = json.loads((args.inputs / "plants.json").read_text())
    failures = run_checks(mg, workload, config, bundle, rounds, plants)
    for failure in failures:
        print(f"check failed: {failure}", file=sys.stderr)

    train_docs = EPOCHS * len(bundle.train)
    held_out = len(bundle.test)
    if tracer is not None:
        tracer.write(args.inputs.parent / "trace.tsv")
        metrics = {
            name: {"value": value, "unit": unit_of(name)}
            for name, value in per_layer(tracer, setup_window, setup_faults, rounds).items()
        }
    else:
        # Rates over the whole run: total documents over total phase time.
        # On a host whose speed switches between states for tens of seconds,
        # this averages the states a run sees; a median or a minimum over
        # rounds follows whichever state the run happened to land in.
        def rate(docs: int, phase: int) -> float:
            return len(rounds) * docs / sum(r.seconds(phase) for r in rounds)

        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "train_docs_per_s": {"value": rate(train_docs, 0), "unit": "docs/s"},
            "eval_docs_per_s": {"value": rate(held_out, 1), "unit": "docs/s"},
            "explain_docs_per_s": {"value": rate(held_out, 2), "unit": "docs/s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    phases = [[round(r.seconds(p), 4) for p in range(3)] for r in rounds]
    print(f"{args.workload} seed {args.seed}: {len(rounds)} rounds, phase seconds "
          f"(train, eval, explain) {phases}, set-up seconds {[round(t, 4) for t in setups]}",
          file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": len(rounds) * (train_docs + 2 * held_out),
        "failed": 0,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
