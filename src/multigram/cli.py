"""Command-line entry point.

Subcommands: train, eval, explain, fidelity, ablate, bench, dump-structure.
Options can come from a flat ``key = value`` config file (``--config``);
command-line flags override file values, and every run echoes its effective
configuration so it can be reproduced from the output alone.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numeric failure.
"""
from __future__ import annotations

import argparse
import dataclasses
import sys
from dataclasses import replace
from pathlib import Path

from .autodiff import NumericError
from .data import load_checkpoint, load_corpus, read_checkpoint_header, read_lines, save_checkpoint
from .errors import DataError, UsageError
from .explain import extract_evidence, fidelity_harness, fidelity_tsv, render_highlights
from .model import ENCODER_KINDS
from .structures import STRUCTURE_KINDS, build_structure, structure_records
from .synthetic import make_planted_corpus
from .training import (
    METRICS_HEADER,
    EncodedDocs,
    TrainConfig,
    bench_tsv,
    benchmark,
    evaluate,
    forward_chunks,
    prepare_bundle,
    split_bundle,
    thread_plan,
    train,
)

_CONFIG_FIELDS = {f.name: f.type for f in dataclasses.fields(TrainConfig)}
_PATH_KEYS = ("corpus", "embeddings", "parses", "checkpoint", "output_dir")
# The generated timing corpus has five classes, and the 8:1:1 split gives a
# class a dev and a test document from ten documents on.
_BENCH_MIN_DOCS = 5 * 10


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); keep codes ours
        raise UsageError(message)


def read_config_file(path) -> dict[str, str]:
    values: dict[str, str] = {}
    for lineno, line in read_lines(path, "config"):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise UsageError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (part.strip() for part in stripped.split("=", 1))
        values[key.replace("-", "_")] = value
    return values


def _coerce(key: str, value: str):
    kind = _CONFIG_FIELDS[key]
    try:
        if kind in (int, "int"):
            return int(value)
        if kind in (float, "float"):
            return float(value)
    except ValueError:
        raise UsageError(f"config key {key!r} needs a number, got {value!r}") from None
    return value


def _checked(config: TrainConfig) -> TrainConfig:
    """``config`` if its settings are valid, else a usage error.  Two classes,
    the fewest a model takes, stand in for the corpus's unknown count."""
    try:
        config.validate()
        config.model_config(num_classes=2).validate()
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    return config


def _refuse_tree_without_parses(args, encoders, what: str = "the tree encoder") -> None:
    """A ``tree`` run needs bracketings; without them it is a usage error,
    raised before any set-up work."""
    flag = "--parse" if args.command == "dump-structure" else "--parses"
    if "tree" in encoders and not getattr(args, flag[2:]):
        raise UsageError(f"{args.command}: {what} needs {flag}")


def _positive_ints(flag: str, text: str) -> list[int]:
    """The comma-separated positive integers of ``flag``."""
    values = [v.strip() for v in text.split(",") if v.strip()]
    if not all(v.isdecimal() and int(v) > 0 for v in values):
        raise UsageError(f"{flag} needs comma-separated positive integers, got {text!r}")
    return [int(v) for v in values]


def resolve_train_config(args) -> TrainConfig:
    """Defaults, then config-file values, then explicit flags.  A file value
    is copied onto ``args`` where no flag set it."""
    config = TrainConfig()
    file_values = read_config_file(args.config) if getattr(args, "config", None) else {}
    for key, value in file_values.items():
        if key in _CONFIG_FIELDS:
            value = _coerce(key, value)
        elif key not in _PATH_KEYS:
            raise UsageError(f"unknown config key: {key!r}")
        if getattr(args, key, None) is None:
            setattr(args, key, value)
    overrides = {
        key: getattr(args, key)
        for key in _CONFIG_FIELDS
        if getattr(args, key, None) is not None
    }
    return _checked(replace(config, **overrides))


def echo_config(command: str, config: TrainConfig | None, args, extra: dict | None = None) -> None:
    print(f"[config] command = {command}")
    items: dict[str, object] = {}
    if config is not None:
        items.update(dataclasses.asdict(config))
    for key in _PATH_KEYS:
        value = getattr(args, key, None)
        if value is not None:
            items[key] = value
    if extra:
        items.update(extra)
    for key in sorted(items):
        print(f"[config] {key} = {items[key]}")


def _add_train_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="flat key = value config file")
    parser.add_argument("--encoder", choices=ENCODER_KINDS)
    parser.add_argument("--learning-rate", type=float, dest="learning_rate")
    parser.add_argument("--batch-size", type=int, dest="batch_size")
    parser.add_argument("--dropout", type=float)
    parser.add_argument("--hidden-dim", type=int, dest="hidden_dim")
    parser.add_argument("--embed-dim", type=int, dest="embed_dim")
    parser.add_argument("--attention-dim", type=int, dest="attention_dim")
    parser.add_argument("--max-order", type=int, dest="max_order")
    parser.add_argument("--epochs", type=int)
    parser.add_argument("--patience", type=int)
    _add_eval_flags(parser)


def _add_eval_flags(parser: argparse.ArgumentParser) -> None:
    """The two training settings ``eval`` reads: the split seed and the
    memory update a checkpoint must have been trained with."""
    parser.add_argument("--seed", type=int)
    parser.add_argument("--memory-update", choices=("hidden", "cell"), dest="memory_update")


def build_parser() -> _Parser:
    parser = _Parser(prog="multigram", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train a classifier")
    _add_train_flags(p_train)
    p_train.add_argument("--corpus", help="label<TAB>text TSV")
    p_train.add_argument("--embeddings", help="GloVe-format text embeddings")
    p_train.add_argument("--parses", help="bracketed trees aligned with the corpus")
    p_train.add_argument("--output-dir", dest="output_dir", default="runs/latest")

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint")
    _add_eval_flags(p_eval)
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--corpus", required=True)
    p_eval.add_argument("--parses")
    p_eval.add_argument("--split", choices=("all", "train", "dev", "test"), default="all")

    p_explain = sub.add_parser("explain", help="write evidence reports")
    p_explain.add_argument("--checkpoint", required=True)
    p_explain.add_argument("--corpus", required=True)
    p_explain.add_argument("--parses")
    p_explain.add_argument("--threshold", type=float, default=0.05)
    p_explain.add_argument("--format", choices=("plain", "html"), default="plain")
    p_explain.add_argument("--output-dir", dest="output_dir")

    p_fid = sub.add_parser("fidelity", help="evidence fidelity harness")
    _add_train_flags(p_fid)
    p_fid.add_argument("--checkpoint", required=True)
    p_fid.add_argument("--corpus", required=True)
    p_fid.add_argument("--parses", help="bracketed trees aligned with the corpus")
    p_fid.add_argument("--n-values", dest="n_values", default="1,2,3,4,5,6,7,8,9,10,20,30,40,50")
    p_fid.add_argument("--output")

    p_abl = sub.add_parser("ablate", help="sweep encoders over ngram orders")
    _add_train_flags(p_abl)
    p_abl.add_argument("--corpus", required=True)
    p_abl.add_argument("--embeddings")
    p_abl.add_argument("--parses", help="bracketed trees aligned with the corpus")
    p_abl.add_argument("--encoders", default="leftforest,cnn,bilstm")
    p_abl.add_argument("--orders", default="1,2,3,4,5,6,7,8,9")
    p_abl.add_argument("--output")

    p_bench = sub.add_parser("bench", help="efficiency comparison")
    _add_train_flags(p_bench)
    p_bench.add_argument("--corpus", help="defaults to a synthetic timing corpus")
    p_bench.add_argument("--embeddings")
    p_bench.add_argument("--parses", help="bracketed trees aligned with --corpus")
    p_bench.add_argument("--encoders", default="leftforest,cnn")
    p_bench.add_argument("--docs", type=int, default=1000)
    p_bench.add_argument("--doc-len", type=int, dest="doc_len", default=200)
    p_bench.add_argument("--output")

    p_dump = sub.add_parser("dump-structure", help="emit a structure as TSV records")
    p_dump.add_argument("--kind", required=True, choices=STRUCTURE_KINDS)
    words = p_dump.add_mutually_exclusive_group(required=True)
    words.add_argument("--tokens", help="space-separated tokens")
    words.add_argument("--length", type=int, help="token count (alternative to --tokens)")
    p_dump.add_argument("--max-order", type=int, dest="max_order", default=7)
    p_dump.add_argument("--parse", help="bracketed tree (kind=tree)")
    p_dump.add_argument("--output")
    return parser


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_train(args) -> int:
    config = resolve_train_config(args)
    if not args.corpus:
        raise UsageError("train needs --corpus (flag or config file)")
    _refuse_tree_without_parses(args, [config.encoder])
    echo_config("train", config, args, extra=dataclasses.asdict(thread_plan(config.encoder)))
    corpus = load_corpus(args.corpus, parse_path=args.parses)
    bundle = prepare_bundle(corpus, args.embeddings, config.embed_dim, config.seed)
    stats = corpus.length_stats()
    print(f"[data] documents = {stats['documents']}, mean tokens = {stats['mean_tokens']:.1f}")
    print(f"[data] embedding coverage = {bundle.coverage:.1%}")
    out = Path(args.output_dir)
    out.mkdir(parents=True, exist_ok=True)  # an unwritable path fails before training
    # One row per epoch, flushed as the epoch ends, so a run that dies
    # leaves every finished epoch on disk.
    with (out / "metrics.tsv").open("w", encoding="utf-8") as metrics:
        metrics.write(METRICS_HEADER + "\n")
        metrics.flush()

        def record(row) -> None:
            metrics.write(row.tsv_row() + "\n")
            metrics.flush()

        result = train(config, bundle, on_epoch=record)
    save_checkpoint(result.model, out / "model.ckpt", extra={"seed": config.seed})
    print(f"[result] best dev accuracy = {result.best_dev_accuracy:.4f} "
          f"(epoch {result.best_epoch})")
    print(f"[result] checkpoint = {out / 'model.ckpt'}")
    return 0


def _checkpoint_corpus(args, model):
    """The corpus a loaded checkpoint runs on, with its parses; a ``tree``
    checkpoint without ``--parses`` is a usage error."""
    _refuse_tree_without_parses(args, [model.config.encoder], "a tree checkpoint")
    return load_corpus(args.corpus, label_names=model.label_names, parse_path=args.parses)


def _split_seed(args) -> int:
    """The seed given by flag or config file, else the one the checkpoint's
    training run recorded: ``eval`` and ``fidelity`` split as that run did.
    A negative flag is a usage error, a malformed recorded seed a data
    error."""
    if args.seed is not None:
        return _checked(TrainConfig(seed=args.seed)).seed
    extra = read_checkpoint_header(args.checkpoint).get("extra", {})
    if not isinstance(extra, dict):
        raise DataError(f"{args.checkpoint}: checkpoint header's extra is not a JSON object")
    seed = extra.get("seed", 0)
    if type(seed) is not int or seed < 0:
        raise DataError(
            f"{args.checkpoint}: checkpoint header's extra.seed is {seed!r}, "
            f"not a non-negative integer"
        )
    return seed


def _checkpoint_bundle(args, model, seed: int):
    """The corpus split by ``seed`` and encoded with the checkpoint's
    vocabulary and embeddings; a split error names the corpus."""
    corpus = _checkpoint_corpus(args, model)
    try:
        return split_bundle(corpus, model.vocab, model.embeddings, seed)
    except DataError as exc:
        raise DataError(f"{args.corpus}: {exc}") from None


def cmd_eval(args) -> int:
    require = {"memory_update": args.memory_update} if args.memory_update else None
    model = load_checkpoint(args.checkpoint, require=require)
    seed = _split_seed(args)
    echo_config("eval", None, args, extra={"seed": seed, "split": args.split})
    if args.split == "all":
        docs = EncodedDocs.from_corpus(_checkpoint_corpus(args, model), model.vocab)
    else:
        docs = getattr(_checkpoint_bundle(args, model, seed), args.split)
    result = evaluate(model, docs)
    print(f"accuracy\t{result.accuracy:.4f}")
    for name in model.label_names:
        counts = result.per_class[name]
        print(f"class\t{name}\t{counts['correct']}\t{counts['total']}")
    return 0


def cmd_explain(args) -> int:
    model = load_checkpoint(args.checkpoint)
    echo_config("explain", None, args,
                extra={"threshold": args.threshold, "format": args.format})
    docs = EncodedDocs.from_corpus(_checkpoint_corpus(args, model), model.vocab)
    out_dir = Path(args.output_dir) if args.output_dir else None
    if out_dir:
        out_dir.mkdir(parents=True, exist_ok=True)
    suffix = "html" if args.format == "html" else "txt"
    for i, (tokens, output) in enumerate(zip(docs.tokens, forward_chunks(model, docs))):
        report = extract_evidence(
            output, tokens, model.label_names[output.predicted], args.threshold
        )
        lines = [f"predicted\t{report.predicted_label}"]
        for ev in report.evidence:
            lines.append(
                f"evidence\t{ev.span.start}\t{ev.span.order}\t{ev.weight:.4f}\t{' '.join(ev.text)}"
            )
        lines.append(render_highlights(report, args.format))
        text = "\n".join(lines) + "\n"
        if out_dir:
            (out_dir / f"doc{i:04d}.{suffix}").write_text(text, encoding="utf-8")
        else:
            print(text, end="")
    return 0


def cmd_fidelity(args) -> int:
    config = resolve_train_config(args)
    n_values = _positive_ints("--n-values", args.n_values)
    model = load_checkpoint(args.checkpoint)
    config = replace(config, seed=_split_seed(args))
    echo_config("fidelity", config, args, extra={"n_values": args.n_values})
    # Reduced texts are encoded with the checkpoint's own vocabulary.
    bundle = _checkpoint_bundle(args, model, config.seed)
    probe = _checked(replace(config, encoder="bilstm", embed_dim=model.config.embed_dim))
    rows = fidelity_harness(model, bundle, n_values, seed=config.seed, probe_config=probe)
    text = fidelity_tsv(rows)
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
    print(text, end="")
    return 0


def cmd_ablate(args) -> int:
    config = resolve_train_config(args)
    encoders = [_checked(replace(config, encoder=e.strip())).encoder
                for e in args.encoders.split(",") if e.strip()]
    orders = _positive_ints("--orders", args.orders)
    _refuse_tree_without_parses(args, encoders)
    echo_config("ablate", config, args,
                extra={"encoders": args.encoders, "orders": args.orders})
    corpus = load_corpus(args.corpus, parse_path=args.parses)
    bundle = prepare_bundle(corpus, args.embeddings, config.embed_dim, config.seed)
    lines = ["encoder\tK\tdev_acc"]
    for encoder in encoders:
        # The tree and the BiLSTM read no order: one run each, K "-".
        for order in ("-",) if encoder in ("tree", "bilstm") else orders:
            order_setting = {} if order == "-" else {"max_order": order}
            result = train(replace(config, encoder=encoder, **order_setting), bundle)
            lines.append(f"{encoder}\t{order}\t{result.best_dev_accuracy:.4f}")
            print(lines[-1])
    text = "\n".join(lines) + "\n"
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
    return 0


def cmd_bench(args) -> int:
    config = resolve_train_config(args)
    encoders = [_checked(replace(config, encoder=e.strip())).encoder
                for e in args.encoders.split(",") if e.strip()]
    if args.parses and not args.corpus:
        raise UsageError("bench: --parses needs --corpus")
    _refuse_tree_without_parses(args, encoders)
    if not args.corpus and args.docs < _BENCH_MIN_DOCS:
        raise UsageError(
            f"bench: --docs must be at least {_BENCH_MIN_DOCS}, so that the 8:1:1 split of "
            f"the generated corpus gives every class a dev and a test document"
        )
    echo_config("bench", config, args,
                extra={"encoders": args.encoders, "docs": args.docs, "doc_len": args.doc_len})
    if args.corpus:
        corpus = load_corpus(args.corpus, parse_path=args.parses)
    else:
        try:
            corpus = make_planted_corpus(
                num_docs=args.docs,
                length_range=(args.doc_len, args.doc_len),
                seed=config.seed,
            ).corpus
        except ValueError as exc:
            raise UsageError(f"--doc-len: {exc}") from None
    bundle = prepare_bundle(corpus, args.embeddings, config.embed_dim, config.seed)
    rows = benchmark(config, bundle, encoders)
    text = bench_tsv(rows)
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
    print(text, end="")
    return 0


def cmd_dump_structure(args) -> int:
    if args.parse is not None and args.kind != "tree":
        raise UsageError("dump-structure: --parse needs --kind tree")
    # A bare length: a tree's leaf words go unchecked.
    tokens = args.length if args.tokens is None else args.tokens.split()
    n = tokens if isinstance(tokens, int) else len(tokens)
    if n < 1 or args.max_order < 1:
        raise UsageError("dump-structure needs at least one token and --max-order of at least 1")
    _refuse_tree_without_parses(args, [args.kind], "--kind tree")
    shape = build_structure(args.kind, tokens, args.max_order, parse=args.parse)
    text = "\n".join(structure_records(shape)) + "\n"
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
    print(text, end="")
    return 0


_HANDLERS = {
    "train": cmd_train,
    "eval": cmd_eval,
    "explain": cmd_explain,
    "fidelity": cmd_fidelity,
    "ablate": cmd_ablate,
    "bench": cmd_bench,
    "dump-structure": cmd_dump_structure,
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return _HANDLERS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (DataError, OSError) as exc:  # OSError: a path that cannot be read or written
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
