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

import numpy as np

from .autodiff import NumericError
from .data import (
    load_checkpoint,
    load_corpus,
    save_checkpoint,
)
from .errors import DataError, UsageError
from .explain import extract_evidence, fidelity_harness, fidelity_tsv, render_highlights
from .structures import BracketingError, build_structure, structure_records
from .synthetic import make_planted_corpus
from .training import (
    TrainConfig,
    bench_tsv,
    benchmark,
    evaluate,
    prepare_bundle,
    train,
)

_CONFIG_FIELDS = {f.name: f.type for f in dataclasses.fields(TrainConfig)}
_PATH_KEYS = ("corpus", "embeddings", "parses", "checkpoint", "output_dir")


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); keep codes ours
        raise UsageError(message)


def read_config_file(path) -> dict[str, str]:
    path = Path(path)
    if not path.exists():
        raise DataError(f"config file not found: {path}")
    values: dict[str, str] = {}
    for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
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
    if kind in (int, "int"):
        return int(value)
    if kind in (float, "float"):
        return float(value)
    return value


def resolve_train_config(args) -> TrainConfig:
    """Defaults, then config-file values, then explicit flags."""
    config = TrainConfig()
    file_values = read_config_file(args.config) if getattr(args, "config", None) else {}
    for key, value in file_values.items():
        if key in _CONFIG_FIELDS:
            config = replace(config, **{key: _coerce(key, value)})
        elif key in _PATH_KEYS:
            if getattr(args, key, None) is None:
                setattr(args, key, value)
        else:
            raise UsageError(f"unknown config key: {key!r}")
    overrides = {
        key: getattr(args, key)
        for key in _CONFIG_FIELDS
        if getattr(args, key, None) is not None
    }
    config = replace(config, **overrides)
    config.validate()
    return config


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
    parser.add_argument("--encoder", choices=(
        "tree", "pyramid", "leftforest", "rightforest", "biforest", "bilstm", "cnn"
    ))
    parser.add_argument("--learning-rate", type=float, dest="learning_rate")
    parser.add_argument("--batch-size", type=int, dest="batch_size")
    parser.add_argument("--dropout", type=float)
    parser.add_argument("--hidden-dim", type=int, dest="hidden_dim")
    parser.add_argument("--embed-dim", type=int, dest="embed_dim")
    parser.add_argument("--attention-dim", type=int, dest="attention_dim")
    parser.add_argument("--max-order", type=int, dest="max_order")
    parser.add_argument("--epochs", type=int)
    parser.add_argument("--patience", type=int)
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
    _add_train_flags(p_eval)
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--corpus", required=True)
    p_eval.add_argument("--parses")
    p_eval.add_argument("--split", choices=("all", "train", "dev", "test"), default="all")

    p_explain = sub.add_parser("explain", help="write evidence reports")
    _add_train_flags(p_explain)
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
    p_fid.add_argument("--n-values", dest="n_values", default="1,2,3,4,5,6,7,8,9,10,20,30,40,50")
    p_fid.add_argument("--output")

    p_abl = sub.add_parser("ablate", help="sweep encoders over ngram orders")
    _add_train_flags(p_abl)
    p_abl.add_argument("--corpus", required=True)
    p_abl.add_argument("--embeddings")
    p_abl.add_argument("--encoders", default="leftforest,cnn,bilstm")
    p_abl.add_argument("--orders", default="1,2,3,4,5,6,7,8,9")
    p_abl.add_argument("--output")

    p_bench = sub.add_parser("bench", help="efficiency comparison")
    _add_train_flags(p_bench)
    p_bench.add_argument("--corpus", help="defaults to a synthetic timing corpus")
    p_bench.add_argument("--embeddings")
    p_bench.add_argument("--encoders", default="leftforest,cnn")
    p_bench.add_argument("--docs", type=int, default=1000)
    p_bench.add_argument("--doc-len", type=int, dest="doc_len", default=200)
    p_bench.add_argument("--output")

    p_dump = sub.add_parser("dump-structure", help="emit a structure as TSV records")
    p_dump.add_argument("--kind", required=True,
                        choices=("tree", "pyramid", "leftforest", "rightforest"))
    p_dump.add_argument("--tokens", help="space-separated tokens")
    p_dump.add_argument("--length", type=int, help="token count (alternative to --tokens)")
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
    echo_config("train", config, args)
    corpus = load_corpus(args.corpus, parse_path=args.parses)
    bundle = prepare_bundle(corpus, args.embeddings, config.embed_dim, config.seed)
    stats = corpus.length_stats()
    print(f"[data] documents = {stats['documents']}, mean tokens = {stats['mean_tokens']:.1f}")
    print(f"[data] embedding coverage = {bundle.coverage:.1%}")
    result = train(config, bundle)
    out = Path(args.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    save_checkpoint(result.model, out / "model.ckpt", extra={"seed": config.seed})
    (out / "metrics.tsv").write_text(result.metrics_tsv(), encoding="utf-8")
    print(f"[result] best dev accuracy = {result.best_dev_accuracy:.4f} "
          f"(epoch {result.best_epoch})")
    print(f"[result] checkpoint = {out / 'model.ckpt'}")
    return 0


def _split_for_eval(args, model, seed: int):
    from .training import EncodedDocs  # local import to keep module graph simple

    corpus = load_corpus(args.corpus, label_names=model.label_names, parse_path=args.parses)
    if args.split == "all":
        return EncodedDocs.from_corpus(corpus, model.vocab)
    from .data import split_stratified

    splits = dict(zip(("train", "dev", "test"), split_stratified(corpus, seed=seed)))
    return EncodedDocs.from_corpus(splits[args.split], model.vocab)


def cmd_eval(args) -> int:
    require = {"memory_update": args.memory_update} if args.memory_update else None
    model = load_checkpoint(args.checkpoint, require=require)
    from .data import read_checkpoint_header

    header = read_checkpoint_header(args.checkpoint)
    seed = args.seed if args.seed is not None else header.get("extra", {}).get("seed", 0)
    echo_config("eval", None, args, extra={"seed": seed, "split": args.split})
    docs = _split_for_eval(args, model, seed)
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
    corpus = load_corpus(args.corpus, label_names=model.label_names, parse_path=args.parses)
    out_dir = Path(args.output_dir) if args.output_dir else None
    if out_dir:
        out_dir.mkdir(parents=True, exist_ok=True)
    suffix = "html" if args.format == "html" else "txt"
    for i, tokens in enumerate(corpus.documents):
        ids = model.vocab.encode(tokens)
        parse = corpus.parses[i] if corpus.parses else None
        output, _ = model.forward_doc(ids, parse=parse)
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
    from .data import split_stratified
    from .training import DataBundle, EncodedDocs

    config = resolve_train_config(args)
    model = load_checkpoint(args.checkpoint)
    echo_config("fidelity", config, args, extra={"n_values": args.n_values})
    corpus = load_corpus(args.corpus, label_names=model.label_names)
    # Reduced texts must be encoded with the checkpoint's own vocabulary.
    train_c, dev_c, test_c = split_stratified(corpus, seed=config.seed)
    bundle = DataBundle(
        vocab=model.vocab,
        label_names=model.label_names,
        embeddings=model.embeddings,
        coverage=1.0,
        train=EncodedDocs.from_corpus(train_c, model.vocab),
        dev=EncodedDocs.from_corpus(dev_c, model.vocab),
        test=EncodedDocs.from_corpus(test_c, model.vocab),
    )
    n_values = [int(v) for v in args.n_values.split(",") if v.strip()]
    probe = replace(config, encoder="bilstm", embed_dim=model.config.embed_dim)
    rows = fidelity_harness(model, bundle, n_values, seed=config.seed, probe_config=probe)
    text = fidelity_tsv(rows)
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
    print(text, end="")
    return 0


def cmd_ablate(args) -> int:
    config = resolve_train_config(args)
    echo_config("ablate", config, args,
                extra={"encoders": args.encoders, "orders": args.orders})
    corpus = load_corpus(args.corpus)
    bundle = prepare_bundle(corpus, args.embeddings, config.embed_dim, config.seed)
    encoders = [e.strip() for e in args.encoders.split(",") if e.strip()]
    orders = [int(k) for k in args.orders.split(",") if k.strip()]
    lines = ["encoder\tK\tdev_acc"]
    for encoder in encoders:
        if encoder == "bilstm":
            result = train(replace(config, encoder="bilstm"), bundle)
            lines.append(f"bilstm\t-\t{result.best_dev_accuracy:.4f}")
            print(lines[-1])
            continue
        for order in orders:
            result = train(replace(config, encoder=encoder, max_order=order), bundle)
            lines.append(f"{encoder}\t{order}\t{result.best_dev_accuracy:.4f}")
            print(lines[-1])
    text = "\n".join(lines) + "\n"
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
    return 0


def cmd_bench(args) -> int:
    config = resolve_train_config(args)
    echo_config("bench", config, args,
                extra={"encoders": args.encoders, "docs": args.docs, "doc_len": args.doc_len})
    if args.corpus:
        corpus = load_corpus(args.corpus)
    else:
        corpus = make_planted_corpus(
            num_docs=args.docs,
            length_range=(args.doc_len, args.doc_len),
            seed=config.seed,
        ).corpus
    bundle = prepare_bundle(corpus, args.embeddings, config.embed_dim, config.seed)
    encoders = [e.strip() for e in args.encoders.split(",") if e.strip()]
    rows = benchmark(config, bundle, encoders)
    text = bench_tsv(rows)
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
    print(text, end="")
    return 0


def cmd_dump_structure(args) -> int:
    if args.tokens:
        tokens = args.tokens.split()
    elif args.length:
        tokens = [f"w{i}" for i in range(args.length)]
    else:
        raise UsageError("dump-structure needs --tokens or --length")
    dag = build_structure(args.kind, tokens, args.max_order, parse=args.parse)
    text = "\n".join(structure_records(dag)) + "\n"
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
    except (DataError, BracketingError, FileNotFoundError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
