import struct
import subprocess
import sys

import numpy as np
import pytest

from multigram.cli import main
from multigram.synthetic import make_planted_corpus

from conftest import left_branching_bracketing, rewrite_checkpoint_header, save_corpus


@pytest.fixture(scope="module")
def corpus_path(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    planted = make_planted_corpus(
        num_docs=45, num_classes=3, distractor_vocab=30, length_range=(6, 8), seed=2
    )
    path = root / "tiny.tsv"
    save_corpus(planted.corpus, path)
    return path


FAST = [
    "--embed-dim", "10", "--hidden-dim", "6", "--attention-dim", "6",
    "--max-order", "2", "--batch-size", "16", "--epochs", "2",
    "--patience", "2", "--seed", "3",
]


def run(args):
    return main([str(a) for a in args])


class TestDumpStructure:
    def test_pyramid_four_tokens_ten_records(self, capsys):
        assert run(["dump-structure", "--kind", "pyramid", "--length", "4",
                    "--max-order", "4"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert len(lines) == 10
        assert all(len(line.split("\t")) == 5 for line in lines)

    def test_tree_needs_parse(self, capsys):
        assert run(["dump-structure", "--kind", "tree", "--tokens", "a b"]) == 1
        captured = capsys.readouterr()
        assert captured.err == "usage error: dump-structure: --kind tree needs --parse\n"
        assert captured.out == ""

    def test_tree_from_parse(self, capsys):
        assert run(["dump-structure", "--kind", "tree", "--tokens", "a b c",
                    "--parse", "((a b) c)"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[3:] == ["3\t0\t2\t0\t1", "4\t0\t3\t3\t2"]

    def test_tree_from_parse_over_a_bare_length(self, capsys):
        # --length gives no leaf words, so any bracketing of that many leaves reads.
        assert run(["dump-structure", "--kind", "tree", "--length", "4",
                    "--parse", "((a b) (c d))"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[4:] == ["4\t0\t2\t0\t1", "5\t2\t2\t2\t3", "6\t0\t4\t4\t5"]

    def test_tokens_or_length_required(self, capsys):
        assert run(["dump-structure", "--kind", "pyramid"]) == 1

    @pytest.mark.parametrize("args, message", [
        (["--tokens", "a b", "--length", "5"], "not allowed with argument"),
        (["--tokens", "a b", "--parse", "(a b)"], "--parse needs --kind tree"),
        (["--length", "2", "--parse", "(a b)"], "--parse needs --kind tree"),
        (["--tokens", ""], "at least one token"),
    ], ids=["tokens-and-length", "parse-with-tokens", "parse-with-length", "empty-tokens"])
    def test_flag_mismatches_are_usage_errors(self, capsys, args, message):
        assert run(["dump-structure", "--kind", "pyramid", *args]) == 1
        captured = capsys.readouterr()
        assert message in captured.err and captured.out == ""

    def test_a_directory_as_output_is_a_data_error(self, tmp_path, capsys):
        assert run(["dump-structure", "--kind", "pyramid", "--length", "2",
                    "--output", tmp_path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and f"'{tmp_path}'" in err

    def test_tokens_flag(self, capsys):
        assert run(["dump-structure", "--kind", "leftforest", "--tokens", "a b c",
                    "--max-order", "2"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert len(lines) == 3 + 2


class TestTrain:
    def test_happy_path_writes_artifacts(self, corpus_path, tmp_path, capsys):
        out = tmp_path / "run"
        code = run(["train", "--corpus", corpus_path, "--encoder", "leftforest",
                    *FAST, "--output-dir", out])
        assert code == 0
        assert (out / "model.ckpt").exists()
        assert (out / "metrics.tsv").exists()
        stdout = capsys.readouterr().out
        assert "[config] seed = 3" in stdout
        assert "best dev accuracy" in stdout

    def test_missing_corpus_names_path(self, tmp_path, capsys):
        code = run(["train", "--corpus", tmp_path / "nope.tsv", *FAST])
        assert code == 2
        assert "nope.tsv" in capsys.readouterr().err

    def test_directory_as_corpus_is_a_data_error(self, tmp_path, capsys):
        assert run(["train", "--corpus", tmp_path, *FAST]) == 2
        assert f"cannot read corpus file {tmp_path}" in capsys.readouterr().err

    def test_output_dir_under_a_file_is_a_data_error(self, corpus_path, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        assert run(["train", "--corpus", corpus_path, "--encoder", "leftforest", *FAST,
                    "--output-dir", blocker / "run"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and f"'{blocker / 'run'}'" in err

    def test_seed_repeat_reproduces_metrics(self, corpus_path, tmp_path, capsys):
        logs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert run(["train", "--corpus", corpus_path, "--encoder", "leftforest",
                        *FAST, "--output-dir", out]) == 0
            rows = (out / "metrics.tsv").read_text().strip().split("\n")
            # Wall-clock seconds legitimately differ between runs.
            logs.append([row.rsplit("\t", 1)[0] for row in rows])
        assert logs[0] == logs[1]

    def test_unknown_flag_is_usage_error(self, capsys):
        assert run(["train", "--frobnicate"]) == 1

    def test_invalid_config_value_is_usage_error(self, corpus_path, capsys):
        assert run(["train", "--corpus", corpus_path, "--dropout", "1.5"]) == 1

    @pytest.mark.parametrize("args, message", [
        (["ablate", "--orders", "1,x"], "--orders"),
        (["ablate", "--orders", "0"], "--orders"),
        (["ablate", "--encoders", "transformer"], "unknown encoder"),
        (["bench", "--encoders", "leftforest,transformer"], "unknown encoder"),
        (["fidelity", "--checkpoint", "unread.ckpt", "--n-values", "2,two"], "--n-values"),
        (["dump-structure", "--kind", "pyramid", "--length", "3", "--max-order", "0"],
         "--max-order"),
        (["dump-structure", "--kind", "pyramid", "--length", "0"], "at least one token"),
    ])
    def test_bad_option_values_are_usage_errors(self, corpus_path, capsys, args, message):
        if args[0] != "dump-structure":
            args = [*args, "--corpus", corpus_path]
        assert run(args) == 1
        assert message in capsys.readouterr().err

    def test_non_numeric_config_file_value_is_usage_error(self, corpus_path, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("hidden_dim = wide\n")
        assert run(["train", "--config", cfg, "--corpus", corpus_path]) == 1
        assert "hidden_dim" in capsys.readouterr().err

    def test_internal_shape_error_is_not_a_usage_error(self, monkeypatch, capsys):
        from multigram import cli
        from multigram.autodiff import ShapeError

        def broken(args):
            raise ShapeError("gate block width 10 is not a multiple of 3")

        monkeypatch.setitem(cli._HANDLERS, "dump-structure", broken)
        with pytest.raises(ShapeError):
            run(["dump-structure", "--kind", "pyramid", "--length", "3"])
        assert "usage error" not in capsys.readouterr().err


class TestConfigFile:
    def test_file_values_used_and_flags_override(self, corpus_path, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "encoder = leftforest\nhidden-dim = 6\nembed_dim = 10\n"
            "attention_dim = 6\nmax_order = 2\nepochs = 2\npatience = 2\n"
            f"batch_size = 16\nseed = 5\ncorpus = {corpus_path}\n"
        )
        out = tmp_path / "out"
        code = run(["train", "--config", cfg, "--seed", "9", "--output-dir", out])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "[config] seed = 9" in stdout  # flag wins over file
        assert "[config] hidden_dim = 6" in stdout

    def test_unknown_key_rejected(self, corpus_path, tmp_path, capsys):
        # ``threads`` was a key once; it is now as unknown as any other.
        for key in ("explosiveness", "threads"):
            cfg = tmp_path / "bad.cfg"
            cfg.write_text(f"{key} = 11\n")
            assert run(["train", "--config", cfg, "--corpus", corpus_path]) == 1
            assert key in capsys.readouterr().err

    @pytest.mark.parametrize("value, problem", [("nan", "non-finite"), ("x1", "non-numeric")])
    def test_bad_embedding_value_is_a_data_error(self, corpus_path, tmp_path, capsys,
                                                 value, problem):
        word = corpus_path.read_text().split("\n")[0].split("\t")[1].split()[0]
        embeddings = tmp_path / "vectors.txt"
        embeddings.write_text(f"{word} " + " ".join(["0.1"] * 9 + [value]) + "\n")
        code = run(["train", "--corpus", corpus_path, "--embeddings", embeddings, *FAST,
                    "--output-dir", tmp_path / "run"])
        assert code == 2
        assert f"vectors.txt:1: {problem}" in capsys.readouterr().err

    def test_embedding_line_without_values_is_a_data_error(self, corpus_path, tmp_path, capsys):
        word = corpus_path.read_text().split("\n")[0].split("\t")[1].split()[0]
        embeddings = tmp_path / "vectors.txt"
        embeddings.write_text(f"{word}\n")
        code = run(["train", "--corpus", corpus_path, "--embeddings", embeddings, *FAST,
                    "--output-dir", tmp_path / "run"])
        assert code == 2
        assert "vectors.txt:1: 0 values, expected 10" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, good_line", [
        ("--corpus", "a\tb c"), ("--parses", "(b c)"), ("--embeddings", "zzz 0.5"),
        ("--config", "# a comment"),
    ], ids=["corpus", "parses", "embeddings", "config"])
    def test_non_utf8_input_names_file_and_line(self, corpus_path, tmp_path, capsys,
                                                flag, good_line):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(good_line.encode() + b"\n\xff\xfe\n")
        inputs = {"--corpus": corpus_path, flag: bad}
        args = [str(x) for pair in inputs.items() for x in pair]
        assert run(["train", *args, *FAST, "--output-dir", tmp_path / "run"]) == 2
        assert f"{bad}:2: not UTF-8" in capsys.readouterr().err


@pytest.fixture(scope="module")
def trained_run(corpus_path, tmp_path_factory):
    out = tmp_path_factory.mktemp("trained")
    code = main(["train", "--corpus", str(corpus_path), "--encoder", "leftforest",
                 *[str(a) for a in FAST], "--output-dir", str(out)])
    assert code == 0
    return out / "model.ckpt"


class TestEvalExplainBench:
    def test_eval_prints_accuracy_and_class_counts(self, trained_run, corpus_path, capsys):
        code = run(["eval", "--checkpoint", trained_run, "--corpus", corpus_path,
                    "--split", "test"])
        assert code == 0
        out = capsys.readouterr().out
        assert "accuracy\t" in out
        assert out.count("class\t") == 3

    @pytest.mark.parametrize("bad", ["((a b)", "(a b)"], ids=["malformed", "misaligned"])
    @pytest.mark.parametrize("command", ["train", "eval", "explain"])
    def test_bad_parse_stops_before_any_work(self, trained_run, corpus_path, tmp_path, capsys,
                                             command, bad):
        docs = [line.split("\t")[1].split() for line in corpus_path.read_text().splitlines()]
        lines = [left_branching_bracketing(doc) for doc in docs]
        lines[3] = bad  # the fourth parse, on line 5 after the blank line 4
        lines.insert(3, "")
        parses = tmp_path / "parses.txt"
        parses.write_text("\n".join(lines) + "\n")
        args = {
            "train": ["--encoder", "tree", *FAST, "--output-dir", tmp_path / "run"],
            "eval": ["--checkpoint", trained_run],
            "explain": ["--checkpoint", trained_run],
        }[command]
        assert run([command, "--corpus", corpus_path, "--parses", parses, *args]) == 2
        captured = capsys.readouterr()
        assert f"{parses}:5: " in captured.err and "Traceback" not in captured.err
        assert not any(word in captured.out for word in ("[data]", "[result]", "accuracy",
                                                         "predicted"))

    def test_eval_missing_checkpoint(self, corpus_path, tmp_path, capsys):
        assert run(["eval", "--checkpoint", tmp_path / "no.ckpt",
                    "--corpus", corpus_path]) == 2

    def test_a_directory_as_checkpoint_is_a_data_error(self, corpus_path, tmp_path, capsys):
        assert run(["eval", "--checkpoint", tmp_path, "--corpus", corpus_path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and f"'{tmp_path}'" in err

    @pytest.mark.parametrize("split", ["dev", "test"])
    def test_an_empty_split_is_a_data_error(self, trained_run, tmp_path, capsys, split):
        # Five documents a class leave the 8:1:1 split's dev and test empty.
        small = tmp_path / "small.tsv"
        save_corpus(make_planted_corpus(num_docs=15, num_classes=3, distractor_vocab=30,
                                        length_range=(6, 8), seed=2).corpus, small)
        assert run(["eval", "--checkpoint", trained_run, "--corpus", small,
                    "--split", split]) == 2
        captured = capsys.readouterr()
        assert f"data error: {small}: " in captured.err
        assert "gives an empty dev and an empty test split" in captured.err
        assert "accuracy" not in captured.out

    def test_eval_and_fidelity_split_by_the_recorded_seed(self, trained_run, corpus_path,
                                                          monkeypatch, capsys):
        # trained_run was trained with --seed 3; without --seed both commands
        # split by that seed and so read the same dev documents.
        import multigram.cli as cli

        seen = {}
        cli_evaluate = cli.evaluate

        def evaluate(model, docs):
            seen["eval"] = docs.tokens
            return cli_evaluate(model, docs)

        def fidelity_harness(model, bundle, n_values, **kwargs):
            seen["fidelity"] = bundle.dev.tokens
            return []

        monkeypatch.setattr(cli, "evaluate", evaluate)
        monkeypatch.setattr(cli, "fidelity_harness", fidelity_harness)
        assert run(["eval", "--checkpoint", trained_run, "--corpus", corpus_path,
                    "--split", "dev"]) == 0
        assert run(["fidelity", "--checkpoint", trained_run, "--corpus", corpus_path,
                    *FAST[:-2], "--n-values", "2"]) == 0
        assert seen["eval"] == seen["fidelity"]
        assert capsys.readouterr().out.count("[config] seed = 3\n") == 2

    @pytest.mark.parametrize("args", [
        ["explain", "--epochs", "3"],
        ["eval", "--config", "x.cfg"],
    ])
    def test_unread_training_options_are_refused(self, trained_run, corpus_path, capsys, args):
        code = run([*args, "--checkpoint", trained_run, "--corpus", corpus_path])
        assert code == 1
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_eval_variant_mismatch_refused(self, trained_run, corpus_path, capsys):
        code = run(["eval", "--checkpoint", trained_run, "--corpus", corpus_path,
                    "--memory-update", "cell"])
        assert code == 2
        assert "memory_update" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value, message", [
        ("attention_heads", 4, "unknown config key 'attention_heads'"),
        ("encoder", "transformer", "invalid stored config"),
    ])
    def test_bad_checkpoint_config_is_a_data_error(self, trained_run, corpus_path, tmp_path,
                                                   capsys, key, value, message):
        from multigram.data import read_checkpoint_header

        broken = tmp_path / "broken.ckpt"
        broken.write_bytes(trained_run.read_bytes())
        header = read_checkpoint_header(broken)
        header["config"][key] = value
        rewrite_checkpoint_header(broken, header)
        code = run(["eval", "--checkpoint", broken, "--corpus", corpus_path])
        assert code == 2
        err = capsys.readouterr().err
        assert "broken.ckpt" in err and message in err

    @pytest.mark.parametrize("damage, message", [
        ("version 1", "checkpoint version 1 unsupported"),
        ("no vocab", "checkpoint header has no 'vocab'"),
        ("no tensors", "checkpoint header has no 'tensors'"),
        ("no dtype", "checkpoint header has no 'dtype'"),
    ])
    def test_unloadable_checkpoint_is_a_data_error(self, trained_run, corpus_path, tmp_path,
                                                   capsys, damage, message):
        from multigram.data import read_checkpoint_header

        broken = tmp_path / "broken.ckpt"
        broken.write_bytes(trained_run.read_bytes())
        if damage == "version 1":
            raw = bytearray(broken.read_bytes())
            raw[4:8] = struct.pack("<I", 1)
            broken.write_bytes(bytes(raw))
        else:
            header = read_checkpoint_header(broken)
            del header[damage.split()[1]]
            rewrite_checkpoint_header(broken, header)
        code = run(["eval", "--checkpoint", broken, "--corpus", corpus_path])
        assert code == 2
        err = capsys.readouterr().err
        assert str(broken) in err and message in err

    def test_checkpoint_is_float32_and_reloads_bit_for_bit(self, trained_run, tmp_path):
        from multigram.data import load_checkpoint, read_checkpoint_header, save_checkpoint

        assert read_checkpoint_header(trained_run)["dtype"] == "float32"
        model = load_checkpoint(trained_run)
        assert all(t.data.dtype == np.float32 for _, t in model.store.items())
        copy = tmp_path / "copy.ckpt"
        save_checkpoint(model, copy, extra=read_checkpoint_header(trained_run)["extra"])
        assert copy.read_bytes() == trained_run.read_bytes()

    def test_explain_writes_reports(self, trained_run, corpus_path, tmp_path, capsys):
        out = tmp_path / "reports"
        code = run(["explain", "--checkpoint", trained_run, "--corpus", corpus_path,
                    "--threshold", "0.01", "--output-dir", out])
        assert code == 0
        reports = sorted(out.glob("doc*.txt"))
        assert len(reports) == 45
        assert reports[0].read_text().startswith("predicted\t")

    def test_explain_html_parses(self, trained_run, corpus_path, tmp_path):
        import xml.etree.ElementTree as ET

        out = tmp_path / "html"
        assert run(["explain", "--checkpoint", trained_run, "--corpus", corpus_path,
                    "--format", "html", "--threshold", "0.01", "--output-dir", out]) == 0
        body = sorted(out.glob("doc*.html"))[0].read_text().strip().split("\n")[-1]
        ET.fromstring(f"<div>{body}</div>")

    def test_bench_reports_rows(self, corpus_path, tmp_path, capsys):
        code = run(["bench", "--corpus", corpus_path, *FAST,
                    "--encoders", "leftforest,cnn"])
        assert code == 0
        out = capsys.readouterr().out
        assert "encoder\ttrain_epoch_seconds" in out
        assert "leftforest\t" in out and "cnn\t" in out

    def test_ablate_emits_one_row_per_cell(self, corpus_path, tmp_path, capsys):
        out_file = tmp_path / "sweep.tsv"
        code = run(["ablate", "--corpus", corpus_path, *FAST,
                    "--encoders", "leftforest,bilstm", "--orders", "1,2",
                    "--output", out_file])
        assert code == 0
        lines = out_file.read_text().strip().split("\n")
        assert lines[0] == "encoder\tK\tdev_acc"
        cells = {tuple(line.split("\t")[:2]) for line in lines[1:]}
        assert cells == {("leftforest", "1"), ("leftforest", "2"), ("bilstm", "-")}

    @pytest.mark.parametrize("docs", [4, 20, 49])
    def test_bench_docs_below_the_split_minimum_is_a_usage_error(self, docs, capsys):
        assert run(["bench", *FAST, "--docs", docs, "--doc-len", "5"]) == 1
        captured = capsys.readouterr()
        assert "usage error: bench: --docs must be at least 50" in captured.err
        assert captured.out == ""

    def test_bench_on_a_too_small_corpus_file_is_a_data_error(self, tmp_path, capsys):
        corpus = tmp_path / "small.tsv"
        corpus.write_text("a\tx y\nb\ty z\na\tz x\nb\tx x\n")
        assert run(["bench", "--corpus", corpus, *FAST]) == 2
        assert "data error: class 'a' has only 2 instances" in capsys.readouterr().err

    def test_bench_parses_need_a_corpus(self, capsys):
        assert run(["bench", *FAST, "--encoders", "tree", "--parses", "p.txt"]) == 1
        assert "bench: --parses needs --corpus" in capsys.readouterr().err

    def test_fidelity_subcommand(self, trained_run, corpus_path, tmp_path, capsys):
        out_file = tmp_path / "fidelity.tsv"
        code = run(["fidelity", "--checkpoint", trained_run, "--corpus", corpus_path,
                    *FAST, "--n-values", "2", "--output", out_file])
        assert code == 0
        lines = out_file.read_text().strip().split("\n")
        assert lines[0] == "n\tcondition\taccuracy"
        assert len(lines) == 4  # full + extracted + random


    def test_explain_reports_equal_those_of_forward_doc(self, trained_run, corpus_path,
                                                        tmp_path, monkeypatch):
        # explain classifies through the per-chunk pass (training.forward_chunks),
        # never forward_doc, and writes the reports forward_doc's outputs give.
        from multigram.data import load_checkpoint, load_corpus
        from multigram.explain import extract_evidence, render_highlights
        from multigram.model import TextClassifier

        model = load_checkpoint(trained_run)
        corpus = load_corpus(corpus_path, label_names=model.label_names)
        expected = []
        for tokens in corpus.documents:
            output, _ = model.forward_doc(model.vocab.encode(tokens))
            report = extract_evidence(output, tokens, model.label_names[output.predicted], 0.01)
            expected.append(render_highlights(report))

        def refuse(*args, **kwargs):
            raise AssertionError("forward_doc was called")

        monkeypatch.setattr(TextClassifier, "forward_doc", refuse)
        out = tmp_path / "reports"
        assert run(["explain", "--checkpoint", trained_run, "--corpus", corpus_path,
                    "--threshold", "0.01", "--output-dir", out]) == 0
        written = [path.read_text().splitlines()[-1] for path in sorted(out.glob("doc*.txt"))]
        assert written == expected


@pytest.fixture(scope="module")
def tree_run(corpus_path, tmp_path_factory):
    """A tree checkpoint and the left-branching parses of the corpus."""
    root = tmp_path_factory.mktemp("tree")
    docs = [line.split("\t")[1].split() for line in corpus_path.read_text().splitlines()]
    parses = root / "parses.txt"
    parses.write_text("\n".join(left_branching_bracketing(doc) for doc in docs) + "\n")
    code = main(["train", "--corpus", str(corpus_path), "--parses", str(parses),
                 "--encoder", "tree", *[str(a) for a in FAST], "--output-dir", str(root)])
    assert code == 0
    return root / "model.ckpt", parses


class TestTreeCheckpoint:
    def test_fidelity_reads_parses(self, tree_run, corpus_path, tmp_path, capsys):
        checkpoint, parses = tree_run
        out_file = tmp_path / "fidelity.tsv"
        code = run(["fidelity", "--checkpoint", checkpoint, "--corpus", corpus_path,
                    "--parses", parses, *FAST, "--n-values", "2", "--output", out_file])
        assert code == 0
        lines = out_file.read_text().strip().split("\n")
        assert lines[0] == "n\tcondition\taccuracy" and len(lines) == 4

    @pytest.mark.parametrize("args", [
        ["train", "--encoder", "tree"],
        ["ablate", "--encoders", "leftforest,tree"],
        ["bench", "--encoders", "tree"],
    ], ids=["train", "ablate", "bench"])
    def test_a_tree_run_without_parses_is_a_usage_error(self, corpus_path, tmp_path, capsys,
                                                        args):
        assert run([*args, "--corpus", corpus_path, *FAST,
                    *(["--output-dir", tmp_path / "run"] if args[0] == "train" else [])]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"usage error: {args[0]}: the tree encoder needs --parses\n"
        assert captured.out == ""
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("command", ["ablate", "bench"])
    def test_ablate_and_bench_run_the_tree_on_parses(self, tree_run, corpus_path, capsys,
                                                    command):
        _, parses = tree_run
        extra = ["--orders", "2"] if command == "ablate" else []
        assert run([command, "--corpus", corpus_path, "--parses", parses, *FAST,
                    "--encoders", "tree", *extra]) == 0
        assert "\ntree\t" in capsys.readouterr().out

    def test_ablate_trains_the_tree_once(self, tree_run, corpus_path, capsys):
        # The tree reads no order, so a sweep over orders trains it once, K "-".
        _, parses = tree_run
        assert run(["ablate", "--corpus", corpus_path, "--parses", parses, *FAST,
                    "--encoders", "tree", "--orders", "1,2"]) == 0
        rows = [line for line in capsys.readouterr().out.splitlines()
                if line.startswith("tree\t")]
        assert len(rows) == 1 and rows[0].startswith("tree\t-\t")

    @pytest.mark.parametrize("command", ["fidelity", "explain", "eval"])
    def test_a_tree_checkpoint_without_parses_is_a_usage_error(self, tree_run, corpus_path,
                                                               capsys, command):
        checkpoint, _ = tree_run
        extra = FAST if command == "fidelity" else []
        assert run([command, "--checkpoint", checkpoint, "--corpus", corpus_path,
                    *extra]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"usage error: {command}: a tree checkpoint needs --parses\n"
        assert "accuracy" not in captured.out and "predicted" not in captured.out


def test_module_entry_point(corpus_path):
    proc = subprocess.run(
        [sys.executable, "-m", "multigram", "dump-structure", "--kind", "pyramid",
         "--length", "4", "--max-order", "4"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert len(proc.stdout.strip().split("\n")) == 10
