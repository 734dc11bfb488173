import subprocess
import sys

import numpy as np
import pytest

from multigram.cli import main
from multigram.data import save_corpus
from multigram.synthetic import make_planted_corpus

from conftest import rewrite_checkpoint_header


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
        assert run(["dump-structure", "--kind", "tree", "--tokens", "a b"]) == 2

    def test_tokens_or_length_required(self, capsys):
        assert run(["dump-structure", "--kind", "pyramid"]) == 1

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

    def test_eval_missing_checkpoint(self, corpus_path, tmp_path, capsys):
        assert run(["eval", "--checkpoint", tmp_path / "no.ckpt",
                    "--corpus", corpus_path]) == 2

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

    def test_fidelity_subcommand(self, trained_run, corpus_path, tmp_path, capsys):
        out_file = tmp_path / "fidelity.tsv"
        code = run(["fidelity", "--checkpoint", trained_run, "--corpus", corpus_path,
                    *FAST, "--n-values", "2", "--output", out_file])
        assert code == 0
        lines = out_file.read_text().strip().split("\n")
        assert lines[0] == "n\tcondition\taccuracy"
        assert len(lines) == 4  # full + extracted + random


def test_module_entry_point(corpus_path):
    proc = subprocess.run(
        [sys.executable, "-m", "multigram", "dump-structure", "--kind", "pyramid",
         "--length", "4", "--max-order", "4"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert len(proc.stdout.strip().split("\n")) == 10
