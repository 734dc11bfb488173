import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multigram.autodiff import ShapeError, Tensor
from multigram.data import (
    Corpus,
    Vocab,
    load_checkpoint,
    load_corpus,
    load_embeddings,
    read_checkpoint_header,
    save_checkpoint,
    save_corpus,
    split_stratified,
    tokenize,
)
from multigram.errors import DataError
from multigram.model import ModelConfig, TextClassifier

from conftest import rewrite_checkpoint_header


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadCorpus:
    def test_small_two_label_file(self, tmp_path):
        path = write(tmp_path, "c.tsv", "pos\tGood stuff\nneg\tbad stuff here\npos\tfine\n")
        corpus = load_corpus(path)
        assert len(corpus) == 3
        assert corpus.label_names == ["neg", "pos"]
        assert corpus.documents[0] == ["good", "stuff"]
        assert corpus.labels == [1, 0, 1]

    def test_round_trip(self, tmp_path):
        path = write(tmp_path, "c.tsv", "a\tx y z\nb\tq r\na\tone two three\n")
        corpus = load_corpus(path)
        save_corpus(corpus, tmp_path / "copy.tsv")
        again = load_corpus(tmp_path / "copy.tsv")
        assert again.documents == corpus.documents
        assert again.labels == corpus.labels
        assert again.label_names == corpus.label_names

    def test_malformed_line_reports_number(self, tmp_path):
        path = write(tmp_path, "c.tsv", "a\tx\nno tab here\n")
        with pytest.raises(DataError, match=":2"):
            load_corpus(path)

    def test_empty_document_reports_number(self, tmp_path):
        path = write(tmp_path, "c.tsv", "a\tx\nb\t   \n")
        with pytest.raises(DataError, match=":2"):
            load_corpus(path)

    def test_unknown_label_with_fixed_names(self, tmp_path):
        path = write(tmp_path, "c.tsv", "a\tx\nz\ty\n")
        with pytest.raises(DataError, match="unknown label"):
            load_corpus(path, label_names=["a", "b"])

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="not found"):
            load_corpus(tmp_path / "absent.tsv")

    def test_parse_alignment(self, tmp_path):
        corpus_path = write(tmp_path, "c.tsv", "a\tx y\nb\tq r\n")
        parse_path = write(tmp_path, "p.txt", "(x y)\n(q r)\n")
        corpus = load_corpus(corpus_path, parse_path=parse_path)
        assert corpus.parses == ["(x y)", "(q r)"]
        short = write(tmp_path, "p2.txt", "(x y)\n")
        with pytest.raises(DataError, match="parses"):
            load_corpus(corpus_path, parse_path=short)

    def test_length_stats(self, tmp_path):
        path = write(tmp_path, "c.tsv", "a\tx y z\nb\tq\n")
        stats = load_corpus(path).length_stats()
        assert stats["documents"] == 2
        assert stats["mean_tokens"] == pytest.approx(2.0)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.sampled_from(["alpha", "beta", "Gamma", "DELTA"]), min_size=1, max_size=12))
def test_tokenization_is_idempotent(tokens):
    once = tokenize(" ".join(tokens))
    assert tokenize(" ".join(once)) == once


def balanced_corpus(per_class, classes=3, length=4):
    docs, labels = [], []
    for c in range(classes):
        for i in range(per_class):
            docs.append([f"w{c}_{i}_{j}" for j in range(length)])
            labels.append(c)
    return Corpus(docs, labels, [f"class{c}" for c in range(classes)])


class TestSplitStratified:
    def test_exact_eight_one_one(self):
        corpus = balanced_corpus(100)
        train, dev, test = split_stratified(corpus, seed=3)
        for split, expected in ((train, 80), (dev, 10), (test, 10)):
            counts = split.class_counts()
            assert counts == [expected] * 3

    def test_union_is_corpus_and_splits_disjoint(self):
        corpus = balanced_corpus(17)
        train, dev, test = split_stratified(corpus, seed=5)
        ids = [frozenset(split.origin) for split in (train, dev, test)]
        assert ids[0] | ids[1] | ids[2] == set(range(len(corpus)))
        assert not (ids[0] & ids[1] or ids[0] & ids[2] or ids[1] & ids[2])
        assert sum(len(s) for s in (train, dev, test)) == len(corpus)

    def test_remainder_goes_to_train(self):
        corpus = balanced_corpus(19)
        train, dev, test = split_stratified(corpus, seed=1)
        assert dev.class_counts() == [1] * 3
        assert test.class_counts() == [1] * 3
        assert train.class_counts() == [17] * 3

    def test_deterministic_under_seed(self):
        corpus = balanced_corpus(23)
        first = split_stratified(corpus, seed=11)
        second = split_stratified(corpus, seed=11)
        assert [s.origin for s in first] == [s.origin for s in second]
        third = split_stratified(corpus, seed=12)
        assert [s.origin for s in first] != [s.origin for s in third]

    def test_tiny_class_rejected(self):
        corpus = Corpus([["a"], ["b"], ["c"]], [0, 0, 1], ["x", "y"])
        with pytest.raises(DataError, match="at least 3"):
            split_stratified(corpus)

    def test_corpus_scale_five_class_split(self):
        # 14,102 documents over five uneven classes: per-class flooring puts
        # dev and test within a class-count of the ideal tenth and train
        # absorbs every rounding remainder.
        sizes = [3054, 2604, 1925, 3051, 3468]
        assert sum(sizes) == 14_102
        docs, labels = [], []
        for class_id, count in enumerate(sizes):
            docs.extend([[f"w{class_id}"]] * count)
            labels.extend([class_id] * count)
        corpus = Corpus(docs, labels, [f"c{i}" for i in range(5)])
        train, dev, test = split_stratified(corpus, seed=2)
        assert len(train) + len(dev) + len(test) == 14_102
        assert len(dev) == len(test) == sum(n // 10 for n in sizes)
        assert abs(len(dev) - 1410) <= len(sizes)
        assert len(train) >= 8 * len(dev)


class TestVocabAndEmbeddings:
    def test_vocab_reserves_oov_zero(self):
        vocab = Vocab.build([["b", "a"], ["a", "c"]])
        assert vocab.tokens[0] == "<oov>"
        assert vocab.encode(["a", "zzz", "c"]).tolist() == [vocab.id_of["a"], 0, vocab.id_of["c"]]

    def test_file_vector_copied_exactly(self, tmp_path):
        vocab = Vocab.build([["apple", "pear"]])
        path = write(tmp_path, "e.txt", "apple 1.5 -2.0 0.25\n")
        matrix, coverage = load_embeddings(path, vocab, dim=3, seed=0)
        np.testing.assert_array_equal(matrix.data[vocab.id_of["apple"]], [1.5, -2.0, 0.25])
        assert coverage == pytest.approx(1 / 2)

    def test_missing_token_random_but_reproducible(self, tmp_path):
        vocab = Vocab.build([["apple", "pear"]])
        path = write(tmp_path, "e.txt", "apple 1 1 1\n")
        first, _ = load_embeddings(path, vocab, dim=3, seed=9)
        second, _ = load_embeddings(path, vocab, dim=9 // 3, seed=9)
        row = first.data[vocab.id_of["pear"]]
        assert np.all(np.abs(row) <= 0.05)
        np.testing.assert_array_equal(first.data, second.data)

    def test_no_file_means_full_random_zero_coverage(self):
        vocab = Vocab.build([["a", "b", "c"]])
        matrix, coverage = load_embeddings(None, vocab, dim=4, seed=2)
        assert coverage == 0.0
        assert matrix.shape == (4, 4)
        assert np.all(np.abs(matrix.data) <= 0.05)

    def test_dimension_mismatch_names_line(self, tmp_path):
        vocab = Vocab.build([["apple"]])
        path = write(tmp_path, "e.txt", "apple 1 2\n")
        with pytest.raises(DataError, match=":1"):
            load_embeddings(path, vocab, dim=3, seed=0)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_value_names_line(self, tmp_path, value):
        vocab = Vocab.build([["apple", "pear"]])
        path = write(tmp_path, "e.txt", f"apple 1 2 3\npear 1 {value} 3\n")
        with pytest.raises(DataError, match=r"e\.txt:2: non-finite"):
            load_embeddings(path, vocab, dim=3, seed=0)

    def test_non_numeric_value_names_line(self, tmp_path):
        vocab = Vocab.build([["apple"]])
        path = write(tmp_path, "e.txt", "apple 1 two 3\n")
        with pytest.raises(DataError, match=r"e\.txt:1: non-numeric"):
            load_embeddings(path, vocab, dim=3, seed=0)

    def test_embeddings_are_frozen(self):
        vocab = Vocab.build([["a"]])
        matrix, _ = load_embeddings(None, vocab, dim=2, seed=0)
        assert not matrix.requires_grad


def tiny_model(memory_update="hidden", hidden_dim=4, seed=1, dtype=np.float64):
    vocab = Vocab.build([["alpha", "beta", "gamma", "delta"]])
    values = np.random.default_rng(0).normal(size=(len(vocab), 6)) * 0.3
    embeddings = Tensor(values.astype(dtype))
    config = ModelConfig(
        encoder="biforest",
        num_classes=2,
        embed_dim=6,
        hidden_dim=hidden_dim,
        attention_dim=3,
        max_order=2,
        dropout=0.2,
        memory_update=memory_update,
    )
    return TextClassifier(config, vocab, ["no", "yes"], embeddings, init_seed=seed)


class TestCheckpoints:
    def test_round_trip_is_bit_exact(self, tmp_path):
        model = tiny_model()
        ids = model.vocab.encode(["alpha", "gamma", "beta"])
        before, _ = model.forward_doc(ids)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path, extra={"seed": 5})
        loaded = load_checkpoint(path)
        after, _ = loaded.forward_doc(ids)
        assert np.array_equal(before.probs, after.probs)
        assert np.array_equal(before.alpha, after.alpha)
        assert loaded.label_names == model.label_names
        assert read_checkpoint_header(path)["extra"] == {"seed": 5}

    def test_float32_round_trip_is_bit_exact(self, tmp_path):
        model = tiny_model(dtype=np.float32)
        ids = model.vocab.encode(["alpha", "gamma", "beta"])
        before, _ = model.forward_doc(ids)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        assert read_checkpoint_header(path)["dtype"] == "float32"
        loaded = load_checkpoint(path)
        assert loaded.embeddings.data.dtype == np.float32
        for name, tensor in loaded.store.items():
            assert tensor.data.dtype == np.float32, name
            assert np.array_equal(tensor.data, model.store.get(name).data), name
        after, _ = loaded.forward_doc(ids)
        assert np.array_equal(before.probs, after.probs)
        assert np.array_equal(before.alpha, after.alpha)

    def test_header_without_dtype_reads_as_float64(self, tmp_path):
        # Checkpoints written before the dtype field hold float64 blobs.
        model = tiny_model()
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        header = read_checkpoint_header(path)
        assert header.pop("dtype") == "float64"
        old_blob = json.dumps(header).encode("utf-8")
        raw = path.read_bytes()
        (header_len,) = struct.unpack("<I", raw[8:12])
        path.write_bytes(
            raw[:8] + struct.pack("<I", len(old_blob)) + old_blob + raw[12 + header_len :]
        )
        loaded = load_checkpoint(path)
        assert loaded.embeddings.data.dtype == np.float64
        ids = model.vocab.encode(["beta", "delta"])
        assert np.array_equal(loaded.forward_doc(ids)[0].probs, model.forward_doc(ids)[0].probs)

    def test_unknown_config_key_names_checkpoint_and_key(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(tiny_model(), path)
        header = read_checkpoint_header(path)
        header["config"]["attention_heads"] = 4
        rewrite_checkpoint_header(path, header)
        with pytest.raises(DataError, match=r"model\.ckpt.*'attention_heads'"):
            load_checkpoint(path)

    @pytest.mark.parametrize("key, value", [
        ("encoder", "transformer"), ("dropout", 1.5), ("hidden_dim", "wide"),
    ])
    def test_invalid_stored_config_names_checkpoint(self, tmp_path, key, value):
        path = tmp_path / "model.ckpt"
        save_checkpoint(tiny_model(), path)
        header = read_checkpoint_header(path)
        header["config"][key] = value
        rewrite_checkpoint_header(path, header)
        with pytest.raises(DataError, match=r"model\.ckpt: invalid stored config"):
            load_checkpoint(path)

    @pytest.mark.parametrize("key", ["encoder", "memory_update", "max_order"])
    def test_missing_config_key_rejected(self, tmp_path, key):
        # A key with a default must not load silently as that default.
        path = tmp_path / "model.ckpt"
        save_checkpoint(tiny_model(), path)
        header = read_checkpoint_header(path)
        del header["config"][key]
        rewrite_checkpoint_header(path, header)
        with pytest.raises(DataError, match=f"missing config key '{key}'"):
            load_checkpoint(path)

    def test_corrupt_header_json_rejected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(tiny_model(), path)
        raw = bytearray(path.read_bytes())
        raw[12] = ord("[")  # the header's opening brace
        path.write_bytes(bytes(raw))
        with pytest.raises(DataError, match="not valid JSON"):
            read_checkpoint_header(path)

    def test_unknown_dtype_rejected(self, tmp_path):
        model = tiny_model()
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        raw = path.read_bytes()
        path.write_bytes(raw.replace(b'"dtype": "float64"', b'"dtype": "float16"', 1))
        with pytest.raises(DataError, match="float16"):
            load_checkpoint(path)

    def test_memory_update_variant_refused(self, tmp_path):
        model = tiny_model(memory_update="hidden")
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        with pytest.raises(DataError, match="memory_update"):
            load_checkpoint(path, require={"memory_update": "cell"})
        loaded = load_checkpoint(path, require={"memory_update": "hidden"})
        assert loaded.config.memory_update == "hidden"

    def test_state_shape_mismatch_names_tensor(self, tmp_path):
        small = tiny_model(hidden_dim=4)
        wide = tiny_model(hidden_dim=6)
        with pytest.raises(ShapeError, match="encoder.left.w"):
            small.store.load_state_dict(wide.store.state_dict())

    def test_truncated_file(self, tmp_path):
        model = tiny_model()
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 64])
        with pytest.raises(DataError, match="truncated"):
            load_checkpoint(path)

    def test_bad_magic_and_version(self, tmp_path):
        path = tmp_path / "x.ckpt"
        path.write_bytes(b"JUNKxxxxxxx")
        with pytest.raises(DataError, match="magic"):
            load_checkpoint(path)
        model = tiny_model()
        good = tmp_path / "good.ckpt"
        save_checkpoint(model, good)
        blob = bytearray(good.read_bytes())
        blob[4] = 99  # corrupt the version field
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(bytes(blob))
        with pytest.raises(DataError, match="version"):
            load_checkpoint(bad)
