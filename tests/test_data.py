import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multigram import data
from multigram.autodiff import ShapeError, Tensor
from multigram.data import (
    EMBEDDING_BLOCK_ROWS,
    Corpus,
    Vocab,
    load_checkpoint,
    load_corpus,
    load_embeddings,
    read_checkpoint_header,
    save_checkpoint,
    split_stratified,
    tokenize,
)
from multigram.errors import DataError
from multigram.model import ModelConfig, TextClassifier

from conftest import rewrite_checkpoint_header, save_corpus
from reference import load_embeddings_reference


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

    def test_unknown_label_names_its_file_line_after_blank_lines(self, tmp_path):
        path = write(tmp_path, "lab.tsv", "\n\na\tx y\nzzz\tq r\n")
        with pytest.raises(DataError, match=r"lab\.tsv:4: unknown label 'zzz'"):
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

    @pytest.mark.parametrize("parse, problem", [
        ("((x y) z", "not a single tree"),
        ("(x y z)", "exactly two subtrees"),
        ("(x (y z))", "3 leaves but the sentence has 2 tokens"),
    ])
    def test_bad_parse_names_file_and_line(self, tmp_path, parse, problem):
        corpus_path = write(tmp_path, "c.tsv", "a\tx y\nb\tq r\n")
        # Blank lines are skipped, so the second parse is on line 4.
        parse_path = write(tmp_path, "p.txt", f"(x y)\n\n\n{parse}\n")
        with pytest.raises(DataError, match=rf"p\.txt:4: .*{problem}"):
            load_corpus(corpus_path, parse_path=parse_path)

    def test_parse_leaf_words_are_not_compared(self, tmp_path):
        corpus_path = write(tmp_path, "c.tsv", "a\tx y\n")
        parse_path = write(tmp_path, "p.txt", "(other words)\n")
        assert load_corpus(corpus_path, parse_path=parse_path).parses == ["(other words)"]

    def test_documents_hold_one_string_per_distinct_token(self, tmp_path):
        rng = np.random.default_rng(0)
        words = [f"word{i}" for i in range(1_000)]
        lines = [" ".join(words[j] for j in rng.integers(0, 1_000, 200)) for _ in range(2_000)]
        text = "".join(f"c{i % 3}\t{line}\n" for i, line in enumerate(lines))
        path = write(tmp_path, "big.tsv", text)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            corpus = load_corpus(path)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert held / (2_000 * 200) <= 12  # a string per occurrence is about 60 B
        first, second = corpus.documents[0], corpus.documents[1]
        token = next(tok for tok in first if tok in second)
        assert first[first.index(token)] is second[second.index(token)]
        assert corpus.label_names == ["c0", "c1", "c2"]

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
            assert [split.labels.count(c) for c in range(3)] == [expected] * 3

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
        for split, expected in ((train, 17), (dev, 1), (test, 1)):
            assert [split.labels.count(c) for c in range(3)] == [expected] * 3

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

    def test_corpus_token_spelled_oov_reads_the_oov_row(self, tmp_path):
        vocab = Vocab.build([["<oov>", "a"], ["b"]])
        assert vocab.tokens == ["<oov>", "a", "b"]
        assert len(vocab) == 3
        assert vocab.encode(["<oov>", "a", "b"]).tolist() == [0, 1, 2]
        corpus = load_corpus(write(tmp_path, "c.tsv", "x\t<OOV> a\ny\tb\n"))
        assert Vocab.build(corpus.documents).encode(corpus.documents[0]).tolist() == [0, 1]

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

    @pytest.mark.parametrize("line", ["apple", "apple "], ids=["bare", "trailing-space"])
    def test_line_without_values_names_line(self, tmp_path, line):
        vocab = Vocab.build([["apple", "pear"]])
        path = write(tmp_path, "e.txt", f"pear 1 2 3\n{line}\n")
        with pytest.raises(DataError, match=r"e\.txt:2: 0 values, expected 3"):
            load_embeddings(path, vocab, dim=3, seed=0)

    @pytest.mark.filterwarnings("error")  # np.loadtxt warns about input without data
    def test_block_without_values_names_line_without_a_warning(self, tmp_path):
        vocab = Vocab.build([["apple"]])
        path = write(tmp_path, "e.txt", "apple\n")
        with pytest.raises(DataError, match=r"e\.txt:1: 0 values, expected 3"):
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

    @pytest.mark.parametrize("line", ["pear 1 2\n", "pear 1 two 3\n", "pear 1 nan 3\n"])
    def test_unchecked_lines_outside_the_vocabulary_are_skipped(self, tmp_path, line):
        vocab = Vocab.build([["apple"]])
        path = write(tmp_path, "e.txt", line + "apple 1 2 3\n")
        matrix, coverage = load_embeddings(path, vocab, dim=3, seed=0)
        np.testing.assert_array_equal(matrix.data[vocab.id_of["apple"]], [1, 2, 3])
        assert coverage == 1.0

    def test_embeddings_are_frozen(self):
        vocab = Vocab.build([["a"]])
        matrix, _ = load_embeddings(None, vocab, dim=2, seed=0)
        assert not matrix.requires_grad

    def test_duplicated_token_keeps_its_last_vector_and_counts_once(self, tmp_path):
        vocab = Vocab.build([["apple", "pear"]])
        path = write(tmp_path, "e.txt", "apple 1 2 3\napple 4 5 6\n")
        matrix, coverage = load_embeddings(path, vocab, dim=3, seed=0)
        np.testing.assert_array_equal(matrix.data[vocab.id_of["apple"]], [4, 5, 6])
        assert coverage == 0.5

    def test_oov_line_loads_but_does_not_count_as_coverage(self, tmp_path):
        vocab = Vocab.build([["apple", "pear"]])
        path = write(tmp_path, "e.txt", "<oov> 7 8 9\napple 1 2 3\n")
        matrix, coverage = load_embeddings(path, vocab, dim=3, seed=0)
        np.testing.assert_array_equal(matrix.data[0], [7, 8, 9])
        assert coverage == 0.5

    def test_values_float_reads_but_loadtxt_refuses_load(self, tmp_path):
        vocab = Vocab.build([["apple"]])
        path = write(tmp_path, "e.txt", "apple 1_000 \u0661\u0662 3\n")
        matrix, _ = load_embeddings(path, vocab, dim=3, seed=0)
        np.testing.assert_array_equal(matrix.data[vocab.id_of["apple"]], [1000, 12, 3])

    @pytest.mark.parametrize("separator", ["\x1c", "\x1d", "\x1e", "\x1f"])
    def test_ascii_separator_is_non_numeric(self, tmp_path, separator):
        # np.loadtxt strips these as whitespace; float refuses them.
        vocab = Vocab.build([["apple"]])
        path = write(tmp_path, "e.txt", f"apple 1{separator} 2 3\n")
        with pytest.raises(DataError, match=r"e\.txt:1: non-numeric"):
            load_embeddings(path, vocab, dim=3, seed=0)

    @pytest.mark.parametrize("lines, message", [
        ([b"apple 1 x 3", b"\xff"], r"e\.txt:1: non-numeric"),
        ([b"\xff", b"apple 1 x 3"], r"e\.txt:1: not UTF-8"),
    ], ids=["bad-value-first", "unreadable-line-first"])
    def test_first_faulty_line_is_reported(self, tmp_path, lines, message):
        vocab = Vocab.build([["apple"]])
        path = tmp_path / "e.txt"
        path.write_bytes(b"\n".join(lines) + b"\n")
        with pytest.raises(DataError, match=message):
            load_embeddings(path, vocab, dim=3, seed=0)

    def test_fault_in_a_later_block_names_its_line(self, tmp_path):
        rows = EMBEDDING_BLOCK_ROWS + 10
        vocab = Vocab.build([[f"w{i}" for i in range(rows)]])
        lines = [f"w{i} {i} {-i / 8}" for i in range(rows)]
        path = write(tmp_path, "e.txt", "\n".join(lines) + "\n")
        matrix, coverage = load_embeddings(path, vocab, dim=2, seed=1)
        expected, _ = load_embeddings_reference(path, vocab, dim=2, seed=1)
        assert matrix.data.tobytes() == expected.tobytes()
        assert coverage == 1.0
        lines[EMBEDDING_BLOCK_ROWS + 4] = "w0 1 nan"
        path = write(tmp_path, "e.txt", "\n".join(lines) + "\n")
        with pytest.raises(DataError, match=rf"e\.txt:{EMBEDDING_BLOCK_ROWS + 5}: non-finite"):
            load_embeddings(path, vocab, dim=2, seed=1)

    def test_memory_holds_one_block_not_the_file(self, tmp_path):
        dim, blocks = 50, 64
        rows = blocks * EMBEDDING_BLOCK_ROWS
        vocab = Vocab.build([[f"w{i}" for i in range(rows)]])
        values = " ".join(["0.1234567"] * dim)
        path = write(tmp_path, "e.txt", "".join(f"w{i} {values}\n" for i in range(rows)))
        load_embeddings(path, vocab, dim=dim, seed=0)  # numpy imports its parser lazily
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            matrix, _ = load_embeddings(path, vocab, dim=dim, seed=0)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        block_bytes = EMBEDDING_BLOCK_ROWS * (len(values) + 8 * dim)
        # Text, values and the parser's buffers for one block; all rows at
        # once would take 64 blocks.
        assert peak - matrix.data.nbytes <= 8 * block_bytes


EMBEDDING_TOKENS = ["apple", "pear", "plum", "<oov>", "fig", "kiwi"]  # fig, kiwi: not in vocab
GOOD_VALUES = st.one_of(
    st.integers(-99, 99).map(str),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
)
ODD_VALUES = st.sampled_from([
    "1_000", "\u0661\u0662", "\uff11", "0x10", "nan", "-inf", "inf", "1e400", "2.5e-320",
    "two", "", "\t5", "5\x1c", "1e", "+.5",
])
FAULTS = ["odd value", "one value short", "one value over", "double space", "trailing space",
          "token only", "not UTF-8"]


@st.composite
def glove_files(draw):
    """(dim, lines as bytes) of a GloVe-format file, about one line in six
    with a fault."""
    dim = draw(st.integers(1, 3))
    lines = []
    for _ in range(draw(st.integers(0, 14))):
        token = draw(st.sampled_from(EMBEDDING_TOKENS))
        values = [draw(GOOD_VALUES) for _ in range(dim)]
        fault = draw(st.sampled_from(FAULTS)) if draw(st.integers(0, 5)) == 0 else None
        if fault == "odd value":
            values[draw(st.integers(0, dim - 1))] = draw(ODD_VALUES)
        elif fault == "one value short":
            values.pop()
        elif fault == "one value over":
            values.append(draw(GOOD_VALUES))
        elif fault == "double space":
            values.insert(draw(st.integers(0, dim)), "")
        text = " ".join([token, *values])
        if fault == "trailing space":
            text += " "
        elif fault == "token only":
            text = token
        line = text.encode("utf-8")
        if fault == "not UTF-8":
            line = b"\xff" + line
        lines.append(line)
    return dim, lines


@settings(max_examples=300, deadline=None)
@given(glove_files())
def test_block_parse_matches_the_line_at_a_time_loader(tmp_path_factory, glove_file):
    dim, lines = glove_file
    path = tmp_path_factory.getbasetemp() / "glove.txt"
    path.write_bytes(b"".join(line + b"\n" for line in lines))
    vocab = Vocab.build([["apple", "pear", "plum"]])
    outcomes = []
    for load in (load_embeddings, load_embeddings_reference):
        try:
            # Blocks of two rows, so most files span several blocks.
            with mock.patch.object(data, "EMBEDDING_BLOCK_ROWS", 2), warnings.catch_warnings():
                warnings.simplefilter("error")
                matrix, coverage = load(path, vocab, dim, seed=4)
        except DataError as exc:
            outcomes.append(str(exc))
        else:
            matrix = matrix.data if isinstance(matrix, Tensor) else matrix
            outcomes.append((matrix.dtype, matrix.shape, matrix.tobytes(), coverage))
    assert outcomes[0] == outcomes[1]


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
