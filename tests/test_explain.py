import xml.etree.ElementTree as ET

import numpy as np
import pytest

from multigram.attention import ModelOutput
from multigram.errors import DataError
from multigram.explain import (
    Evidence,
    EvidenceReport,
    extract_evidence,
    fidelity_harness,
    fidelity_tsv,
    keep_top_words,
    random_subsequence,
    render_highlights,
    word_importance,
)
from multigram.structures import Span
from multigram.synthetic import make_planted_corpus
from multigram.training import TrainConfig, prepare_bundle, train


def fake_output(alpha, spans):
    alpha = np.asarray(alpha, dtype=np.float64)
    C = 3
    return ModelOutput(
        alpha=alpha,
        text_vector=np.zeros(4),
        logits=np.zeros(C),
        probs=np.full(C, 1 / C),
        unit_spans=[Span(*s) for s in spans],
    )


class TestExtractEvidence:
    def test_threshold_is_strict(self):
        output = fake_output([0.9, 0.05, 0.05], [(0, 1), (1, 1), (2, 1)])
        report = extract_evidence(output, ["a", "b", "c"], "pos", threshold=0.05)
        assert len(report.evidence) == 1
        assert report.evidence[0].span == Span(0, 1)
        assert report.evidence[0].weight == pytest.approx(0.9)

    def test_uniform_small_weights_give_empty_report(self):
        spans = [(i, 1) for i in range(100)]
        output = fake_output(np.full(100, 0.01), spans)
        report = extract_evidence(output, [f"t{i}" for i in range(100)], "pos")
        assert report.evidence == []

    def test_weights_sum_at_most_one(self):
        output = fake_output([0.5, 0.3, 0.2], [(0, 1), (1, 1), (0, 2)])
        report = extract_evidence(output, ["a", "b"], "pos", threshold=0.1)
        assert sum(ev.weight for ev in report.evidence) <= 1.0 + 1e-9

    def test_sorted_by_weight_then_start(self):
        output = fake_output([0.2, 0.4, 0.2], [(2, 1), (0, 1), (1, 1)])
        report = extract_evidence(output, ["a", "b", "c"], "pos", threshold=0.1)
        assert [(ev.span.start, ev.weight) for ev in report.evidence] == [
            (0, pytest.approx(0.4)),
            (1, pytest.approx(0.2)),
            (2, pytest.approx(0.2)),
        ]

    def test_tied_weights_at_zero_threshold_keep_weight_then_start_order(self):
        spans = [(3, 1), (1, 1), (2, 1), (0, 2), (2, 2), (1, 2)]
        output = fake_output([0.1, 0.25, 0.1, 0.1, 0.25, 0.2], spans)
        report = extract_evidence(output, ["a", "b", "c", "d"], "pos", threshold=0.0)
        assert [(ev.span.start, ev.span.order, ev.weight) for ev in report.evidence] == [
            (1, 1, 0.25), (2, 2, 0.25), (1, 2, 0.2), (0, 2, 0.1), (2, 1, 0.1), (3, 1, 0.1),
        ]

    def test_overlapping_spans_all_retained(self):
        output = fake_output([0.5, 0.5], [(0, 2), (1, 2)])
        report = extract_evidence(output, ["a", "b", "c"], "pos", threshold=0.1)
        assert len(report.evidence) == 2

    def test_misalignment_rejected(self):
        output = fake_output([0.5, 0.5], [(0, 1)])
        with pytest.raises(DataError):
            extract_evidence(output, ["a"], "pos")

    def test_evidence_text_matches_span(self):
        output = fake_output([1.0], [(1, 2)])
        report = extract_evidence(output, ["a", "b", "c", "d"], "pos", threshold=0.5)
        assert report.evidence[0].text == ["b", "c"]


class TestKeepTopWords:
    def test_full_document_when_n_large(self):
        tokens = ["a", "b", "c"]
        output = fake_output([0.5, 0.3, 0.2], [(0, 1), (1, 1), (2, 1)])
        assert keep_top_words(tokens, output, 10) == tokens

    def test_dominant_trigram_selects_its_words(self):
        tokens = ["x0", "x1", "x2", "x3", "x4", "x5"]
        spans = [(i, 1) for i in range(6)] + [(2, 3)]
        alpha = np.concatenate([np.full(6, 0.001), [0.994]])
        output = fake_output(alpha, spans)
        assert keep_top_words(tokens, output, 3) == ["x2", "x3", "x4"]

    def test_output_is_subsequence_in_original_order(self):
        rng = np.random.default_rng(5)
        tokens = [f"t{i}" for i in range(12)]
        spans = [(i, 1) for i in range(12)]
        output = fake_output(rng.random(12), spans)
        kept = keep_top_words(tokens, output, 5)
        positions = [tokens.index(t) for t in kept]
        assert positions == sorted(positions)
        assert len(kept) == 5

    def test_selection_grows_monotonically(self):
        rng = np.random.default_rng(6)
        tokens = [f"t{i}" for i in range(10)]
        output = fake_output(rng.random(10), [(i, 1) for i in range(10)])
        previous = set()
        for n in range(1, 11):
            current = set(keep_top_words(tokens, output, n))
            assert previous <= current
            previous = current

    def test_word_importance_uses_max_over_covering_units(self):
        output = fake_output([0.1, 0.6, 0.3], [(0, 1), (0, 2), (1, 1)])
        importance = word_importance(output, 2)
        np.testing.assert_allclose(importance, [0.6, 0.6])

    def test_n_must_be_positive(self):
        output = fake_output([1.0], [(0, 1)])
        with pytest.raises(ValueError):
            keep_top_words(["a"], output, 0)


class TestRandomSubsequence:
    def test_whole_document_when_n_large(self):
        tokens = ["a", "b", "c"]
        assert random_subsequence(tokens, 5, np.random.default_rng(0)) == tokens

    def test_window_length(self):
        tokens = [f"t{i}" for i in range(10)]
        for n in (1, 3, 10):
            assert len(random_subsequence(tokens, n, np.random.default_rng(1))) == n

    def test_window_is_contiguous(self):
        tokens = [f"t{i}" for i in range(10)]
        window = random_subsequence(tokens, 4, np.random.default_rng(2))
        start = tokens.index(window[0])
        assert window == tokens[start : start + 4]

    def test_seeded_determinism(self):
        tokens = [f"t{i}" for i in range(30)]
        first = random_subsequence(tokens, 5, np.random.default_rng(9))
        second = random_subsequence(tokens, 5, np.random.default_rng(9))
        assert first == second


class TestRendering:
    def test_empty_evidence_returns_document(self):
        report = EvidenceReport("pos", [], ["a", "b", "c"], 0.05)
        assert render_highlights(report, "plain") == "a b c"

    def test_single_span_single_region(self):
        report = EvidenceReport(
            "pos", [Evidence(Span(1, 2), ["b", "c"], 0.8)], ["a", "b", "c", "d"], 0.05
        )
        text = render_highlights(report, "plain")
        assert text == "a **b c** d"
        assert text.count("**") == 2

    def test_html_is_well_formed_even_with_crossing_spans(self):
        report = EvidenceReport(
            "pos",
            [
                Evidence(Span(0, 2), ["a", "b"], 0.5),
                Evidence(Span(1, 2), ["b", "c"], 0.3),
            ],
            ["a", "b", "c", "d"],
            0.05,
        )
        html = render_highlights(report, "html")
        root = ET.fromstring(f"<div>{html}</div>")  # parse-back check
        marks = root.findall(".//mark")
        assert len(marks) >= 2
        assert all("data-weight" in m.attrib for m in marks)

    def test_html_escapes_tokens(self):
        report = EvidenceReport(
            "pos", [Evidence(Span(0, 1), ["<b>"], 0.9)], ["<b>", "ok"], 0.05
        )
        html = render_highlights(report, "html")
        assert "&lt;b&gt;" in html
        ET.fromstring(f"<div>{html}</div>")

    def test_unknown_format_rejected(self):
        report = EvidenceReport("pos", [], ["a"], 0.05)
        with pytest.raises(ValueError):
            render_highlights(report, "latex")


@pytest.fixture(scope="module")
def tiny_setup():
    planted = make_planted_corpus(
        num_docs=60, num_classes=3, distractor_vocab=40,
        length_range=(8, 10), seed=5,
    )
    bundle = prepare_bundle(planted.corpus, None, embed_dim=10, seed=3)
    explainer_config = TrainConfig(
        encoder="leftforest", embed_dim=10, hidden_dim=8, attention_dim=8,
        max_order=3, batch_size=16, epochs=4, patience=4, seed=1,
        learning_rate=0.01,
    )
    explainer = train(explainer_config, bundle).model
    probe = TrainConfig(
        encoder="bilstm", embed_dim=10, hidden_dim=8, attention_dim=8,
        batch_size=16, epochs=3, patience=3, learning_rate=0.01,
    )
    return explainer, bundle, probe


class TestFidelityHarness:

    def test_rows_structure_and_upper_bound_present(self, tiny_setup):
        explainer, bundle, probe = tiny_setup
        rows = fidelity_harness(explainer, bundle, n_values=[2], seed=4, probe_config=probe)
        assert [(r.n, r.condition) for r in rows] == [
            (None, "full"), (2, "extracted"), (2, "random")
        ]
        assert all(0.0 <= r.accuracy <= 1.0 for r in rows)

    def test_deterministic_under_seed(self, tiny_setup):
        explainer, bundle, probe = tiny_setup
        first = fidelity_harness(explainer, bundle, n_values=[2], seed=4, probe_config=probe)
        second = fidelity_harness(explainer, bundle, n_values=[2], seed=4, probe_config=probe)
        assert [(r.n, r.condition, r.accuracy) for r in first] == [
            (r.n, r.condition, r.accuracy) for r in second
        ]

    def test_tsv_format(self, tiny_setup):
        explainer, bundle, probe = tiny_setup
        rows = fidelity_harness(explainer, bundle, n_values=[2], seed=4, probe_config=probe)
        lines = fidelity_tsv(rows).strip().split("\n")
        assert lines[0] == "n\tcondition\taccuracy"
        assert lines[1].startswith("-\tfull\t")
        assert lines[2].startswith("2\textracted\t")
        assert lines[3].startswith("2\trandom\t")
