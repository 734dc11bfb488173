"""Tests of the benchmark's own checks and tracer.

Each check is fed a right output, which it must pass, and a corrupted one,
which it must fail.  Run from the root of a checkout:

    python3 -m pytest perfbench
"""
from __future__ import annotations

import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import measure  # noqa: E402
from inputs import write_inputs  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WHY  # noqa: E402

TINY_LENGTHS = (6, 7, 8, 9) * 3


@pytest.fixture(scope="module")
def mg():
    return measure.Modules()


@pytest.fixture(scope="module")
def world(mg, tmp_path_factory):
    directory = tmp_path_factory.mktemp("inputs")
    inputs = write_inputs(TINY_LENGTHS, seed=5, directory=directory)
    corpus = mg.data.load_corpus(inputs.corpus_path)
    bundle = mg.training.prepare_bundle(corpus, inputs.embeddings_path, 300, seed=0,
                                        ratios=(2, 1, 1))
    return directory, inputs, bundle


def tiny_config(mg, encoder: str, epochs: int = 2):
    return mg.training.TrainConfig(
        encoder=encoder, hidden_dim=8, attention_dim=8, max_order=3, epochs=epochs,
        patience=epochs, learning_rate=0.01, seed=3,
    )


def trained(mg, bundle, encoder: str):
    return mg.training.train(tiny_config(mg, encoder), bundle).model


def outputs_of(model, docs):
    return [checks.DocOutput.of(model.forward_doc(ids)[0]) for ids in docs.ids]


@pytest.mark.parametrize("encoder", ["leftforest", "bilstm"])
def test_gradient_check_catches_a_scaled_gradient(mg, world, encoder):
    _, _, bundle = world
    model = trained(mg, bundle, encoder)
    group = measure.held_out_group(bundle.test)
    analytic, numeric = measure.directional_derivative(mg, model, bundle.test, group, seed=1)
    assert checks.check_gradient(analytic, numeric) == []
    assert checks.check_gradient(analytic * 1.01, numeric)
    assert checks.check_gradient(float("nan"), numeric)


@pytest.mark.parametrize("encoder", ["leftforest", "bilstm"])
def test_training_check_catches_an_unmoved_or_overstepped_model(mg, world, encoder):
    _, _, bundle = world
    config = tiny_config(mg, encoder, epochs=measure.EPOCHS)
    start = measure.initial_model(mg, config, bundle)
    model = mg.training.train(config, bundle).model
    before = measure.mean_loss(start, bundle.train)
    assert checks.check_loss_falls(before, measure.mean_loss(model, bundle.train)) == []
    assert checks.check_loss_falls(before, measure.mean_loss(start, bundle.train))
    initial, final = start.store.state_dict(), model.store.state_dict()
    steps = measure.adam_steps(bundle.train, config.batch_size)
    rate = config.learning_rate
    assert checks.check_training(initial, final, rate, steps) == []
    assert checks.check_training(initial, initial, rate, steps)
    name = next(iter(initial))
    assert checks.check_training(initial, {**final, name: initial[name]}, rate, steps)
    doubled = {n: initial[n] + 2 * (final[n] - initial[n]) for n in initial}
    assert checks.check_training(initial, doubled, rate, steps)


def test_adam_reach_is_one_rate_per_step_under_a_steady_gradient():
    assert checks.adam_reach(1) == pytest.approx(1.0)
    assert checks.adam_reach(2) == pytest.approx(2.0, abs=2e-3)
    assert checks.adam_reach(50) > 50


def test_reload_check_catches_a_perturbed_parameter(mg, world):
    directory, _, bundle = world
    model = trained(mg, bundle, "cnn")
    path = directory / "model.ckpt"
    mg.data.save_checkpoint(model, path)
    reference = outputs_of(model, bundle.test)
    assert checks.check_reload(reference, outputs_of(mg.data.load_checkpoint(path), bundle.test)) == []
    loaded = mg.data.load_checkpoint(path)
    weight = loaded.store.get("classifier.w")
    weight.data[...] = np.nextafter(weight.data, np.float32(np.inf))
    assert checks.check_reload(reference, outputs_of(loaded, bundle.test))


def test_float64_agreement_catches_a_shifted_probability(mg, world):
    _, _, bundle = world
    model = trained(mg, bundle, "biforest")
    narrow = outputs_of(model, bundle.test)
    wide = outputs_of(measure.float64_copy(mg, model), bundle.test)
    assert checks.check_float64_agreement(narrow, wide) == []
    shift = np.zeros(bundle.num_classes)
    shift[:2] = 1e-4, -1e-4
    shifted = [replace(o, probs=o.probs + shift) for o in narrow]
    assert checks.check_float64_agreement(shifted, wide)
    scaled = [replace(o, alpha=o.alpha * 1.001) for o in narrow]
    assert checks.check_float64_agreement(scaled, wide)


def test_distribution_check_catches_unnormalised_weights(mg, world):
    _, _, bundle = world
    outputs = outputs_of(trained(mg, bundle, "leftforest"), bundle.test)
    assert checks.check_distributions(outputs) == []
    assert checks.check_distributions([replace(outputs[0], alpha=outputs[0].alpha * 1.01)])
    negative = outputs[0].probs.copy()
    negative[0] -= 2 * negative[0] + 1e-3
    negative[1] += 2 * outputs[0].probs[0] + 1e-3
    assert checks.check_distributions([replace(outputs[0], probs=negative)])


@pytest.mark.parametrize("encoder", ["leftforest", "cnn", "bilstm"])
def test_unit_span_check_catches_a_missing_or_repeated_span(mg, world, encoder):
    _, _, bundle = world
    outputs = outputs_of(trained(mg, bundle, encoder), bundle.test)
    lengths = [len(ids) for ids in bundle.test.ids]
    assert checks.check_unit_spans(outputs, lengths, encoder, 3) == []
    first = outputs[0]
    assert checks.check_unit_spans([replace(first, spans=first.spans[:-1])], lengths, encoder, 3)
    repeated = first.spans[:-1] + first.spans[:1]
    assert checks.check_unit_spans([replace(first, spans=repeated)], lengths, encoder, 3)


def test_eval_agreement_catches_a_changed_prediction():
    out = checks.DocOutput(np.array([0.2, 0.7, 0.1]), np.array([1.0]), [(0, 1)])
    assert checks.check_eval_agreement([1], [out]) == []
    assert checks.check_eval_agreement([0], [out])
    tie = checks.DocOutput(np.array([0.45, 0.45 + 1e-6, 0.1]), np.array([1.0]), [(0, 1)])
    assert checks.check_eval_agreement([0], [tie]) == []


def test_evidence_check_catches_a_dropped_unit_and_a_broken_rendering(mg, world):
    _, _, bundle = world
    model = trained(mg, bundle, "biforest")
    test = bundle.test
    threshold = 0.02
    outputs, reports = [], []
    for i in range(len(test)):
        output = model.forward_doc(test.ids[i])[0]
        outputs.append(checks.DocOutput.of(output))
        reports.append(mg.explain.extract_evidence(output, test.tokens[i], "x", threshold))
    plain = [mg.explain.render_highlights(r, "plain") for r in reports]
    pages = [mg.explain.render_highlights(r, "html") for r in reports]
    args = (plain, pages, test.tokens, threshold)
    assert checks.check_evidence(outputs, reports, *args) == []
    i = next(k for k, r in enumerate(reports) if len(r.evidence) >= 2)
    dropped = replace(reports[i], evidence=reports[i].evidence[1:])
    assert checks.check_evidence(outputs[i:i + 1], [dropped], plain[i:], pages[i:],
                                 test.tokens[i:], threshold)
    swapped = replace(reports[i], evidence=reports[i].evidence[::-1])
    assert checks.check_evidence(outputs[i:i + 1], [swapped], plain[i:], pages[i:],
                                 test.tokens[i:], threshold)
    broken = [pages[i].replace("</mark>", "", 1) + " "]
    assert checks.check_evidence(outputs[i:i + 1], reports[i:i + 1], plain[i:], broken,
                                 test.tokens[i:], threshold)


def test_learning_checks_catch_chance_accuracy_and_missed_plants():
    assert checks.check_accuracy(0.9, 5) == []
    assert checks.check_accuracy(0.45, 5)
    top = [(3, 6), (0, 2), (5, 7)]
    assert checks.check_plant_overlap(top, [(4, 7), (1, 4), (5, 8)]) == []
    assert checks.check_plant_overlap(top, [(10, 13), (10, 13), (5, 8)])


def test_tracer_patches_every_binding_and_computes_self_time(mg):
    original = mg.attention.attention_pool
    tracer = Tracer("multigram")
    assert tracer.patch_function(mg.attention, "attention_pool")
    assert tracer.patch_function(mg.autodiff, "softmax", primitive=True)
    assert not tracer.patch_function(mg.autodiff, "no_such_primitive")
    assert mg.model.attention_pool is mg.attention.attention_pool is not original
    tracer.attribute_backward(mg.autodiff.Tape)
    params = mg.attention.init_attention_params(
        mg.autodiff.ParamStore(), "a", 4, 3, np.random.default_rng(0)
    )
    h = mg.autodiff.Tensor(np.random.default_rng(1).standard_normal((5, 4)), requires_grad=True)
    with mg.autodiff.Tape() as tape:
        alpha, pooled = mg.model.attention_pool(h, params)
        tape.backward(mg.autodiff.sum_all(pooled))
    tracer.uninstall()
    assert mg.model.attention_pool is mg.attention.attention_pool is original
    assert tracer.names[:2] == ["attention.attention_pool", "autodiff.softmax"]
    assert tracer.parents[:2] == [-1, 0]
    assert "autodiff.softmax_backward" in tracer.names
    totals = tracer.aggregate(0, 2**63)
    assert totals["attention.attention_pool_calls"] == 1
    inclusive = totals["attention.attention_pool_ms"]
    assert totals["attention.attention_pool_self_ms"] == pytest.approx(
        inclusive - totals["autodiff.softmax_ms"]
    )


def test_traced_run_refuses_a_function_the_program_lacks(mg, monkeypatch):
    original = mg.explain.extract_evidence
    monkeypatch.setitem(measure.TRACED_FUNCTIONS, "explain",
                        ("extract_evidence", "no_such_function"))
    with pytest.raises(RuntimeError, match="explain.no_such_function"):
        measure.install_tracer(mg)
    assert mg.explain.extract_evidence is original


def test_benchmark_json_names_every_metric_the_run_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == list(measure.PER_LAYER)
    for metric in spec["per_layer"]:
        assert metric["unit"] == measure.unit_of(metric["name"])
        wanted = "higher" if metric["name"] in measure.HIGHER_IS_BETTER else "lower"
        assert metric["better"] == wanted
    assert [m["name"] for m in spec["end_to_end"]] == list(measure.END_TO_END)
    for workload in spec["workloads"]:
        assert workload["why"] == WHY[workload["name"]]
