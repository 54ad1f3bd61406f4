"""Tests of the benchmark itself: seeded inputs, output checks, tracing."""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

import checks
import gen
import run
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent


def texts(items) -> list:
    return [item.spec.text for item in items]


@pytest.mark.parametrize("cls", [workloads.EventLog, workloads.ModelLarge, workloads.ModelBatch])
def test_rounds_are_deterministic_per_seed(cls):
    first, again, other = cls().round(7), cls().round(7), cls().round(8)
    assert texts(first) == texts(again)
    assert texts(first) != texts(other)


def test_cli_inputs_are_deterministic_per_seed(tmp_path):
    def files(seed, where):
        items = workloads.CliTiny(ROOT, where, {}).round(seed)
        return [item.argv for item in items], {p.name: p.read_text() for p in where.iterdir()}

    assert files(3, tmp_path / "a") == files(3, tmp_path / "b")
    assert files(3, tmp_path / "a")[1] != files(4, tmp_path / "c")[1]


def test_tiny_models_cover_every_kind():
    kinds = {item.spec.kind for item in workloads.ModelBatch().round(1)}
    assert kinds == set(gen.TINY_KINDS)


def test_generated_documents_round_trip_through_the_library():
    import stochworld as sw

    rng = random.Random(5)
    specs = [gen.tiny(rng, kind) for kind in gen.TINY_KINDS for _ in range(5)]
    specs += [gen.chain(rng, 40, "hmm"), gen.cycle(rng, 12), gen.ed_model(rng, 4, 2, 3), gen.ring(rng, 3)[0]]
    for spec in specs:
        model = sw.parse_model(spec.text)
        assert sw.serialize_model(model) == spec.text
        assert sw.validate(model).ok, spec.text


def test_layer_sizes_count_words():
    # the 3-cycle a -> b -> c -> a shows one word per depth
    spec = gen.cycle(random.Random(0), 3)
    assert spec.layer_sizes(5) == [1] * 5
    coin = gen.Spec(
        "fomm", ("B", "W"), ("true",),
        (gen.St("B", True, False, {"B": gen.ONE}), gen.St("W", False, False, {"W": gen.ONE})),
        tuple(gen.Ar(s, "true", t, gen.ONE, (500, 500)) for s in "BW" for t in "BW"),
    )
    assert coin.layer_sizes(3) == [2, 4, 8]


def test_checks_reject_wrong_answers():
    cycle = gen.cycle(random.Random(1), 6)
    ids = [s.id for s in cycle.states]
    checks.stable_partition(cycle, [frozenset([i]) for i in ids])
    with pytest.raises(checks.Mismatch):
        checks.stable_partition(cycle, [frozenset(ids)])
    checks.validity_spans(30, (10, 20), [(0, 10, False), (11, 20, False), (21, 30, False)])
    with pytest.raises(checks.Mismatch):
        checks.validity_spans(30, (10, 20), [(0, 30, True)])
    obs = ["a", "b", "a", "a"]
    checks.estimate(obs, 4, {("a", "true", "b"): (None, (0.5, 0.5)), ("a", "true", "a"): (None, (0.5, 0.5)), ("b", "true", "a"): (None, (1.0, 1.0))}, "a")
    with pytest.raises(checks.Mismatch):
        checks.estimate(obs, 4, {("a", "true", "b"): (None, (0.5, 0.5))}, "a")


def test_flow_balance_and_time_reversal_against_the_library():
    import stochworld as sw

    spec = gen.chain(random.Random(2), 5, "fomm")
    model = sw.parse_model(spec.text)
    stats = sw.journey_statistics(model)
    checks.flow_balance(spec, stats.visit_counts, stats.arrow_counts, stats.return_count)
    checks.time_reversal(spec, workloads.arrow_map(sw.invert_chain(model)))
    counts = dict(stats.arrow_counts)
    key = next(iter(counts))
    counts[key] *= 1.01
    with pytest.raises(checks.Mismatch):
        checks.flow_balance(spec, stats.visit_counts, counts, stats.return_count)


@pytest.mark.parametrize("name, indices", [("model-batch", range(28)), ("event-log", [0]), ("model-large", [1])])
def test_requests_pass_their_checks_and_goldens(name, indices):
    bench = run.Run(name, run.DEFAULT_SEED, ROOT, True)
    items = bench.workload.round(run.DEFAULT_SEED)
    for i in indices:
        bench.request(bench.tracer, i, items[i], i)
    assert bench.failures == []
    metrics, consistent = spans.layer_metrics(bench.tracer)
    assert consistent
    assert metrics["bench.request.self_ms"][0] >= 0.0


def test_goldens_pin_exact_answers():
    goldens = json.loads(run.GOLDENS.read_text())
    assert len(goldens["model-batch"]) == workloads.BATCH_MODELS
    assert len(goldens["model-large"]) == len(workloads.LARGE_LADDER)
    assert len(goldens["cli-tiny"]) == 1


def test_import_tree_attributes_nested_imports():
    log = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     numpy.core",
        "import time:        50 |        150 |   numpy",
        "import time:        10 |         10 |     numpy.fft",
        "import time:       300 |        310 |   scipy.stats",
        "import time:        40 |        500 | stochworld",
        "import time:         5 |          5 | site",
    ])
    times = spans.import_times(log, frozenset({"site"}))
    assert times == {"cli.import_ms": 0.5, "cli.import_numpy_ms": 0.15, "cli.import_scipy_ms": 0.31}


def test_slope_is_fitted_within_families():
    points = [("a", s, 3 * s**2) for s in (10, 20, 40)] + [("b", s, 1000 * s**2) for s in (5, 7)]
    assert spans.slope(points) == pytest.approx(2.0)
    assert spans.slope([("a", 10, 1.0), ("a", 10, 2.0)]) == 0.0


def test_benchmark_json_lists_every_metric():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == spans.per_layer_units()
    end_to_end = {m["name"] for m in doc["end_to_end"]}
    assert end_to_end == {"setup_s", "throughput_per_s", "latency_p50_ms", "latency_tail_ms", "success_ratio", "peak_rss_mb"}
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def test_meter_scales_stretches_to_reference_speed(monkeypatch):
    import time

    import speed

    # a slice that takes twice its reference time: the machine runs at half speed
    monkeypatch.setattr(speed, "reference_slice", lambda: time.sleep(2 * speed.NOMINAL_S))
    meter = speed.Meter()
    timing = speed.Timing()
    start = time.perf_counter()
    meter.begin(timing, sampled=True)
    time.sleep(4 * speed.EVERY_S)  # the timer's slices land inside the sleep
    meter.end()
    elapsed = time.perf_counter() - start
    meter.finish()
    assert len(meter.slices) >= 4
    assert timing.wall < elapsed - 2 * speed.NOMINAL_S
    assert timing.ref == pytest.approx(timing.wall / 2, rel=0.2)
