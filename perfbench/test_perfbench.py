"""Self-tests of the benchmark (run: ``python3 -m pytest perfbench -q``).

None of these import the program under test.
"""

from __future__ import annotations

import json
import os
from collections import Counter

import pytest

import common
import compare
import layers
import streams
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


# -- streams ----------------------------------------------------------------

@pytest.mark.parametrize("workload", streams.WORKLOADS)
def test_streams_are_deterministic_per_seed(workload):
    ops = streams.op_count(workload, 20)
    first = streams.build(workload, 7, ops)
    again = streams.build(workload, 7, ops)
    other = streams.build(workload, 8, ops)
    assert (first.setup, first.timed) == (again.setup, again.timed)
    assert first.timed != other.timed
    assert len(first.timed) == ops


def test_op_counts_meet_the_tail_minimums():
    assert streams.op_count("fleet-warm", 20) == 1024
    assert streams.op_count("compile-cold", 20) == 162
    assert streams.op_count("maintenance-loop", 20) == 100
    assert streams.op_count("fleet-warm", 1) == 1024
    assert streams.op_count("compile-cold", 40) == 306


def test_fleet_mix_is_stratified():
    stream = streams.fleet_warm(3, 1024)
    assert len(stream.setup) == streams.FLEET_NETWORKS
    verbs = Counter(request["verb"] for request in stream.timed)
    assert verbs == {"schedule": 768, "reschedule": 256}
    per_network = Counter(request["network"] for request in stream.timed)
    assert set(per_network.values()) == {32}
    hashes = {request["network"]: request["config"]
              for request in stream.setup}
    for request in stream.timed:
        if request["verb"] == "schedule":
            assert request["config"] == hashes[request["network"]]


def test_compile_cold_never_repeats_a_workload():
    stream = streams.compile_cold(3, 162)
    seeds = [request["config"]["workload_seed"]
             for request in stream.setup + stream.timed]
    assert len(set(seeds)) == len(seeds)
    shapes = Counter((r["config"]["policy"], r["config"]["testbed"],
                      r["config"]["flows"]) for r in stream.timed)
    assert len(shapes) == 18 and set(shapes.values()) == {9}
    assert {r["network"] for r in stream.timed} == {
        f"cold-{index}" for index in range(streams.COLD_NAME_POOL)}


def test_maintenance_warmup_seed_is_outside_the_timed_set():
    stream = streams.maintenance_loop(3, 100)
    timed = [op["seed"] for op in stream.timed]
    assert len(set(timed)) == 100
    assert stream.setup[0]["seed"] not in timed
    other = streams.maintenance_loop(4, 100)
    assert sorted(op["seed"] for op in other.timed) == sorted(timed)
    assert other.setup == stream.setup


def test_fleet_plant_is_fixed_and_the_order_is_seeded():
    first, second = streams.fleet_warm(3, 1024), streams.fleet_warm(4, 1024)
    assert first.setup == second.setup
    assert first.timed != second.timed


# -- percentiles ------------------------------------------------------------

def test_percentile_refuses_fewer_than_ten_samples_beyond():
    with pytest.raises(common.TooFewSamples):
        common.percentile(list(range(999)), 99)
    with pytest.raises(common.TooFewSamples):
        common.percentile(list(range(99)), 90)
    assert common.percentile(list(range(1000)), 99) == pytest.approx(989.01)
    assert common.percentile(list(range(101)), 90) == pytest.approx(90.0)
    assert common.min_samples(99) == 1000
    assert common.min_samples(90) == 100


def test_relative_spread_is_iqr_over_median():
    values = [9.0, 10.0, 10.0, 11.0, 12.0, 10.0, 9.5, 10.5, 10.0, 11.0]
    q1, q2, q3 = __import__("statistics").quantiles(values, n=4)
    assert common.relative_spread(values) == pytest.approx((q3 - q1) / q2)


# -- metric names -------------------------------------------------------------

def test_every_metric_name_is_well_formed():
    spec = _spec()
    names = [entry["name"] for key in ("end_to_end", "per_layer")
             for entry in spec[key]]
    names += [workload["name"] for workload in spec["workloads"]]
    assert len(names) == len(set(names))
    assert common.check_metric_names(names + list(workloads.LAYER_UNITS)) \
        == []
    assert common.check_metric_names(["ok.name-1", "bad name", "x/y"]) \
        == ["bad name", "x/y"]


def test_layer_metrics_are_all_declared():
    declared = {entry["name"]: entry["unit"]
                for entry in _spec()["per_layer"]}
    measured = {**workloads.LAYER_UNITS, **workloads.SERVICE_LAYER_UNITS}
    for name, unit in measured.items():
        assert declared[name] == unit, name
    end_to_end = [entry for entry in _spec()["end_to_end"]]
    assert any(entry["name"] == "setup_s" and entry["unit"] == "s"
               and entry["better"] == "lower" for entry in end_to_end)
    assert max(entry["bound"] for entry in end_to_end) == \
        next(entry["bound"] for entry in end_to_end
             if entry["name"] == "setup_s")


# -- self-time arithmetic ----------------------------------------------------

def _span(name, start, end, parent, op=0):
    return [name, start, end, parent, op, {}]


def test_self_times_on_a_synthetic_tree():
    spans = [
        _span(layers.OP_SPAN, 0.0, 10.0, None),   # 0
        _span("repair", 1.0, 4.0, 0),             # 1
        _span("schedule.facts", 2.0, 3.0, 1),     # 2
        _span("rebuild", 5.0, 9.0, 0),            # 3
        _span("audit", 6.0, 7.0, 3),              # 4
        _span("audit", 7.5, 8.5, 3),              # 5
        _span(layers.OP_SPAN, 20.0, 22.0, None, op=1),
    ]
    selfs = layers.self_times(spans)
    assert selfs == pytest.approx([3.0, 2.0, 1.0, 2.0, 1.0, 1.0, 2.0])
    assert sum(selfs[:6]) == pytest.approx(10.0)
    assert layers.check_self_sum(spans, selfs) == pytest.approx(0.0)
    spans[1][layers.END] = 5.5          # overlapping siblings show up
    assert layers.check_self_sum(spans, layers.self_times(spans)) == \
        pytest.approx(0.05)


def test_overlapping_children_are_covered_once():
    spans = [_span("rebuild", 0.0, 4.0, None),
             _span("audit", 1.0, 3.0, 0),
             _span("audit", 2.0, 3.5, 0)]
    assert layers.self_times(spans)[0] == pytest.approx(1.5)


def test_epochs_take_the_manager_self_time():
    spans = [
        _span(layers.OP_SPAN, 0.0, 10.0, None),
        _span("compile", 0.0, 1.0, 0),
        _span("simulate", 1.0, 3.0, 0),
        _span("detect", 3.0, 3.5, 0),
        _span("simulate", 5.0, 7.0, 0),
        _span("repair", 8.0, 9.0, 0),
    ]
    with_epochs = layers.add_epochs(spans)
    epochs = [index for index, span in enumerate(with_epochs)
              if span[layers.NAME] == layers.EPOCH_SPAN]
    assert [(with_epochs[i][1], with_epochs[i][2]) for i in epochs] == \
        [(1.0, 5.0), (5.0, 10.0)]
    selfs = layers.self_times(with_epochs)
    assert [selfs[i] for i in epochs] == pytest.approx([1.5, 2.0])
    assert selfs[0] == pytest.approx(0.0)   # compile fills [0, 1)
    assert selfs[1] == pytest.approx(1.0)
    assert layers.check_self_sum(with_epochs, selfs) == pytest.approx(0.0)


def test_tracer_wraps_and_restores():
    class Target:
        def work(self, value):
            return self.inner(value) + 1

        def inner(self, value):
            return value * 2

    tracer = layers.Tracer()
    original = Target.__dict__["work"]
    tracer.wrap(Target, "work", "work")
    tracer.wrap(Target, "inner", "inner",
                annotate=lambda args, kwargs, result: {"result": result})
    with tracer.op_span(0, "timed"):
        assert Target().work(3) == 7
    tracer.uninstall()
    assert Target.__dict__["work"] is original
    names = [span[layers.NAME] for span in tracer.spans]
    assert names == [layers.OP_SPAN, "work", "inner"]
    assert tracer.spans[2][layers.PARENT] == 1
    assert tracer.spans[2][layers.ATTRS] == {"result": 6}
    assert tracer.counts == {"work": 1, "inner": 1}


# -- comparison ---------------------------------------------------------------

def _run(workload, fingerprint, value=1.0, correct=True):
    return {"environment": {"workload": workload, "seed": 1,
                            "fingerprint": fingerprint},
            "correct": correct, "attempted": 1, "failed": 0,
            "metrics": {"setup_s": {"value": value, "unit": "s"}}}


def test_compare_refuses_differing_fingerprints():
    one = {"cpu_count": 2}
    two = {"cpu_count": 1}
    assert compare.refusal([[_run("w", one)], [_run("w", one)]]) == ""
    assert "fingerprints differ" in compare.refusal(
        [[_run("w", one)], [_run("w", two)]])
    assert "failed" in compare.refusal([[_run("w", one, correct=False)]])
