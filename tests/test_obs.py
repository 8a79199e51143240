"""Tests for the observability layer (repro.obs) and its integrations."""

import json

import pytest

from repro import obs
from repro.core.nr import NoReusePolicy
from repro.core.rc import ConservativeReusePolicy
from repro.core.scheduler import FixedPriorityScheduler
from repro.flows.flow import Flow, FlowSet
from repro.io import (
    load_jsonl,
    load_metrics,
    save_jsonl,
    save_metrics,
    scheduling_result_to_dict,
)
from repro.network.graphs import ChannelReuseGraph, CommunicationGraph
from repro.obs.metrics import Histogram, MetricsRegistry
from repro.obs.recorder import NullRecorder, Recorder
from repro.obs.report import format_report
from repro.obs.trace import Tracer
from repro.routing.traffic import TrafficType, assign_routes


# ----------------------------------------------------------------------
# Metrics registry
# ----------------------------------------------------------------------

class TestMetricsRegistry:
    def test_counter_get_or_create_and_increment(self):
        registry = MetricsRegistry()
        registry.inc("a.b")
        registry.inc("a.b", 2.5)
        assert registry.counter_value("a.b") == 3.5
        assert registry.counter_value("missing") == 0.0

    def test_counter_rejects_negative(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.inc("a", -1)

    def test_gauge_last_write_wins(self):
        registry = MetricsRegistry()
        registry.set_gauge("g", 4)
        registry.set_gauge("g", 2)
        assert registry.snapshot()["gauges"]["g"] == 2.0

    def test_histogram_bucketing(self):
        hist = Histogram("h", buckets=(1, 2, 5))
        for value in (0.5, 1.0, 1.5, 3, 10):
            hist.observe(value)
        # Upper bounds are inclusive: 1.0 lands in the <=1 bucket.
        assert hist.counts == [2, 1, 1, 1]
        assert hist.count == 5
        assert hist.min == 0.5 and hist.max == 10
        assert hist.mean() == pytest.approx(16.0 / 5)

    def test_histogram_rejects_bad_buckets(self):
        with pytest.raises(ValueError):
            Histogram("h", buckets=())
        with pytest.raises(ValueError):
            Histogram("h", buckets=(2, 1))
        with pytest.raises(ValueError):
            Histogram("h", buckets=(1, 1))

    def test_snapshot_is_json_serializable(self):
        registry = MetricsRegistry()
        registry.inc("c", 2)
        registry.set_gauge("g", 7)
        registry.observe("h", 3, buckets=(1, 4))
        snapshot = json.loads(json.dumps(registry.snapshot()))
        assert snapshot["counters"]["c"] == 2
        assert snapshot["histograms"]["h"]["counts"] == [0, 1, 0]

    def test_merge_snapshot_adds_counters_and_bins(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        for registry, n in ((a, 1), (b, 2)):
            registry.inc("c", n)
            registry.observe("h", n, buckets=(1, 4))
            registry.set_gauge("g", n)
        a.merge_snapshot(b.snapshot())
        merged = a.snapshot()
        assert merged["counters"]["c"] == 3
        assert merged["histograms"]["h"]["counts"] == [1, 1, 0]
        assert merged["histograms"]["h"]["count"] == 2
        assert merged["histograms"]["h"]["min"] == 1
        assert merged["histograms"]["h"]["max"] == 2
        assert merged["gauges"]["g"] == 2  # last write wins

    def test_merge_rejects_bucket_mismatch(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.observe("h", 1, buckets=(1, 2))
        b.observe("h", 1, buckets=(1, 3))
        with pytest.raises(ValueError) as excinfo:
            a.merge_snapshot(b.snapshot())
        # The error names the metric and both bucket-bound lists.
        message = str(excinfo.value)
        assert "'h'" in message
        assert "[1.0, 2.0]" in message and "[1.0, 3.0]" in message
        # A failed merge leaves the target histogram untouched.
        assert a.snapshot()["histograms"]["h"]["counts"] == [1, 0, 0]
        assert a.snapshot()["histograms"]["h"]["count"] == 1

    def test_merge_rejects_bin_count_mismatch(self):
        a = MetricsRegistry()
        a.observe("h", 1, buckets=(1, 2))
        bad = {"histograms": {"h": {
            "buckets": [1, 2], "counts": [0, 0], "count": 0,
            "sum": 0.0, "min": None, "max": None}}}
        with pytest.raises(ValueError) as excinfo:
            a.merge_snapshot(bad)
        assert "'h'" in str(excinfo.value)
        assert a.snapshot()["histograms"]["h"]["counts"] == [1, 0, 0]

    def test_merge_snapshots_static(self):
        snaps = []
        for n in (1, 2, 4):
            registry = MetricsRegistry()
            registry.inc("c", n)
            snaps.append(registry.snapshot())
        assert MetricsRegistry.merge_snapshots(snaps)["counters"]["c"] == 7

    def test_reset(self):
        registry = MetricsRegistry()
        registry.inc("c")
        registry.reset()
        assert registry.snapshot() == {
            "counters": {}, "gauges": {}, "histograms": {}}


# ----------------------------------------------------------------------
# Tracer
# ----------------------------------------------------------------------

class TestTracer:
    def test_emit_and_read_back(self):
        tracer = Tracer()
        tracer.emit("placement", flow=3, slot=7)
        (event,) = tracer.events()
        assert event.kind == "placement"
        assert event.to_dict() == {"seq": 0, "kind": "placement",
                                   "flow": 3, "slot": 7}

    def test_ring_overflow_keeps_newest_and_counts_drops(self):
        tracer = Tracer(capacity=3)
        for index in range(10):
            tracer.emit("e", index=index)
        assert len(tracer) == 3
        assert tracer.dropped == 7
        assert [e.fields["index"] for e in tracer.events()] == [7, 8, 9]
        # Sequence numbers are global, so gaps reveal the drops.
        assert [e.seq for e in tracer.events()] == [7, 8, 9]

    def test_kind_counts_and_clear(self):
        tracer = Tracer()
        tracer.emit("a")
        tracer.emit("a")
        tracer.emit("b")
        assert tracer.kind_counts() == {"a": 2, "b": 1}
        tracer.clear()
        assert len(tracer) == 0

    def test_jsonl_export_roundtrip(self, tmp_path):
        tracer = Tracer()
        tracer.emit("placement", flow=1, reused=False)
        tracer.emit("rc_fallback", from_rho=None, to_rho=4)
        path = tmp_path / "trace.jsonl"
        assert tracer.export_jsonl(path) == 2
        records = load_jsonl(path)
        assert records[:-1] == tracer.event_dicts()
        assert records[1]["to_rho"] == 4
        trailer = records[-1]
        assert trailer == {"kind": "trace_meta", "dropped": 0,
                           "capacity": tracer.capacity}

    def test_jsonl_export_reports_drops(self, tmp_path):
        tracer = Tracer(capacity=2)
        for i in range(5):
            tracer.emit("placement", flow=i)
        path = tmp_path / "trace.jsonl"
        assert tracer.export_jsonl(path) == 2
        records = load_jsonl(path)
        assert [r["flow"] for r in records[:-1]] == [3, 4]
        assert records[-1] == {"kind": "trace_meta", "dropped": 3,
                               "capacity": 2}

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            Tracer(capacity=0)


# ----------------------------------------------------------------------
# Recorder runtime
# ----------------------------------------------------------------------

class TestRecorderRuntime:
    def test_disabled_by_default(self):
        assert not obs.is_enabled()
        assert isinstance(obs.get_recorder(), NullRecorder)

    def test_null_recorder_discards_everything(self):
        recorder = NullRecorder()
        recorder.count("c")
        recorder.observe("h", 1)
        recorder.set_gauge("g", 1)
        recorder.event("e", x=1)
        assert recorder.snapshot() == {
            "counters": {}, "gauges": {}, "histograms": {}}
        assert len(recorder.tracer) == 0

    def test_recording_scopes_and_restores(self):
        assert not obs.is_enabled()
        with obs.recording() as recorder:
            assert obs.is_enabled()
            assert obs.get_recorder() is recorder
            recorder.count("x")
        assert not obs.is_enabled()
        assert isinstance(obs.get_recorder(), NullRecorder)

    def test_recording_restores_on_error(self):
        with pytest.raises(RuntimeError):
            with obs.recording():
                raise RuntimeError("boom")
        assert not obs.is_enabled()

    def test_nested_recording_restores_outer(self):
        with obs.recording() as outer:
            inner_rec = Recorder()
            with obs.recording(inner_rec):
                assert obs.get_recorder() is inner_rec
            assert obs.get_recorder() is outer

    def test_stage_feeds_histogram_without_trace(self):
        with obs.recording() as recorder:
            with obs.stage("unit.test") as span:
                assert span is None  # no open trace, so no span
        histogram = recorder.snapshot()["histograms"][
            "span.unit.test.seconds"]
        assert histogram["count"] == 1
        assert histogram["sum"] >= 0.0
        assert recorder.tracer.events() == []

    def test_stage_is_noop_when_disabled(self):
        with obs.stage("unit.noop"):
            pass
        assert obs.get_recorder().snapshot()["histograms"] == {}


# ----------------------------------------------------------------------
# Instrumented scheduler integration
# ----------------------------------------------------------------------

def _routed_line_flows(topology, num_flows=3, period=64):
    communication = CommunicationGraph.from_topology(topology, 0.9)
    flows = FlowSet([
        Flow(i, 0, 5, period, period) for i in range(num_flows)])
    return assign_routes(flows.deadline_monotonic(), communication,
                         TrafficType.PEER_TO_PEER, [])


def _scheduler(topology, policy, num_offsets=2):
    reuse = ChannelReuseGraph.from_topology(topology)
    return FixedPriorityScheduler(
        num_nodes=topology.num_nodes, num_offsets=num_offsets,
        reuse_graph=reuse, policy=policy)


class TestSchedulerIntegration:
    def test_result_counters_populated_when_recording(self, line_topology):
        flows = _routed_line_flows(line_topology)
        with obs.recording() as recorder:
            result = _scheduler(line_topology, NoReusePolicy()).run(flows)
        assert result.schedulable
        assert result.counters["placements"] == len(result.schedule.entries)
        assert result.counters["placements_tried"] >= \
            result.counters["placements"]
        assert result.counters["slots_scanned"] > 0
        kinds = recorder.tracer.kind_counts()
        assert kinds["placement"] == result.counters["placements"]
        assert kinds["flow_admitted"] == 3

    def test_result_counters_json_serializable_through_io(
            self, line_topology, tmp_path):
        flows = _routed_line_flows(line_topology)
        with obs.recording():
            result = _scheduler(line_topology, NoReusePolicy()).run(flows)
        payload = scheduling_result_to_dict(result)
        text = json.dumps(payload)  # must not raise
        restored = json.loads(text)
        assert restored["counters"] == result.counters
        assert restored["policy"] == "NR"
        assert len(restored["schedule"]["entries"]) == \
            result.counters["placements"]

    def test_rc_fallback_events_and_counters(self, line_topology):
        # One channel and tight deadlines force RC below ∞: laxity goes
        # negative and ρ falls toward the floor.
        communication = CommunicationGraph.from_topology(line_topology, 0.9)
        flows = FlowSet([Flow(i, 0, 5, 32, 16) for i in range(3)])
        routed = assign_routes(flows.deadline_monotonic(), communication,
                               TrafficType.PEER_TO_PEER, [])
        with obs.recording() as recorder:
            result = _scheduler(
                line_topology, ConservativeReusePolicy(),
                num_offsets=1).run(routed)
        counters = recorder.snapshot()["counters"]
        kinds = recorder.tracer.kind_counts()
        assert kinds.get("laxity_eval", 0) > 0
        assert counters.get("rc.laxity_triggers", 0) > 0
        assert counters.get("rc.reuse_fallbacks", 0) > 0
        assert kinds.get("rc_fallback", 0) == counters["rc.reuse_fallbacks"]
        assert result.counters["laxity_triggers"] > 0

    def test_per_policy_counters(self, line_topology):
        flows = _routed_line_flows(line_topology)
        with obs.recording() as recorder:
            _scheduler(line_topology, NoReusePolicy()).run(flows)
        counters = recorder.snapshot()["counters"]
        assert counters["policy.NR.runs"] == 1
        assert counters["policy.NR.schedulable"] == 1
        assert counters["policy.NR.place_calls"] == \
            counters["policy.NR.placements"]

    def test_disabled_run_adds_no_events_and_empty_counters(
            self, line_topology):
        assert not obs.is_enabled()
        flows = _routed_line_flows(line_topology)
        result = _scheduler(line_topology, NoReusePolicy()).run(flows)
        assert result.schedulable
        # Benchmark-style guarantee: the NullRecorder path records
        # nothing at all — no events, no counters.
        assert result.counters == {}
        null = obs.get_recorder()
        assert len(null.tracer) == 0
        assert null.snapshot()["counters"] == {}

    def test_enabled_and_disabled_runs_agree_on_schedule(self, grid_topology):
        flows = _routed_line_flows(grid_topology, num_flows=2)
        baseline = _scheduler(grid_topology, ConservativeReusePolicy(),
                              num_offsets=1).run(flows)
        with obs.recording():
            observed = _scheduler(grid_topology, ConservativeReusePolicy(),
                                  num_offsets=1).run(flows)
        assert observed.schedulable == baseline.schedulable
        assert [(e.slot, e.offset) for e in observed.schedule.entries] == \
            [(e.slot, e.offset) for e in baseline.schedule.entries]


# ----------------------------------------------------------------------
# Metrics persistence + report rendering
# ----------------------------------------------------------------------

class TestPersistenceAndReport:
    def test_metrics_roundtrip(self, tmp_path):
        registry = MetricsRegistry()
        registry.inc("scheduler.placements", 12)
        registry.observe("rc.fallback_rho", 2, buckets=(1, 2, 3))
        path = tmp_path / "metrics.json"
        save_metrics(registry.snapshot(), path)
        assert load_metrics(path) == registry.snapshot()

    def test_jsonl_roundtrip_skips_blank_lines(self, tmp_path):
        path = tmp_path / "r.jsonl"
        save_jsonl([{"a": 1}, {"b": [1, 2]}], path)
        path.write_text(path.read_text() + "\n\n")
        assert load_jsonl(path) == [{"a": 1}, {"b": [1, 2]}]

    def test_format_report_sections(self):
        registry = MetricsRegistry()
        registry.inc("scheduler.slots_scanned", 100)
        registry.inc("policy.RC.runs")
        registry.inc("policy.RC.schedulable")
        registry.inc("policy.RC.placements", 40)
        registry.inc("sim.attempts", 10)
        registry.inc("sim.successes", 9)
        registry.inc("detection.ks_tests", 4)
        registry.inc("detection.verdict.reject", 2)
        registry.observe("span.schedule.rc.seconds", 0.25,
                         obs.TIME_BUCKETS_S)
        registry.observe("span.schedule.rc.seconds", 0.25,
                         obs.TIME_BUCKETS_S)
        registry.observe("rc.fallback_rho", 2, buckets=(1, 2, 3))
        text = format_report(registry.snapshot(), {"placement": 40})
        assert "slots scanned" in text
        assert "RC" in text and "40" in text
        assert "attempt success rate" in text and "0.9" in text
        assert "verdict reject" in text
        assert "schedule.rc" in text
        assert "placement" in text

    def test_stage_p99_clamped_to_observed_range(self):
        """A bucket bound is no quantile: one 1.875 s stage lands in the
        (1, 5] s bucket, but p99 must not read 5000 ms."""
        from repro.obs.timeseries import TimeSeriesStore
        from repro.obs.top import render_top

        registry = MetricsRegistry()
        registry.observe("span.compile.seconds", 1.875, obs.TIME_BUCKETS_S)
        snapshot = registry.snapshot()
        (row,) = [line for line in format_report(snapshot).splitlines()
                  if line.strip().startswith("compile")]
        assert row.split()[-1] == "1875.00"
        frame = render_top(TimeSeriesStore(), snapshot, ascii_only=True)
        assert "p99  1875.00 ms" in frame

    def test_format_report_empty(self):
        assert "empty" in format_report(
            {"counters": {}, "gauges": {}, "histograms": {}})
