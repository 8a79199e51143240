"""Request spans: span model, tail capture, propagation, waterfalls.

Covers the span layer itself (:mod:`repro.obs.spans`), the wire trace
context in the NDJSON protocol, the executor's named stages, the
loadgen verify-mismatch failure line, worker-death span integrity, and
the ``repro trace show`` / merged-``repro report`` CLI surfaces.
"""

import asyncio
import json
import signal
import time
from pathlib import Path

import pytest

from repro import obs
from repro.cli import main
from repro.io import load_jsonl, save_metrics
from repro.obs.spans import (
    ActiveSpan,
    SpanRecorder,
    activate,
    build_traces,
    current_span,
    expand_span_paths,
    format_trace_show,
    load_span_records,
    new_trace_id,
    render_waterfall,
    stage,
    wire_context,
)
from repro.service.executor import ServiceExecutor
from repro.service.loadgen import _Stats, _note_response, format_report
from repro.service.protocol import (
    NetworkConfig,
    ProtocolError,
    parse_request,
)


def make_config(**overrides):
    base = dict(testbed="indriya", seed=1, channels=5, flows=6)
    base.update(overrides)
    return NetworkConfig(**base).to_dict()


class TestActiveSpan:
    def test_end_is_idempotent_and_returns_duration(self):
        recorder = SpanRecorder(process="t")
        span = recorder.start("request")
        first = span.end()
        second = span.end("error")  # ignored: already ended
        assert first == second
        assert span.status == "ok"
        assert first >= 0.0

    def test_to_record_shape(self):
        recorder = SpanRecorder(process="front")
        span = recorder.start("request", attrs={"verb": "schedule"})
        span.annotate(network="net-000")
        span.end()
        record = span.to_record()
        assert record["kind"] == "span"
        assert record["trace"] == span.trace_id
        assert record["span"] == span.span_id
        assert record["parent"] is None
        assert record["name"] == "request"
        assert record["process"] == "front"
        assert record["status"] == "ok"
        assert record["attrs"] == {"verb": "schedule",
                                   "network": "net-000"}
        assert record["duration_ms"] >= 0.0
        assert record["start_unix"] == pytest.approx(time.time(), abs=60)

    def test_context_manager_scopes_current_and_flags_errors(self):
        recorder = SpanRecorder(process="t")
        assert current_span() is None
        with pytest.raises(RuntimeError):
            with recorder.start("request") as span:
                assert current_span() is span
                raise RuntimeError("boom")
        assert current_span() is None
        assert span.status == "error"

    def test_activate_does_not_end_the_span(self):
        recorder = SpanRecorder(process="t")
        span = recorder.start("work")
        with activate(span):
            assert current_span() is span
        assert span.duration_ms is None  # caller still owns the end
        with activate(None) as nothing:
            assert nothing is None

    def test_span_ids_are_unique_within_a_recorder(self):
        recorder = SpanRecorder(process="t")
        ids = {recorder.start("s").span_id for _ in range(100)}
        assert len(ids) == 100


class TestStageHelper:
    def test_noop_when_recorder_disabled(self):
        with stage("compile") as span:
            assert span is None

    def test_noop_without_open_request_span(self):
        spans = SpanRecorder(process="t")
        with obs.recording(obs.Recorder(spans=spans)):
            with stage("compile") as span:
                assert span is None
        assert spans.in_flight == 0

    def test_records_child_under_activated_parent(self):
        spans = SpanRecorder(threshold_ms=0.0, process="t")
        with obs.recording(obs.Recorder(spans=spans)):
            work = spans.start("work")
            with activate(work):
                with stage("compile", placements=3) as child:
                    assert current_span() is child
            spans.close_trace(work.trace_id, work.end())
        (trace,) = build_traces(spans.to_records())
        by_name = {s["name"]: s for s in trace["spans"]}
        assert by_name["compile"]["parent"] == work.span_id
        assert by_name["compile"]["attrs"]["placements"] == 3
        assert by_name["compile"]["status"] == "ok"

    def test_stage_error_status_propagates(self):
        spans = SpanRecorder(threshold_ms=0.0, process="t")
        with obs.recording(obs.Recorder(spans=spans)):
            work = spans.start("work")
            with activate(work), pytest.raises(ValueError):
                with stage("repair"):
                    raise ValueError("no")
            spans.close_trace(work.trace_id, work.end("error"),
                              error=True)
        (trace,) = build_traces(spans.to_records())
        by_name = {s["name"]: s for s in trace["spans"]}
        assert by_name["repair"]["status"] == "error"


class TestTailCapture:
    def close(self, recorder, ms, error=False, spans=1):
        """Open a trace with ``spans`` spans and close it at ``ms``."""
        root = recorder.start("request")
        for _ in range(spans - 1):
            recorder.start("child", trace_id=root.trace_id,
                           parent_id=root.span_id).end()
        root.end()
        return recorder.close_trace(root.trace_id, ms, error=error)

    def test_threshold_keeps_slow_drops_fast(self):
        recorder = SpanRecorder(threshold_ms=100.0, top_k=0)
        assert self.close(recorder, 250.0)
        assert not self.close(recorder, 1.0)
        assert recorder.kept_traces == 1
        assert recorder.dropped_traces == 1
        assert recorder.closed_traces == 2

    def test_top_k_keeps_rolling_slowest_below_threshold(self):
        recorder = SpanRecorder(threshold_ms=1e9, top_k=2, max_traces=2)
        assert self.close(recorder, 10.0)
        assert self.close(recorder, 20.0)
        assert self.close(recorder, 30.0)  # evicts the 10 ms trace
        assert not self.close(recorder, 5.0)
        assert recorder.kept_traces == 2
        slowest = [ms for _, ms, _ in recorder.slowest(5)]
        assert slowest == [30.0, 20.0]

    def test_errors_always_kept(self):
        recorder = SpanRecorder(threshold_ms=1e9, top_k=0)
        assert self.close(recorder, 0.01, error=True)
        assert recorder.kept_traces == 1

    def test_max_traces_bound_evicts_fastest(self):
        recorder = SpanRecorder(threshold_ms=0.0, max_traces=3)
        for ms in (40.0, 10.0, 30.0, 20.0):
            self.close(recorder, ms)
        assert recorder.kept_traces == 3
        kept = [ms for _, ms, _ in recorder.slowest(10)]
        assert kept == [40.0, 30.0, 20.0]
        assert recorder.dropped_traces == 1

    def test_span_accounting_reconciles(self):
        recorder = SpanRecorder(threshold_ms=50.0, top_k=1,
                                max_traces=2)
        produced = 0
        for index in range(10):
            spans = 1 + index % 3
            produced += spans
            self.close(recorder, float(index * 20), spans=spans)
        assert recorder.kept_spans + recorder.dropped_spans == produced
        assert recorder.closed_traces == 10
        assert recorder.kept_traces + recorder.dropped_traces == 10

    def test_pending_bound_drops_oldest_open_trace(self):
        recorder = SpanRecorder(max_traces=1)
        open_roots = [recorder.start("request")
                      for _ in range(recorder.max_pending + 3)]
        for root in open_roots:
            root.end()
        assert recorder.in_flight == recorder.max_pending
        assert recorder.dropped_traces == 3

    def test_per_trace_span_bound(self):
        recorder = SpanRecorder(threshold_ms=0.0, max_spans_per_trace=4)
        root = recorder.start("request")
        for _ in range(10):
            recorder.start("child", trace_id=root.trace_id,
                           parent_id=root.span_id).end()
        recorder.close_trace(root.trace_id, root.end())
        assert recorder.kept_spans == 4
        assert recorder.dropped_spans == 7  # 6 overflow children + root

    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            SpanRecorder(threshold_ms=-1.0)
        with pytest.raises(ValueError):
            SpanRecorder(max_traces=0)


class TestRecorderIntegration:
    def test_finished_spans_feed_histograms_and_trace_ring(self):
        spans = SpanRecorder(threshold_ms=0.0, process="t")
        with obs.recording(obs.Recorder(spans=spans)) as recorder:
            span = spans.start("compile")
            span.end()
            snapshot = recorder.snapshot()
            events = [e for e in recorder.tracer.event_dicts()
                      if e.get("kind") == "span"]
        histogram = snapshot["histograms"]["span.compile.seconds"]
        assert histogram["count"] == 1
        assert events and events[0]["name"] == "compile"
        assert events[0]["trace"] == span.trace_id

    def test_unbound_recorder_still_collects(self):
        spans = SpanRecorder(threshold_ms=0.0)
        root = spans.start("request")
        spans.close_trace(root.trace_id, root.end())
        assert spans.kept_traces == 1


class TestExportAndWaterfall:
    def build_two_process_dump(self, tmp_path):
        # All durations synthetic (via record()) so slowest-first
        # ordering is deterministic, not a race between real sub-ms
        # measurements.
        front = SpanRecorder(threshold_ms=0.0, process="front")
        worker = SpanRecorder(threshold_ms=0.0, process="worker-0")
        t0 = 1_700_000_000.0
        slow_ids = {}
        for index, total_ms in enumerate((200.0, 50.0)):
            trace_id = new_trace_id()
            request_id = front.record(
                "request", trace_id=trace_id, parent_id=None,
                start_unix=t0, duration_ms=total_ms)
            dispatch_id = front.record(
                "dispatch", trace_id=trace_id, parent_id=request_id,
                start_unix=t0 + 0.005, duration_ms=total_ms - 10.0)
            work_id = worker.record(
                "work", trace_id=trace_id,
                parent_id=dispatch_id, start_unix=t0 + 0.01,
                duration_ms=total_ms - 20.0)
            worker.record("compile", trace_id=trace_id,
                          parent_id=work_id, start_unix=t0 + 0.02,
                          duration_ms=total_ms - 30.0,
                          attrs={"verdict": "miss"})
            worker.close_trace(trace_id, total_ms - 20.0)
            front.close_trace(trace_id, total_ms)
            slow_ids[index] = trace_id
        spans_path = tmp_path / "spans.jsonl"
        front.export_jsonl(str(spans_path))
        worker.export_jsonl(str(spans_path) + ".w0")
        return spans_path, slow_ids

    def test_export_ends_with_meta_trailer(self, tmp_path):
        recorder = SpanRecorder(threshold_ms=0.0, process="t")
        root = recorder.start("request")
        recorder.close_trace(root.trace_id, root.end())
        path = tmp_path / "spans.jsonl"
        written = recorder.export_jsonl(str(path))
        records = load_jsonl(str(path))
        assert written == 1
        assert len(records) == 2
        assert records[-1]["kind"] == "span_meta"
        assert records[-1]["kept_traces"] == 1
        assert records[-1]["kept_spans"] == 1
        assert records[-1]["dropped_traces"] == 0

    def test_expand_span_paths_orders_and_filters(self, tmp_path):
        base = tmp_path / "spans.jsonl"
        for name in ("spans.jsonl", "spans.jsonl.w0", "spans.jsonl.w1",
                     "spans.jsonl.wx", "spans.jsonl.w2backup"):
            (tmp_path / name).write_text("")
        assert expand_span_paths(str(base)) == [
            str(base), f"{base}.w0", f"{base}.w1"]
        assert expand_span_paths(str(tmp_path / "absent.jsonl")) == []

    def test_load_rejects_non_object_records(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("[1, 2, 3]\n")
        with pytest.raises(ValueError):
            load_span_records([str(path)])

    def test_cross_process_merge_and_parentage(self, tmp_path):
        spans_path, slow_ids = self.build_two_process_dump(tmp_path)
        records, metas = load_span_records(
            expand_span_paths(str(spans_path)))
        assert {meta["process"] for meta in metas} == \
            {"front", "worker-0"}
        traces = build_traces(records)
        assert [t["trace_id"] for t in traces] == \
            [slow_ids[0], slow_ids[1]]  # slowest first
        slow = traces[0]
        assert slow["processes"] == ["front", "worker-0"]
        by_name = {s["name"]: s for s in slow["spans"]}
        assert by_name["dispatch"]["parent"] == by_name["request"]["span"]
        assert by_name["work"]["parent"] == by_name["dispatch"]["span"]
        assert by_name["compile"]["parent"] == by_name["work"]["span"]
        (root,) = slow["roots"]
        assert root["name"] == "request"

    def test_waterfall_renders_nested_rows(self, tmp_path):
        spans_path, _ = self.build_two_process_dump(tmp_path)
        records, _ = load_span_records(expand_span_paths(str(spans_path)))
        lines = render_waterfall(build_traces(records)[0])
        assert "4 span(s)" in lines[0]
        assert "front, worker-0" in lines[0]
        # Indentation tracks depth; the cache verdict rides along.
        assert any(line.lstrip().startswith("request") for line in lines)
        assert any("(miss)" in line and "compile" in line
                   for line in lines)

    def test_format_trace_show_limit_and_prefix(self, tmp_path):
        spans_path, slow_ids = self.build_two_process_dump(tmp_path)
        paths = expand_span_paths(str(spans_path))
        shown = format_trace_show(paths, limit=1)
        assert slow_ids[0] in shown
        assert slow_ids[1] not in shown
        assert "1 faster trace(s) not shown" in shown
        filtered = format_trace_show(paths,
                                     trace_prefix=slow_ids[1][:8])
        assert slow_ids[1] in filtered
        assert f"trace {slow_ids[0]}" not in filtered

    def test_partial_tree_degrades_to_local_root(self):
        worker = SpanRecorder(threshold_ms=0.0, process="worker-0")
        work = worker.start("work", trace_id="t1", parent_id="missing")
        worker.close_trace("t1", work.end())
        (trace,) = build_traces(worker.to_records())
        assert trace["roots"][0]["name"] == "work"
        assert render_waterfall(trace)


class TestWireContext:
    def test_parse_accepts_valid_context(self):
        request = parse_request({"id": 1, "verb": "ping",
                                 "trace": {"trace_id": "abc",
                                           "span_id": "s1"}})
        assert request.trace == {"trace_id": "abc", "span_id": "s1"}
        assert request.to_dict()["trace"] == {"trace_id": "abc",
                                              "span_id": "s1"}

    def test_parse_accepts_forwarded_enqueue_stamp(self):
        request = parse_request(
            {"id": 1, "verb": "ping",
             "trace": {"trace_id": "abc", "span_id": "s1",
                       "enqueued_unix": 123.5}})
        assert request.trace["enqueued_unix"] == 123.5

    def test_absent_trace_stays_absent(self):
        request = parse_request({"id": 1, "verb": "ping"})
        assert request.trace is None
        assert "trace" not in request.to_dict()

    @pytest.mark.parametrize("trace", [
        "not-a-dict",
        {"trace_id": "abc", "nonsense": 1},
        {"span_id": "orphan"},
        {"trace_id": ""},
        {"trace_id": "x" * 65},
        {"trace_id": "abc", "span_id": 7},
        {"trace_id": "abc", "enqueued_unix": "noon"},
    ])
    def test_parse_rejects_malformed_context(self, trace):
        with pytest.raises(ProtocolError):
            parse_request({"id": 1, "verb": "ping", "trace": trace})

    def test_wire_context_carries_ids(self):
        recorder = SpanRecorder(process="loadgen")
        span = recorder.start("request")
        assert wire_context(span) == {"trace_id": span.trace_id,
                                      "span_id": span.span_id}


class TestExecutorStages:
    def test_stages_recorded_under_work_span(self):
        spans = SpanRecorder(threshold_ms=0.0, process="worker-0")
        executor = ServiceExecutor()
        with obs.recording(obs.Recorder(spans=spans)) as recorder:
            work = spans.start("work")
            with activate(work):
                executor.handle(parse_request(
                    {"id": 0, "verb": "schedule", "network": "n",
                     "config": make_config()}))
            spans.close_trace(work.trace_id, work.end())
            work2 = spans.start("work")
            with activate(work2):
                executor.handle(parse_request(
                    {"id": 1, "verb": "simulate", "network": "n",
                     "repetitions": 4}))
            spans.close_trace(work2.trace_id, work2.end())
            snapshot = recorder.snapshot()

        names = {s["name"] for t in build_traces(spans.to_records())
                 for s in t["spans"]}
        assert {"cache.topology", "cache.workload", "compile",
                "cache.environment", "simulate"} <= names
        # Side surface 1: per-stage latency histograms.
        for stage_name in ("cache.topology", "compile", "simulate"):
            assert snapshot["histograms"][
                f"span.{stage_name}.seconds"]["count"] == 1
        # Side surface 2: per-kind cache lookup counters.
        counters = snapshot["counters"]
        assert counters["service.cache.topology.miss"] == 1
        assert counters["service.cache.workload.miss"] == 1
        assert counters["service.cache.schedule.miss"] == 1
        assert counters["service.cache.environment.miss"] == 1

    def test_child_stage_durations_fit_inside_parent(self):
        spans = SpanRecorder(threshold_ms=0.0, process="worker-0")
        executor = ServiceExecutor()
        with obs.recording(obs.Recorder(spans=spans)):
            work = spans.start("work")
            with activate(work):
                executor.handle(parse_request(
                    {"id": 0, "verb": "schedule", "network": "n",
                     "config": make_config()}))
            spans.close_trace(work.trace_id, work.end())
        (trace,) = build_traces(spans.to_records())
        (root,) = trace["roots"]
        children = [s for s in trace["spans"]
                    if s["parent"] == root["span"]]
        assert children
        # Serial stages: their summed durations cannot exceed the
        # parent's measured duration (tolerance for rounding).
        assert sum(c["duration_ms"] for c in children) <= \
            root["duration_ms"] + 1.0

    def test_simulate_stage_annotates_engine_and_chunks(self):
        spans = SpanRecorder(threshold_ms=0.0, process="worker-0")
        executor = ServiceExecutor()
        with obs.recording(obs.Recorder(spans=spans)):
            work = spans.start("work")
            with activate(work):
                executor.handle(parse_request(
                    {"id": 0, "verb": "schedule", "network": "n",
                     "config": make_config()}))
                executor.handle(parse_request(
                    {"id": 1, "verb": "simulate", "network": "n",
                     "engine": "event", "repetitions": 6}))
            spans.close_trace(work.trace_id, work.end())
        (trace,) = build_traces(spans.to_records())
        (simulate,) = [s for s in trace["spans"]
                       if s["name"] == "simulate"]
        assert simulate["attrs"]["engine"] == "event"
        assert simulate["attrs"]["repetitions"] == 6
        assert simulate["attrs"]["chunks"] >= 1

    def test_shadow_executor_records_nothing(self):
        spans = SpanRecorder(threshold_ms=0.0, process="loadgen")
        executor = ServiceExecutor(worker_index=-1)
        with obs.recording(obs.Recorder(spans=spans)):
            # No work span activated — exactly the loadgen --verify
            # shadow path; stages must not open orphan traces.
            executor.handle(parse_request(
                {"id": 0, "verb": "schedule", "network": "n",
                 "config": make_config()}))
        assert spans.in_flight == 0
        assert spans.kept_traces == 0


class TestLoadgenMismatchReport:
    """Satellite: the verify failure line must name the request."""

    class _Shadow:
        def handle(self, request):
            return {"schedule_hash": "aaaa1111"}

    def test_mismatch_sample_names_the_request(self):
        stats = _Stats()
        payload = {"id": 17, "verb": "schedule", "network": "net-003",
                   "config": {}}
        response = {"ok": True,
                    "result": {"schedule_hash": "bbbb2222"}}
        _note_response(stats, payload, response, 5.0, self._Shadow(),
                       trace_id="cafe0123deadbeef")
        assert stats.mismatches == 1
        (sample,) = stats.mismatch_samples
        assert sample == {"index": 17, "network": "net-003",
                          "verb": "schedule", "expected": "aaaa1111",
                          "got": "bbbb2222",
                          "trace_id": "cafe0123deadbeef"}

    def test_format_report_prints_failure_line(self):
        report = {
            "requests": 1, "networks": 1, "seed": 0, "mix": 0.3,
            "rate": 0.0, "wall_s": 0.1, "rps": 10.0,
            "verbs": {"schedule": 1}, "errors": 0, "error_samples": [],
            "reschedule_modes": {"noop": 0, "repair": 0, "rebuild": 0},
            "latency_ms": {"mean": 5.0, "p50": 5.0, "p90": 5.0,
                           "p99": 5.0, "max": 5.0},
            "histogram": [{"le_ms": 1.0, "count": 0}],
            "service": {},
            "verify": {
                "checked": 1, "mismatches": 3,
                "mismatch_samples": [
                    {"index": 17, "network": "net-003",
                     "verb": "schedule", "expected": "aaaa1111",
                     "got": "bbbb2222",
                     "trace_id": "cafe0123deadbeef"}]},
        }
        text = format_report(report)
        line = next(l for l in text.splitlines() if "MISMATCH" in l)
        assert "request #17" in line
        assert "schedule" in line
        assert "net-003" in line
        assert "expected aaaa1111" in line
        assert "got bbbb2222" in line
        assert "(trace cafe0123deadbeef)" in line
        assert "2 more mismatch(es) not sampled" in text


class TestWorkerDeathSpanIntegrity:
    """Satellite: spans stay well-formed when a worker dies mid-run."""

    def test_front_closes_request_span_with_error(self, tmp_path):
        from repro.service.protocol import shard_of
        from repro.service.server import ScheduleService, ServiceOptions

        socket_path = str(tmp_path / "serve.sock")
        spans_path = str(tmp_path / "spans.jsonl")
        front_spans = SpanRecorder(threshold_ms=1e9, process="front")
        options = ServiceOptions(socket_path=socket_path,
                                 num_workers=2,
                                 spans_path=spans_path,
                                 span_threshold_ms=0.0)

        async def scenario():
            service = ScheduleService(options)
            await service.start()
            try:
                reader, writer = await asyncio.open_unix_connection(
                    socket_path)

                async def ask(payload):
                    writer.write(json.dumps(payload).encode() + b"\n")
                    await writer.drain()
                    return json.loads(await reader.readline())

                warm = await ask({"id": 0, "verb": "schedule",
                                  "network": "doomed",
                                  "config": make_config()})
                assert warm["ok"]
                shard = shard_of("doomed", 2)
                handle = service.workers[shard]
                handle.process.kill()
                handle.process.join(timeout=10)
                deadline = time.time() + 10
                while handle.alive and time.time() < deadline:
                    await asyncio.sleep(0.05)
                failed = await ask({"id": 1, "verb": "schedule",
                                    "network": "doomed",
                                    "config": make_config()})
                writer.close()
                await writer.wait_closed()
                return failed, shard
            finally:
                await service.stop()

        with obs.recording(obs.Recorder(spans=front_spans)):
            failed, dead_shard = asyncio.run(scenario())

        assert not failed["ok"]
        assert failed["error"]["type"] == "WorkerDied"
        assert failed["trace"]["trace_id"]
        # The front end closed the open request span with error status
        # and the tail policy kept it despite the sky-high threshold.
        kept = {trace_id: root
                for trace_id, _, root in front_spans.slowest(10)}
        error_root = kept[failed["trace"]["trace_id"]]
        assert error_root["status"] == "error"
        assert error_root["attrs"]["error"] == "WorkerDied"
        assert front_spans.in_flight == 0

        # The surviving shard flushed a well-formed dump: every record
        # an object, the span_meta trailer last.
        survivor = f"{spans_path}.w{1 - dead_shard}"
        records = load_jsonl(survivor)
        assert records[-1]["kind"] == "span_meta"
        assert all(isinstance(r, dict) and "kind" in r for r in records)
        assert records[-1]["in_flight"] == 0
        # The killed worker never exported; the merge just skips it.
        assert not Path(f"{spans_path}.w{dead_shard}").exists()
        merged = expand_span_paths(spans_path)
        assert merged == [survivor]
        spans, metas = load_span_records(merged)
        assert metas[0]["process"] == f"worker-{1 - dead_shard}"
        if dead_shard == 1:
            assert spans  # survivor served the warm request


class TestTraceShowCli:
    def write_dump(self, tmp_path):
        recorder = SpanRecorder(threshold_ms=0.0, process="front")
        root = recorder.start("request")
        recorder.start("dispatch", trace_id=root.trace_id,
                       parent_id=root.span_id).end()
        recorder.close_trace(root.trace_id, root.end())
        path = tmp_path / "spans.jsonl"
        recorder.export_jsonl(str(path))
        return path, root.trace_id

    def test_trace_show_renders(self, tmp_path, capsys):
        path, trace_id = self.write_dump(tmp_path)
        assert main(["trace", "show", str(path)]) == 0
        out = capsys.readouterr().out
        assert f"trace {trace_id}" in out
        assert "dispatch" in out

    def test_trace_show_missing_file_exits_2(self, tmp_path, capsys):
        assert main(["trace", "show", str(tmp_path / "nope.jsonl")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_trace_show_corrupt_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "corrupt.jsonl"
        path.write_text('{"kind": "span"\n')
        assert main(["trace", "show", str(path)]) == 2
        assert "error:" in capsys.readouterr().err


class TestReportMergesWorkerFiles:
    """Satellite: ``repro report`` folds ``.w<i>`` siblings in."""

    def snapshot_with(self, counter_value):
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        registry.inc("scheduler.placements", counter_value)
        registry.inc("service.cache.topology.hit", 2)
        registry.inc("service.cache.topology.miss", 1)
        registry.observe("span.compile.seconds", 0.02,
                         (0.01, 0.1, 1.0))
        return registry.snapshot()

    def test_merges_metrics_and_trace_siblings(self, tmp_path, capsys):
        metrics = tmp_path / "metrics.json"
        save_metrics(self.snapshot_with(10), str(metrics))
        save_metrics(self.snapshot_with(7), f"{metrics}.w0")
        save_metrics(self.snapshot_with(5), f"{metrics}.w1")
        trace = tmp_path / "trace.jsonl"
        trace.write_text(
            '{"kind": "span", "trace": "t"}\n'
            '{"kind": "trace_meta", "dropped": 1}\n')
        Path(f"{trace}.w0").write_text(
            '{"kind": "span", "trace": "t"}\n'
            '{"kind": "span_meta", "dropped_spans": 0, "dropped": 2}\n')

        assert main(["report", str(metrics), "--trace", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "merged 3 snapshot(s)" in out
        assert "22" in out  # 10 + 7 + 5 placements
        # Hit/miss counters merged too: 6 hits / 3 misses.
        assert "0.667" in out
        # Stage table from the merged span histograms (3 observations).
        assert "stages:" in out
        assert "compile" in out
        # Trailer kinds excluded from the per-kind table, but counted
        # into the dropped tally.
        assert "span_meta" not in out
        assert "trace_meta" not in out
        line = next(l for l in out.splitlines() if "dropped" in l)
        assert "3" in line

    def test_front_only_snapshot_prints_no_merge_note(self, tmp_path,
                                                      capsys):
        metrics = tmp_path / "metrics.json"
        save_metrics(self.snapshot_with(4), str(metrics))
        assert main(["report", str(metrics)]) == 0
        assert "merged" not in capsys.readouterr().out

    def test_worker_files_alone_suffice(self, tmp_path, capsys):
        metrics = tmp_path / "metrics.json"
        save_metrics(self.snapshot_with(3), f"{metrics}.w0")
        assert main(["report", str(metrics)]) == 0

    def test_missing_everything_exits_2(self, tmp_path, capsys):
        assert main(["report", str(tmp_path / "absent.json")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_corrupt_sibling_exits_2(self, tmp_path, capsys):
        metrics = tmp_path / "metrics.json"
        save_metrics(self.snapshot_with(1), str(metrics))
        Path(f"{metrics}.w0").write_text("{broken")
        assert main(["report", str(metrics)]) == 2


class TestTopStagePanel:
    def test_stage_panel_appears_with_span_histograms(self):
        from repro.obs.metrics import MetricsRegistry
        from repro.obs.timeseries import TimeSeriesStore
        from repro.obs.top import render_top

        registry = MetricsRegistry()
        for _ in range(3):
            registry.observe("span.compile.seconds", 0.05,
                             (0.01, 0.1, 1.0))
        registry.observe("span.shard.queue.seconds", 0.2,
                         (0.01, 0.1, 1.0))
        frame = render_top(TimeSeriesStore(),
                           registry.snapshot(), ascii_only=True)
        assert "── stages" in frame
        compile_line = next(l for l in frame.splitlines()
                            if "compile" in l)
        assert "mean" in compile_line and "p99" in compile_line
        # compile: 3 x 50 ms.
        assert "50.00 ms" in compile_line

    def test_no_panel_without_span_histograms(self):
        from repro.obs.timeseries import TimeSeriesStore
        from repro.obs.top import render_top

        frame = render_top(TimeSeriesStore(), {"histograms": {}},
                           ascii_only=True)
        assert "── stages" not in frame
