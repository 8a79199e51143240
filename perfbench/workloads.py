"""The three workloads: untraced end-to-end runs and traced replays.

An end-to-end run (``--trace 0``) sets the workload up several times,
reporting the median set-up time, then drives the last set-up's program
process through the timed stream in a closed loop with one connection,
and checks every output afterwards.  A traced run (``--trace 1``)
repeats the service pass for the service-side layer figures, then
replays the identical stream in-process twice, untraced and traced (see
:mod:`layers`), and requires all three passes to agree on every output.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import layers
from common import median, percentile
from service import Server, ServiceFailure
from streams import Stream

#: Set-ups per end-to-end run; ``setup_s`` is their median.
SETUPS = 3

#: maintenance-loop traced runs replay every seed traced and every
#: this-many-th seed untraced as well (for ``trace.overhead_ratio``).
MAINTENANCE_PLAIN_EVERY = 4

#: Where spans and the managed-run digest record are written.
STATE_DIR = ".perfbench_state"


@dataclass
class Outcome:
    """What one run measured and found."""

    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    metrics: Dict[str, tuple] = field(default_factory=dict)
    details: Dict[str, object] = field(default_factory=dict)

    def fail(self, message: str) -> None:
        if len(self.errors) < 20:
            self.errors.append(message)

    def put(self, name: str, value: float, unit: str,
            detail: bool = False) -> None:
        target = self.details if detail else self.metrics
        target[name] = (value, unit)


def _ms(seconds: List[float]) -> List[float]:
    return [value * 1e3 for value in seconds]


def _latency_metrics(outcome: Outcome, latencies_s: List[float],
                     wall_s: float, tail: float) -> None:
    latencies = _ms(latencies_s)
    outcome.put("ops_per_s", len(latencies) / wall_s, "ops/s")
    outcome.put("latency_p50_ms", median(latencies), "ms")
    outcome.put("latency_p90_ms", percentile(latencies, 90), "ms")
    if tail > 90:
        outcome.put(f"latency_p{tail:g}_ms", percentile(latencies, tail),
                    "ms", detail=True)


# -- service workloads -----------------------------------------------------

def _verdicts(stream: Stream, responses: List[Optional[Dict]]) -> List[str]:
    """Per timed op: ``schedule.<hit|miss>``, ``reschedule.<mode>`` or
    ``error``."""
    labels = []
    for request, response in zip(stream.timed, responses):
        if not response or not response.get("ok"):
            labels.append("error")
        elif request["verb"] == "schedule":
            labels.append("schedule." + response["result"]["cache"]
                          ["schedule"])
        else:
            labels.append("reschedule." + response["result"]["repair_mode"])
    return labels


def _check_setup(stream: Stream, responses: List[Dict]) -> Dict[str, str]:
    """Every set-up compile must succeed; returns network -> hash."""
    hashes = {}
    for request, response in zip(stream.setup, responses):
        if not response.get("ok"):
            raise ServiceFailure(f"set-up request failed: "
                                 f"{response.get('error')}")
        result = response["result"]
        if stream.workload == "fleet-warm" and not result["schedulable"]:
            raise ServiceFailure(f"{request['network']} unschedulable "
                                 f"at set-up")
        hashes[request["network"]] = result["schedule_hash"]
    return hashes


def check_service_outputs(stream: Stream, setup_hashes: Dict[str, str],
                          responses: List[Optional[Dict]],
                          outcome: Outcome) -> List[bool]:
    """Output checks and the mix guard; returns per-op pass flags."""
    passed = []
    labels = _verdicts(stream, responses)
    references = (_direct_hashes(stream)
                  if stream.workload == "compile-cold" else None)
    for position, (request, response, label) in enumerate(
            zip(stream.timed, responses, labels)):
        ok = True
        if label == "error":
            outcome.fail(f"op {position}: error response "
                         f"{(response or {}).get('error')}")
            ok = False
        elif stream.workload == "fleet-warm":
            result = response["result"]
            if request["verb"] == "schedule":
                if label != "schedule.hit":
                    outcome.fail(f"op {position}: schedule was a "
                                 f"{label}, not a cache hit")
                    ok = False
                if result["schedule_hash"] != \
                        setup_hashes[request["network"]]:
                    outcome.fail(f"op {position}: hit hash differs from "
                                 f"the set-up compile")
                    ok = False
            elif label not in ("reschedule.repair", "reschedule.rebuild",
                               "reschedule.noop"):
                outcome.fail(f"op {position}: unknown outcome {label}")
                ok = False
        else:
            cache = response["result"]["cache"]
            if cache["schedule"] != "miss" or cache["topology"] != "hit":
                outcome.fail(f"op {position}: cache verdicts {cache}, "
                             f"expected schedule miss + topology hit")
                ok = False
            if response["result"]["schedule_hash"] != references[position]:
                outcome.fail(f"op {position}: hash differs from "
                             f"direct_schedule")
                ok = False
        passed.append(ok)
    if stream.workload == "fleet-warm":
        for needed in ("reschedule.repair", "reschedule.rebuild"):
            if needed not in labels:
                outcome.fail(f"mix guard: no {needed} outcome")
    outcome.failed += passed.count(False)
    outcome.details["verdicts"] = dict(sorted(Counter(labels).items()))
    return passed


def _direct_hashes(stream: Stream) -> List[str]:
    """Reference hashes by direct library calls, no cache."""
    from repro.service.executor import direct_schedule
    from repro.service.protocol import NetworkConfig

    return [direct_schedule(NetworkConfig.from_dict(request["config"]))
            .schedule.canonical_hash() for request in stream.timed]


def _server_args(stream: Stream) -> tuple:
    return ("--cache-capacity", str(stream.cache_capacity))


def _serve_pass(root: str, stream: Stream, outcome: Outcome,
                probe_status: bool = False) -> Dict:
    """Start the server, run set-up and the timed stream, stop it.

    Returns timing and responses; ``outcome.attempted`` counts the ops.
    """
    record: Dict = {"responses": [None] * len(stream.timed),
                    "latencies_s": []}
    with Server(root, _server_args(stream)) as server:
        start = time.perf_counter()
        server.start()
        record["startup_s"] = time.perf_counter() - start
        record["setup_hashes"] = _check_setup(
            stream, [server.request(request) for request in stream.setup])
        record["setup_s"] = time.perf_counter() - start
        if probe_status:
            record["status_before"] = server.request({"verb": "status"})
        begin = time.perf_counter()
        for position, request in enumerate(stream.timed):
            outcome.attempted += 1
            response, latency = server.timed_request(request)
            record["responses"][position] = response
            record["latencies_s"].append(latency)
        record["wall_s"] = time.perf_counter() - begin
        if probe_status:
            record["status_after"] = server.request({"verb": "status"})
        record["peak_rss_mb"] = server.peak_rss_mb()
    return record


def _setup_only(root: str, stream: Stream) -> float:
    with Server(root, _server_args(stream)) as server:
        start = time.perf_counter()
        server.start()
        _check_setup(stream, [server.request(request)
                              for request in stream.setup])
        return time.perf_counter() - start


def _aborted(outcome: Outcome, stream: Stream, error: Exception) -> Outcome:
    """A server failure fails the run: every timed op counts as failed."""
    outcome.fail(f"run aborted: {error}")
    outcome.attempted = outcome.failed = len(stream.timed)
    return outcome


def service_e2e(root: str, stream: Stream) -> Outcome:
    outcome = Outcome()
    try:
        setup_times = [_setup_only(root, stream)
                       for _ in range(SETUPS - 1)]
        record = _serve_pass(root, stream, outcome)
    except ServiceFailure as error:
        return _aborted(outcome, stream, error)
    setup_times.append(record["setup_s"])
    check_service_outputs(stream, record["setup_hashes"],
                          record["responses"], outcome)
    outcome.put("setup_s", median(setup_times), "s")
    _latency_metrics(outcome, record["latencies_s"], record["wall_s"],
                     tail=99 if stream.workload == "fleet-warm" else 90)
    outcome.put("peak_rss_mb", record["peak_rss_mb"], "MB")
    _class_medians(stream, record, outcome)
    return outcome


def _class_medians(stream: Stream, record: Dict, outcome: Outcome) -> None:
    """Per-verdict client latencies (printed, not gated)."""
    groups = defaultdict(list)
    for request, response, latency in zip(
            stream.timed, record["responses"], record["latencies_s"]):
        result = (response or {}).get("result") or {}
        if request["verb"] == "schedule":
            groups["hit" if result.get("cache", {}).get("schedule") == "hit"
                   else "miss"].append(latency)
            groups[f"compile.{request['config']['policy']}"].append(latency)
        else:
            groups[result.get("repair_mode", "error")].append(latency)
    names = {"fleet-warm": {"hit": "hit_p50_ms", "repair": "repair_p50_ms",
                            "rebuild": "rebuild_p50_ms"},
             "compile-cold": {"compile.RC": "rc_compile_p50_ms",
                              "compile.RA": "ra_compile_p50_ms",
                              "compile.NR": "nr_compile_p50_ms"}}
    for group, name in names[stream.workload].items():
        if groups[group]:
            outcome.put(name, median(_ms(groups[group])), "ms",
                        detail=True)


# -- service replay (traced run) -------------------------------------------

def _timed(call, *args):
    """``(result or {"error": ...}, seconds)`` of one call."""
    start = time.perf_counter()
    try:
        result = call(*args)
    except Exception as error:  # compared with the server as a mismatch
        result = {"error": repr(error)}
    return result, time.perf_counter() - start


def _lockstep(ops, plain_op, traced_op, tracer: layers.Tracer,
              plain_every: int = 1) -> Dict:
    """Run each op untraced, then traced, on two independent states.

    Alternating op by op exposes both passes to the same machine drift,
    so ``trace.overhead_ratio`` compares like with like.  The wrappers
    are installed only around the traced call.  Ops that are independent
    of each other may run untraced only every ``plain_every``-th time;
    the ratio then compares the same sampled ops.
    """
    results = ([], [])
    plain_wall = traced_wall = sampled_wall = 0.0
    counts_before = Counter(tracer.counts)
    for op, item in enumerate(ops):
        sampled = op % plain_every == 0
        if sampled:
            result, seconds = _timed(plain_op, item)
            plain_wall += seconds
        results[0].append(result if sampled else None)
        with tracer.installed():
            with tracer.op_span(op, "timed"):
                result, seconds = _timed(traced_op, item)
        results[1].append(result)
        traced_wall += seconds
        sampled_wall += seconds if sampled else 0.0
    return {"plain": results[0], "traced": results[1],
            "traced_wall_s": traced_wall,
            "overhead_ratio": sampled_wall / plain_wall,
            "timed_counts": Counter(tracer.counts) - counts_before}


def _replay(stream: Stream, tracer: layers.Tracer) -> Dict:
    """Drive two in-process ``ServiceExecutor``s configured like a
    worker's (recorder on) through set-up and the timed stream."""
    from repro import obs
    from repro.service.executor import ServiceExecutor
    from repro.service.protocol import parse_request

    obs.recorder.enable(obs.Recorder())
    try:
        plain, traced = (ServiceExecutor(
            cache_capacity=stream.cache_capacity, worker_index=0)
            for _ in range(2))
        for op, request in enumerate(stream.setup):
            plain.handle(parse_request(request))
            with tracer.installed():
                with tracer.op_span(-1 - op, "setup"):
                    traced.handle(parse_request(request))
        return _lockstep(
            stream.timed,
            lambda request: plain.handle(parse_request(request)),
            lambda request: traced.handle(parse_request(request)),
            tracer)
    finally:
        obs.recorder.disable()


def _essentials(result: Optional[Dict]) -> tuple:
    """The output fields every pass must agree on."""
    result = result or {}
    return (result.get("schedule_hash"), result.get("repair_mode"),
            result.get("schedulable"), json.dumps(result.get("cache"),
                                                  sort_keys=True))


def service_traced(root: str, stream: Stream) -> Outcome:
    outcome = Outcome()
    try:
        record = _serve_pass(root, stream, outcome, probe_status=True)
    except ServiceFailure as error:
        return _aborted(outcome, stream, error)
    passed = check_service_outputs(stream, record["setup_hashes"],
                                   record["responses"], outcome)
    tracer = layers.Tracer()
    replay = _replay(stream, tracer)
    for position, response in enumerate(record["responses"]):
        served = _essentials((response or {}).get("result"))
        if not (served == _essentials(replay["plain"][position])
                == _essentials(replay["traced"][position])):
            outcome.fail(f"op {position}: replay differs from the server")
            if passed[position]:
                passed[position] = False
                outcome.failed += 1
    values = layers.layer_metrics(tracer, replay["timed_counts"])
    _export_spans(root, stream, tracer)
    _service_layer_metrics(stream, record, outcome)
    _common_layer_metrics(values, replay, outcome)
    outcome.put("executor.unattributed_share", values["unattributed_share"],
                "ratio")
    outcome.put("manager.unattributed_share", 0.0, "ratio")
    outcome.put("manager.actions_applied", 0, "count")
    return outcome


#: Response verdict classes the executor metrics are grouped by.
VERDICTS = ("schedule.hit", "schedule.miss", "reschedule.repair",
            "reschedule.rebuild", "reschedule.noop")

#: Per-layer metrics read from the service pass (0 on maintenance-loop).
SERVICE_LAYER_UNITS = {
    "service.front_ms": "ms", "service.startup_s": "s",
    **{f"executor.{label}_ms": "ms" for label in VERDICTS},
    **{f"executor.{label}_count": "count" for label in VERDICTS},
    **{f"cache.{kind}.hit_ratio": "ratio"
       for kind in ("topology", "workload", "schedule")},
    "cache.evictions": "count", "executor.unattributed_share": "ratio",
}


def _service_layer_metrics(stream: Stream, record: Dict,
                           outcome: Outcome) -> None:
    front, by_label = [], defaultdict(list)
    labels = _verdicts(stream, record["responses"])
    for response, latency, label in zip(record["responses"],
                                        record["latencies_s"], labels):
        elapsed = (response or {}).get("result", {}).get("elapsed_ms")
        if elapsed is None:
            continue
        front.append(latency * 1e3 - elapsed)
        by_label[label].append(elapsed)
    outcome.put("service.front_ms", median(front) if front else 0.0, "ms")
    outcome.put("service.startup_s", record["startup_s"], "s")
    for label in VERDICTS:
        samples = by_label.get(label, [])
        outcome.put(f"executor.{label}_ms",
                    median(samples) if samples else 0.0, "ms")
        outcome.put(f"executor.{label}_count", len(samples), "count")
    before = record["status_before"]["result"]["worker_status"][0]["cache"]
    after = record["status_after"]["result"]["worker_status"][0]["cache"]
    for kind in ("topology", "workload", "schedule"):
        hits = after["hits"][kind] - before["hits"][kind]
        misses = after["misses"][kind] - before["misses"][kind]
        outcome.put(f"cache.{kind}.hit_ratio",
                    hits / (hits + misses) if hits + misses else 0.0,
                    "ratio")
    outcome.put("cache.evictions", after["evictions"] - before["evictions"],
                "count")


#: Per-layer metrics read straight from :func:`layers.layer_metrics`.
LAYER_UNITS = {
    "replay.op_ms": "ms",
    "protocol.config_hash_calls_per_op": "calls/op",
    "protocol.config_hash_us": "us",
    "schedule.facts_calls_per_op": "calls/op",
    "schedule.facts_ms": "ms",
    "workload.build_ms": "ms",
    "topology.build_ms": "ms",
    "compile.NR_ms": "ms",
    "compile.RA_ms": "ms",
    "compile.RC_ms": "ms",
    "compile.us_per_placement": "us",
    "kernel.find_slot_calls": "count",
    "kernel.vector_share": "ratio",
    "repair.ms": "ms",
    "repair.evicted_cells": "count",
    "repair.fallback_ratio": "ratio",
    "rebuild.ms": "ms",
    "audit.ms": "ms",
    "audit.calls": "count",
    "simulate.ms_per_epoch": "ms",
    "simulate.ms_per_rep": "ms",
    "detect.ms_per_epoch": "ms",
    "detect.ks_tests": "count",
    "slo.ms_per_epoch": "ms",
    "manager.self_ms_per_epoch": "ms",
    "trace.self_sum_gap": "ratio",
}


def _common_layer_metrics(values: Dict, replay: Dict,
                          outcome: Outcome) -> None:
    for name, unit in LAYER_UNITS.items():
        outcome.put(name, values[name], unit)
    outcome.put("trace.overhead_ratio", replay["overhead_ratio"], "ratio")
    if values["trace.self_sum_gap"] > 1e-6:
        outcome.fail(f"self times do not sum to op time (gap "
                     f"{values['trace.self_sum_gap']:.2e})")


def _export_spans(root: str, stream: Stream, tracer: layers.Tracer) -> None:
    directory = os.path.join(root, STATE_DIR)
    os.makedirs(directory, exist_ok=True)
    tracer.export_jsonl(os.path.join(
        directory, f"spans-{stream.workload}-seed{stream.seed}.jsonl"))


# -- maintenance-loop --------------------------------------------------------

class _Child:
    """One maintenance-loop program process (``maintenance.py``)."""

    def __init__(self, root: str, stream: Stream):
        here = os.path.dirname(os.path.abspath(__file__))
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.process = subprocess.Popen(
            [sys.executable, os.path.join(here, "maintenance.py"),
             str(stream.setup[0]["seed"])],
            cwd=root, env=env, stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True)

    def read(self) -> Dict:
        line = self.process.stdout.readline()
        if not line:
            raise RuntimeError("maintenance process exited early "
                               f"(code {self.process.wait()})")
        return json.loads(line)

    def send(self, text: str) -> None:
        self.process.stdin.write(text + "\n")
        self.process.stdin.flush()

    def close(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait()
        self.process.stdin.close()
        self.process.stdout.close()


def maintenance_e2e(root: str, stream: Stream) -> Outcome:
    outcome = Outcome()
    seeds = [op["seed"] for op in stream.timed]
    setup_times = []
    result = None
    for index in range(SETUPS):
        start = time.perf_counter()
        child = _Child(root, stream)
        try:
            child.read()
            setup_times.append(time.perf_counter() - start)
            if index < SETUPS - 1:
                child.send("exit")
                child.process.wait(timeout=60)
                continue
            child.send(json.dumps({"seeds": seeds}))
            result = child.read()
            child.process.wait(timeout=60)
        finally:
            child.close()
    outcome.attempted = len(seeds)
    latencies = result["latencies_s"]
    outcome.put("setup_s", median(setup_times), "s")
    _latency_metrics(outcome, latencies, result["wall_s"], tail=90)
    outcome.put("peak_rss_mb", result["peak_rss_mb"], "MB")
    for error in result["errors"]:
        outcome.fail(error)
    _check_summaries(root, result["summaries"], outcome)
    return outcome


def _check_summaries(root: str, summaries: List[Optional[Dict]],
                     outcome: Outcome) -> None:
    """Failed runs, digests that differ from an earlier run of the same
    seed in this checkout, and the mix guard (repairs and rebuilds)."""
    path = os.path.join(root, STATE_DIR, "maintenance-digests.json")
    try:
        with open(path, "r", encoding="utf-8") as handle:
            known = json.load(handle)
    except (OSError, ValueError):
        known = {}
    for summary in summaries:
        if summary is None:
            outcome.failed += 1
            continue
        seed = str(summary["seed"])
        if known.setdefault(seed, summary["digest"]) != summary["digest"]:
            outcome.failed += 1
            outcome.fail(f"seed {seed}: actions/repair modes/PDRs differ "
                         f"from an earlier run")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(known, handle, sort_keys=True)
    done = [summary for summary in summaries if summary]
    repairs = sum(summary["repairs"] for summary in done)
    rebuilds = sum(summary["rebuilds"] for summary in done)
    outcome.details["remediations"] = {"repair": repairs,
                                       "rebuild": rebuilds}
    if not repairs or not rebuilds:
        outcome.fail(f"mix guard: {repairs} repairs, {rebuilds} rebuilds "
                     f"(both needed)")


def maintenance_traced(root: str, stream: Stream) -> Outcome:
    import maintenance

    outcome = Outcome()
    seeds = [op["seed"] for op in stream.timed]
    outcome.attempted = len(seeds)
    tracer = layers.Tracer()
    with tracer.op_span(-1, "setup"):
        with tracer.span("topology.build"):
            bed = maintenance.testbed()
    config = maintenance.manager_config()
    maintenance.run_one(bed, config, stream.setup[0]["seed"])
    with tracer.installed():
        with tracer.op_span(-2, "setup"):
            maintenance.run_one(bed, config, stream.setup[0]["seed"])

    def managed(seed):
        return maintenance.summarize(maintenance.run_one(bed, config, seed))

    # Managed runs are independent, so a quarter of them suffice for the
    # untraced side of the overhead ratio.
    replay = _lockstep(seeds, managed, managed, tracer,
                       plain_every=MAINTENANCE_PLAIN_EVERY)
    summaries = []
    for seed, plain, traced in zip(seeds, replay["plain"],
                                   replay["traced"]):
        if "error" in traced:
            outcome.fail(f"seed {seed}: {traced['error']}")
            summaries.append(None)
        elif plain is not None and plain != traced:
            outcome.fail(f"seed {seed}: traced replay differs")
            summaries.append(None)
        else:
            summaries.append(traced)
    _check_summaries(root, summaries, outcome)
    values = layers.layer_metrics(tracer, replay["timed_counts"])
    _export_spans(root, stream, tracer)
    for name, unit in SERVICE_LAYER_UNITS.items():
        outcome.put(name, 0, unit)
    _common_layer_metrics(values, replay, outcome)
    outcome.put("manager.unattributed_share", values["unattributed_share"],
                "ratio")
    outcome.put("manager.actions_applied",
                sum(summary["actions_applied"]
                    for summary in summaries if summary), "count")
    return outcome


def run(root: str, stream: Stream, trace: bool) -> Outcome:
    if stream.workload == "maintenance-loop":
        return (maintenance_traced if trace else maintenance_e2e)(root,
                                                                  stream)
    return (service_traced if trace else service_e2e)(root, stream)
