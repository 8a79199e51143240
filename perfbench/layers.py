"""Spans around calls into the program's layers, recorded from outside.

:class:`Tracer` replaces a layer's public function *where its caller
looks it up* (``repro.service.executor.repair_schedule``,
``repro.manager.loop.audit_schedule``, a class attribute such as
``Schedule.canonical_hash``) with a wrapper that records a span, and
restores every original on :meth:`Tracer.uninstall`.  Spans are
``[name, start, end, parent, op, attrs]`` lists kept in memory and
written out when the run ends.  A span's *self time* is its duration
minus the part of it that its child spans cover; per op, the self times
of all spans (the op's root span included, whose self time is the
unattributed remainder) sum to the op's duration.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Sequence

from common import median

NAME, START, END, PARENT, OP, ATTRS = range(6)

#: Root span of one replayed op.
OP_SPAN = "op"
#: Synthesized per-epoch span of a managed run (see :func:`add_epochs`).
EPOCH_SPAN = "manager.epoch"


class Tracer:
    """In-memory span recorder plus the call-site patches that feed it."""

    def __init__(self):
        self.spans: List[list] = []
        self.stack: List[int] = []
        self.op: Optional[int] = None
        self.op_phase: Dict[int, str] = {}
        self.counts: Counter = Counter()
        self._patches: List[tuple] = []

    # -- recording ------------------------------------------------------

    def begin(self, name: str, attrs: Optional[Dict] = None) -> int:
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, time.perf_counter(), None, parent,
                           self.op, attrs or {}])
        index = len(self.spans) - 1
        self.stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][END] = time.perf_counter()
        if self.stack.pop() != index:
            raise RuntimeError("spans must close innermost first")

    @contextmanager
    def span(self, name: str, **attrs):
        index = self.begin(name, attrs)
        try:
            yield self.spans[index]
        finally:
            self.end(index)

    @contextmanager
    def op_span(self, op: int, phase: str):
        """Root span of one op; every span opened inside belongs to it."""
        self.op = op
        self.op_phase[op] = phase
        try:
            with self.span(OP_SPAN) as root:
                yield root
        finally:
            self.op = None

    def _inside(self, name: str) -> bool:
        return bool(self.stack) and self.spans[self.stack[-1]][NAME] == name

    # -- patching -------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        had = attr in vars(owner)
        self._patches.append((owner, attr, getattr(owner, attr), had))
        setattr(owner, attr, replacement)

    def wrap(self, owner, attr: str, name: str,
             when: Optional[Callable] = None,
             annotate: Optional[Callable] = None) -> None:
        """Record a ``name`` span around every call of ``owner.attr``.

        ``when(args, kwargs)`` limits the span to matching calls;
        ``annotate(args, kwargs, result)`` returns attrs for the span.
        A call made while a same-named span is innermost (recursion,
        wrapper-in-wrapper) runs without a second span.
        """
        original = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            if (when is not None and not when(args, kwargs)) \
                    or tracer._inside(name):
                return original(*args, **kwargs)
            tracer.counts[name] += 1
            index = tracer.begin(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.end(index)
            if annotate is not None:
                tracer.spans[index][ATTRS].update(
                    annotate(args, kwargs, result))
            return result

        self._patch(owner, attr, traced)

    def count(self, owner, attr: str, name: str,
              label: Optional[Callable[[], str]] = None) -> None:
        """Count calls of ``owner.attr`` without a span, for calls too
        frequent to time one by one; ``label()`` adds a per-label count
        (key ``(name, label)``) beside the total."""
        original = getattr(owner, attr)
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            if label is not None:
                counts[name, label()] += 1
            return original(*args, **kwargs)

        self._patch(owner, attr, counted)

    @contextmanager
    def installed(self):
        """The layer wrappers of :func:`install`, for one block."""
        install(self)
        try:
            yield self
        finally:
            self.uninstall()

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original, had = self._patches.pop()
            if had:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def export_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for index, (name, start, end, parent, op, attrs) in \
                    enumerate(self.spans):
                handle.write(json.dumps(
                    {"id": index, "name": name, "start": start,
                     "end": end, "parent": parent, "op": op,
                     "phase": self.op_phase.get(op), "attrs": attrs},
                    default=str) + "\n")


def _arg(args, kwargs, position: int, key: str, default=None):
    if key in kwargs:
        return kwargs[key]
    return args[position] if len(args) > position else default


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics are read from."""
    def mod(name):
        return importlib.import_module(name)

    from repro.core.reschedule import ReuseBarrierPolicy
    from repro.core.scheduler import FixedPriorityScheduler
    from repro.core.schedule import Schedule
    from repro.obs.slo import SloEngine
    from repro.simulator.engine import TschSimulator

    protocol = mod("repro.service.protocol")
    executor = mod("repro.service.executor")
    loop = mod("repro.manager.loop")

    tracer.wrap(protocol, "config_hash", "protocol.config_hash")
    for method in ("canonical_hash", "num_reused_cells", "makespan"):
        tracer.wrap(Schedule, method, "schedule.facts")

    def compiled(args, kwargs, result):
        return {"policy": _arg(args, kwargs, 2, "policy"),
                "placements": len(result.schedule)}

    def repaired(args, kwargs, outcome):
        return {"evicted": outcome.evicted,
                "schedulable": outcome.schedulable}

    for owner in (executor, loop):
        tracer.wrap(owner, "schedule_workload", "compile",
                    annotate=compiled)
        tracer.wrap(owner, "repair_schedule", "repair", annotate=repaired)
    tracer.wrap(executor, "build_prepared", "topology.build")
    tracer.wrap(executor, "build_environment", "topology.build")
    tracer.wrap(loop, "prepare_network", "topology.build")
    tracer.wrap(executor, "build_flow_set", "workload.build")
    tracer.wrap(loop, "build_detection_flow_set", "workload.build")
    tracer.wrap(FixedPriorityScheduler, "run", "rebuild",
                when=lambda args, kwargs: isinstance(args[0].policy,
                                                     ReuseBarrierPolicy))
    tracer.wrap(loop, "reschedule_without_reuse_on", "rebuild")
    tracer.wrap(loop, "audit_schedule", "audit")
    tracer.wrap(TschSimulator, "run", "simulate",
                annotate=lambda args, kwargs, result: {
                    "repetitions": _arg(args, kwargs, 1, "repetitions",
                                        default=100)})
    tracer.wrap(loop, "build_epoch_report", "detect")
    tracer.wrap(loop, "diagnose_epoch", "detect")
    tracer.wrap(SloEngine, "observe_epoch", "slo")

    # Counted by the kernel in effect: the scheduler scopes a concrete
    # kernel around every run, so this is the share of placement probes
    # that ran vectorized (resolve_kernel itself runs only in auto mode).
    kernel = mod("repro.core.kernel")
    for name in ("repro.core.rc", "repro.core.ra", "repro.core.nr",
                 "repro.core.repair", "repro.core.reschedule"):
        tracer.count(mod(name), "find_slot", "kernel.find_slot",
                     label=kernel.active_kernel)
    tracer.count(mod("repro.detection.classifier"), "ks_2samp",
                 "detect.ks_2samp")


# -- analysis ------------------------------------------------------------

def _covered(intervals: Sequence[tuple], low: float, high: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[low, high]``."""
    total = 0.0
    cursor = low
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, high)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans: Sequence[list]) -> List[float]:
    """Each span's duration minus the time its child spans cover."""
    children = defaultdict(list)
    for span in spans:
        if span[PARENT] is not None:
            children[span[PARENT]].append((span[START], span[END]))
    return [span[END] - span[START]
            - _covered(children.get(index, ()), span[START], span[END])
            for index, span in enumerate(spans)]


def add_epochs(spans: List[list]) -> List[list]:
    """Insert one ``manager.epoch`` span per health-report epoch.

    An epoch runs from one ``simulate`` call of a managed run to the
    next (the last to the end of the run).  Spans directly under the op
    root that start inside an epoch are re-parented under it, so the
    epoch's self time is the manager's own work in that epoch.
    """
    spans = [list(span) for span in spans]
    children = defaultdict(list)
    for index, span in enumerate(spans):
        children[span[PARENT]].append(index)
    roots = [index for index, span in enumerate(spans)
             if span[NAME] == OP_SPAN]
    for root in roots:
        direct = children[root]
        starts = [spans[index][START] for index in direct
                  if spans[index][NAME] == "simulate"]
        bounds = starts + [spans[root][END]]
        for low, high in zip(bounds, bounds[1:]):
            spans.append([EPOCH_SPAN, low, high, root, spans[root][OP], {}])
            epoch = len(spans) - 1
            for index in direct:
                if low <= spans[index][START] < high:
                    spans[index][PARENT] = epoch
    return spans


def check_self_sum(spans: Sequence[list], selfs: Sequence[float]) -> float:
    """Largest per-op gap between the summed self times and the op's
    duration, as a share of that duration (0 up to rounding)."""
    per_op = defaultdict(float)
    durations = {}
    for span, own in zip(spans, selfs):
        per_op[span[OP]] += own
        if span[NAME] == OP_SPAN:
            durations[span[OP]] = span[END] - span[START]
    return max((abs(per_op[op] - duration) / duration
                for op, duration in durations.items() if duration > 0),
               default=0.0)


def _med(values, scale: float = 1.0) -> float:
    return median(values) * scale if values else 0.0


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: Tracer, timed_counts: Counter) -> Dict[str, float]:
    """Per-layer values from a finished traced replay.

    Times are medians over every traced op (set-up included, so layers
    that run only at set-up still report); counts and per-op rates cover
    the timed phase only (``timed_counts``).
    """
    spans = add_epochs(tracer.spans)
    selfs = self_times(spans)
    timed_ops = {op for op, phase in tracer.op_phase.items()
                 if phase == "timed"}
    by_name = defaultdict(list)
    per_op = defaultdict(lambda: defaultdict(float))
    per_parent = defaultdict(lambda: defaultdict(float))
    for index, span in enumerate(spans):
        duration = span[END] - span[START]
        by_name[span[NAME]].append((index, duration))
        per_op[span[NAME]][span[OP]] += duration
        per_parent[span[NAME]][span[PARENT]] += duration

    def durations(name, when=lambda span: True):
        return [duration for index, duration in by_name[name]
                if when(spans[index])]

    roots = [(index, duration) for index, duration in by_name[OP_SPAN]
             if spans[index][OP] in timed_ops]
    root_total = sum(duration for _, duration in roots)
    unattributed = _ratio(sum(selfs[index] for index, _ in roots),
                          root_total)
    ops = len(roots)
    timed_facts = [per_op["schedule.facts"].get(op, 0.0)
                   for op in timed_ops]
    compiles = by_name["compile"]
    repairs = [spans[index][ATTRS] for index, _ in by_name["repair"]
               if spans[index][OP] in timed_ops]
    simulations = by_name["simulate"]
    metrics = {
        "replay.op_ms": _med([duration for _, duration in roots], 1e3),
        "protocol.config_hash_calls_per_op": _ratio(
            timed_counts["protocol.config_hash"], ops),
        "protocol.config_hash_us": _med(
            durations("protocol.config_hash"), 1e6),
        "schedule.facts_calls_per_op": _ratio(
            timed_counts["schedule.facts"], ops),
        "schedule.facts_ms": _med([value for value in timed_facts
                                   if value > 0], 1e3),
        "workload.build_ms": _med(list(per_op["workload.build"].values()),
                                  1e3),
        "topology.build_ms": _med(list(per_op["topology.build"].values()),
                                  1e3),
        "compile.us_per_placement": _ratio(
            sum(duration for _, duration in compiles) * 1e6,
            sum(spans[index][ATTRS].get("placements", 0)
                for index, _ in compiles)),
        "kernel.find_slot_calls": timed_counts["kernel.find_slot"],
        "kernel.vector_share": _ratio(
            timed_counts["kernel.find_slot", "vector"],
            timed_counts["kernel.find_slot"]),
        "repair.ms": _med(durations("repair"), 1e3),
        "repair.evicted_cells": sum(attrs.get("evicted") or 0
                                    for attrs in repairs),
        "repair.fallback_ratio": _ratio(
            sum(1 for attrs in repairs if not attrs.get("schedulable")),
            len(repairs)),
        "rebuild.ms": _med(durations("rebuild"), 1e3),
        "audit.ms": _med(durations("audit"), 1e3),
        "audit.calls": timed_counts["audit"],
        "simulate.ms_per_epoch": _med(durations("simulate"), 1e3),
        "simulate.ms_per_rep": _ratio(
            sum(duration for _, duration in simulations) * 1e3,
            sum(spans[index][ATTRS].get("repetitions", 0)
                for index, _ in simulations)),
        "detect.ms_per_epoch": _med(list(per_parent["detect"].values()),
                                    1e3),
        "detect.ks_tests": timed_counts["detect.ks_2samp"],
        "slo.ms_per_epoch": _med(durations("slo"), 1e3),
        "manager.self_ms_per_epoch": _med(
            [selfs[index] for index, _ in by_name[EPOCH_SPAN]], 1e3),
        "trace.self_sum_gap": check_self_sum(spans, selfs),
    }
    for policy in ("NR", "RA", "RC"):
        metrics[f"compile.{policy}_ms"] = _med(
            durations("compile",
                      lambda span: span[ATTRS].get("policy") == policy),
            1e3)
    metrics["unattributed_share"] = unattributed
    return metrics
