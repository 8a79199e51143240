"""Fixed-priority transmission scheduling engine (paper Sections III-B, V).

The engine walks flows in priority order (the FlowSet's order — apply
Deadline Monotonic first), expands each release instance into transmission
requests, and delegates every placement to a *placement policy*.  The
three policies of the paper — NR, RA, RC — differ only in how they pick a
(slot, channel offset) cell; the surrounding machinery (priority order,
precedence, deadline checks, timing) is shared here.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Dict, Optional, Protocol, Sequence, Tuple

import numpy as np

from repro.core import kernel as _kernel
from repro.core.constraints import (
    NO_REUSE,
    feasible_offsets_scalar,
)
from repro.core.schedule import Schedule
from repro.core.transmissions import (
    ATTEMPTS_PER_LINK,
    RequestWindow,
    TransmissionRequest,
    expand_instance,
)
from repro.flows.flow import Flow, FlowSet
from repro.network.graphs import ChannelReuseGraph
from repro.obs import recorder as _obs

#: Offset selection rules understood by :func:`find_slot`.
OFFSET_FIRST = "first"
OFFSET_LEAST_LOADED = "least_loaded"

#: Registry counters folded into :attr:`SchedulingResult.counters`
#: (``registry name`` -> ``result key``).  The RC entries stay zero for
#: NR / RA runs.
RESULT_COUNTERS = (
    ("scheduler.slots_scanned", "slots_scanned"),
    ("scheduler.placements_tried", "placements_tried"),
    ("scheduler.placements", "placements"),
    ("scheduler.reuse_placements", "reuse_placements"),
    ("rc.laxity_triggers", "laxity_triggers"),
    ("rc.reuse_fallbacks", "reuse_fallbacks"),
)


def _note_scan(slots: int) -> None:
    """Credit ``slots`` scanned slots to the live recorder."""
    if slots and _obs.ENABLED:
        _obs.RECORDER.count("scheduler.slots_scanned", slots)


def find_slot(schedule: Schedule, reuse_graph: ChannelReuseGraph,
              request: TransmissionRequest, rho: float,
              earliest: int, offset_rule: str = OFFSET_FIRST,
              ) -> Optional[Tuple[int, int]]:
    """The paper's ``findSlot()``: earliest feasible (slot, offset).

    Scans slots from ``earliest`` to the request's deadline, skipping
    slots with transmission conflicts, and returns the first slot holding
    a channel offset that satisfies the channel constraint at reuse hop
    count ``rho``.

    Args:
        schedule: Partial schedule.
        reuse_graph: Channel reuse graph (hop distances).
        request: The transmission to place.
        rho: Reuse hop count; ``math.inf`` forbids reuse.
        earliest: First admissible slot (release / precedence bound).
        offset_rule: ``"first"`` picks the lowest feasible offset (RA);
            ``"least_loaded"`` picks the feasible offset with the fewest
            scheduled transmissions, lowest index on ties (RC — reduces
            per-channel contention, paper Section V-C).

    Returns:
        ``(slot, offset)`` or None if nothing fits by the deadline.
    """
    if _obs.ENABLED:
        _obs.RECORDER.count("scheduler.placements_tried")
        prov = _obs.RECORDER.provenance
        if prov is not None:
            # Record the scan *and* its derived constraint chain against
            # the pre-scan schedule state (see repro.obs.provenance).
            result = _find_slot(schedule, reuse_graph, request, rho,
                                earliest, offset_rule)
            prov.record_probe(schedule, reuse_graph, request, rho,
                              earliest, offset_rule, result)
            return result
    return _find_slot(schedule, reuse_graph, request, rho, earliest,
                      offset_rule)


def _find_slot(schedule: Schedule, reuse_graph: ChannelReuseGraph,
               request: TransmissionRequest, rho: float,
               earliest: int, offset_rule: str,
               ) -> Optional[Tuple[int, int]]:
    """:func:`find_slot` minus the provenance probe hook."""
    deadline = request.deadline_slot
    if earliest > deadline:
        return None

    if rho == NO_REUSE:
        # Fast path: feasible slots need a completely free offset.
        candidates = schedule.nr_candidate_slots(
            request.sender, request.receiver, earliest, deadline)
        # argmax short-circuits on booleans: first feasible slot or 0.
        rel = int(candidates.argmax())
        if not candidates[rel]:
            _note_scan(deadline - earliest + 1)
            return None
        slot = earliest + rel
        _note_scan(rel + 1)
        return (slot, schedule.first_free_offset(slot))

    conflict = schedule.conflict_mask(
        request.sender, request.receiver, earliest, deadline)
    if _kernel.active_kernel() == _kernel.KERNEL_SCALAR:
        return _find_slot_scalar(schedule, reuse_graph, request, rho,
                                 earliest, offset_rule, conflict)
    return _find_slot_vector(schedule, reuse_graph, request, rho,
                             earliest, offset_rule, conflict)


def _find_slot_scalar(schedule: Schedule, reuse_graph: ChannelReuseGraph,
                      request: TransmissionRequest, rho: float,
                      earliest: int, offset_rule: str,
                      conflict: np.ndarray) -> Optional[Tuple[int, int]]:
    """Finite-ρ slot scan, one cell at a time (pre-vectorization path).

    Retained as the reference oracle for the vectorized kernel and as
    the baseline ``repro bench`` measures speedups against.
    """
    scanned = 0
    for index in np.flatnonzero(~conflict):
        scanned += 1
        slot = earliest + int(index)
        offsets = feasible_offsets_scalar(
            schedule, reuse_graph, request.sender, request.receiver,
            slot, rho)
        if not offsets:
            continue
        _note_scan(scanned)
        if offset_rule == OFFSET_FIRST:
            return (slot, offsets[0])
        if offset_rule == OFFSET_LEAST_LOADED:
            best = min(offsets,
                       key=lambda c: (schedule.cell_size(slot, c), c))
            return (slot, best)
        raise ValueError(f"unknown offset rule: {offset_rule}")
    _note_scan(scanned)
    return None


def _find_slot_vector(schedule: Schedule, reuse_graph: ChannelReuseGraph,
                      request: TransmissionRequest, rho: float,
                      earliest: int, offset_rule: str,
                      conflict: np.ndarray) -> Optional[Tuple[int, int]]:
    """Finite-ρ slot scan via the vectorized placement kernel.

    The kernel maintains each link's min-reuse distances incrementally
    (see :mod:`repro.core.kernel`), so the whole window is answered by
    thresholding the link's per-slot best-distance view against ρ — no
    per-slot rescans, and RC's descending-ρ retries of the same request
    re-threshold the same row.
    """
    if offset_rule not in (OFFSET_FIRST, OFFSET_LEAST_LOADED):
        raise ValueError(f"unknown offset rule: {offset_rule}")
    deadline = request.deadline_slot
    best = _kernel.best_reuse_distance(
        schedule, reuse_graph, request.sender, request.receiver,
        earliest, deadline)
    feasible = best >= rho
    # feasible & ~conflict, without materializing the inverted mask.
    np.greater(feasible, conflict, out=feasible)
    # argmax short-circuits on booleans: first feasible slot or 0.
    rel = int(feasible.argmax())
    if not feasible[rel]:
        if _obs.ENABLED:
            _note_scan(int(conflict.size - np.count_nonzero(conflict)))
        return None
    slot = earliest + rel
    if _obs.ENABLED:
        _note_scan(int(rel + 1 - np.count_nonzero(conflict[:rel + 1])))
    return (slot, pick_offset(schedule, reuse_graph, request.sender,
                              request.receiver, slot, rho, offset_rule))


def pick_offset(schedule: Schedule, reuse_graph: ChannelReuseGraph,
                sender: int, receiver: int, slot: int, rho: float,
                offset_rule: str) -> int:
    """The offset :func:`find_slot` picks in a slot feasible at ``rho``
    (vector kernel)."""
    if rho == NO_REUSE:
        return schedule.first_free_offset(slot)
    row = _kernel.min_reuse_distance(
        schedule, reuse_graph, sender, receiver, slot, slot)[0] >= rho
    if offset_rule == OFFSET_FIRST:
        return int(np.argmax(row))
    offsets = np.flatnonzero(row)
    counts = schedule.occupancy()[0][slot, offsets]
    # argmin returns the first minimum; offsets ascend, so ties break
    # toward the lowest offset like the scalar (cell_size, offset) key.
    return int(offsets[int(np.argmin(counts))])


class PlacementPolicy(Protocol):
    """Strategy deciding where each transmission request goes."""

    #: Human-readable policy name ("NR", "RA", "RC", ...).
    name: str

    def start_flow(self, flow: Flow) -> None:
        """Hook invoked when the engine starts a new flow."""

    def place(self, schedule: Schedule, reuse_graph: ChannelReuseGraph,
              request: TransmissionRequest, earliest: int,
              remaining: Sequence[TransmissionRequest],
              ) -> Optional[Tuple[int, int]]:
        """Choose a (slot, offset) for the request, or None if impossible."""


@dataclass
class SchedulingResult:
    """Outcome of scheduling one flow set.

    Attributes:
        schedulable: Whether every transmission of every instance made its
            deadline.
        schedule: The complete schedule when schedulable; the partial
            schedule at the point of failure otherwise.
        flow_set: The (priority-ordered, routed) input flows.
        policy_name: Which placement policy produced this result.
        failed_flow: Flow id of the first unschedulable flow, if any.
        failed_instance: Release index where scheduling failed, if any.
        elapsed_s: Wall-clock scheduling time in seconds.
        counters: Per-run instrumentation counters (slots scanned,
            placements tried/made, reuse placements, RC laxity triggers
            and fallback steps).  Populated from the observability
            registry when recording is enabled (see :mod:`repro.obs`);
            empty otherwise so the disabled path stays free.
    """

    schedulable: bool
    schedule: Schedule
    flow_set: FlowSet
    policy_name: str
    failed_flow: Optional[int] = None
    failed_instance: Optional[int] = None
    elapsed_s: float = 0.0
    counters: Dict[str, float] = field(default_factory=dict)


class FixedPriorityScheduler:
    """Schedules a routed, priority-ordered flow set with a policy.

    Args:
        num_nodes: Number of devices in the topology.
        num_offsets: Number of channels used ``|M|``.
        reuse_graph: Channel reuse graph of the topology.
        policy: Placement policy (NR / RA / RC).
        attempts_per_link: Cells reserved per link (2 = source routing).
    """

    def __init__(self, num_nodes: int, num_offsets: int,
                 reuse_graph: ChannelReuseGraph, policy: PlacementPolicy,
                 attempts_per_link: int = ATTEMPTS_PER_LINK):
        if reuse_graph.num_nodes != num_nodes:
            raise ValueError("reuse graph size does not match num_nodes")
        self.num_nodes = num_nodes
        self.num_offsets = num_offsets
        self.reuse_graph = reuse_graph
        self.policy = policy
        self.attempts_per_link = attempts_per_link

    def run(self, flow_set: FlowSet) -> SchedulingResult:
        """Schedule every instance of every flow within the hyperperiod.

        The flow set must already be routed and in priority order (highest
        first).  Scheduling stops at the first transmission that cannot
        meet its deadline; the flow set is then unschedulable.
        """
        if not flow_set.all_routed():
            raise ValueError("all flows must be routed before scheduling")
        if _kernel.active_kernel() == _kernel.KERNEL_AUTO:
            # Resolve the crossover-aware choice once per run and scope
            # it, so every inner branch point sees a concrete kernel.
            with _kernel.kernel_mode(self._resolve_auto(flow_set)):
                return self.run(flow_set)
        start_time = time.perf_counter()
        hyperperiod = flow_set.hyperperiod()
        schedule = Schedule(self.num_nodes, hyperperiod, self.num_offsets)
        if (_kernel.active_kernel() == _kernel.KERNEL_VECTOR
                and getattr(self.policy, "uses_reuse", True)):
            # Register every link while the schedule is empty: distance
            # rows start at "no constraint" for free, instead of paying
            # a full occupancy pass on first touch mid-run.  NR opts out
            # (uses_reuse=False): it never consults reuse distances, so
            # maintaining them would be pure per-placement overhead.
            _kernel.prepare_links(
                schedule, self.reuse_graph,
                {link for flow in flow_set for link in flow.links})

        # Resolve observability once per run; ENABLED is a module-level
        # flag so the disabled cost is one attribute read.
        recorder = _obs.RECORDER if _obs.ENABLED else None
        baseline = None
        prov = None
        if recorder is not None:
            baseline = {name: recorder.registry.counter_value(name)
                        for name, _ in RESULT_COUNTERS}
            prov = recorder.provenance
        context = (self.policy.provenance_context()
                   if prov is not None
                   and hasattr(self.policy, "provenance_context") else None)

        for flow in flow_set:
            self.policy.start_flow(flow)
            for instance in flow.instances(hyperperiod):
                requests = expand_instance(instance, self.attempts_per_link)
                earliest = instance.release_slot
                # The vectorized laxity path wants T_post as index
                # arrays; share one pair across the instance's
                # placements.  The scalar reference keeps the plain
                # list slices it was originally measured with.
                windows = _kernel.active_kernel() == _kernel.KERNEL_VECTOR
                if windows:
                    senders, receivers = RequestWindow.arrays_for(requests)
                for position, request in enumerate(requests):
                    remaining = (
                        RequestWindow(requests, position + 1,
                                      senders, receivers)
                        if windows else requests[position + 1:])
                    if prov is not None:
                        prov.begin_decision(self.policy.name, request,
                                            earliest, context)
                    placement = self.policy.place(
                        schedule, self.reuse_graph, request, earliest,
                        remaining)
                    if placement is None:
                        if recorder is not None:
                            recorder.count("scheduler.rejections")
                            fields = dict(
                                policy=self.policy.name,
                                flow=flow.flow_id,
                                instance=instance.instance,
                                hop=request.hop_index,
                                deadline=request.deadline_slot)
                            if prov is not None:
                                fields["prov"] = prov.end_decision(None)
                            recorder.event("flow_rejected", **fields)
                        return self._finish(
                            False, schedule, flow_set, start_time,
                            recorder, baseline,
                            failed_flow=flow.flow_id,
                            failed_instance=instance.instance)
                    slot, offset = placement
                    if recorder is not None:
                        reused = schedule.cell_size(slot, offset) > 0
                        recorder.count("scheduler.placements")
                        if reused:
                            recorder.count("scheduler.reuse_placements")
                        fields = dict(
                            policy=self.policy.name,
                            flow=flow.flow_id, instance=instance.instance,
                            hop=request.hop_index, attempt=request.attempt,
                            slot=slot, offset=offset, reused=reused)
                        if prov is not None:
                            fields["prov"] = prov.end_decision(
                                placement, reused)
                        recorder.event("placement", **fields)
                    schedule.add(request, slot, offset)
                    earliest = slot + 1
            if recorder is not None:
                recorder.event("flow_admitted", policy=self.policy.name,
                               flow=flow.flow_id)

        return self._finish(True, schedule, flow_set, start_time,
                            recorder, baseline)

    def _resolve_auto(self, flow_set: FlowSet) -> str:
        """Concrete kernel for this run under ``kernel="auto"``.

        The workload-size estimate is the number of transmission
        requests the run will try to place — instances × route hops ×
        attempts — which is what the measured RA crossover
        (:data:`repro.core.kernel.RA_CROSSOVER_REQUESTS`) is calibrated
        against.
        """
        hyperperiod = flow_set.hyperperiod()
        num_requests = sum(
            (hyperperiod // flow.period_slots) * len(flow.links)
            * self.attempts_per_link
            for flow in flow_set)
        # Wrapper policies (e.g. the reuse barrier) advertise the name
        # the crossover calibration applies to; bare policies are their
        # own answer.
        policy_name = getattr(self.policy, "kernel_policy_name",
                              self.policy.name)
        return _kernel.resolve_kernel(policy_name, num_requests)

    def _finish(self, schedulable: bool, schedule: Schedule,
                flow_set: FlowSet, start_time: float, recorder, baseline,
                failed_flow: Optional[int] = None,
                failed_instance: Optional[int] = None) -> SchedulingResult:
        """Assemble the result, folding registry deltas into counters."""
        counters: Dict[str, float] = {}
        if recorder is not None:
            registry = recorder.registry
            for name, key in RESULT_COUNTERS:
                delta = registry.counter_value(name) - baseline[name]
                counters[key] = int(delta) if delta.is_integer() else delta
            prefix = f"policy.{self.policy.name}"
            registry.inc(f"{prefix}.runs")
            registry.inc(f"{prefix}.schedulable" if schedulable
                         else f"{prefix}.unschedulable")
            registry.inc(f"{prefix}.placements", counters["placements"])
            registry.inc(f"{prefix}.reuse_placements",
                         counters["reuse_placements"])
        return SchedulingResult(
            schedulable=schedulable, schedule=schedule, flow_set=flow_set,
            policy_name=self.policy.name, failed_flow=failed_flow,
            failed_instance=failed_instance,
            elapsed_s=time.perf_counter() - start_time, counters=counters)
