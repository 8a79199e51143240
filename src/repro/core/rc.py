"""RC — Reuse Conservatively (paper Algorithm 1).

RC first tries to place each transmission with channel reuse disabled
(ρ = ∞).  If the resulting flow laxity is non-negative — the remaining
transmissions of the flow still fit before the deadline — no reuse is
introduced.  Otherwise RC enables reuse starting from the *largest*
meaningful hop distance, λ_R (the reuse graph's diameter), and walks ρ
down toward the floor ρ_t until the laxity becomes non-negative, keeping
the interference risk as low as the deadline allows.  Among feasible
offsets, RC picks the least-loaded channel to limit cumulative
interference.

Interpretation note (see DESIGN.md §6): Algorithm 1 as printed resets
ρ ← ∞ once per *flow*, while the prose resets it per *transmission*.
The per-transmission reset is the more conservative reading and is the
default; ``rho_reset="flow"`` reproduces the literal pseudocode.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.core import kernel as _kernel
from repro.core.constraints import NO_REUSE
from repro.core.laxity import calculate_laxity
from repro.core.ra import DEFAULT_RHO_T
from repro.core.schedule import Schedule
from repro.core.scheduler import (
    OFFSET_FIRST,
    OFFSET_LEAST_LOADED,
    find_slot,
    pick_offset,
)
from repro.core.transmissions import RequestWindow, TransmissionRequest
from repro.flows.flow import Flow
from repro.network.graphs import ChannelReuseGraph
from repro.obs import recorder as _obs

#: Buckets for the final-ρ fallback histogram (ρ is a small hop count).
_FALLBACK_RHO_BUCKETS = (1, 2, 3, 4, 5, 6, 8, 12)


def _jsonable_rho(rho: float):
    """ρ for trace payloads: ∞ (no reuse) serializes as None."""
    return None if rho == NO_REUSE else int(rho)

#: Valid values for the ρ reset scope.
RHO_RESET_TRANSMISSION = "transmission"
RHO_RESET_FLOW = "flow"


@dataclass
class ConservativeReusePolicy:
    """The RC placement policy (Algorithm 1's inner loop).

    Attributes:
        rho_t: Minimum admissible reuse hop count (the floor; 2 in the
            paper's evaluation, matching RA for fairness).
        rho_reset: ``"transmission"`` (default, prose reading) resets
            ρ ← ∞ before every transmission; ``"flow"`` resets once per
            flow as in the printed pseudocode.
        offset_rule: Channel-offset selection within the chosen slot.
            The paper's RC picks the least-loaded feasible channel
            (default); ``"first"`` is available for ablation studies.
    """

    rho_t: int = DEFAULT_RHO_T
    rho_reset: str = RHO_RESET_TRANSMISSION
    offset_rule: str = OFFSET_LEAST_LOADED
    name: str = "RC"
    _rho: float = field(default=NO_REUSE, repr=False)
    # Vector-probe heuristic: did the previous placement descend past its
    # first probe?  Contention is bursty, so the last placement predicts
    # whether the O(1)-per-probe laxity table will pay for itself.
    _table_hint: bool = field(default=False, repr=False)

    def __post_init__(self) -> None:
        if self.rho_t < 1:
            raise ValueError("rho_t must be at least 1")
        if self.rho_reset not in (RHO_RESET_TRANSMISSION, RHO_RESET_FLOW):
            raise ValueError(f"unknown rho_reset: {self.rho_reset}")

    def start_flow(self, flow: Flow) -> None:
        """Reset ρ at flow boundaries (always correct for both modes)."""
        self._rho = NO_REUSE

    def provenance_context(self) -> dict:
        """Static policy parameters stamped onto decision records."""
        return {"rho_t": self.rho_t, "rho_reset": self.rho_reset,
                "offset_rule": self.offset_rule}

    def place(self, schedule: Schedule, reuse_graph: ChannelReuseGraph,
              request: TransmissionRequest, earliest: int,
              remaining: Sequence[TransmissionRequest],
              ) -> Optional[Tuple[int, int]]:
        """Find the placement with the least channel reuse that keeps laxity ≥ 0.

        Mirrors Algorithm 1: repeatedly call ``findSlot`` and
        ``calculateLaxity``, relaxing ρ from ∞ to λ_R and downward until
        the laxity is non-negative or ρ falls below ρ_t.  The last
        placement found is used even if its laxity stayed negative (the
        laxity estimate is conservative); the engine rejects it only if
        it misses the deadline — which ``findSlot`` already enforces.

        The descent is written once.  The active kernel supplies only
        the per-ρ probe and the laxity evaluation (:class:`_VectorProbe`
        for the vector kernel, :class:`_ReferenceProbe` otherwise), and
        a live recorder observes whichever runs without choosing it.
        """
        if self.rho_reset == RHO_RESET_TRANSMISSION:
            self._rho = NO_REUSE
        rho = self._rho
        rho_t = self.rho_t

        recorder = _obs.RECORDER if _obs.ENABLED else None
        prov = recorder.provenance if recorder is not None else None
        if recorder is not None:
            recorder.count("policy.RC.place_calls")
        probe_type = (_VectorProbe
                      if _kernel.active_kernel() == _kernel.KERNEL_VECTOR
                      else _ReferenceProbe)
        probe = probe_type(self, schedule, reuse_graph, request, earliest,
                           remaining, recorder)
        laxity_triggered = False
        best_slot: Optional[int] = None
        best_rho = rho
        while rho >= rho_t:
            slot = probe.find(rho)
            if slot is not None:
                best_slot = slot
                best_rho = rho
                laxity = probe.laxity(slot)
                if recorder is not None:
                    recorder.event(
                        "laxity_eval", flow=request.flow_id,
                        hop=request.hop_index, slot=slot,
                        rho=_jsonable_rho(rho), laxity=laxity)
                    if prov is not None:
                        prov.record_laxity(slot, rho, laxity)
                    if laxity < 0 and not laxity_triggered:
                        laxity_triggered = True
                        recorder.count("rc.laxity_triggers")
                if laxity >= 0:
                    break
            if rho == NO_REUSE:
                next_rho = reuse_graph.diameter()
                if next_rho < rho_t:
                    # Degenerate reuse graph: no finite hop count can be
                    # tried; stick with the no-reuse placement.
                    rho = next_rho
                    break
            else:
                next_rho = rho - 1
            if recorder is not None and next_rho >= rho_t:
                recorder.count("rc.reuse_fallbacks")
                recorder.event(
                    "rc_fallback", flow=request.flow_id,
                    hop=request.hop_index, from_rho=_jsonable_rho(rho),
                    to_rho=_jsonable_rho(next_rho))
                if prov is not None:
                    prov.record_descent(rho, next_rho)
            rho = next_rho

        if recorder is not None and best_slot is not None \
                and best_rho != NO_REUSE:
            recorder.observe("rc.fallback_rho", int(best_rho),
                             _FALLBACK_RHO_BUCKETS)

        if self.rho_reset == RHO_RESET_FLOW:
            # Persist ρ across the flow's remaining transmissions, clamped
            # to the admissible floor: an exhausted descent exits the
            # loop at ρ_t - 1 (and the degenerate-diameter break leaves
            # ρ = λ_R < ρ_t), but Algorithm 1 keeps ρ monotone
            # non-increasing within a flow and never below ρ_t — in
            # particular a flow never retries ρ = ∞ after a descent ran
            # dry.
            self._rho = max(rho, rho_t)
        else:
            self._rho = NO_REUSE
        if best_slot is None:
            return None
        return probe.cell(best_slot, best_rho)


class _ReferenceProbe:
    """Per-ρ probe through the paper's ``findSlot`` and
    ``calculateLaxity`` — the reference oracle the vector probe must
    match.  ``find_slot`` counts and narrates its own probes."""

    __slots__ = ("schedule", "reuse_graph", "request", "earliest",
                 "remaining", "offset_rule", "_offset")

    def __init__(self, policy: ConservativeReusePolicy, schedule: Schedule,
                 reuse_graph: ChannelReuseGraph,
                 request: TransmissionRequest, earliest: int,
                 remaining: Sequence[TransmissionRequest], recorder):
        self.schedule = schedule
        self.reuse_graph = reuse_graph
        self.request = request
        self.earliest = earliest
        self.remaining = remaining
        self.offset_rule = policy.offset_rule
        self._offset = -1

    def find(self, rho: float) -> Optional[int]:
        """Earliest feasible slot at ``rho``, or None."""
        found = find_slot(self.schedule, self.reuse_graph, self.request,
                          rho, self.earliest, self.offset_rule)
        if found is None:
            return None
        slot, self._offset = found
        return slot

    def laxity(self, slot: int) -> int:
        """Equation 1 for a placement at ``slot``."""
        return calculate_laxity(self.schedule, slot,
                                self.request.deadline_slot, self.remaining)

    def cell(self, slot: int, rho: float) -> Tuple[int, int]:
        """The chosen cell: the descent's best placement is always its
        last successful probe."""
        return (slot, self._offset)


class _VectorProbe:
    """Per-ρ probe against precomputed windows (vector kernel).

    The reference probe re-runs ``findSlot`` and ``calculateLaxity`` at
    every ρ; with the vectorized kernel the per-call work is tiny but
    the call overhead is not.  Here every finite-ρ probe is one
    ``searchsorted`` into a running maximum of the link's best eligible
    reuse distance, built once per placement.  Laxity is evaluated
    directly for the first probe (the common immediate accept); if the
    descent continues, Equation 1 becomes a suffix-cumsum lookup so
    every further probe costs O(1).  Both pick the earliest feasible
    slot per ρ, so placements are identical; with a live recorder the
    probe also reports the counters and provenance ``find_slot`` would.
    """

    __slots__ = ("policy", "schedule", "reuse_graph", "request",
                 "earliest", "deadline", "width", "recorder", "n_rem",
                 "senders", "receivers", "eligible", "prefix", "lax",
                 "probes")

    def __init__(self, policy: ConservativeReusePolicy, schedule: Schedule,
                 reuse_graph: ChannelReuseGraph,
                 request: TransmissionRequest, earliest: int,
                 remaining: Sequence[TransmissionRequest], recorder):
        self.policy = policy
        self.schedule = schedule
        self.reuse_graph = reuse_graph
        self.request = request
        self.earliest = earliest
        self.deadline = request.deadline_slot
        self.width = self.deadline - earliest + 1
        self.recorder = recorder
        self.n_rem = n_rem = len(remaining)
        if not n_rem:
            self.senders = self.receivers = None
        elif isinstance(remaining, RequestWindow):
            self.senders = remaining.senders
            self.receivers = remaining.receivers
        else:
            self.senders = np.fromiter((r.sender for r in remaining),
                                       dtype=np.intp, count=n_rem)
            self.receivers = np.fromiter((r.receiver for r in remaining),
                                         dtype=np.intp, count=n_rem)
        self.eligible = None  # ~conflict mask over the window
        self.prefix = None    # running max of best eligible distance
        self.lax = None       # Eq. 1 lookup, built on the second probe
        self.probes = 0       # laxity evaluations so far

    def find(self, rho: float) -> Optional[int]:
        """Earliest feasible slot at ``rho``, or None."""
        request = self.request
        slot = None
        if self.width <= 0:
            pass  # the window closed before it opened
        elif rho == NO_REUSE:
            free = self.schedule.nr_candidate_slots(
                request.sender, request.receiver, self.earliest,
                self.deadline)
            rel = int(free.argmax())
            if free[rel]:
                slot = self.earliest + rel
        else:
            if self.prefix is None:
                if self.policy.offset_rule not in (OFFSET_FIRST,
                                                   OFFSET_LEAST_LOADED):
                    raise ValueError(
                        f"unknown offset rule: {self.policy.offset_rule}")
                self.eligible = ~self.schedule.conflict_mask(
                    request.sender, request.receiver, self.earliest,
                    self.deadline)
                best = _kernel.best_reuse_distance(
                    self.schedule, self.reuse_graph, request.sender,
                    request.receiver, self.earliest, self.deadline)
                self.prefix = np.maximum.accumulate(
                    np.where(self.eligible, best, np.int32(-1)))
            # prefix is non-decreasing, so the earliest slot whose best
            # distance reaches ρ is a binary search away.
            pos = int(self.prefix.searchsorted(rho, side="left"))
            if pos < self.width:
                slot = self.earliest + pos
        if self.recorder is not None:
            self._report(rho, slot)
        return slot

    def _report(self, rho: float, slot: Optional[int]) -> None:
        """Count and narrate one probe exactly as ``find_slot`` does."""
        recorder = self.recorder
        recorder.count("scheduler.placements_tried")
        if self.width > 0:
            end = self.width if slot is None else slot - self.earliest + 1
            scanned = (end if rho == NO_REUSE
                       else int(np.count_nonzero(self.eligible[:end])))
            if scanned:
                recorder.count("scheduler.slots_scanned", scanned)
        prov = recorder.provenance
        if prov is not None:
            result = None if slot is None else self.cell(slot, rho)
            prov.record_probe(self.schedule, self.reuse_graph,
                              self.request, rho, self.earliest,
                              self.policy.offset_rule, result)

    def laxity(self, slot: int) -> int:
        """Equation 1 for a placement at ``slot``."""
        deadline = self.deadline
        n_rem = self.n_rem
        if n_rem == 0:
            return deadline - slot
        if self.lax is None and self.probes == 0 \
                and not self.policy._table_hint:
            # One-slot evaluation for the common first-probe accept;
            # the lookup table only pays off on descent.
            window = self.schedule.busy_matrix()[:, slot + 1:deadline + 1]
            laxity = (deadline - slot - n_rem
                      - int(np.count_nonzero(window[self.senders]
                                             | window[self.receivers])))
        else:
            if self.lax is None:
                earliest = self.earliest
                window = self.schedule.busy_matrix()[
                    :, earliest:deadline + 1]
                blocked = (window[self.senders]
                           | window[self.receivers]).sum(axis=0)
                lax = ((deadline - earliest - n_rem)
                       - np.arange(self.width, dtype=np.int64))
                # lax[i] -= sum(blocked[i+1:]) via a reversed
                # cumulative sum (the last slot has no suffix).
                lax[:-1] -= blocked[1:][::-1].cumsum()[::-1]
                self.lax = lax
            laxity = int(self.lax[slot - self.earliest])
        self.probes += 1
        self.policy._table_hint = self.probes > 1
        return laxity

    def cell(self, slot: int, rho: float) -> Tuple[int, int]:
        """The chosen (slot, offset) for a slot feasible at ``rho``."""
        return (slot, pick_offset(self.schedule, self.reuse_graph,
                                  self.request.sender,
                                  self.request.receiver, slot, rho,
                                  self.policy.offset_rule))
