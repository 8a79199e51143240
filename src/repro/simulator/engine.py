"""Slot-driven discrete-event execution of a TSCH schedule.

The simulator replays a computed schedule against the ground-truth RF
environment of a synthetic testbed:

* Channel hopping is applied per slot (``logical = (ASN + offset) mod M``),
  so a cell visits different physical channels in different repetitions.
* A scheduled transmission is *active* only when its packet is actually
  waiting at the sender — if the primary attempt on a hop succeeded, the
  reserved retransmission cell stays silent (source routing semantics).
* Reception is SINR-based: concurrent same-channel transmitters and any
  active WiFi interferers add power at the receiver, and the
  802.15.4 PRR curve (capture effect included) decides success.
* An optional :class:`~repro.simulator.conditions.Conditions` overlay
  mutates the environment for one run — extra interferers, per-pair
  attenuation, amplified reuse interference, dark nodes — which is how
  the network manager injects faults between health-report epochs.

Two engines execute the same model (``engine="slot" | "event" | "auto"``):

* **slot** — the pure-python oracle in this module: one repetition at a
  time, one entry at a time.
* **event** — the batched engine in :mod:`repro.simulator.events`: all
  repetitions advance together through vectorized numpy passes over the
  scheduled slots.

Both consume the same pinned draw plan (:class:`repro.simulator.events.
DrawPlan`): repetition ``g = start_repetition + r`` owns the substream
``np.random.default_rng([seed, g])`` and every draw has a fixed,
outcome-independent position, so the engines agree bit-for-bit on stats
and a run may be split across epochs (or batch chunks) without changing
a single outcome.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.schedule import Schedule
from repro.flows.flow import FlowSet
from repro.mac.channels import ChannelMap
from repro.obs import recorder as _obs
from repro.obs.spans import stage
from repro.simulator.conditions import Conditions
from repro.simulator.events import (
    DrawPlan,
    build_draw_plan,
    default_chunk_size,
    repetition_draws,
    run_event_batched,
)
from repro.simulator.interference import WifiInterferer
from repro.propagation.prr_model import get_prr_curve
from repro.simulator.radio import sinr_at_receiver
from repro.simulator.stats import SimulationStats
from repro.testbeds.synth import RadioEnvironment

#: Engine names accepted by :meth:`TschSimulator.run` and
#: :class:`SimulationConfig.engine`.
ENGINE_SLOT = "slot"
ENGINE_EVENT = "event"
ENGINE_AUTO = "auto"
ENGINES = (ENGINE_SLOT, ENGINE_EVENT, ENGINE_AUTO)

#: Below this many repetitions the batched engine's per-slot array setup
#: costs more than it saves (measured breakeven is 3-4 repetitions on
#: WUSTL-sized schedules at 20-80 flows); ``auto`` keeps short probes on
#: the python oracle.
EVENT_MIN_REPETITIONS = 4


def resolve_engine(engine: str, repetitions: int) -> str:
    """Resolve an engine request to a concrete engine name.

    ``auto`` batches whenever the run has enough repetitions to amortize
    array setup; explicit names pass through.
    """
    if engine == ENGINE_SLOT or engine == ENGINE_EVENT:
        return engine
    if engine != ENGINE_AUTO:
        raise ValueError(
            f"engine must be one of {ENGINES}, got {engine!r}")
    if repetitions >= EVENT_MIN_REPETITIONS:
        return ENGINE_EVENT
    return ENGINE_SLOT


@dataclass(frozen=True)
class SimulationConfig:
    """Knobs for schedule execution.

    Attributes:
        seed: Seed for all stochastic draws (fading, reception, interferer
            activity).  Repetition ``g`` draws from the substream
            ``default_rng([seed, g])`` where ``g`` is the *global*
            repetition index (``start_repetition + r``), so outcomes
            depend only on ``(seed, g)`` — not on how a run is split
            across epochs or batches.
        fast_fading_sigma_db: Per-attempt multipath fading applied to
            every signal and interference power.
        slow_fading_sigma_db: Per-repetition, per-node-pair gain drift —
            links drift between the topology-collection phase and run
            time, over timescales longer than one hyperperiod.
        frame_bytes: Frame size for the PRR lookup (defaults to the
            environment's).
        engine: Execution engine — ``"slot"`` (python oracle),
            ``"event"`` (batched numpy), or ``"auto"`` (pick by
            repetition count).  Engines produce bit-identical stats;
            this only trades wall time.

    Consistency contract: the testbed's *measured* PRRs are expectations
    of the raw 802.15.4 curve over fading
    (:class:`repro.propagation.prr_model.PrrCurve` smoothing), so the
    environment's ``grey_sigma_db`` should equal
    ``sqrt(fast² + slow²)`` of the simulation config.  The defaults
    (3.0, 2.0 → 3.6) are matched to
    :class:`repro.testbeds.synth.SynthesisParams`.  Under that contract a
    link simulated in clean air converges to its measured PRR.
    """

    seed: int = 0
    fast_fading_sigma_db: float = 3.0
    slow_fading_sigma_db: float = 2.0
    frame_bytes: Optional[int] = None
    engine: str = ENGINE_AUTO

    def __post_init__(self) -> None:
        if self.engine not in ENGINES:
            raise ValueError(
                f"engine must be one of {ENGINES}, got {self.engine!r}")

    def total_fading_sigma_db(self) -> float:
        """Aggregate long-run fading spread (for the consistency contract)."""
        return float(np.hypot(self.fast_fading_sigma_db,
                              self.slow_fading_sigma_db))


@dataclass(frozen=True)
class _CompiledEntry:
    """A scheduled transmission, pre-resolved for the hot loop."""

    sender: int
    receiver: int
    offset: int
    flow_id: int
    instance: int
    hop_index: int
    shared_cell: bool


#: Compiled-entry cache: schedule -> (entry count, compiled dict).  The
#: manager loop re-instantiates a simulator every epoch (conditions
#: change) against the *same* schedule object; compiling once per
#: schedule instead of once per simulator keeps the epoch loop cheap.
#: Keyed weakly so dropped schedules free their compilation, and guarded
#: by the entry count so a mutated schedule (``Schedule.add`` only ever
#: appends) recompiles instead of serving stale cells.  A reschedule
#: produces a brand-new Schedule object, which misses the cache by
#: identity — invalidation is automatic.
_COMPILE_CACHE: "weakref.WeakKeyDictionary[Schedule, Tuple[int, Dict[int, List[_CompiledEntry]]]]" = (
    weakref.WeakKeyDictionary())

#: Draw-plan cache: schedule -> {(entry count, interferer count): plan}.
#: The plan depends only on the compiled entries and how many interferers
#: the simulator carries (conditions may add some), so epochs that differ
#: only in attenuation/dark-node overlays share one plan.
_PLAN_CACHE: "weakref.WeakKeyDictionary[Schedule, Dict[Tuple[int, int], DrawPlan]]" = (
    weakref.WeakKeyDictionary())


def _compile(schedule: Schedule) -> Dict[int, List[_CompiledEntry]]:
    """Pre-resolve schedule entries per slot for the hot loop."""
    compiled: Dict[int, List[_CompiledEntry]] = {}
    shared_cells = {(s, c) for s, c, txs in schedule.occupied_cells()
                    if len(txs) > 1}
    for slot, entries in schedule.entries_by_slot().items():
        compiled[slot] = [
            _CompiledEntry(
                sender=e.request.sender,
                receiver=e.request.receiver,
                offset=e.offset,
                flow_id=e.request.flow_id,
                instance=e.request.instance,
                hop_index=e.request.hop_index,
                shared_cell=(slot, e.offset) in shared_cells,
            )
            for e in entries
        ]
    return compiled


def compiled_entries(schedule: Schedule) -> Dict[int, List[_CompiledEntry]]:
    """The schedule's compiled per-slot entries, cached across simulators."""
    cached = _COMPILE_CACHE.get(schedule)
    if cached is not None and cached[0] == len(schedule):
        return cached[1]
    compiled = _compile(schedule)
    _COMPILE_CACHE[schedule] = (len(schedule), compiled)
    return compiled


def _draw_plan(schedule: Schedule,
               compiled: Dict[int, List[_CompiledEntry]],
               num_interferers: int) -> DrawPlan:
    """The schedule's draw plan, cached alongside the compilation."""
    plans = _PLAN_CACHE.get(schedule)
    if plans is None:
        plans = {}
        _PLAN_CACHE[schedule] = plans
    key = (len(schedule), num_interferers)
    plan = plans.get(key)
    if plan is None:
        plan = build_draw_plan(compiled, num_interferers)
        plans[key] = plan
    return plan


class TschSimulator:
    """Executes a schedule repeatedly and collects delivery statistics.

    Args:
        schedule: The computed transmission schedule.
        flow_set: The routed flows the schedule serves.
        environment: Ground-truth RF environment of the testbed.
        channel_map: The channels the network actually hops over (the
            restricted map used when building the schedule, e.g. channels
            11-14 for the reliability experiments).
        interferers: Optional external WiFi interferers.
        interferer_rssi_dbm: ``(num_interferers, num_nodes)`` received
            in-band power of each interferer at each node; required when
            ``interferers`` is non-empty (see
            :func:`repro.simulator.interference.interferer_rssi_matrix`).
        config: Execution parameters.
        conditions: Optional environment overlay for this simulator's
            runs (fault injection; see
            :mod:`repro.simulator.conditions`).  ``None`` keeps the
            pristine environment and the exact legacy behaviour.
    """

    def __init__(self, schedule: Schedule, flow_set: FlowSet,
                 environment: RadioEnvironment, channel_map: ChannelMap,
                 interferers: Sequence[WifiInterferer] = (),
                 interferer_rssi_dbm: Optional[np.ndarray] = None,
                 config: SimulationConfig = SimulationConfig(),
                 conditions: Optional[Conditions] = None):
        if interferers and interferer_rssi_dbm is None:
            raise ValueError(
                "interferer_rssi_dbm is required when interferers are given")
        if interferer_rssi_dbm is not None and interferers:
            expected = (len(interferers), environment.num_nodes)
            if interferer_rssi_dbm.shape != expected:
                raise ValueError(
                    f"interferer_rssi_dbm has shape "
                    f"{interferer_rssi_dbm.shape}, expected {expected}")

        self.schedule = schedule
        self.flow_set = flow_set
        self.environment = environment
        self.channel_map = channel_map
        self.config = config
        self.conditions = conditions if conditions is not None else Conditions()

        # Merge condition-injected interferers behind the base ones so
        # the per-slot activity draws stay in a deterministic order.
        self.interferers = (list(interferers)
                            + list(self.conditions.extra_interferers))
        extra_rssi = self.conditions.extra_interferer_rssi_dbm
        if extra_rssi is not None and interferer_rssi_dbm is not None:
            self.interferer_rssi_dbm = np.vstack(
                [interferer_rssi_dbm, extra_rssi])
        elif extra_rssi is not None:
            self.interferer_rssi_dbm = extra_rssi
        else:
            self.interferer_rssi_dbm = interferer_rssi_dbm

        self._hyperperiod = flow_set.hyperperiod()
        self._num_offsets = schedule.num_offsets
        self._flow_hops = {f.flow_id: f.num_hops for f in flow_set}
        self._instances_per_flow = {
            f.flow_id: self._hyperperiod // f.period_slots for f in flow_set}
        # The raw (unsmoothed) curve: fading is drawn explicitly per
        # attempt, so the smoothed "measured" curve emerges in expectation.
        frame_bytes = config.frame_bytes or environment.frame_bytes
        self._lookup = get_prr_curve(frame_bytes, 0.0)

        # Physical channel -> index into the environment's RSSI tensor.
        env_index = environment.channel_map.index_map()
        self._env_channel_index = {
            ch: env_index[ch] for ch in channel_map}
        # Same mapping keyed by logical channel index, in array form for
        # the batched engine.
        self._env_of_logical = np.array(
            [env_index[channel_map.physical(logical)]
             for logical in range(len(channel_map))], dtype=np.intp)

        # Which 802.15.4 channels each interferer pollutes.
        self._interferer_channels = [set(i.affected_channels())
                                     for i in self.interferers]

        self._compiled = compiled_entries(schedule)
        self._plan = _draw_plan(schedule, self._compiled,
                                len(self.interferers))
        self._events = None  # lazy batched compilation

    # -- shared-model views consumed by the event engine ---------------

    @property
    def compiled(self) -> Dict[int, List[_CompiledEntry]]:
        """Per-slot compiled entries (the event timeline)."""
        return self._compiled

    @property
    def draw_plan(self) -> DrawPlan:
        """The pinned draw layout both engines index into."""
        return self._plan

    @property
    def hyperperiod(self) -> int:
        """Slots per repetition."""
        return self._hyperperiod

    @property
    def flow_hops(self) -> Dict[int, int]:
        """Hops per flow (delivery happens at the last one)."""
        return self._flow_hops

    @property
    def instances_per_flow(self) -> Dict[int, int]:
        """Released packet instances per flow per repetition."""
        return self._instances_per_flow

    @property
    def lookup(self):
        """The raw SINR -> PRR curve."""
        return self._lookup

    @property
    def env_of_logical(self) -> np.ndarray:
        """Logical channel index -> environment RSSI channel index."""
        return self._env_of_logical

    @property
    def interferer_channel_sets(self) -> List[set]:
        """Per-interferer sets of polluted physical channels."""
        return self._interferer_channels

    def event_tables(self):
        """Batched per-slot event arrays, compiled on first use."""
        if self._events is None:
            from repro.simulator.events import compile_events
            self._events = compile_events(self)
        return self._events

    # -- execution ------------------------------------------------------

    def run(self, repetitions: int = 100,
            start_repetition: int = 0,
            engine: Optional[str] = None,
            chunk_reps: Optional[int] = None) -> SimulationStats:
        """Execute the schedule ``repetitions`` times.

        Each repetition replays one full hyperperiod with a fresh release
        of every flow instance; the ASN keeps advancing across
        repetitions, so channel hopping visits different physical channels
        each time (as on the real network).

        Args:
            repetitions: Hyperperiods to execute.
            start_repetition: Global repetition index of the first
                hyperperiod.  The manager loop advances this across
                epochs so the ASN (and hence the hop pattern) keeps
                progressing even though each epoch builds a fresh
                simulator.  Repetition substreams are keyed on the
                global index, so splitting a run across epochs changes
                nothing.
            engine: Override the config's execution engine for this run
                (``"slot"``, ``"event"``, or ``"auto"``).
            chunk_reps: Batched-engine repetitions per chunk (memory
                knob; never changes results).  Ignored by the slot
                engine.
        """
        if repetitions <= 0:
            raise ValueError("repetitions must be positive")
        resolved = resolve_engine(
            engine if engine is not None else self.config.engine,
            repetitions)
        with stage("simulate", engine=resolved,
                   repetitions=repetitions) as span:
            if _obs.ENABLED:
                _obs.RECORDER.count(f"sim.runs.{resolved}")
            if resolved == ENGINE_EVENT:
                if span is not None:
                    chunk = chunk_reps or default_chunk_size(
                        self._plan, repetitions)
                    span.annotate(chunks=-(-repetitions // chunk))
                return run_event_batched(self, repetitions,
                                         start_repetition,
                                         chunk_reps=chunk_reps)
            return self._run(repetitions, start_repetition)

    def _run(self, repetitions: int, start_repetition: int) -> SimulationStats:
        """The slot-driven python oracle.

        Consumes the pinned draw plan positionally — no inline RNG calls
        — so its per-repetition outcomes are exactly reproducible by the
        batched event engine.
        """
        plan = self._plan
        stats = SimulationStats()
        num_logical = len(self.channel_map)
        fading_sigma = self.config.fast_fading_sigma_db
        rssi = self.environment.rssi_dbm
        noise = self.environment.noise_floor_dbm

        slow_sigma = self.config.slow_fading_sigma_db
        attenuation = self.conditions.pair_attenuation_db
        boost = self.conditions.interference_boost_db
        dark = self.conditions.dark_nodes
        num_interferers = len(self.interferers)
        duty_cycles = [i.duty_cycle for i in self.interferers]

        for repetition in range(repetitions):
            normals, uniforms = repetition_draws(
                plan, self.config.seed, start_repetition + repetition)
            record = stats.start_repetition()
            progress: Dict[Tuple[int, int], int] = {}
            # Per-repetition tallies for the observability layer; plain
            # local ints so the disabled path costs nothing measurable.
            recorder = _obs.RECORDER if _obs.ENABLED else None
            rep_attempts = rep_successes = rep_deliveries = 0
            link_outcomes: Dict[Tuple[int, int], List[int]] = {}

            for flow_id, count in self._instances_per_flow.items():
                stats.record_release(flow_id, count)

            base_asn = (start_repetition + repetition) * self._hyperperiod
            for slot_pos, slot in enumerate(plan.slots):
                entries = self._compiled[slot]
                active_flags = [
                    progress.get((entry.flow_id, entry.instance), 0)
                    == entry.hop_index
                    for entry in entries
                ]
                if not any(active_flags):
                    continue
                asn = base_asn + slot

                uniform_base = plan.uniform_offsets[slot_pos]
                active_interferers = [
                    i for i in range(num_interferers)
                    if uniforms[uniform_base + i] < duty_cycles[i]
                ]
                logicals = [(asn + entry.offset) % num_logical
                            for entry in entries]

                for entry_pos, entry in enumerate(entries):
                    if not active_flags[entry_pos]:
                        continue
                    link = (entry.sender, entry.receiver)
                    if entry.sender in dark:
                        # A powered-off sender never puts the frame on
                        # the air: the attempt fails without radiating.
                        # It is still an attempt, so the observability
                        # tallies must count it exactly like the stats
                        # record does (a dark *receiver* flows through
                        # the normal path below and is counted in both).
                        record.record(link, entry.shared_cell, False)
                        if recorder is not None:
                            rep_attempts += 1
                            link_outcomes.setdefault(link, [0, 0])[0] += 1
                        continue
                    logical = logicals[entry_pos]
                    channel = self.channel_map.physical(logical)
                    env_channel = self._env_channel_index[channel]
                    signal = (rssi[entry.sender, entry.receiver, env_channel]
                              + slow_sigma * normals[
                                  plan.drift_index(entry.sender,
                                                   entry.receiver)]
                              + fading_sigma * normals[
                                  plan.signal_fast_index(slot_pos,
                                                         entry_pos)]
                              - attenuation.get(link, 0.0))
                    interference = []
                    for other_pos, other in enumerate(entries):
                        if (other_pos == entry_pos
                                or not active_flags[other_pos]
                                or other.sender in dark
                                or logicals[other_pos] != logical):
                            continue
                        interference.append(
                            rssi[other.sender, entry.receiver, env_channel]
                            + slow_sigma * normals[
                                plan.drift_index(other.sender,
                                                 entry.receiver)]
                            + fading_sigma * normals[
                                plan.interference_fast_index(
                                    slot_pos, entry_pos, other_pos)]
                            + boost
                            - attenuation.get(
                                (other.sender, entry.receiver), 0.0))
                    for index in active_interferers:
                        if channel in self._interferer_channels[index]:
                            interference.append(
                                self.interferer_rssi_dbm[
                                    index, entry.receiver]
                                + fading_sigma * normals[
                                    plan.interferer_fast_index(
                                        slot_pos, index, entry_pos)])

                    sinr = sinr_at_receiver(signal, noise, interference)
                    if entry.receiver in dark:
                        success = False
                    else:
                        success = bool(
                            uniforms[plan.reception_uniform_index(
                                slot_pos, entry_pos)]
                            < self._lookup(sinr))
                    record.record(link, entry.shared_cell, success,
                                  channel=channel)
                    if recorder is not None:
                        rep_attempts += 1
                        rep_successes += success
                        tally = link_outcomes.setdefault(link, [0, 0])
                        tally[0] += 1
                        tally[1] += success
                    if success:
                        key = (entry.flow_id, entry.instance)
                        progress[key] = entry.hop_index + 1
                        if progress[key] == self._flow_hops[entry.flow_id]:
                            stats.record_delivery(entry.flow_id)
                            if recorder is not None:
                                rep_deliveries += 1

            if recorder is not None:
                recorder.count("sim.repetitions")
                recorder.count("sim.attempts", rep_attempts)
                recorder.count("sim.successes", rep_successes)
                recorder.count("sim.deliveries", rep_deliveries)
                recorder.event(
                    "sim_repetition", repetition=repetition,
                    attempts=rep_attempts, successes=rep_successes,
                    deliveries=rep_deliveries,
                    links={f"{s}->{r}": counts for (s, r), counts
                           in sorted(link_outcomes.items())})
        return stats
