"""Vectorized kernel vs scalar reference: exact-equivalence tests.

The vector kernel (incremental per-link distance stacks, RC's fused
ρ-descent probe) must be bit-for-bit interchangeable with the scalar reference
path — same feasible offsets, same ``find_slot`` answers, same final
schedules, same work counters.  These tests drive both implementations
over seeded randomized schedules and full scheduler runs and demand
exact agreement.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.core.constraints import (
    NO_REUSE,
    feasible_offsets,
    feasible_offsets_scalar,
)
from repro.core.kernel import (
    KERNEL_SCALAR,
    KERNEL_VECTOR,
    kernel_mode,
    min_reuse_distance,
)
from repro.core.rc import (
    ConservativeReusePolicy,
    RHO_RESET_FLOW,
    RHO_RESET_TRANSMISSION,
)
from repro.core.reschedule import reschedule_without_reuse_on
from repro.core.schedule import Schedule
from repro.core.scheduler import (
    FixedPriorityScheduler,
    OFFSET_FIRST,
    OFFSET_LEAST_LOADED,
    find_slot,
)
from repro.core.transmissions import TransmissionRequest
from repro.experiments.common import (
    build_workload,
    make_policy,
    prepare_network,
)
from repro.flows.generator import PeriodRange
from repro.network.graphs import ChannelReuseGraph
from repro.obs.provenance import ProvenanceRecorder
from repro.routing.traffic import TrafficType

NUM_SLOTS = 40
NUM_OFFSETS = 3


def _random_schedule(reuse_graph: ChannelReuseGraph, seed: int,
                     density: float = 0.5):
    """A seeded random schedule over the reuse graph's nodes.

    Fills cells with random non-node-conflicting transmissions so the
    occupancy exercises empty cells, single occupants, and reuse stacks.
    """
    num_nodes = reuse_graph.num_nodes
    rng = np.random.default_rng(seed)
    schedule = Schedule(num_nodes, NUM_SLOTS, NUM_OFFSETS)
    counter = 0
    for slot in range(NUM_SLOTS):
        busy = set()
        for offset in range(NUM_OFFSETS):
            occupants = rng.integers(0, 3) if rng.random() < density else 0
            for _ in range(occupants):
                sender, receiver = rng.choice(num_nodes, size=2,
                                              replace=False)
                if sender in busy or receiver in busy:
                    continue
                busy.update((int(sender), int(receiver)))
                schedule.add(
                    TransmissionRequest(
                        flow_id=0, instance=0, hop_index=0, attempt=counter,
                        sender=int(sender), receiver=int(receiver),
                        release_slot=0, deadline_slot=NUM_SLOTS - 1),
                    slot, offset)
                counter += 1
    return schedule


def _links(reuse_graph: ChannelReuseGraph, rng, count: int):
    pairs = []
    for _ in range(count):
        sender, receiver = rng.choice(reuse_graph.num_nodes, size=2,
                                      replace=False)
        pairs.append((int(sender), int(receiver)))
    return pairs


@pytest.fixture(scope="module")
def reuse_graph(topology_builder):
    """A reuse graph with non-trivial hop diversity (weak shortcuts)."""
    links = [(i, i + 1) for i in range(7)]
    topology = topology_builder(8, links, weak_links=[(0, 2), (4, 6)])
    return ChannelReuseGraph.from_topology(topology)


class TestFeasibleOffsets:
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_scalar_on_random_schedules(self, reuse_graph, seed):
        schedule = _random_schedule(reuse_graph, seed)
        rng = np.random.default_rng(100 + seed)
        rhos = [2, 3, reuse_graph.diameter(), NO_REUSE]
        for sender, receiver in _links(reuse_graph, rng, 12):
            for slot in rng.choice(NUM_SLOTS, size=8, replace=False):
                for rho in rhos:
                    expected = feasible_offsets_scalar(
                        schedule, reuse_graph, sender, receiver,
                        int(slot), rho)
                    with kernel_mode(KERNEL_VECTOR):
                        got = feasible_offsets(
                            schedule, reuse_graph, sender, receiver,
                            int(slot), rho)
                    assert got == expected, (
                        f"rho={rho} slot={slot} link=({sender},{receiver})")

    def test_distance_view_tracks_additions(self, reuse_graph):
        schedule = _random_schedule(reuse_graph, seed=9)
        view = min_reuse_distance(schedule, reuse_graph, 0, 7,
                                  0, NUM_SLOTS - 1)
        before = view.copy()
        schedule.add(
            TransmissionRequest(0, 0, 0, 0, sender=3, receiver=4,
                                release_slot=0,
                                deadline_slot=NUM_SLOTS - 1),
            5, 0)
        # The incrementally-maintained view reflects the new occupant.
        assert view[5, 0] <= before[5, 0]
        expected = feasible_offsets_scalar(schedule, reuse_graph, 0, 7, 5, 2)
        assert np.flatnonzero(view[5] >= 2).tolist() == expected


class TestFindSlot:
    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("offset_rule",
                             [OFFSET_FIRST, OFFSET_LEAST_LOADED])
    def test_matches_scalar(self, reuse_graph, seed, offset_rule):
        rng = np.random.default_rng(200 + seed)
        rhos = [2, 3, reuse_graph.diameter(), NO_REUSE]
        for schedule_seed in range(2):
            results = {}
            for kernel in (KERNEL_SCALAR, KERNEL_VECTOR):
                schedule = _random_schedule(reuse_graph,
                                            1000 + schedule_seed)
                rng_k = np.random.default_rng(300 + seed)
                answers = []
                with kernel_mode(kernel):
                    for sender, receiver in _links(reuse_graph, rng_k, 10):
                        earliest = int(rng_k.integers(0, NUM_SLOTS))
                        deadline = int(rng_k.integers(earliest, NUM_SLOTS))
                        request = TransmissionRequest(
                            0, 0, 0, 0, sender, receiver,
                            release_slot=0, deadline_slot=deadline)
                        for rho in rhos:
                            answers.append(find_slot(
                                schedule, reuse_graph, request, rho,
                                earliest, offset_rule))
                results[kernel] = answers
            assert results[KERNEL_SCALAR] == results[KERNEL_VECTOR]


class TestRcClosedWindow:
    def test_exhausted_descent_matches_reference(self, reuse_graph):
        """earliest > deadline: every probe misses, and both kernels
        walk the same descent, persist the same clamped ρ, and record
        the same counters and provenance."""
        request = TransmissionRequest(0, 0, 0, 0, sender=0, receiver=7,
                                      release_slot=0, deadline_slot=5)
        outcomes = {}
        for kernel in (KERNEL_SCALAR, KERNEL_VECTOR):
            schedule = _random_schedule(reuse_graph, seed=3)
            policy = ConservativeReusePolicy(rho_t=2,
                                             rho_reset=RHO_RESET_FLOW)
            prov = ProvenanceRecorder()
            with kernel_mode(kernel), \
                    obs.recording(obs.Recorder(provenance=prov)) as rec:
                prov.begin_decision("RC", request, 6)
                placed = policy.place(schedule, reuse_graph, request, 6, [])
                prov.end_decision(placed)
            outcomes[kernel] = (placed, policy._rho,
                                rec.snapshot()["counters"], prov.records())
        assert outcomes[KERNEL_SCALAR] == outcomes[KERNEL_VECTOR]
        placed, rho, counters, _ = outcomes[KERNEL_VECTOR]
        assert placed is None and rho == 2
        assert counters["rc.reuse_fallbacks"] > 0


def _run_signature(network, flow_set, policy_name, kernel, rho_t=2,
                   **policy_kwargs):
    """(placements, counters) of one scheduler run under a kernel."""
    policy = make_policy(policy_name, rho_t)
    for key, value in policy_kwargs.items():
        setattr(policy, key, value)
    scheduler = FixedPriorityScheduler(
        num_nodes=network.topology.num_nodes,
        num_offsets=network.num_channels,
        reuse_graph=network.reuse, policy=policy)
    with kernel_mode(kernel), obs.recording() as recorder:
        result = scheduler.run(flow_set)
    placements = None
    if result.schedule is not None:
        placements = [
            (e.request.flow_id, e.request.instance, e.request.hop_index,
             e.request.attempt, e.slot, e.offset)
            for e in result.schedule.entries]
    counters = recorder.snapshot()["counters"]
    deterministic = {name: value for name, value in counters.items()
                     if name.startswith(("scheduler.", "policy.", "rc."))}
    return result.schedulable, placements, deterministic


@pytest.fixture(scope="module")
def figure1_workload(indriya):
    topology, _ = indriya
    network = prepare_network(topology, num_channels=4)
    flow_set = build_workload(network, 18, PeriodRange(0, 4),
                              TrafficType.CENTRALIZED,
                              np.random.default_rng(5))
    return network, flow_set


class TestFullRunEquivalence:
    @pytest.mark.parametrize("policy_name", ["NR", "RA", "RC"])
    def test_policies_match_scalar(self, figure1_workload, policy_name):
        network, flow_set = figure1_workload
        scalar = _run_signature(network, flow_set, policy_name,
                                KERNEL_SCALAR)
        vector = _run_signature(network, flow_set, policy_name,
                                KERNEL_VECTOR)
        assert scalar == vector

    @pytest.mark.parametrize("rho_reset",
                             [RHO_RESET_TRANSMISSION, RHO_RESET_FLOW])
    @pytest.mark.parametrize("offset_rule",
                             [OFFSET_FIRST, OFFSET_LEAST_LOADED])
    def test_rc_variants_match_scalar(self, figure1_workload, rho_reset,
                                      offset_rule):
        network, flow_set = figure1_workload
        scalar = _run_signature(network, flow_set, "RC", KERNEL_SCALAR,
                                rho_reset=rho_reset,
                                offset_rule=offset_rule)
        vector = _run_signature(network, flow_set, "RC", KERNEL_VECTOR,
                                rho_reset=rho_reset,
                                offset_rule=offset_rule)
        assert scalar == vector

    def test_rc_under_recorder_skips_stepwise_path(self, figure1_workload,
                                                   monkeypatch):
        """A live recorder observes the vector probe; it never switches
        RC to the findSlot/calculateLaxity loop, and the schedule equals
        the recorder-off run for both ρ reset scopes."""
        import repro.core.rc as rc_module

        network, flow_set = figure1_workload
        for rho_reset in (RHO_RESET_TRANSMISSION, RHO_RESET_FLOW):
            def run():
                scheduler = FixedPriorityScheduler(
                    num_nodes=network.topology.num_nodes,
                    num_offsets=network.num_channels,
                    reuse_graph=network.reuse,
                    policy=ConservativeReusePolicy(rho_t=2,
                                                   rho_reset=rho_reset))
                with kernel_mode(KERNEL_VECTOR):
                    result = scheduler.run(flow_set)
                return [(e.request.flow_id, e.request.instance,
                         e.request.hop_index, e.request.attempt, e.slot,
                         e.offset) for e in result.schedule.entries]

            off = run()
            stepwise_calls = []
            with monkeypatch.context() as patch:
                for name in ("find_slot", "calculate_laxity"):
                    patch.setattr(rc_module, name,
                                  lambda *args, name=name, **kwargs:
                                  stepwise_calls.append(name))
                with obs.recording() as recorder:
                    on = run()
            assert stepwise_calls == []
            assert on == off
            # The descent really ran below ρ = ∞ while recorded.
            counters = recorder.snapshot()["counters"]
            assert counters["rc.reuse_fallbacks"] > 0


def _reschedule_signature(network, flow_set, victims, kernel,
                          policy_name="RA", rho_t=2):
    """(schedulable, placements, counters) of a barrier rebuild."""
    policy = make_policy(policy_name, rho_t)
    with kernel_mode(kernel), obs.recording() as recorder:
        result = reschedule_without_reuse_on(
            flow_set, network.topology.num_nodes, network.num_channels,
            network.reuse, policy, victims)
    placements = None
    if result.schedule is not None:
        placements = [
            (e.request.flow_id, e.request.instance, e.request.hop_index,
             e.request.attempt, e.slot, e.offset)
            for e in result.schedule.entries]
    counters = recorder.snapshot()["counters"]
    deterministic = {name: value for name, value in counters.items()
                     if name.startswith(("scheduler.", "policy.", "rc."))}
    return result.schedulable, placements, deterministic


class TestRescheduleEquivalence:
    """The manager's rebuild path must match across kernels bit-for-bit."""

    @pytest.fixture(scope="class")
    def victims(self, figure1_workload):
        network, flow_set = figure1_workload
        scheduler = FixedPriorityScheduler(
            num_nodes=network.topology.num_nodes,
            num_offsets=network.num_channels,
            reuse_graph=network.reuse, policy=make_policy("RA", 2))
        with kernel_mode(KERNEL_SCALAR):
            result = scheduler.run(flow_set)
        assert result.schedulable
        reuse_links = result.schedule.reuse_links()
        assert reuse_links, "workload must exercise channel reuse"
        return tuple(reuse_links[:3])

    @pytest.mark.parametrize("policy_name", ["RA", "RC"])
    def test_barrier_rebuild_matches_scalar(self, figure1_workload,
                                            victims, policy_name):
        network, flow_set = figure1_workload
        scalar = _reschedule_signature(network, flow_set, victims,
                                       KERNEL_SCALAR, policy_name)
        vector = _reschedule_signature(network, flow_set, victims,
                                       KERNEL_VECTOR, policy_name)
        assert scalar == vector

    def test_no_victims_matches_plain_run(self, figure1_workload):
        """An empty barrier is placement-equivalent to the inner policy."""
        network, flow_set = figure1_workload
        _, plain, _ = _run_signature(network, flow_set, "RA",
                                     KERNEL_VECTOR)
        _, barred, _ = _reschedule_signature(network, flow_set, (),
                                             KERNEL_VECTOR)
        assert barred == plain

    def test_victims_leave_shared_cells(self, figure1_workload, victims):
        network, flow_set = figure1_workload
        policy = make_policy("RA", 2)
        with kernel_mode(KERNEL_VECTOR):
            result = reschedule_without_reuse_on(
                flow_set, network.topology.num_nodes,
                network.num_channels, network.reuse, policy, victims)
        assert result.schedulable
        barred = set(victims) | {(v, u) for u, v in victims}
        assert not barred & set(result.schedule.reuse_links())


# ----------------------------------------------------------------------
# Crossover-aware auto kernel
# ----------------------------------------------------------------------

from repro.core.kernel import (  # noqa: E402 (grouped with their tests)
    KERNEL_AUTO,
    RA_CROSSOVER_REQUESTS,
    active_kernel,
    resolve_kernel,
    set_kernel,
)


class TestResolveKernel:
    def test_concrete_modes_win_unchanged(self):
        with kernel_mode(KERNEL_SCALAR):
            assert resolve_kernel("RC", 10 ** 9) == KERNEL_SCALAR
        with kernel_mode(KERNEL_VECTOR):
            assert resolve_kernel("RA", 1) == KERNEL_VECTOR

    def test_auto_ra_crossover(self):
        with kernel_mode(KERNEL_AUTO):
            assert resolve_kernel(
                "RA", RA_CROSSOVER_REQUESTS - 1) == KERNEL_SCALAR
            assert resolve_kernel(
                "RA", RA_CROSSOVER_REQUESTS) == KERNEL_VECTOR

    def test_auto_rc_stays_vector_nr_stays_scalar(self):
        # RC amortizes the distance rows across its ρ fallbacks at any
        # size; NR never queries them, so scalar is the no-op choice.
        with kernel_mode(KERNEL_AUTO):
            assert resolve_kernel("RC", 1) == KERNEL_VECTOR
            assert resolve_kernel("RC", 10 ** 9) == KERNEL_VECTOR
            assert resolve_kernel("NR", 1) == KERNEL_SCALAR
            assert resolve_kernel("NR", 10 ** 9) == KERNEL_SCALAR

    def test_set_kernel_accepts_auto_and_rejects_junk(self):
        previous = active_kernel()
        try:
            set_kernel(KERNEL_AUTO)
            assert active_kernel() == KERNEL_AUTO
        finally:
            set_kernel(previous)
        with pytest.raises(ValueError, match="unknown kernel mode"):
            set_kernel("quantum")


class TestAutoRunEquivalence:
    @pytest.mark.parametrize("policy_name", ["NR", "RA", "RC"])
    def test_auto_matches_fixed_kernels(self, figure1_workload,
                                        policy_name):
        """Whatever auto resolves to, the schedule and work counters are
        bit-identical to both fixed kernels (which already match)."""
        network, flow_set = figure1_workload
        fixed = _run_signature(network, flow_set, policy_name,
                               KERNEL_SCALAR)
        auto = _run_signature(network, flow_set, policy_name, KERNEL_AUTO)
        assert auto == fixed

    def test_auto_is_resolved_before_the_run(self, figure1_workload):
        """scheduler.run under auto scopes a concrete kernel; the global
        mode is restored afterwards."""
        network, flow_set = figure1_workload
        scheduler = FixedPriorityScheduler(
            num_nodes=network.topology.num_nodes,
            num_offsets=network.num_channels,
            reuse_graph=network.reuse, policy=make_policy("RA", 2))
        with kernel_mode(KERNEL_AUTO):
            result = scheduler.run(flow_set)
            assert active_kernel() == KERNEL_AUTO
        assert result.schedulable

    def test_resolve_auto_estimates_requests(self, figure1_workload):
        """The workload estimate is instances x route hops x attempts,
        and this Figure-1 workload sits below the RA crossover."""
        network, flow_set = figure1_workload
        scheduler = FixedPriorityScheduler(
            num_nodes=network.topology.num_nodes,
            num_offsets=network.num_channels,
            reuse_graph=network.reuse, policy=make_policy("RA", 2))
        hyperperiod = flow_set.hyperperiod()
        expected = sum(
            (hyperperiod // flow.period_slots) * len(flow.links)
            * scheduler.attempts_per_link
            for flow in flow_set)
        assert expected < RA_CROSSOVER_REQUESTS
        with kernel_mode(KERNEL_AUTO):
            assert scheduler._resolve_auto(flow_set) == KERNEL_SCALAR
        with kernel_mode(KERNEL_AUTO):
            rc = FixedPriorityScheduler(
                num_nodes=network.topology.num_nodes,
                num_offsets=network.num_channels,
                reuse_graph=network.reuse, policy=make_policy("RC", 2))
            assert rc._resolve_auto(flow_set) == KERNEL_VECTOR
