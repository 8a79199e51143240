"""Seeded input streams for the three workloads.

Each builder is a pure function of ``(seed, ops)``: the same arguments
give the same requests (or managed-run seeds), and the program sees only
what these functions return.  The streams are *stratified* — exact verb
and shape counts, shuffled order — so that the mix a run measures is the
same for every seed.

fleet-warm serves a fixed plant of networks and maintenance-loop a fixed
list of managed-run seeds; ``--seed`` draws the order in which they are
exercised.  Drawing the plant from ``--seed`` as well made the number of
repair fallbacks (the most expensive fleet-warm op) range from 34 to 72
per run over seeds 2-9, against 44 to 53 for this plant in the orders of
those seeds.
compile-cold draws fresh workloads from ``--seed``: novel workloads are
what it measures.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List

#: fleet-warm: one shared Indriya topology, 32 networks x 50 RC flows.
FLEET_NETWORKS = 32
FLEET_FLOWS = 50
FLEET_TOPOLOGY = {"testbed": "indriya", "seed": 1, "channels": 5}
#: Per network and block: three ``schedule`` re-requests, one reschedule.
FLEET_BLOCK = ("schedule", "schedule", "schedule", "reschedule")

#: compile-cold: {NR, RA, RC} x {WUSTL 4 ch, Indriya 5 ch} x {30, 50, 70}.
COLD_POLICIES = ("NR", "RA", "RC")
COLD_TESTBEDS = (("wustl", 4), ("indriya", 5))
COLD_FLOWS = (30, 50, 70)
COLD_NAME_POOL = 8
#: Cache bound for compile-cold: set-up plus timed workloads overflow it.
COLD_CACHE_CAPACITY = 64

#: maintenance-loop: managed-run parameters (``ManagerConfig`` fields).
MAINTENANCE_CONFIG = {"scenario": "reuse-storm", "policy": "reschedule",
                      "scheduler_policy": "RA", "num_flows": 80,
                      "num_epochs": 10}

#: Smallest timed op count per workload.  fleet-warm needs 1000 for its
#: p99 and the others 100 for a p90; compile-cold's latencies spread over
#: three policies and two testbeds, so it takes 150 for a steadier
#: median.  Counts round up to whole blocks.
MIN_OPS = {"fleet-warm": 1000, "compile-cold": 150, "maintenance-loop": 100}
BLOCK = {"fleet-warm": FLEET_NETWORKS * len(FLEET_BLOCK),
         "compile-cold": len(COLD_POLICIES) * len(COLD_TESTBEDS)
         * len(COLD_FLOWS),
         "maintenance-loop": 1}
#: Nominal ops per second of ``--seconds``; the default 20 s gives the
#: minimum counts above.
RATE = {name: count / 20.0 for name, count in MIN_OPS.items()}

WORKLOADS = tuple(MIN_OPS)


def op_count(workload: str, seconds: float) -> int:
    """Timed ops for a run: fixed by ``--seconds``, never below the
    minimum, rounded up to whole blocks."""
    wanted = max(MIN_OPS[workload], round(RATE[workload] * seconds))
    block = BLOCK[workload]
    return -(-wanted // block) * block


@dataclass
class Stream:
    """One run's inputs: set-up requests and the timed sequence."""

    workload: str
    seed: int
    setup: List[Dict] = field(default_factory=list)
    timed: List[Dict] = field(default_factory=list)
    cache_capacity: int = 256


def _rng(workload: str, seed) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def fleet_warm(seed: int, ops: int) -> Stream:
    """32 networks compiled at set-up; a 3:1 mix of ``schedule``
    re-requests (cache hits) and ``reschedule victims=auto``.

    Every network receives the same number of each verb; the seed draws
    the order.
    """
    workload_seeds = _rng("fleet-warm", "plant").sample(range(1, 2 ** 31),
                                                        FLEET_NETWORKS)
    rng = _rng("fleet-warm", seed)
    configs = [dict(FLEET_TOPOLOGY, flows=FLEET_FLOWS, policy="RC",
                    traffic="p2p", workload_seed=workload_seed)
               for workload_seed in workload_seeds]
    stream = Stream("fleet-warm", seed)
    stream.setup = [{"verb": "schedule", "network": f"plant-{index}",
                     "config": config}
                    for index, config in enumerate(configs)]
    blocks = ops // (FLEET_NETWORKS * len(FLEET_BLOCK))
    pairs = [(index, verb) for index in range(FLEET_NETWORKS)
             for _ in range(blocks) for verb in FLEET_BLOCK]
    rng.shuffle(pairs)
    for index, verb in pairs:
        request = {"verb": verb, "network": f"plant-{index}"}
        if verb == "schedule":
            request["config"] = configs[index]
        else:
            request["victims"] = "auto"
        stream.timed.append(request)
    return stream


def _cold_shapes():
    return [(policy, testbed, channels, flows)
            for policy in COLD_POLICIES
            for testbed, channels in COLD_TESTBEDS
            for flows in COLD_FLOWS]


def compile_cold(seed: int, ops: int) -> Stream:
    """Every timed request compiles a never-seen workload.

    Set-up compiles each of the 18 config shapes once; the timed phase
    cycles through the shapes (each cycle a fresh shuffle) with workload
    seeds disjoint from set-up's.  Network names come from a pool of 8,
    so each request re-binds a name and invalidates its old artifact.
    """
    rng = _rng("compile-cold", seed)
    shapes = _cold_shapes()
    cycles = ops // len(shapes)
    workload_seeds = rng.sample(range(1, 2 ** 31),
                                len(shapes) * (cycles + 1))
    stream = Stream("compile-cold", seed,
                    cache_capacity=COLD_CACHE_CAPACITY)
    order = list(shapes)
    sequence = list(shapes)
    for _ in range(cycles):
        rng.shuffle(order)
        sequence.extend(order)
    for position, (policy, testbed, channels, flows) in \
            enumerate(sequence):
        request = {"verb": "schedule",
                   "network": f"cold-{position % COLD_NAME_POOL}",
                   "config": {"testbed": testbed, "seed": 1,
                              "channels": channels, "flows": flows,
                              "policy": policy, "traffic": "p2p",
                              "workload_seed": workload_seeds[position]}}
        (stream.setup if position < len(shapes)
         else stream.timed).append(request)
    return stream


def maintenance_loop(seed: int, ops: int) -> Stream:
    """One managed run per seed of a fixed list, in an order drawn from
    ``seed``; set-up warms up on a seed outside the timed list."""
    seeds = _rng("maintenance-loop", "plant").sample(range(1, 10 ** 6),
                                                     ops + 1)
    timed = seeds[:-1]
    _rng("maintenance-loop", seed).shuffle(timed)
    seeds = timed + seeds[-1:]
    return Stream("maintenance-loop", seed,
                  setup=[{"seed": seeds[-1]}],
                  timed=[{"seed": run_seed} for run_seed in seeds[:-1]])


BUILDERS = {"fleet-warm": fleet_warm, "compile-cold": compile_cold,
            "maintenance-loop": maintenance_loop}


def build(workload: str, seed: int, ops: int) -> Stream:
    return BUILDERS[workload](seed, ops)
