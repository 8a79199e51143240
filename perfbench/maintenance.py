"""maintenance-loop: managed runs through ``repro.manager.run_manager``.

Run as a script, this is the workload's program process: it imports the
program, synthesizes the WUSTL testbed, does one warm-up managed run,
prints a ready line, then waits on stdin for either ``exit`` or a JSON
``{"seeds": [...]}`` job, runs one managed run per seed (``workers=1``,
in this process), and prints one JSON result line.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time
from typing import Dict

from common import dumps
from service import peak_rss_mb
from streams import MAINTENANCE_CONFIG


def testbed():
    from repro.testbeds import WUSTL_PLAN, make_wustl

    topology, environment = make_wustl()
    return topology, environment, WUSTL_PLAN


def manager_config():
    from repro.manager import ManagerConfig

    return ManagerConfig(**MAINTENANCE_CONFIG)


def run_one(bed, config, seed: int):
    from repro.manager import run_manager

    topology, environment, plan = bed
    return run_manager(topology, environment, plan, config, seeds=[seed],
                       workers=1)[0]


def summarize(report) -> Dict:
    """What a managed run must reproduce exactly: per-epoch actions,
    repair modes and PDRs, folded into a digest, plus mix counts."""
    epochs = [[outcome.action, outcome.action_applied, outcome.repair_mode,
               outcome.median_pdr, outcome.worst_pdr]
              for outcome in report.epochs]
    digest = hashlib.sha256(json.dumps(epochs).encode("utf-8")).hexdigest()
    modes = [outcome.repair_mode for outcome in report.epochs
             if outcome.action_applied]
    return {"seed": report.seed, "digest": digest,
            "repairs": modes.count("repair"),
            "rebuilds": modes.count("rebuild"),
            "actions_applied": len(modes)}


def main() -> int:
    bed = testbed()
    config = manager_config()
    warmup = int(sys.argv[1])
    run_one(bed, config, warmup)
    print(dumps({"ready": True}), flush=True)
    line = sys.stdin.readline().strip()
    if not line or line == "exit":
        return 0
    job = json.loads(line)
    latencies, summaries, errors = [], [], []
    begin = time.perf_counter()
    for seed in job["seeds"]:
        start = time.perf_counter()
        try:
            report = run_one(bed, config, seed)
        except Exception as error:  # one failed op, not a failed run
            latencies.append(time.perf_counter() - start)
            summaries.append(None)
            errors.append(f"seed {seed}: {type(error).__name__}: {error}")
            continue
        latencies.append(time.perf_counter() - start)
        summaries.append(summarize(report))
    wall = time.perf_counter() - begin
    print(dumps({"latencies_s": latencies, "wall_s": wall,
                 "summaries": summaries, "errors": errors,
                 "peak_rss_mb": peak_rss_mb([os.getpid()])}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
