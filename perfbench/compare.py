"""Summarize and compare sets of benchmark runs.

Save each run's standard output, appending runs of one set to one file::

    for seed in 1 2 3; do
        python3 perfbench/run.py --workload fleet-warm --seed $seed \\
            --trace 0 >> base.txt
    done
    python3 perfbench/compare.py base.txt            # spreads of one set
    python3 perfbench/compare.py base.txt new.txt    # base against new

For every workload and end-to-end metric the tool prints each set's
median and quartile spread (inter-quartile distance over the median), and
with two sets the change of the median against the metric's bound in
``BENCHMARK.json``.  It refuses (exit 2) when the runs' environment
fingerprints differ or a run is not correct, and exits 1 when a spread
exceeds its bound or the second set's median is worse than the first's
by more than the bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from collections import defaultdict
from typing import Dict, List

from common import relative_spread

HERE = os.path.dirname(os.path.abspath(__file__))


def load_runs(path: str) -> List[Dict]:
    """Runs of one saved output file: environment + result per run."""
    runs, environment = [], None
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line.startswith("{"):
                continue
            payload = json.loads(line)
            if "environment" in payload:
                environment = payload["environment"]
            elif "correct" in payload:
                runs.append({"environment": environment, **payload})
                environment = None
    return runs


def refusal(sets: List[List[Dict]]) -> str:
    """Why the run sets cannot be compared ('' when they can)."""
    fingerprints = set()
    for runs in sets:
        for run in runs:
            if run["environment"] is None:
                return "a run has no environment record"
            if not run["correct"]:
                return (f"a {run['environment']['workload']} run "
                        f"(seed {run['environment']['seed']}) failed")
            fingerprints.add(json.dumps(run["environment"]["fingerprint"],
                                        sort_keys=True))
    if len(fingerprints) > 1:
        return "environment fingerprints differ: " + \
            " vs ".join(sorted(fingerprints))
    return ""


def by_workload(runs: List[Dict]) -> Dict[str, Dict[str, List[float]]]:
    values = defaultdict(lambda: defaultdict(list))
    for run in runs:
        for name, entry in run["metrics"].items():
            values[run["environment"]["workload"]][name].append(
                entry["value"])
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("sets", nargs="+", metavar="RUNS",
                        help="saved run output (one or two files)")
    args = parser.parse_args(argv)
    if len(args.sets) > 2:
        parser.error("give one or two run sets")
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"),
              "r", encoding="utf-8") as handle:
        spec = json.load(handle)
    sets = [load_runs(path) for path in args.sets]
    reason = refusal(sets)
    if reason:
        print(f"refused: {reason}", file=sys.stderr)
        return 2
    tables = [by_workload(runs) for runs in sets]
    worst = 0
    for workload in sorted(tables[0]):
        print(f"{workload}:")
        for entry in spec["end_to_end"]:
            name, bound = entry["name"], entry["bound"]
            row = f"  {name:<16}"
            medians = []
            for table in tables:
                values = table.get(workload, {}).get(name, [])
                if len(values) < 2:
                    row += "   (fewer than 2 runs)"
                    medians.append(None)
                    continue
                spread = relative_spread(values)
                medians.append(statistics.median(values))
                flag = "" if spread <= bound or name == "setup_s" else " !"
                worst = max(worst, 1 if flag else 0)
                row += (f"  n={len(values):<3} median {medians[-1]:<10.4g}"
                        f" spread {spread:6.1%}{flag}")
            if len(medians) == 2 and None not in medians:
                change = (medians[1] - medians[0]) / medians[0]
                worse = change if entry["better"] == "lower" else -change
                verdict = "worse than bound" if worse > bound else "ok"
                worst = max(worst, 1 if worse > bound else 0)
                row += f"  change {change:+.1%} ({verdict}, bound {bound:.0%})"
            print(row)
    return worst


if __name__ == "__main__":
    sys.exit(main())
