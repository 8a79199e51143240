"""Run one benchmark workload and print its metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload fleet-warm --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs the traced replay and prints the per-layer metrics.
Before the result the run prints each metric as ``name value unit``,
then a ``{"environment": ...}`` line and a ``{"details": ...}`` line.
The last line is the result object.  The exit code is 0 only when every
op succeeded and every output check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _parse(argv):
    import streams

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=streams.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="nominal run length; fixes the timed op "
                             "count (never below the minimum)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _benchmark_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r",
              encoding="utf-8") as handle:
        return json.load(handle)


def _import_program() -> None:
    """Put the checkout's ``src/`` first on the path and make sure the
    program really comes from there (never from an installed copy)."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        raise SystemExit(f"error: no program sources under {src}")
    sys.path.insert(0, src)
    import repro

    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        raise SystemExit(f"error: repro imported from {repro.__file__}, "
                         f"not {src}")


def main(argv=None) -> int:
    # SIGTERM unwinds like an exception, so every started process is
    # stopped by the ``finally`` blocks that own it.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    args = _parse(argv)
    _import_program()
    import common
    import streams
    import workloads

    spec = _benchmark_spec()
    wanted = [entry["name"] for entry in
              spec["per_layer" if args.trace else "end_to_end"]]
    start = common.load_sample()
    stream = streams.build(args.workload, args.seed,
                           streams.op_count(args.workload, args.seconds))
    outcome = workloads.run(ROOT, stream, trace=bool(args.trace))
    end = common.load_sample()

    missing = [name for name in wanted if name not in outcome.metrics]
    if missing:
        outcome.fail(f"metrics not measured: {missing}")
    bad = common.check_metric_names(list(outcome.metrics)
                                    + list(outcome.details))
    if bad:
        outcome.fail(f"bad metric names: {bad}")
    metrics = {name: {"value": outcome.metrics[name][0],
                      "unit": outcome.metrics[name][1]}
               for name in wanted if name in outcome.metrics}
    for name, (value, unit) in sorted(outcome.metrics.items()) + sorted(
            (name, value) for name, value in outcome.details.items()
            if isinstance(value, tuple)):
        print(f"{name} {value:.6g} {unit}")
    for message in outcome.errors:
        print(f"FAILED: {message}", file=sys.stderr)
    print(common.dumps({"environment": common.environment_record(
        args.workload, args.seed, start, end)}))
    print(common.dumps({"details": {
        "workload": args.workload, "seed": args.seed,
        "ops": len(stream.timed), "trace": args.trace,
        "errors": outcome.errors,
        **{name: value for name, value in outcome.details.items()}}}))
    correct = not outcome.errors and outcome.failed == 0 and not missing
    print(json.dumps({"correct": correct,
                      "attempted": max(outcome.attempted, 1),
                      "failed": outcome.failed if correct
                      else max(outcome.failed, 1),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
