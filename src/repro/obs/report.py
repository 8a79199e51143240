"""Human-readable rendering of a metrics snapshot.

Backs the ``python -m repro report`` command: takes the JSON snapshot
written by ``--metrics-out`` (optionally plus a trace written by
``--trace``) and prints the quantities the paper's evaluation cares
about — placements per policy, RC's reuse-fallback histogram, simulator
attempt/success totals, and per-stage latency.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple


def _fmt(value: float) -> str:
    """Integer-looking floats print as integers."""
    if float(value).is_integer():
        return str(int(value))
    return f"{value:.4g}"


def _policy_table(counters: Dict[str, float]) -> List[str]:
    policies = sorted({name.split(".")[1] for name in counters
                       if name.startswith("policy.")})
    if not policies:
        return []
    lines = ["policies:",
             f"  {'policy':>8} {'runs':>6} {'sched':>6} {'unsched':>8} "
             f"{'placements':>11} {'reused':>7}"]
    for policy in policies:
        def get(key: str) -> str:
            return _fmt(counters.get(f"policy.{policy}.{key}", 0))
        lines.append(
            f"  {policy:>8} {get('runs'):>6} {get('schedulable'):>6} "
            f"{get('unschedulable'):>8} {get('placements'):>11} "
            f"{get('reuse_placements'):>7}")
    return lines


def _histogram_lines(title: str, data: Dict) -> List[str]:
    lines = [title]
    bounds = data["buckets"]
    labels = [f"<={_fmt(b)}" for b in bounds] + [f">{_fmt(bounds[-1])}"]
    for label, count in zip(labels, data["counts"]):
        if count:
            lines.append(f"  {label:>10}: {count}")
    mean = data["sum"] / data["count"] if data["count"] else None
    if mean is not None:
        lines.append(f"  count {data['count']}, mean {mean:.3f}, "
                     f"min {_fmt(data['min'])}, max {_fmt(data['max'])}")
    return lines


def stage_rows(histograms: Dict[str, Dict],
               ) -> List[Tuple[str, int, float, Optional[float]]]:
    """``(stage, count, total s, p99 s)`` per ``span.<stage>.seconds``
    histogram, largest total first.

    The p99 estimate is a bucket bound clamped to the histogram's
    recorded ``[min, max]``: the bound alone can lie far past every
    observation (one 1.875 s stage sits in the (1, 5] s bucket).
    """
    from repro.obs.metrics import quantile_from_buckets

    rows = []
    for name, data in histograms.items():
        if not (name.startswith("span.") and name.endswith(".seconds")):
            continue
        p99 = quantile_from_buckets(data["buckets"], data["counts"], 0.99)
        if p99 is not None and data.get("min") is not None:
            p99 = min(max(p99, data["min"]), data["max"])
        rows.append((name[len("span."):-len(".seconds")],
                     int(data["count"]), float(data["sum"]), p99))
    rows.sort(key=lambda row: (-row[2], row[0]))
    return rows


def _stage_table(histograms: Dict[str, Dict]) -> List[str]:
    """Per-stage latency from the ``stage()`` histograms."""
    rows = stage_rows(histograms)
    if not rows:
        return []
    lines = ["stages:",
             f"  {'stage':<20} {'count':>7} {'total s':>9} "
             f"{'mean ms':>9} {'p99 ms':>9}"]
    for stage, count, total, p99 in rows:
        mean_ms = 1000.0 * total / count if count else 0.0
        p99_ms = 1000.0 * p99 if p99 is not None else 0.0
        lines.append(f"  {stage:<20} {_fmt(count):>7} {total:>9.3f} "
                     f"{mean_ms:>9.2f} {p99_ms:>9.2f}")
    return lines


def _cache_table(counters: Dict[str, float]) -> List[str]:
    """Artifact-cache lookups by kind (``service.cache.<kind>.<verdict>``)."""
    kinds = sorted({name.split(".")[2] for name in counters
                    if name.startswith("service.cache.")
                    and len(name.split(".")) == 4})
    if not kinds:
        return []
    lines = ["artifact cache lookups:",
             f"  {'kind':<14} {'hits':>8} {'misses':>8} {'hit rate':>9}"]
    for kind in kinds:
        hits = counters.get(f"service.cache.{kind}.hit", 0)
        misses = counters.get(f"service.cache.{kind}.miss", 0)
        total = hits + misses
        rate = hits / total if total else 0.0
        lines.append(f"  {kind:<14} {_fmt(hits):>8} {_fmt(misses):>8} "
                     f"{rate:>9.3f}")
    return lines


def format_report(snapshot: Dict,
                  trace_kind_counts: Optional[Dict[str, int]] = None,
                  trace_dropped: Optional[int] = None) -> str:
    """Render a metrics snapshot (and optional trace summary) as text.

    Args:
        snapshot: The metrics snapshot to render.
        trace_kind_counts: Per-kind event counts of an accompanying
            trace (meta trailer records excluded by the caller).
        trace_dropped: Ring evictions reported by the trace's
            ``trace_meta`` trailer; printed even when zero so a
            complete trace is *visibly* complete.
    """
    counters = snapshot.get("counters", {})
    histograms = snapshot.get("histograms", {})
    sections: List[List[str]] = []

    scheduler_keys = [
        ("slots scanned", "scheduler.slots_scanned"),
        ("placement attempts (findSlot)", "scheduler.placements_tried"),
        ("placements", "scheduler.placements"),
        ("reuse placements", "scheduler.reuse_placements"),
        ("rejections", "scheduler.rejections"),
        ("RC laxity triggers", "rc.laxity_triggers"),
        ("RC reuse fallback steps", "rc.reuse_fallbacks"),
    ]
    lines = [f"  {label:<30} {_fmt(counters[key]):>12}"
             for label, key in scheduler_keys if key in counters]
    if lines:
        sections.append(["scheduler:"] + lines)

    policy_lines = _policy_table(counters)
    if policy_lines:
        sections.append(policy_lines)

    if "rc.fallback_rho" in histograms:
        sections.append(_histogram_lines(
            "RC reuse-fallback histogram (final rho):",
            histograms["rc.fallback_rho"]))

    if "sim.attempts" in counters:
        attempts = counters["sim.attempts"]
        successes = counters.get("sim.successes", 0)
        rate = successes / attempts if attempts else 0.0
        sections.append([
            "simulator:",
            f"  {'repetitions':<30} "
            f"{_fmt(counters.get('sim.repetitions', 0)):>12}",
            f"  {'link attempts':<30} {_fmt(attempts):>12}",
            f"  {'link successes':<30} {_fmt(successes):>12}",
            f"  {'attempt success rate':<30} {rate:>12.4f}",
            f"  {'e2e deliveries':<30} "
            f"{_fmt(counters.get('sim.deliveries', 0)):>12}",
        ])

    detection_keys = [(name.split(".")[-1], name) for name in sorted(counters)
                      if name.startswith("detection.verdict.")]
    if "detection.ks_tests" in counters or detection_keys:
        lines = ["detection:",
                 f"  {'K-S tests run':<30} "
                 f"{_fmt(counters.get('detection.ks_tests', 0)):>12}"]
        for label, key in detection_keys:
            lines.append(f"  {'verdict ' + label:<30} "
                         f"{_fmt(counters[key]):>12}")
        sections.append(lines)

    stage_lines = _stage_table(histograms)
    if stage_lines:
        sections.append(stage_lines)

    cache_lines = _cache_table(counters)
    if cache_lines:
        sections.append(cache_lines)

    if trace_kind_counts is not None:
        lines = ["trace events by kind:"]
        for kind in sorted(trace_kind_counts):
            lines.append(f"  {kind:<30} {trace_kind_counts[kind]:>12}")
        total = sum(trace_kind_counts.values())
        lines.append(f"  {'total retained':<30} {total:>12}")
        if trace_dropped is not None:
            lines.append(f"  {'dropped (ring evictions)':<30} "
                         f"{trace_dropped:>12}")
        sections.append(lines)

    if not sections:
        return "(empty metrics snapshot)"
    return "\n\n".join("\n".join(section) for section in sections)
