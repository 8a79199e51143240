"""Statistics, metric-name checks and the environment fingerprint.

Nothing here imports the program under test, so the self-tests and the
comparison tool run without it.
"""

from __future__ import annotations

import json
import math
import os
import platform
import re
import statistics
from typing import Dict, List, Sequence

#: Metric names the driver accepts (and the only ones this package emits).
METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")

#: A tail percentile is reported only with at least this many samples
#: strictly beyond it; fewer and the value is one or two outliers.
MIN_BEYOND = 10


class TooFewSamples(ValueError):
    """A percentile was asked of a sample too small to support it."""


def median(values: Sequence[float]) -> float:
    if not values:
        raise TooFewSamples("median of an empty sample")
    return statistics.median(values)


def min_samples(p: float) -> int:
    """Smallest sample size with ``MIN_BEYOND`` samples beyond ``p``."""
    return math.ceil(MIN_BEYOND / (1.0 - p / 100.0) - 1e-9)


def percentile(values: Sequence[float], p: float) -> float:
    """Linear-interpolated ``p``-th percentile (inclusive method).

    Raises:
        TooFewSamples: Fewer than :data:`MIN_BEYOND` samples would lie
            beyond the percentile (``p=99`` needs 1000, ``p=90`` 100).
    """
    if not 0 < p < 100:
        raise ValueError(f"percentile must be in (0, 100), got {p}")
    if len(values) < min_samples(p):
        raise TooFewSamples(
            f"p{p:g} of {len(values)} samples leaves fewer than "
            f"{MIN_BEYOND} beyond it (needs {min_samples(p)})")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * p / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def relative_spread(values: Sequence[float]) -> float:
    """Inter-quartile distance over the median (the driver's spread)."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else math.inf


def check_metric_names(names) -> List[str]:
    """The names that do not match :data:`METRIC_NAME` (empty = all ok)."""
    return [name for name in names if not METRIC_NAME.fullmatch(name)]


# -- environment ---------------------------------------------------------

def _cpu_times() -> Dict[str, int]:
    """Aggregate ``/proc/stat`` CPU ticks: total and steal."""
    try:
        with open("/proc/stat", "r", encoding="ascii") as handle:
            fields = handle.readline().split()[1:]
    except OSError:
        return {"total": 0, "steal": 0}
    ticks = [int(field) for field in fields]
    steal = ticks[7] if len(ticks) > 7 else 0
    return {"total": sum(ticks), "steal": steal}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def fingerprint() -> Dict:
    """What must match for two run sets to be comparable."""
    import numpy

    return {"cpu_count": os.cpu_count(),
            "cpu_model": _cpu_model(),
            "machine": platform.machine(),
            "python": platform.python_version(),
            "numpy": numpy.__version__}


def load_sample() -> Dict:
    """Load average and cumulative steal ticks, for start/end records."""
    return {"loadavg": list(os.getloadavg()), "cpu": _cpu_times()}


def environment_record(workload: str, seed: int, start: Dict,
                       end: Dict) -> Dict:
    """The per-run environment line: fingerprint, seed, load and steal."""
    total = end["cpu"]["total"] - start["cpu"]["total"]
    steal = end["cpu"]["steal"] - start["cpu"]["steal"]
    return {"fingerprint": fingerprint(), "workload": workload,
            "seed": seed,
            "loadavg_start": start["loadavg"],
            "loadavg_end": end["loadavg"],
            "steal_ticks_start": start["cpu"]["steal"],
            "steal_ticks_end": end["cpu"]["steal"],
            "steal_share": steal / total if total > 0 else 0.0}


def dumps(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))
