"""Observability: metrics registry, structured tracing, stage timing.

The layer has three pieces:

* :class:`MetricsRegistry` — counters, gauges, and fixed-bucket
  histograms with JSON snapshot/merge (:mod:`repro.obs.metrics`);
* :class:`Tracer` — typed events in a bounded ring buffer with JSONL
  export (:mod:`repro.obs.trace`);
* a process-wide :class:`Recorder` behind a module-level ``ENABLED``
  flag (:mod:`repro.obs.recorder`), so instrumented hot paths cost one
  attribute read when observability is off;
* :class:`TimeSeriesStore` — windowed ``(t, value)`` series with
  bounded retention (:mod:`repro.obs.timeseries`), and on top of it
  :class:`SloEngine` — per-flow multi-window burn-rate alerting
  (:mod:`repro.obs.slo`) exported as OpenMetrics text
  (:mod:`repro.obs.openmetrics`) or an ASCII dashboard
  (:mod:`repro.obs.top`).

Typical library use::

    from repro import obs

    with obs.recording() as rec:
        result = schedule_workload(network, flows, "RC")
    print(obs.format_report(rec.snapshot()))

From the CLI, ``--trace FILE`` / ``--metrics-out FILE`` enable the same
machinery, and ``python -m repro report FILE`` renders a saved snapshot.
"""

from repro.obs.ledger import RunLedger, environment_fingerprint
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    SMALL_INT_BUCKETS,
    TIME_BUCKETS_S,
    quantile_from_buckets,
)
from repro.obs.openmetrics import parse_openmetrics, render_openmetrics
from repro.obs.provenance import ProvenanceRecorder
from repro.obs.recorder import (
    NullRecorder,
    Recorder,
    disable,
    enable,
    get_recorder,
    is_enabled,
    recording,
)
from repro.obs.report import format_report
from repro.obs.slo import FlowSloState, SloConfig, SloEngine
from repro.obs.spans import (
    ActiveSpan,
    SpanRecorder,
    activate,
    current_span,
    stage,
    wire_context,
)
from repro.obs.timeseries import DEFAULT_RETENTION, Series, TimeSeriesStore
from repro.obs.top import render_top, sparkline
from repro.obs.trace import DEFAULT_CAPACITY, TraceEvent, Tracer

__all__ = [
    "ActiveSpan",
    "Counter",
    "DEFAULT_CAPACITY",
    "DEFAULT_RETENTION",
    "FlowSloState",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRecorder",
    "ProvenanceRecorder",
    "Recorder",
    "RunLedger",
    "SMALL_INT_BUCKETS",
    "Series",
    "SloConfig",
    "SloEngine",
    "SpanRecorder",
    "TIME_BUCKETS_S",
    "TimeSeriesStore",
    "TraceEvent",
    "Tracer",
    "activate",
    "current_span",
    "disable",
    "enable",
    "environment_fingerprint",
    "format_report",
    "get_recorder",
    "is_enabled",
    "parse_openmetrics",
    "quantile_from_buckets",
    "recording",
    "render_openmetrics",
    "render_top",
    "sparkline",
    "stage",
    "wire_context",
]
