"""`repro top`: a dependency-free ASCII observatory over a run's series.

Renders, from a :class:`repro.obs.timeseries.TimeSeriesStore` dump (and
optionally a metrics snapshot), a terminal dashboard with:

* a header panel (series counts, retention/downsampling honesty),
* the manager panel (median/worst PDR sparklines, epoch outcomes),
* a per-flow SLO table — state gauge, current PDR, fast/slow burn
  rates, and a burn-rate sparkline — alert/warn flows sorted first,
* per-channel PRR bars,
* a recorder/tracer health panel from the metrics snapshot.

Everything is plain ``str`` manipulation: no curses, no ANSI colors,
no third-party dependencies, so ``repro top --once`` is pipeable and
CI-safe.  The live mode in :mod:`repro.cli` simply re-reads the JSONL
dump and re-renders on an interval.

Sparklines use the eight-level Unicode block ramp ``▁▂▃▄▅▆▇█``
(degrading to ``.:-=+*#@`` under ``ascii_only``), scaled to the
series' own min/max so shape survives whatever the absolute levels
are.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs.report import stage_rows
from repro.obs.slo import (STATE_ALERT, STATE_OK, STATE_WARN, SloConfig,
                           severity)

#: Eight-level ramp for sparklines.
SPARK_CHARS = "▁▂▃▄▅▆▇█"
#: Pure-ASCII fallback ramp.
SPARK_ASCII = ".:-=+*#@"

_FLOW_SERIES = re.compile(r"^slo\.flow\.(?P<flow>\d+)\.pdr$")
_CHANNEL_SERIES = re.compile(r"^channel\.(?P<channel>\d+)\.prr$")

#: Per-state marker shown in the SLO gauge column.
STATE_MARK = {STATE_OK: "  ok  ", STATE_WARN: " WARN ",
              STATE_ALERT: "ALERT!"}


def sparkline(values: Sequence[float], width: int = 24,
              ascii_only: bool = False) -> str:
    """Render the last ``width`` values as a fixed-height sparkline.

    Values are min/max-normalized over the rendered window; a flat
    series renders at mid-ramp.  Empty input gives an empty string.
    """
    ramp = SPARK_ASCII if ascii_only else SPARK_CHARS
    window = list(values)[-width:]
    if not window:
        return ""
    lo, hi = min(window), max(window)
    if hi - lo < 1e-12:
        return ramp[len(ramp) // 2] * len(window)
    span = hi - lo
    out = []
    for value in window:
        level = int((value - lo) / span * (len(ramp) - 1) + 0.5)
        out.append(ramp[level])
    return "".join(out)


def bar(value: float, width: int = 20, ascii_only: bool = False) -> str:
    """A horizontal [0, 1] gauge bar, e.g. ``[########----]``."""
    value = min(1.0, max(0.0, value))
    filled = int(value * width + 0.5)
    fill_char = "#" if ascii_only else "█"
    rest_char = "-" if ascii_only else "░"
    return "[" + fill_char * filled + rest_char * (width - filled) + "]"


def _fmt(value: Optional[float], digits: int = 3) -> str:
    return "-" if value is None else f"{value:.{digits}f}"


def _panel(title: str, lines: List[str], width: int) -> List[str]:
    header = f"── {title} " + "─" * max(0, width - len(title) - 4)
    return [header] + (lines if lines else ["  (no data)"])


def _flow_states(timeseries, slo_config: SloConfig,
                 ) -> List[Dict]:
    """Reconstruct each flow's latest SLO standing from its series."""
    flows: List[Dict] = []
    for name in timeseries.names():
        match = _FLOW_SERIES.match(name)
        if not match:
            continue
        flow_id = int(match.group("flow"))
        prefix = f"slo.flow.{flow_id}."
        pdr = timeseries.get(prefix + "pdr")
        fast = timeseries.get(prefix + "burn_fast")
        slow = timeseries.get(prefix + "burn_slow")
        last_fast = fast.last()[1] if fast and fast.last() else 0.0
        last_slow = slow.last()[1] if slow and slow.last() else 0.0
        threshold = slo_config.burn_threshold
        if last_fast >= threshold and last_slow >= threshold:
            state = STATE_ALERT
        elif last_fast >= threshold:
            state = STATE_WARN
        else:
            state = STATE_OK
        flows.append({
            "flow": flow_id,
            "pdr": pdr.last()[1] if pdr and pdr.last() else None,
            "burn_fast": last_fast,
            "burn_slow": last_slow,
            "state": state,
            "spark": fast.values() if fast else [],
        })
    return flows


def render_top(timeseries, snapshot: Optional[Dict] = None,
               slo_config: Optional[SloConfig] = None,
               max_flows: int = 12, width: int = 76,
               ascii_only: bool = False,
               source: str = "") -> str:
    """Render the full dashboard as one string.

    Args:
        timeseries: A :class:`TimeSeriesStore` (usually loaded from the
            run's ``--timeseries`` JSONL dump).
        snapshot: Optional metrics snapshot for the health panel.
        slo_config: Threshold used to re-derive flow states from burn
            series (defaults to :class:`SloConfig` defaults).
        max_flows: Table rows; worst flows (by state severity, then
            fast burn) are kept, the rest are summarized.
        width: Target panel width in characters.
        ascii_only: Degrade sparklines/bars to pure ASCII.
        source: Shown in the header (e.g. the dump path).
    """
    slo_config = slo_config if slo_config is not None else SloConfig()
    lines: List[str] = []

    # -- header ---------------------------------------------------------
    header = [f"  series: {len(timeseries)}"
              f"   retention: {timeseries.retention}"
              f"   downsampled: {timeseries.downsampled_series()}"]
    if source:
        header.insert(0, f"  source: {source}")
    lines += _panel("repro top", header, width)

    # -- manager panel ----------------------------------------------------
    manager_lines: List[str] = []
    for label, series_name in (("median PDR", "manager.median_pdr"),
                               ("worst  PDR", "manager.worst_pdr")):
        series = timeseries.get(series_name)
        if series is None or not series.points:
            continue
        t, value = series.last()
        manager_lines.append(
            f"  {label}  {_fmt(value)}  "
            f"{sparkline(series.values(), ascii_only=ascii_only)}"
            f"  (epoch {int(t)})")
    actions = timeseries.get("manager.actions")
    alerts = timeseries.get("manager.slo_alerting")
    if actions is not None and actions.points:
        total = sum(actions.values())
        manager_lines.append(
            f"  actions    {int(total):>5}  "
            f"{sparkline(actions.values(), ascii_only=ascii_only)}")
    if alerts is not None and alerts.points:
        manager_lines.append(
            f"  slo alerts {int(alerts.last()[1]):>5}  "
            f"{sparkline(alerts.values(), ascii_only=ascii_only)}")
    lines += _panel("manager", manager_lines, width)

    # -- per-flow SLO table ----------------------------------------------
    flows = _flow_states(timeseries, slo_config)
    flows.sort(key=lambda f: (-severity(f["state"]), -f["burn_fast"],
                              f["flow"]))
    table: List[str] = []
    if flows:
        table.append("   flow  state    pdr    burn5  burn30  "
                     "fast-burn trend")
        for entry in flows[:max_flows]:
            table.append(
                f"  {entry['flow']:>5}  {STATE_MARK[entry['state']]}"
                f"  {_fmt(entry['pdr'])}"
                f"  {entry['burn_fast']:>5.2f}  {entry['burn_slow']:>6.2f}"
                f"  {sparkline(entry['spark'], ascii_only=ascii_only)}")
        hidden = flows[max_flows:]
        if hidden:
            hot = sum(1 for f in hidden if f["state"] != STATE_OK)
            table.append(f"  … {len(hidden)} more flows "
                         f"({hot} warn/alert) not shown")
        tally = {STATE_OK: 0, STATE_WARN: 0, STATE_ALERT: 0}
        for entry in flows:
            tally[entry["state"]] += 1
        table.append(f"  totals: {tally[STATE_ALERT]} alert, "
                     f"{tally[STATE_WARN]} warn, {tally[STATE_OK]} ok "
                     f"(target PDR {slo_config.target_pdr}, "
                     f"burn threshold {slo_config.burn_threshold})")
    lines += _panel(
        f"flow SLOs ({len(flows)} flows)", table, width)

    # -- per-channel PRR --------------------------------------------------
    channel_lines: List[str] = []
    for name in timeseries.names():
        match = _CHANNEL_SERIES.match(name)
        if not match:
            continue
        series = timeseries.get(name)
        last = series.last()
        if last is None:
            continue
        value = last[1]
        channel_lines.append(
            f"  ch {int(match.group('channel')):>2}  "
            f"{bar(value, ascii_only=ascii_only)} {_fmt(value)}  "
            f"{sparkline(series.values(), width=16, ascii_only=ascii_only)}")
    lines += _panel("channel PRR", channel_lines, width)

    # -- scheduling-service batches ---------------------------------------
    # `repro serve --timeseries` workers sample service.* per ledger
    # batch; the panel only appears when such series exist, so manager
    # dumps render exactly as before.
    service_lines: List[str] = []
    for name in sorted(timeseries.names()):
        if not name.startswith("service."):
            continue
        series = timeseries.get(name)
        last = series.last()
        if last is None:
            continue
        service_lines.append(
            f"  {name[len('service.'):]:<16} {_fmt(last[1]):>8}  "
            f"{sparkline(series.values(), width=16, ascii_only=ascii_only)}")
    if service_lines:
        lines += _panel("service (per batch)", service_lines, width)

    # -- stage breakdown --------------------------------------------------
    # stage() histograms (span.<stage>.seconds) land in the metrics
    # snapshot; like the service panel, this one only appears when a
    # recording run produced them.  The bar is each stage's share of
    # total recorded stage time.
    rows = stage_rows((snapshot or {}).get("histograms", {}))
    if rows:
        grand_total = sum(row[2] for row in rows) or 1.0
        stage_lines = []
        for stage, count, total, p99 in rows:
            mean_ms = 1000.0 * total / count if count else 0.0
            p99_ms = 1000.0 * p99 if p99 is not None else 0.0
            stage_lines.append(
                f"  {stage:<18} {count:>6}  mean {mean_ms:>8.2f} ms"
                f"  p99 {p99_ms:>8.2f} ms  "
                f"{bar(total / grand_total, width=12, ascii_only=ascii_only)}")
        lines += _panel("stages", stage_lines, width)

    # -- recorder / tracer health ----------------------------------------
    health_lines: List[str] = []
    if snapshot is not None:
        counters = snapshot.get("counters", {})
        interesting = (
            ("slo.alerts", "slo alerts"),
            ("slo.warns", "slo warns"),
            ("manager.epochs", "manager epochs"),
            ("manager.actions_applied", "actions applied"),
            ("manager.rollbacks", "rollbacks"),
            ("detection.ks_rejections", "K-S rejections"),
        )
        for key, label in interesting:
            if key in counters:
                health_lines.append(
                    f"  {label:<16} {counters[key]:>10.0f}")
        if not health_lines and counters:
            health_lines.append(f"  {len(counters)} counters recorded")
    lines += _panel("health", health_lines, width)

    return "\n".join(lines) + "\n"
