"""Live service telemetry: per-tenant SLO tracking and exposition.

The closed-horizon obs layer (:mod:`repro.obs.core`) answers *what
happened in one run*; this module answers the paper's rate questions
**live**, for an always-on service — deadline-miss rate, shed rate by
reason, admission queue depth, attained-value-per-unit-capacity —
without touching the deterministic replay domain.

Pure data / pure functions (the service wiring lives in
:mod:`repro.service`):

* :class:`SloTracker` — one tenant's instruments: a
  :class:`~repro.obs.metrics.MetricsRegistry` whose ``observe`` also
  lands each decision in a virtual-time
  :class:`~repro.obs.metrics.WindowRing`.  Its snapshot rides the
  TenantStore snapshot payload and survives ``kill -9``
  (:func:`payload_metrics` reads it back, converting the version-1
  layout); :func:`slo_parity_view` strips what *legitimately* differs
  across a restart (recovery/cold-start counts, wall-clock latencies)
  so drain-vs-cold-start audits compare the rest for equality.
* Exposition renderers — :func:`render_prometheus` (text format 0.0.4)
  over a fleet scrape, :func:`lint_prometheus` (a strict format checker
  CI runs against live scrapes), and :func:`render_top` (the
  ``repro top`` dashboard screen).

Nothing here is in the bit-identity fingerprint domain: SLO state is
service-plane accounting, never written into replay events.
"""

from __future__ import annotations

import math
import re
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.obs.metrics import MetricsRegistry

__all__ = [
    "SloTracker",
    "slo_parity_view",
    "payload_metrics",
    "render_prometheus",
    "lint_prometheus",
    "render_top",
    "HEALTH_STATES",
]

#: Tenant health ladder (ordered best → worst; see
#: :meth:`repro.service.supervisor.TenantSupervisor.health_state`).
HEALTH_STATES = ("ok", "degraded", "restarting", "circuit_open")


#: Counters that legitimately differ across a restart boundary — a
#: cold start *is* one more recovery — and are therefore excluded from
#: the drain/cold-start parity comparison.
_NON_PARITY_COUNTERS = ("service.recoveries", "service.cold_starts")


class SloTracker(MetricsRegistry):
    """One tenant's service-level accounting: a metrics registry whose
    decision counters also land in a virtual-time decision window.

    Decision-plane state only: the tracker counts what the *service*
    decided (admissions, sheds by reason, injected faults, duplicates,
    recoveries).  Kernel-derived SLO facts (completions, deadline
    misses, attained value) are **not** tracked incrementally — they are
    a pure function of the kernel trace and are computed on demand at
    scrape time (:meth:`repro.service.shard.TenantShard.slo_view`), so a
    snapshot restore can never double-count them.  Restoring is a
    :meth:`merge` of the persisted snapshot into a fresh tracker.
    """

    #: Name of the decision window (width ``horizon / slots``).
    WINDOW = "service.decisions"

    def __init__(self, horizon: float, slots: int = 16) -> None:
        super().__init__()
        self.decisions = self.window(
            self.WINDOW, max(float(horizon), 1e-9) / slots, slots
        )

    def observe(self, t: float, name: str) -> None:
        """Count ``name`` and land it in the decision window at time ``t``."""
        self.counter(name).inc()
        self.decisions.observe(t, name)


def slo_parity_view(snap: Mapping[str, Any]) -> Dict[str, Any]:
    """The restart-invariant projection of a tenant metrics snapshot.

    Drops the histograms (wall-clock fsync latencies) and the counters
    that a cold start legitimately bumps (``service.recoveries``,
    ``service.cold_starts``); what is left must be *equal* across a
    drain → ``kill -9`` → cold-start boundary — the soak harness asserts
    exactly that.
    """
    counters = snap.get("counters") or {}
    return {
        "counters": {
            k: counters[k] for k in sorted(counters)
            if k not in _NON_PARITY_COUNTERS
        },
        "gauges": snap.get("gauges") or {},
        "windows": snap.get("windows") or {},
    }


def _v1_name(name: str) -> str:
    return "service.injected.crash" if name == "crashes" else "service." + name


def payload_metrics(payload: Mapping[str, Any]) -> Mapping[str, Any]:
    """The tenant metrics snapshot a store snapshot payload carries.

    Version 2 payloads hold it under ``metrics``.  Version 1 payloads
    held a tracker document under ``slo`` (``None`` with tracking off)
    beside ``recoveries``/``forced_crashes``; this converts them
    read-only: counter and window names gain the ``service.`` prefix
    (``crashes`` becomes ``service.injected.crash``), ``depth`` becomes
    the ``service.depth`` gauge, the ``fsync`` dict the
    ``service.fsync_s`` histogram, and the two payload counts seed their
    counters."""
    if payload.get("version") != 1:
        return payload.get("metrics") or {}
    doc = payload.get("slo") or {}
    counters = {
        _v1_name(k): int(v) for k, v in (doc.get("counters") or {}).items()
    }
    for name, key in (
        ("service.recoveries", "recoveries"),
        ("service.injected.crash", "forced_crashes"),
    ):
        if payload.get(key):
            counters[name] = int(payload[key])
    snap: Dict[str, Any] = {"counters": counters, "gauges": {}, "histograms": {}}
    if doc.get("depth"):
        snap["gauges"]["service.depth"] = doc["depth"]
    if (doc.get("fsync") or {}).get("count"):
        snap["histograms"]["service.fsync_s"] = doc["fsync"]
    ring = doc.get("ring")
    if ring:
        snap["windows"] = {
            SloTracker.WINDOW: dict(
                ring,
                buckets=[
                    [i, {_v1_name(k): v for k, v in values.items()}]
                    for i, values in ring.get("buckets", ())
                ],
            )
        }
    return snap


# ---------------------------------------------------------------------------
# Prometheus text exposition
# ---------------------------------------------------------------------------

#: ``metric_name{tenant="..."} value`` series derived from a tenant entry
#: (``entry["stats"]`` / ``entry["slo"]["live"]`` paths are resolved by
#: :func:`_tenant_samples`).
_EXPO_SPEC: Tuple[Tuple[str, str, str], ...] = (
    # name, type, help
    ("repro_submitted_total", "counter", "Jobs offered for admission."),
    ("repro_accepted_total", "counter", "Jobs admitted into the kernel."),
    ("repro_shed_total", "counter", "Jobs shed by admission control."),
    ("repro_recoveries_total", "counter",
     "Snapshot-restore recoveries (restarts and cold starts)."),
    ("repro_forced_crashes_total", "counter",
     "Ingress-forced kernel crashes survived."),
    ("repro_completions_total", "counter",
     "Jobs completed by their deadline."),
    ("repro_deadline_misses_total", "counter",
     "Accepted jobs that missed their deadline (failed or abandoned)."),
    ("repro_deadline_miss_rate", "gauge",
     "Misses / decided outcomes over the whole run so far."),
    ("repro_attained_value", "gauge", "Cumulative attained value."),
    ("repro_value_per_capacity", "gauge",
     "Attained value per unit of executed work."),
    ("repro_queue_depth", "gauge",
     "Live backlog: accepted jobs without a recorded outcome."),
    ("repro_queue_depth_hwm", "gauge", "High-water mark of the backlog."),
    ("repro_frontier_seconds", "gauge",
     "Virtual dispatch frontier of the tenant kernel."),
)

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")
# A label block is scanned by its quoted values, so ``,`` and ``}``
# inside a value (legal text format) do not end a pair or the block.
_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r'(?:\{(?P<labels>(?:[^"}]|"(?:\\.|[^"\\])*")*)\})?'
    r" (?P<value>\S+)(?: (?P<ts>-?\d+))?$"
)
_LABEL_PAIR_RE = re.compile(
    r'\s*(?P<key>[^=",\s]+)\s*=\s*"(?P<val>(?:\\.|[^"\\])*)"\s*(?:,|$)'
)


def _escape_label(value: str) -> str:
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _fmt_value(value: Any) -> str:
    try:
        x = float(value)
    except (TypeError, ValueError):
        return "NaN"
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "+Inf" if x > 0 else "-Inf"
    return repr(x)


def _tenant_metrics(entry: Mapping[str, Any]) -> Mapping[str, Any]:
    """The tenant registry snapshot inside one scrape entry."""
    return (entry.get("stats") or {}).get("metrics") or {}


def _depth_hwm(entry: Mapping[str, Any]) -> float:
    gauge = (_tenant_metrics(entry).get("gauges") or {}).get("service.depth")
    return (gauge or {}).get("hwm") or 0


def _tenant_samples(entry: Mapping[str, Any]) -> Dict[str, float]:
    """Flatten one scrape entry into ``{metric_name: value}``."""
    stats = entry.get("stats") or {}
    live = (entry.get("slo") or {}).get("live") or {}
    return {
        "repro_submitted_total": stats.get("submitted", 0),
        "repro_accepted_total": stats.get("accepted", 0),
        "repro_shed_total": stats.get("shed", 0),
        "repro_recoveries_total": stats.get("recoveries", 0),
        "repro_forced_crashes_total": stats.get("forced_crashes", 0),
        "repro_completions_total": live.get("completions", 0),
        "repro_deadline_misses_total": live.get("deadline_misses", 0),
        "repro_deadline_miss_rate": live.get("miss_rate", 0.0),
        "repro_attained_value": live.get("attained_value", 0.0),
        "repro_value_per_capacity": live.get("value_per_capacity", 0.0),
        "repro_queue_depth": live.get("depth", 0),
        "repro_queue_depth_hwm": _depth_hwm(entry),
        "repro_frontier_seconds": stats.get(
            "frontier", live.get("frontier", 0.0)
        ),
    }


def render_prometheus(fleet: Mapping[str, Mapping[str, Any]]) -> str:
    """Prometheus text format 0.0.4 for a fleet scrape.

    ``fleet`` maps tenant name → scrape entry (``{"health": ...,
    "stats": {..., "metrics": {...}}, "slo": {"live": {...}}}`` — the shape
    :meth:`repro.service.supervisor.ScheduleService.scrape` returns).
    One series per tenant per metric, plus one ``repro_tenant_health``
    series per (tenant, state) pair so a restarting tenant is visible
    as ``repro_tenant_health{tenant="t0",state="restarting"} 1``, never
    vanished.
    """
    lines: List[str] = []
    tenants = sorted(fleet)

    lines.append(
        "# HELP repro_tenant_health Tenant health state "
        "(1 for the active state, 0 otherwise)."
    )
    lines.append("# TYPE repro_tenant_health gauge")
    for tenant in tenants:
        health = str(fleet[tenant].get("health", "ok"))
        for state in HEALTH_STATES:
            lines.append(
                'repro_tenant_health{tenant="%s",state="%s"} %s'
                % (
                    _escape_label(tenant),
                    state,
                    "1" if state == health else "0",
                )
            )

    samples = {t: _tenant_samples(fleet[t]) for t in tenants}
    for name, mtype, help_text in _EXPO_SPEC:
        lines.append(f"# HELP {name} {help_text}")
        lines.append(f"# TYPE {name} {mtype}")
        for tenant in tenants:
            lines.append(
                '%s{tenant="%s"} %s'
                % (name, _escape_label(tenant), _fmt_value(samples[tenant][name]))
            )

    # Shed-by-reason breakdown (labelled counter, one per reason seen).
    lines.append(
        "# HELP repro_shed_reason_total Jobs shed, by admission reason."
    )
    lines.append("# TYPE repro_shed_reason_total counter")
    prefix = "service.shed."
    for tenant in tenants:
        counters = _tenant_metrics(fleet[tenant]).get("counters") or {}
        for key in sorted(counters):
            if key.startswith(prefix):
                lines.append(
                    'repro_shed_reason_total{tenant="%s",reason="%s"} %s'
                    % (
                        _escape_label(tenant),
                        _escape_label(key[len(prefix):]),
                        _fmt_value(counters[key]),
                    )
                )

    # Journal/op-log fsync latency (wall clock; summary-style).
    lines.append(
        "# HELP repro_fsync_latency_seconds Wall-clock fsync latency of "
        "the durability points (op log + WAL)."
    )
    lines.append("# TYPE repro_fsync_latency_seconds summary")
    for tenant in tenants:
        histograms = _tenant_metrics(fleet[tenant]).get("histograms") or {}
        fsync = histograms.get("service.fsync_s") or {}
        label = _escape_label(tenant)
        lines.append(
            'repro_fsync_latency_seconds_count{tenant="%s"} %s'
            % (label, _fmt_value(fsync.get("count", 0)))
        )
        lines.append(
            'repro_fsync_latency_seconds_sum{tenant="%s"} %s'
            % (label, _fmt_value(fsync.get("sum", 0.0)))
        )
    return "\n".join(lines) + "\n"


def lint_prometheus(text: str) -> List[str]:
    """Validate Prometheus text exposition; returns problems ([] = ok).

    Checks the format rules a real scraper enforces: metric/label name
    syntax, HELP/TYPE comment shape, known TYPE values, parseable sample
    values, counters named ``*_total`` (or summary/histogram parts), and
    no duplicate series.
    """
    problems: List[str] = []
    types: Dict[str, str] = {}
    seen_series: set = set()
    valid_types = ("counter", "gauge", "histogram", "summary", "untyped")

    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) < 2 or parts[1] not in ("HELP", "TYPE"):
                continue  # free-form comment: allowed
            if len(parts) < 3:
                problems.append(f"line {lineno}: truncated {parts[1]} comment")
                continue
            keyword, name = parts[1], parts[2]
            if not _NAME_RE.match(name):
                problems.append(
                    f"line {lineno}: invalid metric name {name!r} in {keyword}"
                )
                continue
            if keyword == "TYPE":
                if len(parts) < 4 or parts[3] not in valid_types:
                    problems.append(
                        f"line {lineno}: TYPE {name} must be one of "
                        f"{valid_types}"
                    )
                elif name in types:
                    problems.append(f"line {lineno}: duplicate TYPE for {name}")
                else:
                    types[name] = parts[3]
            continue

        m = _SAMPLE_RE.match(line)
        if m is None:
            problems.append(f"line {lineno}: unparseable sample {line!r}")
            continue
        name = m.group("name")
        base = name
        for suffix in ("_count", "_sum", "_bucket"):
            if name.endswith(suffix) and name[: -len(suffix)] in types:
                base = name[: -len(suffix)]
                break
        mtype = types.get(base)
        if mtype is None:
            problems.append(f"line {lineno}: sample {name} has no TYPE")
        elif mtype == "counter" and not name.endswith("_total"):
            problems.append(
                f"line {lineno}: counter {name} should end in _total"
            )
        label_text = m.group("labels")
        label_key = ()
        if label_text:
            pairs = []
            pos = 0
            while pos < len(label_text):
                pm = _LABEL_PAIR_RE.match(label_text, pos)
                if pm is None:
                    problems.append(
                        f"line {lineno}: malformed label pair "
                        f"{label_text[pos:]!r}"
                    )
                    break
                if not _LABEL_RE.match(pm.group("key")):
                    problems.append(
                        f"line {lineno}: invalid label name {pm.group('key')!r}"
                    )
                pairs.append((pm.group("key"), pm.group("val")))
                pos = pm.end()
            if len({k for k, _ in pairs}) != len(pairs):
                problems.append(f"line {lineno}: repeated label name")
            label_key = tuple(sorted(pairs))
        value = m.group("value")
        if value not in ("+Inf", "-Inf", "NaN"):
            try:
                float(value)
            except ValueError:
                problems.append(
                    f"line {lineno}: non-numeric sample value {value!r}"
                )
        series = (name, label_key)
        if series in seen_series:
            problems.append(
                f"line {lineno}: duplicate series {name}{label_text or ''}"
            )
        seen_series.add(series)
    return problems


# ---------------------------------------------------------------------------
# `repro top` rendering
# ---------------------------------------------------------------------------

_TOP_COLUMNS = (
    ("TENANT", 8), ("HEALTH", 12), ("SUBM", 6), ("ACC", 6), ("SHED", 6),
    ("DEPTH", 6), ("HWM", 5), ("MISS%", 7), ("VALUE", 10), ("V/CAP", 7),
    ("RECOV", 6), ("FRONTIER", 9),
)


def render_top(
    fleet: Mapping[str, Mapping[str, Any]],
    *,
    title: Optional[str] = None,
) -> str:
    """One ``repro top`` screen from a fleet scrape (pure; no wall clock
    unless the caller passes one in ``title``)."""
    lines: List[str] = []
    if title:
        lines.append(title)
    header = "  ".join(f"{name:<{w}}" for name, w in _TOP_COLUMNS)
    lines.append(header)
    lines.append("-" * len(header))
    for tenant in sorted(fleet):
        entry = fleet[tenant]
        stats = entry.get("stats") or {}
        live = (entry.get("slo") or {}).get("live") or {}
        miss = 100.0 * float(live.get("miss_rate", 0.0))
        cells = (
            tenant,
            str(entry.get("health", "?")),
            str(stats.get("submitted", 0)),
            str(stats.get("accepted", 0)),
            str(stats.get("shed", 0)),
            str(live.get("depth", 0)),
            "%d" % _depth_hwm(entry),
            f"{miss:.1f}",
            f"{float(live.get('attained_value', 0.0)):.1f}",
            f"{float(live.get('value_per_capacity', 0.0)):.2f}",
            str(stats.get("recoveries", 0)),
            f"{float(stats.get('frontier', 0.0)):.2f}",
        )
        lines.append(
            "  ".join(
                f"{cell:<{w}}" for cell, (_, w) in zip(cells, _TOP_COLUMNS)
            )
        )
    totals = _fleet_totals(fleet)
    lines.append("-" * len(header))
    lines.append(
        "fleet: %d tenant(s)  submitted=%d accepted=%d shed=%d "
        "value=%.1f recoveries=%d"
        % (
            len(fleet),
            totals["submitted"],
            totals["accepted"],
            totals["shed"],
            totals["value"],
            totals["recoveries"],
        )
    )
    return "\n".join(lines)


def _fleet_totals(fleet: Mapping[str, Mapping[str, Any]]) -> Dict[str, Any]:
    out = {"submitted": 0, "accepted": 0, "shed": 0, "value": 0.0, "recoveries": 0}
    for entry in fleet.values():
        stats = entry.get("stats") or {}
        live = (entry.get("slo") or {}).get("live") or {}
        out["submitted"] += int(stats.get("submitted", 0))
        out["accepted"] += int(stats.get("accepted", 0))
        out["shed"] += int(stats.get("shed", 0))
        out["value"] += float(live.get("attained_value", 0.0))
        out["recoveries"] += int(stats.get("recoveries", 0))
    return out
