"""Runtime observability for the scheduling stack: structured tracing,
a mergeable metrics registry, and opt-in profiling — all behind one
module-level gate that costs a single ``is not None`` check when off.

See ``docs/OBSERVABILITY.md`` for the trace schema, the metric-name
catalogue and the overhead guarantee.
"""

from repro.obs.core import (
    ObsContext,
    ObsSpec,
    current,
    disable,
    enable,
    enabled,
    session,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    WindowRing,
    merge_snapshots,
)
from repro.obs.correlate import correlate_request, render_request_trace
from repro.obs.report import decision_stream, diff_traces, render_report, render_tail
from repro.obs.telemetry import (
    HEALTH_STATES,
    SloTracker,
    lint_prometheus,
    render_prometheus,
    render_top,
    slo_parity_view,
)
from repro.obs.trace import TRACE_SCHEMA, TraceEvent, TraceSink, load_trace

__all__ = [
    "ObsContext",
    "ObsSpec",
    "current",
    "enabled",
    "enable",
    "disable",
    "session",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "WindowRing",
    "merge_snapshots",
    "TraceEvent",
    "TraceSink",
    "TRACE_SCHEMA",
    "load_trace",
    "render_report",
    "render_tail",
    "diff_traces",
    "decision_stream",
    "SloTracker",
    "slo_parity_view",
    "render_prometheus",
    "lint_prometheus",
    "render_top",
    "HEALTH_STATES",
    "correlate_request",
    "render_request_trace",
]
