"""Offline trace analysis: run summaries, tails and decision diffs.

Everything here consumes the plain-dict form produced by
:func:`repro.obs.trace.load_trace` (or an in-memory equivalent) and
returns *strings* — the CLI (``repro-sched obs {report,tail,diff}``)
prints them verbatim, and the tests assert on their content.  Keeping the
renderers pure (no I/O, no global state) makes them trivially testable
and reusable from notebooks.
"""

from __future__ import annotations

from collections import Counter as _TallyCounter
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

__all__ = ["render_report", "render_tail", "diff_traces", "decision_stream"]


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------
_FAULT_PREFIXES = ("fault.", "recovery.", "crash", "sensor.")


def _fmt_num(x: Any) -> str:
    if isinstance(x, float):
        return f"{x:g}"
    return str(x)


def _tally_table(title: str, tally: Mapping[str, int]) -> List[str]:
    lines = [title]
    if not tally:
        lines.append("  (none)")
        return lines
    width = max(len(k) for k in tally)
    for name in sorted(tally, key=lambda k: (-tally[k], k)):
        lines.append(f"  {name:<{width}}  {tally[name]}")
    return lines


def decision_stream(
    events: Iterable[Mapping[str, Any]],
) -> List[Dict[str, Any]]:
    """The ordered list of ``decision`` events from a trace event list."""
    return [dict(e) for e in events if e.get("kind") == "decision"]


# ----------------------------------------------------------------------
# Report
# ----------------------------------------------------------------------
def render_report(trace: Mapping[str, Any]) -> str:
    """A human-readable run summary from a loaded trace.

    Sections: header facts, event counts by kind, scheduler decision mix
    (by policy and by action), per-event-kind dispatch latency (when the
    trace carries a profiled metrics footer) and the fault / recovery
    timeline.
    """
    header = trace.get("header") or {}
    events: List[Mapping[str, Any]] = list(trace.get("events") or [])
    metrics = trace.get("metrics")

    lines: List[str] = []
    lines.append("trace report")
    lines.append(
        "  schema=%s events=%s runs=%s%s"
        % (
            header.get("schema", "?"),
            header.get("events", len(events)),
            header.get("runs", "?"),
            " replay-only" if header.get("replay_only") else "",
        )
    )
    if "dropped" in header:
        lines.append(
            "  ring=%s dropped=%s" % (header.get("ring", "?"), header["dropped"])
        )

    # -- event counts by kind ------------------------------------------
    kinds: _TallyCounter = _TallyCounter(e.get("kind", "?") for e in events)
    lines.append("")
    lines.extend(_tally_table("events by kind:", kinds))

    # -- decision mix --------------------------------------------------
    decisions = decision_stream(events)
    by_policy: _TallyCounter = _TallyCounter()
    by_action: _TallyCounter = _TallyCounter()
    for d in decisions:
        data = d.get("data") or {}
        by_policy[str(data.get("policy", "?"))] += 1
        by_action[str(data.get("action", "?"))] += 1
    lines.append("")
    lines.append(f"decisions: {len(decisions)}")
    if decisions:
        lines.extend(_tally_table("  by policy:", by_policy))
        lines.extend(_tally_table("  by action:", by_action))

    # -- dispatch latency (profiled runs only) -------------------------
    latency = _latency_rows(metrics)
    if latency:
        lines.append("")
        lines.append("dispatch latency by event kind (profiled):")
        width = max(len(k) for k, _ in latency)
        for kind, doc in latency:
            mean_us = 1e6 * doc["sum"] / doc["count"] if doc["count"] else 0.0
            lines.append(
                f"  {kind:<{width}}  n={doc['count']}"
                f" mean={mean_us:.1f}us max={1e6 * doc['max']:.1f}us"
            )

    # -- counters worth surfacing even without the trace ---------------
    if metrics:
        counters = metrics.get("counters") or {}
        interesting = {
            k: v
            for k, v in counters.items()
            if not k.startswith("scheduler.decisions.")
        }
        if interesting:
            lines.append("")
            lines.extend(_tally_table("metric counters:", interesting))

    # -- fault / recovery timeline -------------------------------------
    timeline = [
        e
        for e in events
        if any(str(e.get("kind", "")).startswith(p) for p in _FAULT_PREFIXES)
    ]
    lines.append("")
    lines.append(f"fault/recovery timeline: {len(timeline)} event(s)")
    for e in timeline:
        lines.append("  " + _fmt_event(e))

    # -- service supervision (service-mode traces only) ----------------
    service = [
        e for e in events if str(e.get("kind", "")).startswith("service.")
    ]
    if service:
        by_kind: _TallyCounter = _TallyCounter(
            str(e.get("kind")) for e in service
        )
        shed_reasons: _TallyCounter = _TallyCounter(
            str((e.get("data") or {}).get("reason", "?"))
            for e in service
            if e.get("kind") == "service.shed"
        )
        lines.append("")
        lines.extend(_tally_table("service events:", by_kind))
        if shed_reasons:
            lines.extend(_tally_table("  shed by reason:", shed_reasons))
        disruptions = [
            e
            for e in service
            if e.get("kind") in ("service.recover", "service.breaker")
        ]
        for e in disruptions:
            lines.append("  " + _fmt_event(e))

    return "\n".join(lines)


def _latency_rows(
    metrics: Optional[Mapping[str, Any]],
) -> List[Tuple[str, Dict[str, Any]]]:
    if not metrics:
        return []
    rows: List[Tuple[str, Dict[str, Any]]] = []
    prefix = "kernel.dispatch_latency_s."
    for name, doc in sorted((metrics.get("histograms") or {}).items()):
        if name.startswith(prefix) and doc.get("count"):
            rows.append((name[len(prefix) :], dict(doc)))
    return rows


# ----------------------------------------------------------------------
# Tail
# ----------------------------------------------------------------------
def _fmt_event(e: Mapping[str, Any]) -> str:
    parts = [f"t={_fmt_num(e.get('t', '?'))}", str(e.get("kind", "?"))]
    if e.get("life"):
        parts.append("[lifecycle]")
    data = e.get("data")
    if data:
        kv = " ".join(f"{k}={_fmt_num(v)}" for k, v in sorted(data.items()))
        parts.append(kv)
    return " ".join(parts)


def render_tail(trace: Mapping[str, Any], n: int = 25) -> str:
    """The last ``n`` events of a loaded trace, one per line."""
    events: List[Mapping[str, Any]] = list(trace.get("events") or [])
    window = events[-n:] if n > 0 else []
    lines = [f"last {len(window)} of {len(events)} event(s):"]
    for e in window:
        lines.append("  " + _fmt_event(e))
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Diff
# ----------------------------------------------------------------------
def diff_traces(
    a: Mapping[str, Any],
    b: Mapping[str, Any],
    *,
    names: Tuple[str, str] = ("A", "B"),
) -> str:
    """First divergence between two decision traces.

    Compares the ordered ``decision`` streams of two loaded traces.  The
    ``policy`` field is deliberately *excluded* from the comparison so
    that, say, V-Dover vs Dover(ĉ) on the same instance diffs on the
    first *behavioural* divergence (different action / job / time), not on
    the first event (their names always differ).  Prints a few decisions
    of context before the divergence.
    """
    da = decision_stream(a.get("events") or [])
    db = decision_stream(b.get("events") or [])

    def _key(d: Mapping[str, Any]) -> Tuple[Any, ...]:
        data = dict(d.get("data") or {})
        data.pop("policy", None)
        return (d.get("t"), tuple(sorted(data.items())))

    lines = [
        f"{names[0]}: {len(da)} decision(s); {names[1]}: {len(db)} decision(s)"
    ]
    n = min(len(da), len(db))
    for i in range(n):
        if _key(da[i]) != _key(db[i]):
            lo = max(0, i - 3)
            if lo:
                lines.append(f"  ... {lo} identical decision(s) elided ...")
            for j in range(lo, i):
                lines.append("  = " + _fmt_event(da[j]))
            lines.append(f"first divergence at decision #{i}:")
            lines.append(f"  {names[0]}: " + _fmt_event(da[i]))
            lines.append(f"  {names[1]}: " + _fmt_event(db[i]))
            return "\n".join(lines)
    if len(da) != len(db):
        longer, which = (da, 0) if len(da) > len(db) else (db, 1)
        lines.append(
            f"decisions identical for the first {n}; "
            f"{names[which]} continues with:"
        )
        lines.append("  + " + _fmt_event(longer[n]))
        return "\n".join(lines)
    lines.append(f"traces agree on all {n} decision(s)")
    return "\n".join(lines)
