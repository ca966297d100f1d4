"""Helpers shared by the workloads: statistics, memory, metric tables."""

from __future__ import annotations

import resource
import statistics
from typing import Dict, Iterable, List, Sequence

from ledger import KEYS, SELF_KEYS

#: Every end-to-end metric (tracing off), with its unit.  Each workload
#: reports all of them; see BENCHMARK.json for what each means there.
END_TO_END = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "ops_per_s": "1/s",
    "call_p50_ms": "ms",
    "call_p99_ms": "ms",
    "peak_rss_mb": "MB",
}

#: Every per-layer metric (tracing on), with its unit.  Counts and times
#: are per op (one replication, one instance run or one acked line).
PER_LAYER = {
    "capacity.calls": "count/op",
    "capacity.self_s": "s/op",
    "events.push": "count/op",
    "events.pop": "count/op",
    "events.self_s": "s/op",
    "kernel.dispatches": "count/op",
    "kernel.noop_pops": "count/op",
    "kernel.self_s": "s/op",
    "policy.calls": "count/op",
    "policy.group_width_mean": "count",
    "policy.self_s": "s/op",
    "workload.self_s": "s/op",
    "runner.busy_frac": "ratio",
    "runner.ipc_bytes": "B/op",
    "ingress.lines": "count/op",
    "ingress.parse_s": "s/op",
    "supervisor.queue_wait_s": "s/op",
    "shard.self_s": "s/op",
    "admission.plan_calls": "count/op",
    "admission.shed": "count/op",
    "admission.self_s": "s/op",
    "store.oplog_appends": "count/op",
    "store.fsyncs": "count/op",
    "store.fsync_s": "s/op",
    "store.snapshot_commits": "count/op",
    "store.snapshot_bytes_mean": "B",
    "store.snapshot_s": "s/op",
    "store.self_s": "s/op",
    "store.wchar_per_accepted": "B",
    "store.cold_start_s": "s",
    "store.bytes_per_accepted": "B",
    "journal.records": "count/op",
    "journal.bytes": "B/op",
    "journal.fsyncs": "count/op",
    "journal.self_s": "s/op",
    "telemetry.calls": "count/op",
    "telemetry.self_s": "s/op",
    "trace.coverage": "ratio",
    "trace.overhead": "ratio",
}

#: Ledger counters copied per op into the per-layer table unchanged.
_PER_OP = tuple(
    name for name in PER_LAYER if name in KEYS and PER_LAYER[name].endswith("/op")
)


class Tally:
    """Attempted / failed operation counts plus the failure messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(what)


def quantile(values: Sequence[float], q: float) -> float:
    """The ``q``-quantile (0 < q < 1) by linear interpolation."""
    data = sorted(values)
    if len(data) == 1:
        return data[0]
    pos = q * (len(data) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def median(values: Iterable[float]) -> float:
    return statistics.median(list(values))


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def diff(after: Dict[str, float], before: Dict[str, float]) -> Dict[str, float]:
    return {key: after[key] - before.get(key, 0.0) for key in after}


def add(into: Dict[str, float], other: Dict[str, float]) -> None:
    for key, value in other.items():
        into[key] = into.get(key, 0.0) + value


def layer_metrics(
    counts: Dict[str, float],
    ops: int,
    traced_wall: float,
    overhead: float,
    extra: Dict[str, float],
) -> Dict[str, float]:
    """The per-layer table from raw ledger counters over ``ops`` ops.

    ``traced_wall`` is the time the traced processes were available for
    layer work (``trace.coverage`` = summed self time / that).  ``extra``
    supplies the metrics that are not plain per-op counters."""
    out: Dict[str, float] = {name: 0.0 for name in PER_LAYER}
    for name in _PER_OP:
        out[name] = counts.get(name, 0.0) / ops
    out["kernel.noop_pops"] = (
        counts.get("events.pop", 0.0) - counts.get("kernel.dispatches", 0.0)
    ) / ops
    instants = counts.get("policy.instants", 0.0)
    out["policy.group_width_mean"] = (
        counts.get("policy.calls", 0.0) / instants if instants else 0.0
    )
    commits = counts.get("store.snapshot_commits", 0.0)
    out["store.snapshot_bytes_mean"] = (
        counts.get("store.snapshot_bytes", 0.0) / commits if commits else 0.0
    )
    covered = sum(counts.get(key, 0.0) for key in SELF_KEYS)
    out["trace.coverage"] = covered / traced_wall if traced_wall > 0 else 0.0
    out["trace.overhead"] = overhead
    out.update(extra)
    return out


def fingerprint_counts(counts: Dict[str, float]) -> Dict[str, int]:
    """The deterministic counters of one fixed unit of work."""
    keys = (
        "kernel.dispatches", "capacity.calls", "events.push", "events.pop",
        "events.queue_heap", "events.queue_calendar", "policy.calls",
        "admission.plan_calls", "admission.shed", "store.oplog_appends",
        "store.op_records", "store.fsyncs", "store.snapshot_commits",
        "journal.records", "journal.fsyncs",
    )
    return {key: int(round(counts.get(key, 0.0))) for key in keys}
