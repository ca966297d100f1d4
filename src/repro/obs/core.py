"""The observability gate and the context instrumented code sees.

**Zero overhead when off.**  The whole subsystem hides behind one
module-level gate: :func:`current` returns the active :class:`ObsContext`
or ``None``.  Instrumented code captures it once (the kernel at
construction, schedulers through their binding context) and guards every
emission with a single ``if obs is not None`` — when observability is
disabled (the default) the hot path pays exactly that attribute check and
nothing else: no string formatting, no dict lookups, no allocation.  The
benchmark ``benchmarks/test_obs_overhead.py`` pins the cost of those
checks under 5% of the per-event dispatch budget, and the Figure-1
regression values are bit-identical with the gate open or closed (the
trace layer observes; it never perturbs).

Usage::

    from repro import obs

    with obs.session(ring=65536, profile=True) as octx:
        result = simulate(jobs, capacity, VDoverScheduler(k=7.0))
    octx.sink.export_jsonl("run.jsonl", metrics=octx.metrics.snapshot())

Sessions nest (a stack): the Monte-Carlo worker opens a per-replication
session even when the caller already holds one, and :func:`disable`
restores the outer context.  ``REPRO_OBS=1`` in the environment opens a
default session at import time (useful for ad-hoc CLI tracing).
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional

from repro.errors import ObservabilityError
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import TraceSink

__all__ = [
    "ObsContext",
    "ObsSpec",
    "current",
    "enabled",
    "enable",
    "disable",
    "session",
]


@dataclass(frozen=True)
class ObsSpec:
    """Picklable recipe for opening an observability session elsewhere
    (e.g. inside a Monte-Carlo worker process).

    Attributes
    ----------
    ring:
        Trace ring size for the worker-side sink.
    profile:
        Enable wall-clock dispatch-latency sampling.
    tail:
        How many trailing trace events to attach to a
        :class:`~repro.experiments.runner.FailedReplication`.
    """

    ring: int = 4096
    profile: bool = False
    tail: int = 25


class ObsContext:
    """What instrumented code holds: a trace sink, a metrics registry and
    the profiling flag.  Built by :func:`enable`; read-only thereafter."""

    __slots__ = ("sink", "metrics", "profile", "clock")

    def __init__(
        self,
        sink: Optional[TraceSink],
        metrics: MetricsRegistry,
        profile: bool = False,
    ) -> None:
        self.sink = sink
        self.metrics = metrics
        self.profile = bool(profile)
        #: monotonic wall clock used by the profiler (patchable in tests)
        self.clock = time.perf_counter

    # -- emission helpers ------------------------------------------------
    def emit(
        self,
        kind: str,
        t: float,
        data: Optional[Dict[str, Any]] = None,
        *,
        replay: bool = True,
    ) -> None:
        sink = self.sink
        if sink is not None:
            sink.emit(kind, t, data, replay=replay)

    def decision(
        self,
        policy: str,
        action: str,
        t: float,
        jid: Optional[int] = None,
        **extra: Any,
    ) -> None:
        """A scheduler decision with its reason (the trace's main course).

        ``action`` is a dotted verb like ``"admit.idle"``,
        ``"preempt.edf"``, ``"zero_laxity.demote"``,
        ``"revive.supplement"``; ``jid`` names the job acted on (when
        any).  Counted under ``scheduler.decisions.<action>`` as well, so
        decision mixes survive into merged Monte-Carlo metrics where the
        ring-bounded trace may not."""
        data: Dict[str, Any] = {"policy": policy, "action": action}
        if jid is not None:
            data["jid"] = jid
        if extra:
            data.update(extra)
        sink = self.sink
        if sink is not None:
            sink.emit("decision", t, data)
        self.metrics.counter("scheduler.decisions." + action).inc()

    def snapshot_metrics(self) -> Dict[str, Any]:
        return self.metrics.snapshot()


#: Stack of active contexts; the top is what :func:`current` returns.
_STACK: List[ObsContext] = []


def current() -> Optional[ObsContext]:
    """The active context, or ``None`` when observability is off."""
    return _STACK[-1] if _STACK else None


def enabled() -> bool:
    return bool(_STACK)


def enable(
    *,
    ring: int = 65536,
    profile: bool = False,
    trace: bool = True,
) -> ObsContext:
    """Open a session and make it the active context (stacked).

    ``trace=False`` runs metrics-only (no ring buffer) — the cheapest
    enabled mode, used by metrics-only Monte-Carlo sweeps."""
    octx = ObsContext(
        TraceSink(ring=ring) if trace else None,
        MetricsRegistry(),
        profile=profile,
    )
    _STACK.append(octx)
    return octx


def disable() -> None:
    """Close the innermost session (restoring the enclosing one)."""
    if not _STACK:
        raise ObservabilityError("observability is not enabled")
    _STACK.pop()


@contextmanager
def session(
    *,
    ring: int = 65536,
    profile: bool = False,
    trace: bool = True,
) -> Iterator[ObsContext]:
    """Scoped :func:`enable` / :func:`disable` pair."""
    octx = enable(ring=ring, profile=profile, trace=trace)
    try:
        yield octx
    finally:
        # Pop *this* session specifically even if callees leaked one.
        while _STACK and _STACK[-1] is not octx:
            _STACK.pop()
        if _STACK:
            _STACK.pop()


def _maybe_enable_from_env() -> None:  # pragma: no cover - import-time knob
    raw = os.environ.get("REPRO_OBS", "")
    if raw and raw not in ("0", "false", "no", "off"):
        enable(profile=os.environ.get("REPRO_OBS_PROFILE", "") not in ("", "0"))


_maybe_enable_from_env()
