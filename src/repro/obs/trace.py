"""Structured trace events and the ring-buffered trace sink.

The trace layer records *what happened and why* during a run: scheduler
decisions with reasons (admit / evict / supplement-revive / deadline-miss),
kernel transitions (releases, completions, preemptions), fault injections
and recovery/replay phases.  Events live in a bounded ring buffer (oldest
events are dropped once the ring fills, with a drop counter) and can be
exported to JSON Lines for offline analysis with ``repro-sched obs
{report,tail,diff}``.

Determinism contract (pinned by ``tests/obs/test_trace_determinism.py``):

* every event carries a ``replay`` flag.  **Replay events** describe the
  simulated world (releases, decisions, completions, injected faults) and
  are a pure function of the instance + scheduler — two same-seed runs emit
  identical replay streams, and a crash-resumed run re-emits the replayed
  window identically.  **Lifecycle events** (``replay=False``) describe the
  *process* history — crashes survived, snapshot restores — and naturally
  differ between a crashed and an uncrashed run.
* on a snapshot restore the kernel calls :meth:`TraceSink.truncate_replay`
  to drop the current run's replay events at or past the snapshot's
  dispatch index; journal-verified replay then regenerates them
  bit-identically, so ``export_jsonl(..., replay_only=True)`` produces
  byte-identical files with or without a mid-run crash (provided the ring
  did not overflow).

Events are grouped into *runs* (one engine bootstrap each, see
:meth:`TraceSink.begin_run`) so a single sink can absorb several
simulations — e.g. the paired V-Dover/Dover runs of one Figure-1 panel —
without a restore in one run truncating another run's events.
"""

from __future__ import annotations

import json
from collections import deque
from typing import Any, Dict, List, Optional

from repro.errors import ObservabilityError

__all__ = ["TraceEvent", "TraceSink", "TRACE_SCHEMA"]

#: Version tag written into exported JSONL headers.
TRACE_SCHEMA = 1


class TraceEvent:
    """One structured occurrence (slots: cheap to allocate in bulk).

    Attributes
    ----------
    kind:
        Dotted event type, e.g. ``"job.release"``, ``"decision"``,
        ``"fault.kill"``, ``"recovery.restore"``.
    t:
        Simulation time of the event (never wall-clock, so traces are
        reproducible).
    run:
        Run epoch within the sink (0-based; bumped by
        :meth:`TraceSink.begin_run`).
    dispatch:
        Kernel dispatch index during which the event was emitted (``-1``
        outside the event loop: bootstrap / wind-down).
    replay:
        True for simulation-deterministic events (see module docstring).
    data:
        Event-specific payload (JSON-serialisable, jid-keyed).
    """

    __slots__ = ("kind", "t", "run", "dispatch", "replay", "data")

    def __init__(
        self,
        kind: str,
        t: float,
        run: int,
        dispatch: int,
        replay: bool,
        data: Optional[Dict[str, Any]],
    ) -> None:
        self.kind = kind
        self.t = t
        self.run = run
        self.dispatch = dispatch
        self.replay = replay
        self.data = data

    def to_dict(self) -> Dict[str, Any]:
        """Stable JSON-ready representation (sorted at dump time)."""
        doc: Dict[str, Any] = {
            "kind": self.kind,
            "t": self.t,
            "run": self.run,
            "d": self.dispatch,
        }
        if not self.replay:
            doc["life"] = True
        if self.data:
            doc["data"] = self.data
        return doc

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TraceEvent({self.kind!r}, t={self.t:g}, run={self.run}, "
            f"d={self.dispatch}, data={self.data!r})"
        )


class TraceSink:
    """Bounded, deterministic event buffer with JSONL export.

    Parameters
    ----------
    ring:
        Maximum events retained.  When full, the oldest events are dropped
        (and counted in :attr:`dropped`).  Byte-identical export across
        crash-resume is guaranteed only while the ring has not overflowed.
    """

    def __init__(self, ring: int = 65536) -> None:
        if ring < 1:
            raise ObservabilityError(f"ring size must be >= 1, got {ring!r}")
        self.ring = int(ring)
        self._events: deque[TraceEvent] = deque(maxlen=self.ring)
        #: events evicted by the ring bound since the last :meth:`clear`
        self.dropped = 0
        #: dispatch index stamped onto emitted events (kernel-maintained)
        self.current_dispatch = -1
        self._epoch = -1

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def begin_run(self) -> int:
        """Open a new run epoch (one engine bootstrap); returns it."""
        self._epoch += 1
        self.current_dispatch = -1
        return self._epoch

    @property
    def run_epoch(self) -> int:
        """Current run epoch (-1 before the first :meth:`begin_run`)."""
        return self._epoch

    def emit(
        self,
        kind: str,
        t: float,
        data: Optional[Dict[str, Any]] = None,
        *,
        replay: bool = True,
    ) -> None:
        """Append one event (stamped with the current run + dispatch)."""
        if len(self._events) == self.ring:
            self.dropped += 1
        self._events.append(
            TraceEvent(kind, t, self._epoch, self.current_dispatch, replay, data)
        )

    def truncate_replay(self, dispatch_count: int) -> int:
        """Drop the *current run's* replay events with ``dispatch >=
        dispatch_count`` (snapshot restore: journal replay will re-emit
        them identically).  Lifecycle events and other runs' events are
        kept.  Returns the number of events removed."""
        epoch = self._epoch
        kept = [
            e
            for e in self._events
            if not (e.replay and e.run == epoch and e.dispatch >= dispatch_count)
        ]
        removed = len(self._events) - len(kept)
        if removed:
            self._events.clear()
            self._events.extend(kept)
        return removed

    def clear(self) -> None:
        """Empty the buffer and reset counters (run epochs keep counting)."""
        self._events.clear()
        self.dropped = 0
        self.current_dispatch = -1

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._events)

    def events(self, *, replay_only: bool = False) -> List[TraceEvent]:
        if replay_only:
            return [e for e in self._events if e.replay]
        return list(self._events)

    def tail(self, n: int) -> List[Dict[str, Any]]:
        """The last ``n`` events as JSON-ready dicts (diagnostics: attached
        to :class:`~repro.experiments.runner.FailedReplication`)."""
        if n <= 0:
            return []
        return [e.to_dict() for e in list(self._events)[-n:]]

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def export_jsonl(
        self,
        path,
        *,
        replay_only: bool = False,
        metrics: Optional[Dict[str, Any]] = None,
        extra_header: Optional[Dict[str, Any]] = None,
    ) -> int:
        """Write the buffer as JSON Lines; returns the event count written.

        Layout: one header object (``kind="trace.header"``), one object per
        event, and — when a metrics snapshot is supplied — one trailing
        ``kind="trace.metrics"`` object.  All objects are dumped with
        sorted keys and compact separators, so identical buffers produce
        byte-identical files.  ``replay_only=True`` restricts the export to
        the deterministic replay stream (and omits the drop/lifecycle
        variance), which is what the byte-identity suite compares.
        """
        events = self.events(replay_only=replay_only)
        header: Dict[str, Any] = {
            "kind": "trace.header",
            "schema": TRACE_SCHEMA,
            "events": len(events),
            "runs": self._epoch + 1,
            "replay_only": bool(replay_only),
        }
        if not replay_only:
            header["dropped"] = self.dropped
            header["ring"] = self.ring
        if extra_header:
            header.update(extra_header)
        with open(path, "w") as fh:
            fh.write(_dumps(header) + "\n")
            for event in events:
                fh.write(_dumps(event.to_dict()) + "\n")
            if metrics is not None:
                fh.write(_dumps({"kind": "trace.metrics", "metrics": metrics}) + "\n")
        return len(events)


def _dumps(doc: Dict[str, Any]) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def load_trace(path) -> Dict[str, Any]:
    """Read a trace file written by :meth:`TraceSink.export_jsonl`.

    Returns ``{"header": dict, "events": [dict, ...], "metrics": dict |
    None}``.  Raises :class:`~repro.errors.ObservabilityError` on malformed
    input (missing/foreign header, undecodable line)."""
    path = str(path)
    header: Optional[Dict[str, Any]] = None
    events: List[Dict[str, Any]] = []
    metrics: Optional[Dict[str, Any]] = None
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                doc = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ObservabilityError(
                    f"{path}: undecodable trace line {lineno}"
                ) from exc
            if lineno == 1:
                if doc.get("kind") != "trace.header":
                    raise ObservabilityError(
                        f"{path}: not a repro trace file (missing header)"
                    )
                header = doc
                continue
            if doc.get("kind") == "trace.metrics":
                metrics = doc.get("metrics")
                continue
            events.append(doc)
    if header is None:
        raise ObservabilityError(f"{path}: empty trace file")
    return {"header": header, "events": events, "metrics": metrics}
