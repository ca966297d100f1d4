"""Write-ahead event journal and engine snapshots (crash recovery).

The recovery story (docs/ROBUSTNESS.md) has two cooperating artifacts:

* :class:`EngineSnapshot` — a complete, picklable image of a
  :class:`~repro.sim.engine.SimulationEngine` mid-run: simulation clock,
  per-job remaining workload and status, the running segment's anchors, the
  event heap (with its insertion-sequence counter, so post-restore pushes
  get the same tie-breaking sequence numbers), the trace accumulators, the
  scheduler's policy state, and the capacity object itself (pickled
  wholesale, which captures any lazily-materialised stochastic path *and*
  its RNG state).  Restoring a snapshot into a fresh engine and running to
  the horizon yields a :class:`~repro.sim.metrics.SimulationResult`
  bit-identical to the uncrashed run.

* :class:`EventJournal` — a write-ahead log of dispatched events.  The
  engine appends a :class:`JournalRecord` *before* dispatching each event,
  so after a crash the journal extends past the last snapshot; on restore
  the engine replays forward and *verifies* each re-dispatched event
  against the journaled record, raising
  :class:`~repro.errors.RecoveryError` on any divergence (which would
  indicate non-determinism or a corrupted snapshot).  A service tenant's
  journal also frames every record into its store's ``wal/``
  :class:`~repro.store.log.SegmentedLog`, the one durable log format.

Determinism is what makes this work: the engine consults no wall clock and
no RNG of its own, and capacity paths are materialised lazily in
time-increasing order, so "snapshot + replay the same events" is exact, not
approximate.
"""

from __future__ import annotations

import json
import pickle
import struct
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from repro.errors import RecoveryError

if TYPE_CHECKING:  # pragma: no cover
    from repro.store.log import SegmentedLog

__all__ = [
    "JournalRecord",
    "EventJournal",
    "EngineSnapshot",
    "describe_payload",
    "legacy_wal_payloads",
    "results_bit_identical",
]

#: WAL record payload prefix: time, kind, version (the key follows).
_WAL_RECORD = struct.Struct("<dBq")


def describe_payload(kind: int, payload: Any) -> str:
    """Canonical string key for an event's payload (journal comparisons).

    Job-carrying events reduce to the jid; alarms add their tag; faults
    stringify their descriptor tuple.  Two dispatches are "the same event"
    iff time, kind and this key all agree.
    """
    from repro.sim.events import EventKind

    k = EventKind(kind)
    if k is EventKind.COMPLETION and isinstance(payload, tuple):
        # Multiprocessor completion: payload is ``(proc, job)``.  The
        # single-processor engine keeps the bare-Job form so existing
        # journals (and their keys) stay bit-identical.
        proc, job = payload
        return f"jid:{job.jid}@p{proc}"
    if k in (EventKind.RELEASE, EventKind.COMPLETION, EventKind.DEADLINE):
        return f"jid:{payload.jid}"
    if k is EventKind.ALARM:
        job, tag = payload
        return f"alarm:{job.jid}:{tag}"
    if k is EventKind.TIMER:
        return f"timer:{payload}"
    if k is EventKind.END:
        return "end"
    if k is EventKind.FAULT:
        return "fault:" + ":".join(str(x) for x in payload)
    return repr(payload)  # pragma: no cover - future kinds


@dataclass(frozen=True)
class JournalRecord:
    """One dispatched event, as logged write-ahead."""

    index: int  #: dispatch index (0-based, monotone)
    time: float
    kind: int  #: ``int(EventKind)``
    key: str  #: :func:`describe_payload` of the event's payload
    version: int = 0

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "time": self.time,
            "kind": self.kind,
            "key": self.key,
            "version": self.version,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "JournalRecord":
        return cls(
            index=int(d["index"]),
            time=float(d["time"]),
            kind=int(d["kind"]),
            key=str(d["key"]),
            version=int(d.get("version", 0)),
        )

    def encode(self) -> bytes:
        """WAL payload: time, kind and version packed, then the key
        (the index is the log sequence number)."""
        return _WAL_RECORD.pack(self.time, self.kind, self.version) + (
            self.key.encode()
        )

    @classmethod
    def decode(cls, index: int, payload: bytes) -> "JournalRecord":
        time, kind, version = _WAL_RECORD.unpack_from(payload)
        return cls(
            index, time, kind, payload[_WAL_RECORD.size :].decode(), version
        )


class EventJournal:
    """Append-only write-ahead log of dispatched events.

    In-memory always.  With a ``log`` (a :class:`~repro.store.log.
    SegmentedLog` — the tenant store's ``wal/``) every append is also
    framed into it, and opening over a non-empty log loads its records
    first, so a cold-started kernel verifies its re-dispatches against
    them and extends the same log past them.  The log's sequence number
    *is* the dispatch index, so records store no index of their own.
    Appends reach the OS at once (they survive ``SIGKILL``); power-loss
    durability is the store's business — :meth:`~repro.store.tenant.
    TenantStore.write_snapshot` syncs the WAL before it commits a
    recovery anchor.
    """

    def __init__(self, log: "SegmentedLog | None" = None) -> None:
        self._records: List[JournalRecord] = []
        self._log = log
        if log is not None:
            if log.base_seq != 0:
                raise RecoveryError(
                    f"WAL starts at dispatch {log.base_seq}, not 0 — its "
                    "head segments are missing"
                )
            self._records = [
                JournalRecord.decode(seq, payload)
                for seq, payload in log.entries()
            ]

    def __len__(self) -> int:
        return len(self._records)

    @property
    def records(self) -> Tuple[JournalRecord, ...]:
        return tuple(self._records)

    def append(self, record: JournalRecord) -> None:
        if record.index != len(self._records):
            raise RecoveryError(
                f"journal append out of order: got index {record.index}, "
                f"expected {len(self._records)}"
            )
        if self._log is not None:
            self._log.append(record.encode(), sync=False)
        self._records.append(record)

    def flush(self, *, sync: bool = False) -> None:
        """Appends already reach the OS; ``sync=True`` also forces the
        log to stable storage (a no-op for in-memory journals)."""
        if sync and self._log is not None:
            self._log.sync()

    def get(self, index: int) -> JournalRecord:
        return self._records[index]


def legacy_wal_payloads(data: bytes) -> List[bytes]:
    """Read-only importer for the retired JSON-lines WAL (``wal.jsonl``:
    a header line, then one record per line).

    Returns the records as WAL log payloads, in order.  A torn
    (undecodable) *final* line is the crash signature and is dropped; a
    bad line anywhere else raises :class:`~repro.errors.RecoveryError`.
    """
    lines = data.decode("utf-8", errors="replace").splitlines()
    if not lines:
        raise RecoveryError("legacy WAL is empty")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise RecoveryError("legacy WAL: corrupt header") from exc
    if not isinstance(header, dict) or header.get("kind") != "event_journal":
        raise RecoveryError("legacy WAL: not an event journal")
    if header.get("schema") != 1:
        raise RecoveryError(
            f"legacy WAL: unsupported schema {header.get('schema')!r}"
        )
    payloads: List[bytes] = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            record = JournalRecord.from_dict(json.loads(line))
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            if lineno == len(lines):
                break  # torn final line: the crash signature
            raise RecoveryError(
                f"legacy WAL: corrupt record at line {lineno}"
            ) from exc
        if record.index != len(payloads):
            raise RecoveryError(
                f"legacy WAL: record at line {lineno} has index "
                f"{record.index}, expected {len(payloads)}"
            )
        payloads.append(record.encode())
    return payloads


@dataclass
class EngineSnapshot:
    """A complete, picklable image of a mid-run simulation engine.

    Jobs are referenced by jid (the restoring engine re-binds them to its
    own :class:`~repro.sim.job.Job` objects, preserving ``is``-identity in
    scheduler queues); the capacity functions travel as a pickle blob so
    any materialised stochastic path and RNG state survive exactly.

    Schema 2 generalises the image to ``m`` processors: the running-job
    slot and segment anchors are per-processor lists, traces are a list
    of per-processor segment lists, and ``capacity_blob`` pickles the
    *list* of capacity models.  The single-processor engine is simply the
    ``n_procs == 1`` case (element 0 everywhere).
    """

    schema: int = 2
    scheduler_name: str = ""
    #: simulation clock
    now: float = 0.0
    horizon: float = 0.0
    #: number of processors the image describes (1 for the single engine)
    n_procs: int = 1
    #: per-processor jid of the running job (None = idle)
    current_jids: List[Optional[int]] = field(default_factory=lambda: [None])
    seg_start: List[float] = field(default_factory=lambda: [0.0])
    seg_remaining0: List[float] = field(default_factory=lambda: [0.0])
    seg_cum0: List[float] = field(default_factory=lambda: [0.0])
    remaining: Dict[int, float] = field(default_factory=dict)
    #: jid -> JobStatus name
    status: Dict[int, str] = field(default_factory=dict)
    completion_version: Dict[int, int] = field(default_factory=dict)
    alarm_version: Dict[int, int] = field(default_factory=dict)
    #: encoded heap entries ``(time, kind, seq, payload_desc, version)``
    events: List[tuple] = field(default_factory=list)
    next_seq: int = 0
    stale_hint: int = 0
    #: events dispatched so far (aligns with the journal index)
    dispatch_count: int = 0
    #: per-processor trace accumulators (one segment list per processor)
    trace_segments: List[List[Tuple[float, float, int, float]]] = field(
        default_factory=lambda: [[]]
    )
    trace_outcomes: Dict[int, str] = field(default_factory=dict)
    trace_completion_times: Dict[int, float] = field(default_factory=dict)
    trace_value_points: List[Tuple[float, float]] = field(default_factory=list)
    trace_lost_work: Dict[int, float] = field(default_factory=dict)
    #: :meth:`repro.sim.scheduler.Scheduler.get_state`
    scheduler_state: Dict[str, Any] = field(default_factory=dict)
    #: ``pickle.dumps(list_of_capacities)``
    capacity_blob: bytes = b""
    #: indices (into the engine's fault list) of faults already fired
    fired_faults: Tuple[int, ...] = ()

    def roundtrip(self) -> "EngineSnapshot":
        """Pickle round-trip (what crossing a process boundary does)."""
        return pickle.loads(pickle.dumps(self))


def results_bit_identical(a, b) -> bool:
    """True iff two :class:`~repro.sim.metrics.SimulationResult`\\ s are
    bit-identical: same scheduler, horizon, segments (``==`` on floats, no
    tolerance), outcomes, completion times and value points."""
    return (
        a.scheduler_name == b.scheduler_name
        and a.horizon == b.horizon
        and a.trace.segments == b.trace.segments
        and a.trace.outcomes == b.trace.outcomes
        and a.trace.completion_times == b.trace.completion_times
        and a.trace.value_points == b.trace.value_points
        and getattr(a.trace, "lost_work", {}) == getattr(b.trace, "lost_work", {})
    )
