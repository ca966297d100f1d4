"""Event journal and engine snapshots (crash recovery).

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

* :class:`EventJournal` — an in-memory write-ahead log of dispatched
  events.  The engine appends a :class:`JournalRecord` *before*
  dispatching each event, so after a crash the journal extends past the
  last snapshot; on restore the engine replays forward and *verifies*
  each re-dispatched event against the journaled record, raising
  :class:`~repro.errors.RecoveryError` on any divergence (which would
  indicate non-determinism or a corrupted snapshot).  Its rolling digest
  names the whole dispatch prefix in 16 bytes, so snapshots and a
  service tenant's op records carry it instead of the records.

Determinism is what makes this work: the engine consults no wall clock and
no RNG of its own, and capacity paths are materialised lazily in
time-increasing order, so "snapshot + replay the same events" is exact, not
approximate.
"""

from __future__ import annotations

import hashlib
import json
import pickle
import struct
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import RecoveryError

__all__ = [
    "JournalRecord",
    "EventJournal",
    "EngineSnapshot",
    "describe_payload",
    "legacy_wal_payloads",
    "results_bit_identical",
]

#: Encoded record prefix: time, kind, version (the key follows).
_RECORD = struct.Struct("<dBq")

#: The digest of an empty dispatch prefix.
DIGEST_SEED = bytes(16)


def _chain(digest: bytes, record: "JournalRecord") -> bytes:
    return hashlib.blake2b(digest + record.encode(), digest_size=16).digest()


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
        return asdict(self)

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
        """Time, kind and version packed, then the key (the index is the
        record's position, so it is not encoded)."""
        return _RECORD.pack(self.time, self.kind, self.version) + (
            self.key.encode()
        )

    @classmethod
    def decode(cls, index: int, payload: bytes) -> "JournalRecord":
        time, kind, version = _RECORD.unpack_from(payload)
        return cls(
            index, time, kind, payload[_RECORD.size :].decode(), version
        )


class EventJournal:
    """In-memory write-ahead log of dispatched events.

    :meth:`append` runs once per dispatch at :attr:`position` (the
    kernel's dispatch count): past the stored records it appends, below
    their end — after :meth:`rewind` — it verifies.  Either way
    :attr:`digest`, blake2b-128 chained over :meth:`JournalRecord.encode`,
    names the first ``position`` dispatches.
    """

    def __init__(self, records: Sequence[JournalRecord] = ()) -> None:
        self._records: List[JournalRecord] = list(records)
        self._base, self.position, self.digest = 0, 0, DIGEST_SEED

    def __len__(self) -> int:
        """Dispatches journaled so far (the end of the stored records)."""
        return self._base + len(self._records)

    @property
    def records(self) -> Tuple[JournalRecord, ...]:
        """The records kept, from index ``len(self) - len(records)`` on."""
        return tuple(self._records)

    def append(self, record: JournalRecord) -> None:
        position = self.position
        if record.index != position:
            raise RecoveryError(
                f"journal append out of order: got index {record.index}, "
                f"expected {position}"
            )
        if position < len(self):
            expected = self.get(position)
            if record != expected:
                raise RecoveryError(
                    f"journal replay diverged at dispatch #{position}: "
                    f"live {record} != journaled {expected}"
                )
        else:
            self._records.append(record)
        self.digest = _chain(self.digest, record)
        self.position = position + 1

    def get(self, index: int) -> JournalRecord:
        return self._records[index - self._base]

    def rewind(self, count: int, digest: Optional[bytes] = None) -> None:
        """Move to a restored snapshot's dispatch ``count`` and chain
        ``digest`` (derived from records kept since dispatch 0 if None);
        a journal holding no records is seeded there."""
        if digest is not None and not self._records:
            self._base = count
        elif not self._base <= count <= len(self) or (
            digest is None and self._base
        ):
            raise RecoveryError(
                f"journal holds dispatches {self._base}..{len(self)} but "
                f"the snapshot was cut at dispatch {count} (was its "
                "journal lost?)"
            )
        elif digest is None:
            digest = DIGEST_SEED
            for record in self._records[:count]:
                digest = _chain(digest, record)
        self.position, self.digest = count, digest

    def trim(self, count: int) -> None:
        """Drop the records a snapshot at dispatch ``count`` (at most
        :attr:`position`) supersedes."""
        if count > self._base:
            del self._records[: count - self._base]
            self._base = count


def legacy_wal_payloads(data: bytes) -> List[bytes]:
    """Read-only importer for the retired JSON-lines WAL (``wal.jsonl``:
    a header line, then one record per line).

    Returns the records as encoded payloads, in order.  A torn
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
    #: journal digest at ``dispatch_count`` (None: no journal, or older)
    journal_digest: Optional[bytes] = None
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
