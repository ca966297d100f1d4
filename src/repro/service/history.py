"""A service tenant's history: what its live image leaves out, held once.

A tenant's snapshot images only live state — unfinished jobs, the event
queue, the policy state and the trace since the last drain
(:meth:`repro.kernel.core.SchedulingKernel.drain`).  Everything else is
*history*, appended once per snapshot commit as one
:class:`HistoryRecord`: the decisions made since the previous commit
(accepted jobs in admission order, shed records, injected faults,
request id → outcome/jid entries) and the terminal kernel history the
committed image no longer holds (closed segments, outcomes, completion
times, value points, finished jobs' lost work, the policy's closed
history).  Records concatenate: the decisions and trace of a whole run
are its records in order, then whatever the live state still holds.

A cold start reads the records once, folding their decisions back into
the dedup and correlation indexes; otherwise only a tenant's
``close()``/``report()`` and ``repro obs trace`` read them back, one
record at a time (:func:`fold_history`), keeping no decoded copy.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field
from typing import Any, Iterable, List, Optional, Tuple

from repro.errors import RecoveryError
from repro.service.admission import ShedRecord
from repro.sim.job import Job, JobStatus
from repro.sim.trace import RunSegment, ScheduleTrace

__all__ = ["HistoryRecord", "fold_history"]

#: Encoding version of a record (the first element of its pickle).
RECORD_VERSION = 1


@dataclass
class HistoryRecord:
    """The history one snapshot commit hands over (see module doc)."""

    accepted: List[Job] = field(default_factory=list)
    shed: List[ShedRecord] = field(default_factory=list)
    injected: List[Tuple[float, tuple]] = field(default_factory=list)
    #: ``(rid, outcome, jid or None)`` in decision order
    requests: List[Tuple[str, str, Optional[int]]] = field(default_factory=list)
    #: one list of ``(start, end, jid, work)`` per processor
    segments: List[List[tuple]] = field(default_factory=list)
    outcomes: List[Tuple[int, str]] = field(default_factory=list)
    completion_times: List[Tuple[int, float]] = field(default_factory=list)
    value_points: List[Tuple[float, float]] = field(default_factory=list)
    lost_work: List[Tuple[int, float]] = field(default_factory=list)
    policy: List[Any] = field(default_factory=list)
    #: the kernel's drain count once this record's deltas are in
    cursor: int = 0

    def add_delta(self, delta: dict) -> None:
        """Fold one kernel drain delta in."""
        for i, segs in enumerate(delta["segments"]):
            if i == len(self.segments):
                self.segments.append([])
            self.segments[i].extend(segs)
        self.outcomes.extend(delta["outcomes"])
        self.completion_times.extend(delta["completion_times"])
        self.value_points.extend(delta["value_points"])
        self.lost_work.extend(delta["lost_work"])
        self.policy.extend(delta["policy"])
        self.cursor = delta["cursor"]

    def encode(self) -> bytes:
        return pickle.dumps(
            (
                RECORD_VERSION,
                [
                    (j.jid, j.release, j.workload, j.deadline, j.value)
                    for j in self.accepted
                ],
                [
                    (r.tenant, r.jid, r.reason, r.time, r.value,
                     r.workload, r.density, r.laxity)
                    for r in self.shed
                ],
                self.injected,
                self.requests,
                self.segments,
                self.outcomes,
                self.completion_times,
                self.value_points,
                self.lost_work,
                self.policy,
                self.cursor,
            ),
            protocol=pickle.HIGHEST_PROTOCOL,
        )

    @classmethod
    def decode(cls, data: bytes) -> "HistoryRecord":
        fields = pickle.loads(data)
        if fields[0] != RECORD_VERSION:
            raise RecoveryError(
                f"unknown history record version {fields[0]!r}"
            )
        (_v, accepted, shed, injected, requests, segments, outcomes,
         times, points, lost, policy, cursor) = fields
        return cls(
            accepted=[Job(*j) for j in accepted],
            shed=[ShedRecord(*r) for r in shed],
            injected=[(t, tuple(p)) for t, p in injected],
            requests=requests,
            segments=segments,
            outcomes=outcomes,
            completion_times=times,
            value_points=points,
            lost_work=lost,
            policy=policy,
            cursor=cursor,
        )


def fold_history(records: Iterable[HistoryRecord], live: ScheduleTrace):
    """A whole run's decisions and trace: ``records`` in order, then the
    ``live`` trace (the kernel's, still undrained).

    Returns ``(accepted, shed, injected, trace)``.  Segment and value
    point lists concatenate in order: the kernel keeps a processor's
    last segment live, so no merge spans a record.  A tenant runs one
    processor, whose segments are the trace's."""
    accepted: List[Job] = []
    shed: List[ShedRecord] = []
    injected: List[Tuple[float, tuple]] = []
    trace = ScheduleTrace()
    for record in records:
        accepted.extend(record.accepted)
        shed.extend(record.shed)
        injected.extend(record.injected)
        if record.segments:
            trace.segments.extend(RunSegment(*seg) for seg in record.segments[0])
        for jid, name in record.outcomes:
            trace.outcomes[jid] = JobStatus[name]
        trace.completion_times.update(record.completion_times)
        trace.value_points.extend(record.value_points)
        trace.lost_work.update(record.lost_work)
    trace.segments.extend(live.segments)
    trace.outcomes.update(live.outcomes)
    trace.completion_times.update(live.completion_times)
    trace.value_points.extend(live.value_points)
    trace.lost_work.update(live.lost_work)
    return accepted, shed, injected, trace
