"""The scheduling kernel: one event loop for all engines.

Everything the single-processor engine learned in PRs 1–3 — the prefix-sum
capacity fast path, execution-fault dispatch, snapshot/restore with the
write-ahead journal, the invariant watchdog, and event-heap compaction —
lives here once, parameterised over a *processor set*:

* ``m`` capacity trajectories (one per processor), each with its own
  running segment anchored at ``W(seg_start)`` when the trajectory carries
  a prefix-sum index (``supports_prefix_index``), so progress queries and
  completion re-prediction are O(log n) on every processor;
* a single global event queue ordered by ``(time, kind priority, seq)``
  with per-job version tokens for lazy deletion and automatic compaction
  (:meth:`~repro.sim.events.EventQueue.note_stale`): one binary heap,
  with unreleased jobs seeded beside it in release order
  (:meth:`~repro.sim.events.EventQueue.seed`), so the heap holds only
  released jobs' events and the next release;
* one *decision protocol* flag, which the façade
  (:class:`~repro.sim.engine.SimulationEngine`) derives from the policy's
  base class: ``single=True`` means scheduler handlers return
  ``Optional[Job]`` (the paper's single-processor interface) and the
  kernel applies it to processor 0; ``single=False`` means handlers
  return a full :class:`~repro.multi.scheduler.Assignment` which the
  kernel diffs against the current one (free preemption and migration,
  no intra-job parallelism).

Columnar hot path (this PR)
---------------------------
Per-job execution state lives in a struct-of-arrays
:class:`~repro.sim.jobtable.JobTable`: immutable job parameters as numpy
columns, the mutable ``remaining``/``status`` hot columns as row-indexed
lists the loop mutates in place.  Whole-population passes — bootstrap
event seeding, the wind-down failure sweep, laxity recomputation — are
vectorized over the columns; :class:`Job` objects remain thin views that
flow through scheduler handlers and event payloads unchanged.

One run loop (:meth:`SchedulingKernel._run`) serves closed-horizon runs
and the incremental service drive alike; the journal, watchdog, snapshot
cadence, crash plans and observability are ``is not None`` hooks in it.
Each turn pops first (the ledger-visible ``pop``) and reads the queue's
head off ``EventQueue.heap`` (mutated only in place) only where a
decision needs it; a per-kind table then gives the event's no-op
predicate and its dispatch handler, so the per-event frames are ``pop``,
one predicate and one handler.  Events that share one instant skip the
instant bookkeeping (monotonicity and horizon checks, the ``now``
update), which runs once for the first of them; events come out one pop
at a time, because a dispatch may push a new event at the *same*
instant with *higher* kind priority (e.g. a COMPLETION predicted at
exactly ``t``), which must precede the rest of the batch.  A decision
that keeps the running job enters no apply frame.

A same-instant group of releases (or of deadlines of waiting jobs) is
several of the paper's interrupts at one ``t``.  When no observability
session is open, the scheduler can decide such a group in one call
(:mod:`repro.sim.batchproto`) and the kernel can show the result is
bit-identical to handling the interrupts one at a time, the loop gathers
the group and hands it over whole; every other event — and every event of
a traced, metrics-only or profiled run — takes its own scheduler
decision.

Provably-dead events (stale version token, or a job event whose job is
already terminal) are filtered *before* journaling — ~20–35 % of pops on
the Figure-1 workloads are such no-ops.  The filter depends only on
deterministic run state, so journals written before a crash replay
exactly after restore.

Determinism contract: for a fixed instance and scheduler the run is
bit-for-bit reproducible — ties break by insertion sequence, nothing
consults a wall clock or an RNG.  The golden decision corpus
(``tests/golden/``) pins every policy's outputs and journal digests.
"""

from __future__ import annotations

import math
import pickle
from types import MappingProxyType
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.capacity.base import CapacityFunction
from repro.errors import (
    RecoveryError,
    SchedulingError,
    SimulatedCrash,
    SimulationError,
)
from repro import obs as _obs
from repro.sim.events import Event, EventKind, EventQueue
from repro.sim.job import (
    CODE_STATUS,
    STATUS_CODE,
    Job,
    JobStatus,
    validate_jobs,
)
from repro.sim.jobtable import JobTable
from repro.sim.journal import (
    EngineSnapshot,
    EventJournal,
    JournalRecord,
    describe_payload,
)
from repro.sim.trace import RunSegment, ScheduleTrace

__all__ = ["SchedulingKernel"]

_EPS = 1e-9

# Status codes (hot-loop int compares; CODE_STATUS order is append-only,
# so "terminal" is exactly "code >= COMPLETED").
_PENDING = STATUS_CODE[JobStatus.PENDING]
_READY = STATUS_CODE[JobStatus.READY]
_RUNNING = STATUS_CODE[JobStatus.RUNNING]
_COMPLETED = STATUS_CODE[JobStatus.COMPLETED]
_FAILED = STATUS_CODE[JobStatus.FAILED]
_TERMINAL_MIN = _COMPLETED

# Event kinds as module constants (one global load on the hot path).
_COMPLETION = EventKind.COMPLETION
_DEADLINE = EventKind.DEADLINE
_RELEASE = EventKind.RELEASE
_ALARM = EventKind.ALARM
_TIMER = EventKind.TIMER
_END = EventKind.END
_FAULT = EventKind.FAULT

#: Default snapshot cadence (events) when crash plans are present but the
#: caller did not pick one.
_DEFAULT_SNAPSHOT_EVERY = 64


def _never_noop(event: Event) -> bool:
    """The no-op predicate of kinds that always dispatch (a release, a
    timer, the END marker, a fault)."""
    return False


class SchedulingKernel:
    """The shared event loop (see module docstring).

    Parameters
    ----------
    jobs:
        The instance's job set (ids must be unique).
    capacities:
        One realized capacity trajectory per processor (``len >= 1``).
    scheduler:
        The online policy.  ``single=True`` expects the single-processor
        :class:`~repro.sim.scheduler.Scheduler` handler contract
        (``Optional[Job]`` decisions); ``single=False`` expects
        :class:`~repro.multi.scheduler.MultiScheduler` (full assignments).
    make_context:
        Builds the scheduler-facing context from this kernel; called at
        bootstrap and again at restore (fresh bind).
    horizon, faults, watchdog, journal, snapshot_every:
        As on the façade (see :class:`~repro.sim.engine.SimulationEngine`).
    single:
        Selects the decision protocol (see above).  In single mode the
        kernel's combined ``outcomes`` trace *is* ``traces[0]`` (one
        object), preserving the historical single-processor trace layout.
    """

    def __init__(
        self,
        jobs: Sequence[Job],
        capacities: Sequence[CapacityFunction],
        scheduler,
        *,
        make_context: Callable[["SchedulingKernel"], object],
        horizon: float | None = None,
        faults: Sequence[object] = (),
        watchdog: "object | None" = None,
        journal: "EventJournal | None" = None,
        snapshot_every: int | None = None,
        single: bool = False,
    ) -> None:
        validate_jobs(jobs)
        if not capacities:
            raise SimulationError("at least one processor required")
        self._jobs = list(jobs)
        self._by_id: Dict[int, Job] = {j.jid: j for j in jobs}
        self._caps: List[CapacityFunction] = list(capacities)
        self._scheduler = scheduler
        self._make_context = make_context
        self._single = bool(single)
        if self._single and len(self._caps) != 1:
            raise SimulationError(
                "single-decision protocol requires exactly one processor"
            )
        if horizon is None:
            horizon = max((j.deadline for j in jobs), default=0.0) + 1.0
        if not math.isfinite(horizon) or horizon < 0.0:
            raise SimulationError(f"invalid horizon: {horizon!r}")
        self._horizon = float(horizon)

        m = len(self._caps)
        # Ground-truth run state: the columnar job table plus per-processor
        # running-segment registers.  _row/_rem/_st alias the table's
        # mapping and mutable columns (the table mutates them in place on
        # restore, so the aliases never go stale).
        self._now = 0.0
        self._table = JobTable(self._jobs)
        self._row: Dict[int, int] = self._table.row_of
        self._rem: List[float] = self._table.remaining
        self._st: List[int] = self._table.status
        # Mutated only in place: the policy context reads it (sim/engine.py).
        self._current: List[Optional[Job]] = [None] * m
        self._seg_start: List[float] = [0.0] * m
        self._seg_remaining0: List[float] = [0.0] * m
        # Prefix-sum index fast path (repro.capacity.prefix): anchor each
        # running segment at its cumulative work W(seg_start) so progress
        # queries are one O(log n) lookup, W(now) − anchor — bit-identical
        # to integrate(seg_start, now), which indexed models define as
        # exactly that difference.
        self._indexed: List[bool] = [
            bool(getattr(c, "supports_prefix_index", False)) for c in self._caps
        ]
        self._advance_from = [
            getattr(c, "advance_from", None) for c in self._caps
        ]
        self._seg_cum0: List[float] = [0.0] * m
        # One-slot cumulative cache per processor: within one dispatch the
        # kernel asks W(t) for the same t several times (progress check,
        # segment close, next start's anchor); cumulative() is pure, so
        # the last (t, W(t)) pair short-circuits the repeats.
        self._cum_t: List[float] = [-1.0] * m
        self._cum_v: List[float] = [0.0] * m
        self._proc_of: Dict[int, int] = {}  # jid -> processor while running

        # Event bookkeeping.
        self._events = EventQueue(self._event_is_stale)
        self._completion_version: Dict[int, int] = {}
        self._alarm_version: Dict[int, int] = {}
        self._traces: List[ScheduleTrace] = [ScheduleTrace() for _ in range(m)]
        # Combined outcome/value record.  Single mode: the same object as
        # traces[0], so segments and outcomes share one trace (the
        # historical single-processor layout).
        self._outcomes: ScheduleTrace = (
            self._traces[0] if self._single else ScheduleTrace()
        )
        self._apply = self._apply_single if self._single else self._apply_multi
        #: The pre-dispatch filter: one predicate per event kind, true when
        #: dispatching the event would change nothing.  The dispatch
        #: handlers rely on it instead of re-checking, so it is applied to
        #: every pop, gathered or not, *before* journaling: skipped events
        #: are never journaled and never counted, so a journal written
        #: with the watchdog/observability on replays bit-identically with
        #: them off — and a pre-crash journal replays bit-identically
        #: after restore (the predicates read only deterministic run
        #: state).  A release is never a no-op, so the loops skip it.
        self._noops: Dict[EventKind, Callable[[Event], bool]] = {
            _COMPLETION: self._completion_is_noop,
            _DEADLINE: self._deadline_is_noop,
            _RELEASE: _never_noop,
            _ALARM: self._alarm_is_noop,
            _TIMER: _never_noop,
            _END: _never_noop,
            _FAULT: _never_noop,
        }
        #: One dispatch handler per live event kind (see _dispatch).
        self._handlers: Dict[EventKind, Callable[[Event, float], None]] = {
            _RELEASE: self._on_release,
            _COMPLETION: self._on_completion,
            _DEADLINE: self._on_deadline,
            _ALARM: self._on_alarm,
            _TIMER: self._on_timer,
            _FAULT: self._on_fault,
        }

        # Fault / recovery / monitoring plumbing.
        self._faults = list(faults)
        self._watchdog = watchdog
        self._journal = journal
        if snapshot_every is None and any(
            getattr(f, "is_crash_plan", False) for f in self._faults
        ):
            snapshot_every = _DEFAULT_SNAPSHOT_EVERY
        if snapshot_every is not None and snapshot_every < 1:
            raise SimulationError(
                f"snapshot_every must be >= 1, got {snapshot_every!r}"
            )
        self._snapshot_every = snapshot_every
        #: ``callable(delta)`` a service tenant sets: every periodic
        #: snapshot first hands it the terminal history (:meth:`drain`),
        #: so the image holds live state only.  None (closed-horizon runs)
        #: never drains.
        self.history_sink: Optional[Callable[[dict], None]] = None
        self._drains = 0
        self._event_crashes: List[Tuple[int, int]] = []  # (at_event, fault idx)
        self._dispatch_count = 0
        self._last_snapshot: Optional[EngineSnapshot] = None
        self._started = False
        self._ended = False
        # One-way latch: set when a segment close leaves a READY job with
        # (near-)zero remaining work.  Starting such a job mid-group would
        # predict a COMPLETION at the *current* instant, which per-event
        # dispatch would handle before the rest of the group — so once the
        # latch trips, the kernel stops gathering groups and dispatches
        # per-event (bit-identical, just without the group win).
        self._batch_unsafe = False
        # Observability: capture the active context once.  When disabled
        # (the default) this is None and every emission site in the hot
        # path reduces to a single attribute-identity check.
        self._obs = _obs.current()
        #: The object faults and watchdog monitors observe (the façade);
        #: defaults to the kernel itself, the façade points it at itself.
        self.owner = self

    # ------------------------------------------------------------------
    # Read-only accessors (used by façades, the watchdog and recovery)
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        return self._now

    @property
    def horizon(self) -> float:
        return self._horizon

    @property
    def n_procs(self) -> int:
        return len(self._caps)

    @property
    def capacity(self) -> CapacityFunction:
        """Processor 0's trajectory (the whole world in single mode)."""
        return self._caps[0]

    @property
    def capacities(self) -> List[CapacityFunction]:
        return list(self._caps)

    @property
    def trace(self) -> ScheduleTrace:
        """The combined outcome trace (``traces[0]`` in single mode)."""
        return self._outcomes

    @property
    def traces(self) -> List[ScheduleTrace]:
        return list(self._traces)

    @property
    def outcomes(self) -> ScheduleTrace:
        return self._outcomes

    @property
    def scheduler(self):
        return self._scheduler

    @property
    def jobs(self) -> List[Job]:
        return list(self._jobs)

    @property
    def jobs_by_id(self) -> Mapping[int, Job]:
        """Read-only live view of the jid → job map (no copy: the
        watchdog's monitors read it after every event)."""
        return MappingProxyType(self._by_id)

    @property
    def table(self) -> JobTable:
        """The columnar ground-truth job state (read-only use only)."""
        return self._table

    @property
    def dispatch_count(self) -> int:
        """Events dispatched so far (journal index of the next dispatch)."""
        return self._dispatch_count

    @property
    def last_snapshot(self) -> Optional[EngineSnapshot]:
        return self._last_snapshot

    @property
    def next_event_time(self) -> Optional[float]:
        """Time of the event queue's head entry (possibly a stale one)."""
        return self._events.peek_time()

    @property
    def event_queue_size(self) -> int:
        return len(self._events)

    @property
    def started(self) -> bool:
        return self._started

    @property
    def ended(self) -> bool:
        """True once the END event (or the horizon) has been reached."""
        return self._ended

    def running(self) -> Tuple[Optional[Job], ...]:
        return tuple(self._current)

    # ------------------------------------------------------------------
    # Lazy-deletion hygiene: which queued events are provably dead
    # ------------------------------------------------------------------
    def _event_is_stale(self, event: Event) -> bool:
        """True iff dispatching ``event`` would be a guaranteed no-op.

        Conservative: alarms/completions with bumped version tokens, and
        job events for jobs in a terminal state.  Alarms of RUNNING jobs
        are *not* stale (the job may return to READY before they fire)."""
        kind = event.kind
        if kind is _ALARM:
            jid = event.payload[0].jid
            if self._alarm_version.get(jid, 0) != event.version:
                return True
            row = self._row.get(jid)
            return row is not None and self._st[row] >= _TERMINAL_MIN
        if kind is _COMPLETION:
            payload = event.payload
            jid = (payload[1] if isinstance(payload, tuple) else payload).jid
            if self._completion_version.get(jid, 0) != event.version:
                return True
            row = self._row.get(jid)
            return row is not None and self._st[row] >= _TERMINAL_MIN
        if kind is _DEADLINE:
            row = self._row.get(event.payload.jid)
            return row is not None and self._st[row] >= _TERMINAL_MIN
        return False

    def _completion_is_noop(self, event: Event) -> bool:
        """Stale: the job was preempted (or finished) since it was armed."""
        payload = event.payload
        job = payload if self._single else payload[1]
        return self._completion_version.get(job.jid, 0) != event.version

    def _deadline_is_noop(self, event: Event) -> bool:
        """The job already finished."""
        return self._st[self._row[event.payload.jid]] >= _TERMINAL_MIN

    def _alarm_is_noop(self, event: Event) -> bool:
        """Re-armed or cancelled since, or the job is not waiting
        (running and finished jobs do not take alarms)."""
        job = event.payload[0]
        if self._alarm_version.get(job.jid, 0) != event.version:
            return True
        return self._st[self._row[job.jid]] != _READY

    # ------------------------------------------------------------------
    # Execution-fault plumbing (used by repro.faults.execution at arm time)
    # ------------------------------------------------------------------
    def push_fault_event(self, time: float, payload: tuple) -> None:
        """Queue a FAULT event (payload: ``("kill", i, retain[, proc])``,
        ``("evict", i[, proc])`` or ``("crash", i)``)."""
        if 0.0 <= time <= self._horizon:
            self._events.push(Event(time, _FAULT, tuple(payload)))

    def register_event_crash(self, fault_index: int, at_event: int) -> None:
        """Arrange for crash plan ``fault_index`` to fire just before the
        ``at_event``-th event dispatch."""
        self._event_crashes.append((int(at_event), int(fault_index)))

    # ------------------------------------------------------------------
    # State queries used by the contexts
    # ------------------------------------------------------------------
    def _seg_work(self, proc: int, t: float) -> float:
        """Work performed by processor ``proc``'s running segment up to
        ``t`` — via the capacity's prefix-sum index when available, else
        the naive integral (identical values either way).

        ``W(t)`` goes through ``proc``'s one-slot cache, as in
        :meth:`_start_job` (pure query: the prefix index is append-only,
        so a cached value never goes stale within a run; restore resets
        the slots)."""
        octx = self._obs
        if self._indexed[proc]:
            if octx is not None:
                octx.metrics.counter("kernel.capacity_index.hits").inc()
            if t == self._cum_t[proc]:
                return self._cum_v[proc] - self._seg_cum0[proc]
            cum = self._caps[proc].cumulative(t)
            self._cum_t[proc] = t
            self._cum_v[proc] = cum
            return cum - self._seg_cum0[proc]
        if octx is not None:
            octx.metrics.counter("kernel.capacity_index.misses").inc()
        return self._caps[proc].integrate(self._seg_start[proc], t)

    def remaining_of(self, job: Job) -> float:
        row = self._row.get(job.jid)
        if row is not None:
            code = self._st[row]
            if code == _READY:
                return self._rem[row]
            if code == _RUNNING:
                # A RUNNING job is the one on its processor (_proc_of).
                proc = self._proc_of[job.jid]
                if self._current[proc] is job:
                    done = self._seg_work(proc, self._now)
                    return max(0.0, self._seg_remaining0[proc] - done)
            if code != _PENDING:
                return self._rem[row]
        raise SchedulingError(
            f"remaining() queried for unreleased job {job.jid}"
        )

    # ------------------------------------------------------------------
    # Alarm / timer plumbing
    # ------------------------------------------------------------------
    def set_alarm(self, job: Job, time: float, tag: str) -> None:
        if job.jid not in self._row:
            raise SchedulingError(f"alarm for unknown job {job.jid}")
        when = max(time, self._now)
        version = self._alarm_version.get(job.jid, 0) + 1
        self._alarm_version[job.jid] = version
        if version > 1:
            # A previous alarm for this job may still sit in the heap.
            self._events.note_stale()
        self._events.push(Event(when, _ALARM, (job, tag), version))

    def cancel_alarm(self, job: Job) -> None:
        # Bumping the version orphans any in-flight alarm event.
        self._alarm_version[job.jid] = self._alarm_version.get(job.jid, 0) + 1
        self._events.note_stale()

    def set_timer(self, time: float, tag: str) -> None:
        self._events.push(Event(max(time, self._now), _TIMER, tag))

    # ------------------------------------------------------------------
    # Processor mechanics
    # ------------------------------------------------------------------
    def _close_segment(self, proc: int, t: float) -> None:
        """Stop the job running on ``proc`` at ``t``, folding its progress
        into the ground truth and the trace.  Leaves the processor empty."""
        job = self._current[proc]
        if job is None:
            return
        work = self._seg_work(proc, t)
        new_remaining = self._seg_remaining0[proc] - work
        tol = 1e-6 * max(1.0, job.workload)
        if new_remaining < -tol:
            raise SimulationError(
                f"job {job.jid} over-executed: remaining {new_remaining}"
            )
        row = self._row[job.jid]
        self._rem[row] = max(0.0, new_remaining)
        self._st[row] = _READY
        if new_remaining <= tol:
            # A READY job this close to done completes the instant it is
            # restarted; see the _batch_unsafe latch in __init__.
            self._batch_unsafe = True
        self._traces[proc].add_segment(self._seg_start[proc], t, job.jid, work)
        # Orphan the in-flight completion event.
        self._completion_version[job.jid] = (
            self._completion_version.get(job.jid, 0) + 1
        )
        self._events.note_stale()
        self._current[proc] = None
        self._proc_of.pop(job.jid, None)
        octx = self._obs
        if octx is not None:
            octx.metrics.counter("kernel.preemptions").inc()
            octx.emit(
                "job.preempt", t, {"jid": job.jid, "proc": proc, "work": work}
            )

    def _start_job(self, proc: int, job: Job, t: float) -> None:
        row = self._row[job.jid]
        if self._st[row] != _READY:
            raise SchedulingError(
                f"scheduler tried to run job {job.jid} in state "
                f"{CODE_STATUS[self._st[row]]}"
            )
        self._current[proc] = job
        self._proc_of[job.jid] = proc
        self._st[row] = _RUNNING
        self._seg_start[proc] = t
        rem0 = self._rem[row]
        self._seg_remaining0[proc] = rem0
        if self._indexed[proc]:
            # W(t) through the one-slot cache (see _seg_work).
            if t == self._cum_t[proc]:
                cum0 = self._cum_v[proc]
            else:
                cum0 = self._caps[proc].cumulative(t)
                self._cum_t[proc] = t
                self._cum_v[proc] = cum0
            self._seg_cum0[proc] = cum0
            advance_from = self._advance_from[proc]
            if advance_from is not None:
                finish = advance_from(t, cum0, rem0)
            else:  # pragma: no cover - indexed models all carry advance_from
                finish = self._caps[proc].advance(t, rem0)
        else:
            finish = self._caps[proc].advance(t, rem0)
        version = self._completion_version.get(job.jid, 0) + 1
        self._completion_version[job.jid] = version
        if finish <= self._horizon:
            payload = job if self._single else (proc, job)
            self._events.push(Event(finish, _COMPLETION, payload, version))
        octx = self._obs
        if octx is not None:
            octx.metrics.counter("kernel.starts").inc()
            octx.emit("job.start", t, {"jid": job.jid, "proc": proc})

    def _apply_single(self, desired: Optional[Job], t: float) -> None:
        """Switch processor 0 to ``desired`` (no-op if unchanged)."""
        if desired is self._current[0]:
            return
        self._close_segment(0, t)
        if desired is not None:
            self._start_job(0, desired, t)

    def _apply_multi(self, desired, t: float) -> None:
        """Diff a full assignment against the current one."""
        desired = list(desired)
        if len(desired) != len(self._caps):
            raise SchedulingError(
                f"assignment length {len(desired)} != "
                f"{len(self._caps)} processors"
            )
        seen: set[int] = set()
        for job in desired:
            if job is None:
                continue
            if job.jid in seen:
                raise SchedulingError(
                    f"job {job.jid} assigned to two processors at once"
                )
            seen.add(job.jid)
        # Close every processor whose job changes (incl. migrations away).
        for proc, job in enumerate(desired):
            if self._current[proc] is not job:
                self._close_segment(proc, t)
        # Start the new assignments (migrations now find the job READY).
        for proc, job in enumerate(desired):
            if job is not None and self._current[proc] is not job:
                self._start_job(proc, job, t)

    def _complete(self, proc: int, job: Job, t: float) -> None:
        """Fold the running job's final segment and record its success."""
        work = self._seg_work(proc, t)
        self._traces[proc].add_segment(self._seg_start[proc], t, job.jid, work)
        row = self._row[job.jid]
        self._rem[row] = 0.0
        self._st[row] = _COMPLETED
        self._current[proc] = None
        self._proc_of.pop(job.jid, None)
        self._completion_version[job.jid] = (
            self._completion_version.get(job.jid, 0) + 1
        )
        self._events.note_stale()
        self._outcomes.record_outcome(job, JobStatus.COMPLETED, t)
        octx = self._obs
        if octx is not None:
            octx.metrics.counter("kernel.completions").inc()
            octx.emit(
                "job.complete",
                t,
                {"jid": job.jid, "proc": proc, "value": job.value, "work": work},
            )
        desired = self._scheduler.on_job_end(job, completed=True)
        if desired is not self._current[0]:
            self._apply(desired, t)

    # ------------------------------------------------------------------
    # Event dispatch
    # ------------------------------------------------------------------
    def _dispatch(self, event: Event) -> None:
        """Apply one live event and the scheduler's decision on it.

        One handler per kind (:attr:`_handlers`, called as ``handler(event,
        t)``); the run loop indexes the same table with the kind and time
        it already holds.  Only events the no-op filter
        (:attr:`_noops`) passed come here, so the handlers do not
        re-check its conditions: a completion's version is current (its
        job is the one running), a deadline's job is not terminal and an
        alarm's job is READY with its version current.  A decision is
        applied only when it is not the job already on processor 0: in
        single mode that is exactly the no-op case of
        :meth:`_apply_single`, and a multiprocessor assignment is never a
        job, so it always applies."""
        handler = self._handlers.get(event.kind)
        if handler is None:  # pragma: no cover - defensive
            raise SimulationError(f"unhandled event kind: {event.kind!r}")
        handler(event, event.time)

    def _on_release(self, event: Event, t: float) -> None:
        job: Job = event.payload
        row = self._row[job.jid]
        self._st[row] = _READY
        self._rem[row] = job.workload
        octx = self._obs
        if octx is not None:
            octx.emit(
                "job.release",
                t,
                {
                    "jid": job.jid,
                    "deadline": job.deadline,
                    "workload": job.workload,
                    "value": job.value,
                },
            )
        desired = self._scheduler.on_release(job)
        if desired is not self._current[0]:
            self._apply(desired, t)

    def _on_completion(self, event: Event, t: float) -> None:
        if self._single:
            self._complete(0, event.payload, t)
        else:
            self._complete(*event.payload, t)

    def _on_deadline(self, event: Event, t: float) -> None:
        job = event.payload
        row = self._row[job.jid]
        current = self._current
        proc = self._proc_of.get(job.jid)
        if proc is not None and current[proc] is job:
            # Jobs with zero laxity finish *exactly* at their deadline;
            # the predicted completion instant can land one ulp past it.
            # A running job whose remaining workload is within float
            # tolerance has completed, not failed.
            done = self._seg_work(proc, t)
            left = self._seg_remaining0[proc] - done
            if left <= 1e-9 * max(1.0, job.workload):
                self._complete(proc, job, t)
                return
            self._close_segment(proc, t)
        self._st[row] = _FAILED
        self._outcomes.record_outcome(job, JobStatus.FAILED, t)
        octx = self._obs
        if octx is not None:
            octx.metrics.counter("kernel.deadline_misses").inc()
            octx.emit(
                "job.deadline_miss",
                t,
                {"jid": job.jid, "value": job.value},
            )
        desired = self._scheduler.on_job_end(job, completed=False)
        if desired is not current[0]:
            self._apply(desired, t)

    def _on_alarm(self, event: Event, t: float) -> None:
        desired = self._scheduler.on_alarm(*event.payload)
        if desired is not self._current[0]:
            self._apply(desired, t)

    def _on_timer(self, event: Event, t: float) -> None:
        desired = self._scheduler.on_timer(event.payload)
        if desired is not self._current[0]:
            self._apply(desired, t)

    def _on_fault(self, event: Event, t: float) -> None:
        """Apply an execution fault (see :mod:`repro.faults.execution`).

        Kill/evict payloads may carry a trailing processor index (default
        0 — and the only legal value in single mode), so per-machine
        targeting works on heterogeneous fleets."""
        payload = event.payload
        op = payload[0]

        if op == "crash":
            idx = int(payload[1])
            fault = self._faults[idx]
            if getattr(fault, "fired", False):
                return  # already crashed once (journal replay after resume)
            fault.fired = True
            self._raise_crash(t, at_event=None, fault_index=idx)

        elif op in ("kill", "evict"):
            if op == "kill":
                retain = float(payload[2])
                proc = int(payload[3]) if len(payload) > 3 else 0
            else:
                proc = int(payload[2]) if len(payload) > 2 else 0
            if not 0 <= proc < len(self._caps):
                raise SimulationError(
                    f"fault targets processor {proc} of {len(self._caps)}"
                )
            job = self._current[proc]
            if job is None:
                return  # the fault hit an idle processor: nothing to lose
            # Fold the progress made so far, return the job to READY.
            self._close_segment(proc, t)
            lost = 0.0
            if op == "kill":
                row = self._row[job.jid]
                old_remaining = self._rem[row]
                progress = job.workload - old_remaining
                if progress > 0.0 and retain < 1.0:
                    # The kill destroys (1 − retain) of the progress; the
                    # destroyed work *was* executed, so the trace budgets
                    # for it (validator: workload + lost_work).
                    new_remaining = job.workload - retain * progress
                    lost = new_remaining - old_remaining
                    self._outcomes.record_lost_work(job.jid, lost)
                    self._rem[row] = new_remaining
            octx = self._obs
            if octx is not None:
                octx.metrics.counter("kernel.faults." + op).inc()
                data = {"jid": job.jid, "proc": proc}
                if op == "kill":
                    data["retain"] = retain
                    data["lost"] = lost
                octx.emit("fault." + op, t, data)
            desired = self._scheduler.on_eviction(job)
            self._apply(desired, t)

        else:  # pragma: no cover - defensive
            raise SimulationError(f"unknown fault payload: {payload!r}")

    def _raise_crash(self, t: float, at_event: int | None, fault_index: int) -> None:
        """Die like a crashed process: attach the *last periodic* snapshot
        (not a fresh one — resuming must genuinely replay the journal) and
        mark the plan fired in it so the resumed run does not re-crash."""
        snapshot = self._last_snapshot
        if snapshot is not None:
            fired = set(snapshot.fired_faults)
            fired.update(
                i
                for i, f in enumerate(self._faults)
                if getattr(f, "fired", False)
            )
            snapshot.fired_faults = tuple(sorted(fired))
        octx = self._obs
        if octx is not None:
            # Process history, not simulation history: lifecycle event.
            octx.metrics.counter("kernel.crashes").inc()
            octx.emit(
                "fault.crash",
                t,
                {
                    "fault": fault_index,
                    "at_event": at_event,
                    "dispatch": self._dispatch_count,
                },
                replay=False,
            )
        raise SimulatedCrash(
            time=t,
            at_event=at_event,
            fault_index=fault_index,
            snapshot=snapshot,
        )

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def _bootstrap(self) -> None:
        """First-run initialisation: bind the scheduler, seed the event
        queue, arm faults, take snapshot zero."""
        octx = self._obs
        if octx is not None and octx.sink is not None:
            octx.sink.begin_run()
        self._scheduler.bind(self._make_context(self))
        if octx is not None:
            # After bind: adapters derive their display name during reset.
            octx.emit(
                "run.start",
                0.0,
                {
                    "scheduler": getattr(self._scheduler, "name", "?"),
                    "jobs": len(self._jobs),
                    "procs": len(self._caps),
                    "horizon": self._horizon,
                },
            )

        # Seed every job arriving inside the horizon — the membership test
        # is one vectorized pass over the release column; rows come back
        # in instance order, so sequence numbers match the historical
        # per-job loop exactly (release 2k, deadline 2k+1, END 2m).  The
        # jobs wait beside the heap in release order; a job's events are
        # built, and its deadline enters the heap, at its release.
        rows = self._table.rows_released_by(self._horizon).tolist()
        self._events.seed(map(self._table.jobs.__getitem__, rows))
        self._events.push(Event(self._horizon, _END))

        for i, fault in enumerate(self._faults):
            fault.arm(self.owner, i)
        if self._watchdog is not None:
            self._watchdog.start(self.owner)
        self._started = True
        if self._snapshot_every is not None:
            self.checkpoint()

    def _maybe_crash_at_event(self) -> None:
        """Fire any event-indexed crash plan scheduled for the *next*
        dispatch (checked before the event is popped, so the snapshot keeps
        it pending)."""
        for at_event, idx in self._event_crashes:
            if at_event == self._dispatch_count:
                fault = self._faults[idx]
                if getattr(fault, "fired", False):
                    continue
                fault.fired = True
                self._raise_crash(self._now, at_event=at_event, fault_index=idx)

    # ------------------------------------------------------------------
    # Incremental (service-mode) drive
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Bootstrap eagerly without dispatching anything.

        The closed-horizon entry point (:meth:`run_loop`) bootstraps
        lazily; a live service must bootstrap *before* the first
        admission so snapshot zero and the seeded END event exist ahead
        of any incremental state.  Idempotent."""
        if not self._started:
            self._bootstrap()

    def admit_job(self, job: Job) -> None:
        """Admit one job into a live (started) kernel.

        Mirrors bootstrap seeding exactly: the job joins the instance
        and, when it arrives inside the horizon, a RELEASE/DEADLINE pair
        is pushed (into the heap, with consecutive sequence numbers like
        a seeded pair's).  Because sequence numbers only break ties *within* one
        ``(time, kind)`` class and releases/deadlines are pushed in
        admission order, a closed-horizon replay of the accepted jobs
        (in the same order) dispatches bit-identically — the service's
        replay-equivalence contract rests on this method.

        Admission in the past is refused: the dispatch frontier has
        already moved beyond the release, so the closed-horizon replay
        would dispatch a RELEASE this run never saw.
        """
        if not self._started:
            raise SimulationError("admit_job: kernel not started")
        if self._ended:
            raise SimulationError("admit_job: kernel already ended")
        if job.jid in self._by_id:
            raise SimulationError(f"admit_job: duplicate job id {job.jid}")
        if job.release < self._now - _EPS:
            raise SimulationError(
                f"admit_job: release {job.release:g} is behind the "
                f"dispatch frontier (now={self._now:g})"
            )
        self._jobs.append(job)
        self._by_id[job.jid] = job
        self._table.append_job(job)
        if job.release <= self._horizon:
            self._events.push(Event(job.release, _RELEASE, job))
            self._events.push(Event(job.deadline, _DEADLINE, job))
        octx = self._obs
        if octx is not None:
            octx.metrics.counter("kernel.jobs.admitted").inc()
            octx.emit(
                "job.admit",
                self._now,
                {"jid": job.jid, "release": job.release},
                replay=False,
            )

    def run_until(self, until: float) -> None:
        """Dispatch every event *strictly before* ``until``, then stop.

        The exclusive bound is what makes incremental admission safe:
        all same-instant submissions are admitted before the batch at
        their release time dispatches, so the ``(kind, seq)`` order at
        that instant matches the closed-horizon replay.  ``now`` is left
        at the last dispatched event (never advanced to ``until``), again
        matching replay semantics.  No-op once the kernel has ended."""
        if not self._started:
            self._bootstrap()
        if not self._ended:
            self._run(float(until))

    def run_loop(self) -> None:
        """Execute (or, after :meth:`restore`, resume) to the horizon and
        wind down.  The façade builds the result object afterwards."""
        if not self._started:
            self._bootstrap()
        if not self._ended:
            self._run(None)
        self._wind_down()

    def _run(self, until: float | None) -> None:
        """The event loop, shared by :meth:`run_loop` and
        :meth:`run_until` (which stops before the first event at or past
        ``until``).

        Journal, watchdog, snapshot cadence, event-indexed crash plans and
        observability are ``is not None`` hooks, all loop-invariant: faults
        are armed in _bootstrap/restore (both before this point), and the
        wiring never changes mid-run.  Provably-dead events are filtered
        through their kind's no-op predicate (the :attr:`_noops` table)
        before they are counted or journaled; a release is never a
        no-op, so releases skip the filter.  Live events go to their
        kind's handler (:meth:`_dispatch`'s table) with the instant the
        loop already holds.

        Each turn pops first (every event comes out through
        :meth:`EventQueue.pop <repro.sim.events.EventQueue.pop>`, one
        ledger-visible call) and reads the queue's head
        (:attr:`EventQueue.heap <repro.sim.events.EventQueue.heap>`) only
        where a decision needs it: the ``until`` bound of an incremental
        drive, and the gather check of a release or deadline, which tests
        the event's kind before the head.  The first event of a new
        instant takes the instant bookkeeping (monotonicity and horizon
        checks, the ``now`` update); the rest of a same-timestamp batch
        skips it.  Popping one event at a time keeps the order right when
        a dispatch pushes a *same-instant* event of higher kind priority
        (a COMPLETION predicted at exactly ``t``): it comes out before the
        rest of the batch.

        When a RELEASE (or, for ``batch_pure_completions`` schedulers, a
        DEADLINE) has more events of its ``(time, kind)`` behind it, the
        whole group goes to the scheduler in one call
        (:meth:`_dispatch_gathered`).  The kernel gathers only when the
        result is bit-identical to dispatching the group event by event:
        the scheduler is ``batch_capable``, the ``_batch_unsafe`` latch is
        clear, and no observability session is open (a traced run records
        the interrupt stream one event at a time)."""
        events = self._events
        heap = events.heap
        pop = events.pop
        handlers = self._handlers
        noops = self._noops
        journal = self._journal
        watchdog = self._watchdog
        snapshot_every = self._snapshot_every
        has_event_crashes = bool(self._event_crashes)
        horizon = self._horizon
        release_key = int(_RELEASE)
        deadline_key = int(_DEADLINE)
        owner = self.owner
        octx = self._obs
        scheduler = self._scheduler
        gather = bool(getattr(scheduler, "batch_capable", False)) and octx is None
        gather_deadlines = gather and bool(
            getattr(scheduler, "batch_pure_completions", False)
        )
        # With nothing attached, a gathered release group applies only its
        # net decision (see _dispatch_release_group).
        net = (
            journal is None
            and watchdog is None
            and snapshot_every is None
            and not has_event_crashes
        )

        t = None  # the instant being dispatched
        while True:
            # Exclusive incremental bound: stop *before* popping the first
            # event at or past `until`.  Checked ahead of the event-indexed
            # crash hook so a crash armed for the next dispatch doesn't
            # fire for an event this call will never dispatch.  A stale
            # head at or past the bound also stops the loop — every live
            # event behind it is at or past the bound too.
            if until is not None and (not heap or heap[0][0] >= until):
                return
            if has_event_crashes:
                self._maybe_crash_at_event()
            try:
                event = pop()
            except SimulationError:  # the queue ran dry
                return
            time = event.time
            if time != t:
                # A new instant: monotonicity, horizon, `now`.
                if time < self._now - _EPS:
                    raise SimulationError(
                        f"time went backwards: {time} < {self._now}"
                    )
                if time > horizon:
                    self._now = horizon
                    self._ended = True
                    return
                self._now = t = time

            kind = event.kind
            # A release is never a no-op.  A group exists when the next
            # head shares the event's (time, kind); the kind is tested
            # first, the head (the queue's head: EventQueue.peek_key) only
            # then.
            if kind is _RELEASE:
                if (
                    gather
                    and heap
                    and heap[0][0] == t
                    and heap[0][1] == release_key
                    and not self._batch_unsafe
                ):
                    self._dispatch_gathered(event, t, net)
                    continue
            elif noops[kind](event):
                if octx is not None:
                    octx.metrics.counter("kernel.events.skipped_stale").inc()
                continue
            elif kind is _END:
                self._ended = True
                return
            elif (
                kind is _DEADLINE
                and gather_deadlines
                and heap
                and heap[0][0] == t
                and heap[0][1] == deadline_key
                and not self._batch_unsafe
            ):
                self._dispatch_gathered(event, t, net)
                continue
            if journal is not None:
                self._journal_event(event)
            self._dispatch_count += 1
            if octx is None:
                handlers[kind](event, t)
            else:
                self._dispatch_observed(octx, event)
            if watchdog is not None:
                watchdog.after_event(owner, event)
            if (
                snapshot_every is not None
                and self._dispatch_count % snapshot_every == 0
            ):
                self.checkpoint()

    def checkpoint(self) -> EngineSnapshot:
        """Take the periodic snapshot (draining into :attr:`history_sink`
        first, when one is set).  It stays in memory: a service tenant's
        store makes it a durable recovery anchor
        (:meth:`repro.store.tenant.TenantStore.write_snapshot`)."""
        sink = self.history_sink
        if sink is not None:
            sink(self.drain())
        self._last_snapshot = snapshot = self.snapshot()
        return snapshot

    def drain(self) -> dict:
        """Hand over the terminal history and evict what nothing names.

        Moves out of the live trace every closed segment (the last one
        per processor stays: it merges when its job runs on
        seamlessly), every outcome and completion time, every value
        point (the running total stays as the trace's ``value_base``, so
        later points sum on bit-identically) and finished jobs'
        ``lost_work`` (a live job's can still grow); the scheduler hands
        over its closed history too (:meth:`Scheduler.drain
        <repro.sim.scheduler.Scheduler.drain>`).  Then the rows of
        finished jobs that no queued event names leave the table,
        ``_by_id`` and the version maps — a stale event still moves
        ``now`` when it pops and the no-op filter reads its job's row,
        so those rows stay until their events pop.

        Returns the delta as plain data: ``segments`` (one list of
        ``(start, end, jid, work)`` per processor), ``outcomes``
        (``(jid, status name)``), ``completion_times`` (``(jid, t)``),
        ``value_points``, ``lost_work`` (``(jid, amount)``), ``policy``
        and ``cursor`` (drains so far) — plus ``finished``, the finished
        :class:`Job` objects in outcome order, for the caller's own
        accounting."""
        segments = []
        for trace in self._traces:
            closed = trace.segments[:-1]
            del trace.segments[:-1]
            segments.append([(g.start, g.end, g.jid, g.work) for g in closed])
        out = self._outcomes
        outcomes, out.outcomes = out.outcomes, {}
        times, out.completion_times = out.completion_times, {}
        points, out.value_points = out.value_points, []
        if points:
            out.value_base = points[-1][1]
        by_id = self._by_id
        finished = [by_id[jid] for jid in outcomes]
        lost = [
            (jid, out.lost_work.pop(jid))
            for jid in list(out.lost_work)
            if jid in outcomes
        ]
        drain_policy = getattr(self._scheduler, "drain", None)
        policy = [] if drain_policy is None else drain_policy(set(outcomes))

        named = set()
        for _t, _k, _s, event in self._events.dump():
            payload = event.payload
            kind = event.kind
            if kind is _ALARM:
                named.add(payload[0].jid)
            elif kind is _COMPLETION and isinstance(payload, tuple):
                named.add(payload[1].jid)
            elif kind in (_RELEASE, _COMPLETION, _DEADLINE):
                named.add(payload.jid)
        st = self._st
        keep: List[int] = []
        for row, job in enumerate(self._table.jobs):
            if st[row] < _TERMINAL_MIN or job.jid in named:
                keep.append(row)
            else:
                del by_id[job.jid]
                self._completion_version.pop(job.jid, None)
                self._alarm_version.pop(job.jid, None)
        if len(keep) < len(self._table):
            self._table.retain(keep)
            self._jobs = list(self._table.jobs)
        self._drains += 1
        return {
            "segments": segments,
            "outcomes": [(jid, status.name) for jid, status in outcomes.items()],
            "completion_times": list(times.items()),
            "value_points": points,
            "lost_work": lost,
            "policy": policy,
            "cursor": self._drains,
            "finished": finished,
        }

    def _journal_event(self, event: Event) -> None:
        """Journal (or, during post-restore replay, verify) one live event
        at the current dispatch index.  Record content is fully determined
        before the event dispatches, so gathered groups journal at pop
        time."""
        self._journal.append(
            JournalRecord(
                index=self._dispatch_count,
                time=event.time,
                kind=int(event.kind),
                key=describe_payload(int(event.kind), event.payload),
                version=event.version,
            )
        )

    # ------------------------------------------------------------------
    # Same-instant groups (repro.sim.batchproto)
    # ------------------------------------------------------------------
    def _dispatch_gathered(self, first: Event, t: float, net: bool) -> None:
        """Pop the rest of ``first``'s ``(time, kind)`` group and dispatch
        it through the batch contract.

        Every pop takes the no-op filter and the journal append/verify *at
        gather time* — the dispatch index and record content of a live
        event are fully determined before any of the group's decisions
        apply — and, when event-indexed crash plans are armed, the crash
        hook, so a crash mid-gather leaves exactly the journal prefix
        per-event dispatch would have.  The snapshot cadence is settled
        once at group end (a snapshot cannot be taken mid-group:
        popped-but-unapplied events would be lost from it).

        Group members' no-op status cannot be changed by the dispatch of
        earlier same-kind members (releases are never no-ops; a waiting
        job's deadline no-op only flips on terminality, which same-instant
        deadline handling of *other* jobs never causes), so filtering at
        gather time matches the pop-by-pop filter exactly."""
        kind = first.kind
        journal = self._journal
        noop = self._noops[kind]
        base = self._dispatch_count
        if self._event_crashes:
            rest = self._pop_group_checked((t, int(kind)))
        else:
            rest = self._events.pop_group(t, int(kind))
        if journal is not None:
            self._journal_event(first)
        self._dispatch_count += 1
        group = [first]
        for event in rest:
            if kind is not _RELEASE and noop(event):
                continue
            if journal is not None:
                self._journal_event(event)
            self._dispatch_count += 1
            group.append(event)
        if kind is _RELEASE:
            if len(group) == 1:
                self._dispatch_group_sequential(group)
            else:
                self._dispatch_release_group(group, t, net)
        else:
            self._dispatch_deadline_group(group, t)
        snapshot_every = self._snapshot_every
        if snapshot_every is not None and (
            self._dispatch_count // snapshot_every != base // snapshot_every
        ):
            self.checkpoint()

    def _pop_group_checked(self, key: Tuple[float, int]):
        """Lazily pop a ``(time, kind)`` group one event at a time, taking
        the event-indexed crash hook before each pop (the consumer counts
        and journals each event before asking for the next)."""
        events = self._events
        while events.peek_key() == key:
            self._maybe_crash_at_event()
            yield events.pop()

    def _dispatch_group_sequential(self, group: List[Event]) -> None:
        """Dispatch an already-gathered (journaled, counted) group through
        the per-event machinery — the fallback when a gathered group turns
        out not to satisfy the batch preconditions.  Bit-identical to
        per-event dispatch: under the gather gating no same-instant event
        of the group's (or a higher) priority can be pushed mid-group, so
        popping one event at a time would yield exactly these events in
        this order."""
        watchdog = self._watchdog
        owner = self.owner
        dispatch = self._dispatch
        for event in group:
            dispatch(event)
            if watchdog is not None:
                watchdog.after_event(owner, event)

    def _dispatch_release_group(
        self, group: List[Event], t: float, net: bool
    ) -> None:
        """One ``plan()`` call for a same-instant release burst.

        The jobs are marked READY (and their remaining initialised) up
        front so the scheduler sees the whole group's columns; the
        returned assignments are then applied one event at a time, so
        segments and journals are bit-identical to per-event dispatch.

        ``net=True`` (nothing attached: no journal, watchdog, snapshot
        cadence or crash plan) applies just the group's *final*
        assignment instead.  Same-instant intermediate switches are
        observably inert without journal/snapshots: they fold zero work
        (``remaining`` bit-unchanged), their zero-length segments are
        dropped by ``ScheduleTrace.add_segment``, and the completion
        events they push are orphaned within the same group — so skipping
        them changes only internal version counters and heap churn, never
        results or traces."""
        from repro.sim.batchproto import BatchView

        scheduler = self._scheduler
        row_of = self._row
        rem = self._rem
        st = self._st
        jobs: List[Job] = []
        rows: List[int] = []
        for event in group:
            job = event.payload
            row = row_of[job.jid]
            st[row] = _READY
            rem[row] = job.workload
            jobs.append(job)
            rows.append(row)
        view = BatchView(t, _RELEASE, jobs, rows, self._table)
        if net:
            self._apply(scheduler.plan(view)[-1], t)
            return
        desired = scheduler.plan(view)
        if len(desired) != len(jobs):
            raise SchedulingError(
                f"plan() returned {len(desired)} decisions for "
                f"{len(jobs)} releases"
            )
        apply = self._apply
        watchdog = self._watchdog
        if watchdog is None:
            for want in desired:
                apply(want, t)
        else:
            owner = self.owner
            for want, event in zip(desired, group):
                apply(want, t)
                watchdog.after_event(owner, event)

    def _dispatch_deadline_group(self, group: List[Event], t: float) -> None:
        """One ``on_completions()`` purge for a same-instant deadline
        sweep of *waiting* jobs.

        Batched only when no job of the group is running (then the
        per-event path per job is: mark FAILED, record, then a silent
        queue-purge ``on_job_end`` that keeps the current assignment — no
        applies, so the fold is one purge call).  Otherwise the gathered
        group falls back to per-event dispatch, which handles the
        running-job tolerance-completion branch exactly as per-event
        dispatch does."""
        current = self._current[0] if self._single else None
        batchable = self._single and current is not None
        if batchable:
            cur_jid = current.jid
            for event in group:
                if event.payload.jid == cur_jid:
                    batchable = False
                    break
        if not batchable:
            self._dispatch_group_sequential(group)
            return
        from repro.sim.batchproto import BatchView

        row_of = self._row
        st = self._st
        outcomes = self._outcomes
        watchdog = self._watchdog
        owner = self.owner
        jobs: List[Job] = []
        rows: List[int] = []
        for event in group:
            job = event.payload
            row = row_of[job.jid]
            st[row] = _FAILED
            outcomes.record_outcome(job, JobStatus.FAILED, t)
            if watchdog is not None:
                watchdog.after_event(owner, event)
            jobs.append(job)
            rows.append(row)
        self._scheduler.on_completions(
            BatchView(t, _DEADLINE, jobs, rows, self._table)
        )

    def _wind_down(self) -> None:
        """Close running segments and fail unresolved jobs at ``now``.

        The unresolved sweep is one vectorized pass over the status
        column; surviving rows come back in instance order, matching the
        historical per-job loop."""
        octx = self._obs
        for proc in range(len(self._caps)):
            self._close_segment(proc, self._now)
        jobs = self._table.jobs
        st = self._st
        for row in self._table.rows_unresolved().tolist():
            job = jobs[row]
            st[row] = _FAILED
            self._outcomes.record_outcome(job, JobStatus.FAILED, self._now)
            if octx is not None:
                octx.emit("job.unfinished", self._now, {"jid": job.jid})
        if octx is not None:
            octx.emit(
                "run.end", self._now, {"dispatches": self._dispatch_count}
            )

    def _dispatch_observed(self, octx, event: Event) -> None:
        """The traced twin of the ``handlers[kind](event, t)`` call in
        :meth:`_run` — taken only when an observability session is
        active, so none of this code runs on the disabled path.

        Stamps the sink with the dispatch index (events emitted during
        this dispatch group under it — the replay-truncation boundary on
        restore), maintains the event-loop metrics, and — under
        ``profile=True`` — samples the wall-clock dispatch latency per
        event kind.  Provably-dead events are filtered out upstream (and
        counted under ``kernel.events.skipped_stale``), so every event
        seen here is live."""
        kind = event.kind
        metrics = octx.metrics
        sink = octx.sink
        if sink is not None:
            sink.current_dispatch = self._dispatch_count - 1
        metrics.counter("kernel.events").inc()
        metrics.counter("kernel.events." + kind.name).inc()
        metrics.gauge("kernel.heap_size").set(float(len(self._events)))
        if kind is _ALARM:
            metrics.counter("kernel.alarm.fired").inc()
        if octx.profile:
            clock = octx.clock
            t0 = clock()
            self._dispatch(event)
            metrics.histogram(
                "kernel.dispatch_latency_s." + kind.name
            ).observe(clock() - t0)
        else:
            self._dispatch(event)

    def after_run(self, result) -> None:
        """Watchdog wind-down hook (called by the façade with its result)."""
        if self._watchdog is not None:
            self._watchdog.after_run(self.owner, result)

    # ------------------------------------------------------------------
    # Snapshot / restore (crash recovery)
    # ------------------------------------------------------------------
    def _encode_payload(self, kind: EventKind, payload) -> tuple:
        if kind is _COMPLETION and isinstance(payload, tuple):
            return ("pjob", payload[0], payload[1].jid)
        if kind in (_RELEASE, _COMPLETION, _DEADLINE):
            return ("job", payload.jid)
        if kind is _ALARM:
            return ("alarm", payload[0].jid, payload[1])
        if kind is _TIMER:
            return ("timer", payload)
        if kind is _END:
            return ("end",)
        if kind is _FAULT:
            return ("fault",) + tuple(payload)
        raise SimulationError(f"cannot snapshot event kind {kind!r}")  # pragma: no cover

    def _decode_payload(self, kind: EventKind, desc: tuple):
        tag = desc[0]
        try:
            if tag == "job":
                return self._by_id[desc[1]]
            if tag == "pjob":
                return (desc[1], self._by_id[desc[2]])
            if tag == "alarm":
                return (self._by_id[desc[1]], desc[2])
        except KeyError:
            raise RecoveryError(
                f"snapshot references unknown job {desc[-1]}"
            ) from None
        if tag == "timer":
            return desc[1]
        if tag == "end":
            return None
        if tag == "fault":
            return tuple(desc[1:])
        raise RecoveryError(f"cannot decode event payload {desc!r}")

    def snapshot(self) -> EngineSnapshot:
        """Image the complete mid-run state (picklable; jid-based).

        The mutable job state is copied straight off the table's columns
        (one pass each); the jid-keyed dict layout of the snapshot schema
        (2, unchanged) is materialized only here.  On a draining kernel
        the table, version maps and trace hold live state only, so the
        image does too (:meth:`drain`)."""
        events = [
            (time, kind, seq, self._encode_payload(ev.kind, ev.payload), ev.version)
            for time, kind, seq, ev in self._events.dump()
        ]
        return EngineSnapshot(
            scheduler_name=self._scheduler.name,
            now=self._now,
            horizon=self._horizon,
            n_procs=len(self._caps),
            current_jids=[
                None if job is None else job.jid for job in self._current
            ],
            seg_start=list(self._seg_start),
            seg_remaining0=list(self._seg_remaining0),
            seg_cum0=list(self._seg_cum0),
            remaining=self._table.export_remaining(),
            status=self._table.export_status(),
            completion_version=dict(self._completion_version),
            alarm_version=dict(self._alarm_version),
            events=events,
            next_seq=self._events.next_seq,
            stale_hint=self._events.stale_hint,
            dispatch_count=self._dispatch_count,
            journal_digest=(
                None if self._journal is None else self._journal.digest
            ),
            trace_segments=[
                [(s.start, s.end, s.jid, s.work) for s in trace.segments]
                for trace in self._traces
            ],
            trace_outcomes={
                jid: st.name for jid, st in self._outcomes.outcomes.items()
            },
            trace_completion_times=dict(self._outcomes.completion_times),
            trace_value_points=list(self._outcomes.value_points),
            trace_lost_work=dict(self._outcomes.lost_work),
            trace_value_base=self._outcomes.value_base,
            history_cursor=self._drains,
            jobs=(
                None
                if self.history_sink is None
                else [
                    (j.jid, j.release, j.workload, j.deadline, j.value)
                    for j in self._table.jobs
                ]
            ),
            scheduler_state=self._scheduler.get_state(),
            capacity_blob=pickle.dumps(list(self._caps)),
            fired_faults=tuple(
                i
                for i, f in enumerate(self._faults)
                if getattr(f, "fired", False)
            ),
        )

    def restore(self, snapshot: EngineSnapshot) -> None:
        """Load a snapshot into this (fresh, never-run) kernel.

        After restoring, :meth:`run_loop` resumes from the snapshot
        instant.  An attached journal is rewound to the snapshot: if it
        extends past it, the resumed dispatches are verified against it
        (deterministic replay); if it holds nothing, it continues the
        snapshot's digest chain."""
        if self._started:
            raise RecoveryError("restore() requires a fresh engine")
        if snapshot.n_procs != len(self._caps):
            raise RecoveryError(
                f"snapshot is for {snapshot.n_procs} processor(s), "
                f"engine has {len(self._caps)}"
            )
        for jid in snapshot.remaining:
            if jid not in self._by_id:
                raise RecoveryError(f"snapshot references unknown job {jid}")
        for jid in snapshot.status:
            if jid not in self._by_id:
                raise RecoveryError(f"snapshot references unknown job {jid}")

        # World physics first (the scheduler's bind() reads its bounds).
        caps = pickle.loads(snapshot.capacity_blob)
        self._caps = list(caps)
        self._indexed = [
            bool(getattr(c, "supports_prefix_index", False)) for c in self._caps
        ]
        self._advance_from = [
            getattr(c, "advance_from", None) for c in self._caps
        ]
        self._cum_t = [-1.0] * len(self._caps)
        self._cum_v = [0.0] * len(self._caps)
        self._horizon = snapshot.horizon
        self._now = snapshot.now

        # Ground truth: load the jid-keyed snapshot dicts back into the
        # table's columns (in place — the kernel's aliases stay valid).
        self._table.load_state_dicts(dict(snapshot.remaining), snapshot.status)
        # Re-derive the batch-gathering latch from the restored columns:
        # the hazard it guards against is "a live job with (near-)zero
        # remaining work gets started mid-group", so scanning the live
        # rows is exactly sufficient — any *future* near-zero fold will
        # re-trip the latch before the next gather, just as in the
        # original run.
        self._batch_unsafe = any(
            (s == _READY or s == _RUNNING)
            and r <= 1e-6 * max(1.0, job.workload)
            for s, r, job in zip(self._st, self._rem, self._table.jobs)
        )
        # In place: the policy context holds the list (sim/engine.py).
        self._current[:] = [
            None if jid is None else self._by_id[jid]
            for jid in snapshot.current_jids
        ]
        self._proc_of = {
            job.jid: proc
            for proc, job in enumerate(self._current)
            if job is not None
        }
        self._seg_start = list(snapshot.seg_start)
        self._seg_remaining0 = list(snapshot.seg_remaining0)
        self._seg_cum0 = list(snapshot.seg_cum0)
        self._completion_version = dict(snapshot.completion_version)
        self._alarm_version = dict(snapshot.alarm_version)

        # Event queue (sequence counter included: post-restore pushes must
        # get the same tie-breaking numbers the original run would have).
        entries = []
        for time, kind, seq, desc, version in snapshot.events:
            k = EventKind(kind)
            entries.append(
                (time, kind, seq, Event(time, k, self._decode_payload(k, desc), version))
            )
        self._events.load(entries, snapshot.next_seq, snapshot.stale_hint)
        self._dispatch_count = snapshot.dispatch_count

        # Trace accumulators.  Single mode: one trace carries both the
        # segments and the combined outcome record (same object).
        traces = []
        for per_proc in snapshot.trace_segments:
            trace = ScheduleTrace()
            trace.segments = [RunSegment(*seg) for seg in per_proc]
            traces.append(trace)
        outcomes = traces[0] if self._single else ScheduleTrace()
        outcomes.outcomes = {
            jid: JobStatus[name] for jid, name in snapshot.trace_outcomes.items()
        }
        outcomes.completion_times = dict(snapshot.trace_completion_times)
        outcomes.value_points = [tuple(p) for p in snapshot.trace_value_points]
        outcomes.lost_work = dict(snapshot.trace_lost_work)
        self._drains = snapshot.history_cursor
        if self._drains:
            outcomes.value_base = snapshot.trace_value_base
        self._traces = traces
        self._outcomes = outcomes

        # Scheduler: fresh bind (reset), then install the captured state.
        # The name check runs *after* bind because some schedulers derive
        # their display name during reset (e.g. the partitioned adapter).
        self._scheduler.bind(self._make_context(self))
        if snapshot.scheduler_name != self._scheduler.name:
            raise RecoveryError(
                f"snapshot is for scheduler {snapshot.scheduler_name!r}, "
                f"engine runs {self._scheduler.name!r}"
            )
        self._scheduler.set_state(snapshot.scheduler_state, self._by_id)

        # Faults: re-mark already-fired plans, re-register event-indexed
        # crash checks (queued FAULT events travelled with the heap).
        for i in snapshot.fired_faults:
            if 0 <= i < len(self._faults):
                self._faults[i].fired = True
        for i, fault in enumerate(self._faults):
            rearm = getattr(fault, "rearm", None)
            if rearm is not None:
                rearm(self.owner, i)

        journal = self._journal
        if journal is not None:
            journal.rewind(snapshot.dispatch_count, snapshot.journal_digest)
        if self._watchdog is not None:
            self._watchdog.start(self.owner)
        self._last_snapshot = snapshot
        self._started = True

        # Observability: the restored run re-dispatches (journal-verified)
        # everything at or past the snapshot, re-emitting those replay
        # events bit-identically — drop the pre-crash copies so the trace
        # carries each exactly once.  The restore itself is process
        # history: a lifecycle event, excluded from replay-only exports.
        octx = self._obs
        if octx is not None:
            truncated = 0
            sink = octx.sink
            if sink is not None:
                truncated = sink.truncate_replay(snapshot.dispatch_count)
            octx.metrics.counter("kernel.recoveries").inc()
            octx.emit(
                "recovery.restore",
                self._now,
                {
                    "dispatch": snapshot.dispatch_count,
                    "truncated": truncated,
                    "verify_until": 0 if journal is None else len(journal),
                },
                replay=False,
            )
