"""The simulation engine: one façade over the kernel for every m ≥ 1.

The event loop itself — exact completion prediction on the prefix-indexed
capacity, deadline policing, alarm/timer plumbing with lazy deletion,
trace recording, fault dispatch, snapshot/restore with the write-ahead
journal, and the invariant-watchdog hooks — lives in
:class:`repro.kernel.SchedulingKernel`.  This module instantiates it over
``m`` processors (one :class:`~repro.capacity.base.CapacityFunction`, or
a list of them) and picks the decision protocol from the policy's base
class:

* a :class:`~repro.sim.scheduler.Scheduler` gets the paper's
  single-processor contract — handlers return ``Optional[Job]`` — and
  runs on exactly one processor (``m = 1`` is the paper's model);
* any other policy (a :class:`~repro.multi.scheduler.MultiScheduler`)
  returns a full assignment after every interrupt; the kernel diffs it
  against the current one (free preemption and migration, no intra-job
  parallelism).

What the kernel guarantees on every processor:

* **exact completion prediction** — when a job starts (or resumes) at time
  ``t`` with remaining workload ``w``, its completion instant is
  ``capacity.advance(t, w)``, computed exactly on the piecewise-constant
  trajectory.  For prefix-indexed capacities (``supports_prefix_index``,
  see :mod:`repro.capacity.prefix`) this is an O(log n) searchsorted on the
  cumulative-work array, and the kernel additionally anchors each running
  segment at ``W(seg_start)`` so progress queries cost one index lookup —
  with values bit-identical to the naive linear scan;
* **deadline policing** — firm deadlines fire as events; a completion at
  exactly the deadline wins the tie (succeeds);
* **alarm plumbing** — schedulers arm per-job alarms (zero-conservative-
  laxity interrupts) and global timers through the context; stale alarms are
  version-dropped and the heap self-compacts;
* **trace recording** — every maximal run segment is logged per processor
  with the work performed, so the schedule can be re-validated
  independently.

Determinism: for a fixed instance and scheduler the run is bit-for-bit
reproducible — ties in the event heap break by (kind priority, insertion
sequence) and nothing consults a clock or RNG.  The golden decision
corpus (``tests/golden/``) pins the outputs of every policy.

Crash recovery (docs/ROBUSTNESS.md): the engine can image its complete
mid-run state into an :class:`~repro.sim.journal.EngineSnapshot`
(:meth:`SimulationEngine.snapshot`) and a fresh engine can resume from one
(:meth:`SimulationEngine.restore`).  With a write-ahead
:class:`~repro.sim.journal.EventJournal` attached, every dispatched event
is logged *before* its effects apply; a resumed run re-verifies its
dispatches against the journal (any divergence raises
:class:`~repro.errors.RecoveryError`), so "last snapshot + journal replay"
reproduces the uncrashed run bit-identically.  Execution faults
(:mod:`repro.faults.execution`) inject ``FAULT`` events — mid-run job
kills, VM revocations and scheduled process crashes
(:class:`~repro.errors.SimulatedCrash`), per processor — and an optional
invariant watchdog (:mod:`repro.sim.invariants`) observes every dispatch.
"""

from __future__ import annotations

from functools import partial
from operator import getitem
from typing import List, Mapping, Optional, Sequence, Tuple, Union

from repro.capacity.base import CapacityFunction
from repro.kernel.core import SchedulingKernel
from repro.kernel.recovery import run_with_recovery
from repro.multi.scheduler import MultiSchedulerContext
from repro.sim.job import Job
from repro.sim.journal import EngineSnapshot, EventJournal
from repro.sim.metrics import SimulationResult
from repro.sim.scheduler import Scheduler, SchedulerContext
from repro.sim.trace import ScheduleTrace

__all__ = ["SimulationEngine", "simulate"]

#: One trajectory (one processor) or one per processor.
Capacities = Union[CapacityFunction, Sequence[CapacityFunction]]


class _KernelContext:
    """What both scheduler-facing contexts read off the kernel.

    Hot path: these methods fire on every scheduler decision, so they read
    the kernel's internals directly (``_now``, ``_current``) instead of
    going through its property accessors.  ``now`` (and the single
    processor's ``current_job``) are C-level callables stored on the
    instance at construction — ``partial(getattr, kernel, "_now")`` reads
    the live attribute and executes no Python bytecode — and
    ``remaining`` is the kernel's bound
    :meth:`~repro.kernel.core.SchedulingKernel.remaining_of` itself, so a
    query enters no forwarding frame.  The capacity list is immutable for
    the kernel's lifetime, so it is cached at bind time.
    """

    def __init__(self, kernel: SchedulingKernel) -> None:
        self._kernel = kernel
        self._caps = kernel.capacities
        self.obs = kernel._obs  # None when observability is disabled
        self.now = partial(getattr, kernel, "_now")
        self.remaining = kernel.remaining_of

    # The two methods below are shadowed per instance (see __init__);
    # they are defined here for the SchedulerContext interface.
    def now(self) -> float:
        return self._kernel._now

    def remaining(self, job: Job) -> float:
        return self._kernel.remaining_of(job)

    def cancel_alarm(self, job: Job) -> None:
        self._kernel.cancel_alarm(job)

    def set_timer(self, time: float, tag: str) -> None:
        self._kernel.set_timer(time, tag)


class _EngineContext(_KernelContext, SchedulerContext):
    """The paper's online information model on the one processor."""

    def __init__(self, kernel: SchedulingKernel) -> None:
        super().__init__(kernel)
        self._cap = self._caps[0]  # processor 0 == the whole world
        # The kernel fills its running-job list in place, never rebinds it.
        self.current_job = partial(getitem, kernel._current, 0)

    def capacity_now(self) -> float:
        return self._cap.value(self._kernel._now)

    @property
    def bounds(self) -> Tuple[float, float]:
        cap = self._cap
        return (cap.lower, cap.upper)

    def current_job(self) -> Optional[Job]:
        # Shadowed per instance (see __init__).
        return self._kernel._current[0]

    def set_alarm(self, job: Job, time: float, tag: str = "claxity") -> None:
        self._kernel.set_alarm(job, time, tag)


class _MultiContext(_KernelContext, MultiSchedulerContext):
    """The online information model of a global multiprocessor policy."""

    @property
    def n_procs(self) -> int:
        return len(self._caps)

    def running(self) -> Tuple[Optional[Job], ...]:
        return tuple(self._kernel._current)

    def capacity_now(self, proc: int) -> float:
        return self._caps[proc].value(self._kernel._now)

    def bounds(self, proc: int) -> Tuple[float, float]:
        cap = self._caps[proc]
        return (cap.lower, cap.upper)

    def set_alarm(self, job: Job, time: float, tag: str = "alarm") -> None:
        self._kernel.set_alarm(job, time, tag)


class SimulationEngine:
    """Run one scheduler over one instance (jobs + capacity trajectories).

    Parameters
    ----------
    jobs:
        The instance's job set (ids must be unique).
    capacity:
        The realized capacity trajectory, or one per processor.  The
        engine may query its future (it is the physics of the world); the
        scheduler cannot.
    scheduler:
        The online policy under test.  A :class:`~repro.sim.scheduler.
        Scheduler` runs on exactly one processor and returns
        ``Optional[Job]``; any other policy returns assignments (see the
        module docstring).  ``bind`` is called on it, so a fresh run starts
        from clean per-run state.
    horizon:
        End of simulated time.  Defaults to just past the latest deadline so
        every job resolves.  Jobs unresolved at the horizon are recorded as
        failed.
    validate:
        When true, the produced result is re-validated against the
        capacities (work conservation, no overlap, deadline legality, no
        job on two processors at once) before returning; a violation
        raises :class:`~repro.errors.SimulationError`.  Cheap enough to
        leave on in tests; off by default for Monte-Carlo throughput.
    faults:
        Execution faults (:mod:`repro.faults.execution`) to arm on this
        run: job kills, revocation evictions, scheduled crashes.
    watchdog:
        Optional :class:`~repro.sim.invariants.InvariantWatchdog`; observes
        every dispatched event (strictly read-only).
    journal:
        Optional :class:`~repro.sim.journal.EventJournal` written ahead of
        every dispatch (and verified against during post-restore replay).
    snapshot_every:
        Take an :class:`~repro.sim.journal.EngineSnapshot` every N
        dispatched events (kept as ``last_snapshot``).  Defaults to 64
        when a crash plan is armed, else off.

    Events wait in one binary heap; jobs not yet released wait beside it
    in release order (:meth:`repro.sim.events.EventQueue.seed`), so the
    heap holds only released jobs' events and the next release, and pops
    in the same order one heap would.

    Same-instant interrupt groups reach a ``batch_capable`` scheduler as
    one :meth:`~repro.sim.batchproto.BatchScheduler.plan` call whenever
    the kernel can show that is bit-identical to per-event dispatch; other
    schedulers take one handler call per event.  Results, journals and
    exported traces are the same either way (the golden corpus in
    ``tests/golden/`` pins them).
    """

    def __init__(
        self,
        jobs: Sequence[Job],
        capacity: Capacities,
        scheduler,
        *,
        horizon: float | None = None,
        validate: bool = False,
        faults: Sequence[object] = (),
        watchdog: "object | None" = None,
        journal: "EventJournal | None" = None,
        snapshot_every: int | None = None,
    ) -> None:
        self._validate = bool(validate)
        single = isinstance(scheduler, Scheduler)
        self._kernel = SchedulingKernel(
            jobs,
            [capacity] if isinstance(capacity, CapacityFunction) else capacity,
            scheduler,
            make_context=_EngineContext if single else _MultiContext,
            horizon=horizon,
            faults=faults,
            watchdog=watchdog,
            journal=journal,
            snapshot_every=snapshot_every,
            single=single,
        )
        # Faults and watchdog monitors observe *this* object (the public
        # engine), which re-exports every kernel accessor they use.
        self._kernel.owner = self

    # ------------------------------------------------------------------
    # Read-only accessors (used by the invariant watchdog and recovery)
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        return self._kernel.now

    @property
    def horizon(self) -> float:
        return self._kernel.horizon

    @property
    def n_procs(self) -> int:
        return self._kernel.n_procs

    @property
    def capacity(self) -> CapacityFunction:
        """Processor 0's trajectory (the whole world at m = 1)."""
        return self._kernel.capacity

    @property
    def capacities(self) -> List[CapacityFunction]:
        return self._kernel.capacities

    @property
    def trace(self) -> ScheduleTrace:
        """The combined outcome/value record (at m = 1 under a
        :class:`~repro.sim.scheduler.Scheduler` it holds the segments
        too: it *is* ``proc_traces[0]``)."""
        return self._kernel.trace

    @property
    def proc_traces(self) -> List[ScheduleTrace]:
        return self._kernel.traces

    @property
    def scheduler(self):
        return self._kernel.scheduler

    @property
    def jobs_by_id(self) -> Mapping[int, Job]:
        """Read-only live view of the jid → job map."""
        return self._kernel.jobs_by_id

    @property
    def dispatch_count(self) -> int:
        """Events dispatched so far (journal index of the next dispatch)."""
        return self._kernel.dispatch_count

    @property
    def last_snapshot(self) -> Optional[EngineSnapshot]:
        return self._kernel.last_snapshot

    @property
    def event_queue_size(self) -> int:
        return self._kernel.event_queue_size

    @property
    def kernel(self) -> SchedulingKernel:
        """The scheduling kernel this engine instantiates."""
        return self._kernel

    # ------------------------------------------------------------------
    # Execution-fault plumbing (used by repro.faults.execution at arm time)
    # ------------------------------------------------------------------
    def push_fault_event(self, time: float, payload: tuple) -> None:
        """Queue a FAULT event (payload: ``("kill", i, retain[, proc])``,
        ``("evict", i[, proc])`` or ``("crash", i)``)."""
        self._kernel.push_fault_event(time, payload)

    def register_event_crash(self, fault_index: int, at_event: int) -> None:
        """Arrange for crash plan ``fault_index`` to fire just before the
        ``at_event``-th event dispatch."""
        self._kernel.register_event_crash(fault_index, at_event)

    # ------------------------------------------------------------------
    # Run / snapshot / restore
    # ------------------------------------------------------------------
    def run(self) -> SimulationResult:
        """Execute (or, after :meth:`restore`, resume) the simulation."""
        kernel = self._kernel
        kernel.run_loop()

        result = SimulationResult(
            scheduler_name=kernel.scheduler.name,
            jobs=kernel.jobs,
            horizon=kernel.horizon,
            trace=kernel.outcomes,
            proc_traces=kernel.traces,
        )
        if self._validate:
            result.validate(kernel.capacities)
        kernel.after_run(result)
        return result

    def snapshot(self) -> EngineSnapshot:
        """Image the complete mid-run state (picklable; jid-based)."""
        return self._kernel.snapshot()

    def restore(self, snapshot: EngineSnapshot) -> None:
        """Load a snapshot into this (fresh, never-run) engine.

        After restoring, :meth:`run` resumes from the snapshot instant; if
        the engine also holds a journal extending past the snapshot, the
        resumed dispatches are verified against it (deterministic replay).
        """
        self._kernel.restore(snapshot)


def simulate(
    jobs: Sequence[Job],
    capacity: Capacities,
    scheduler,
    *,
    horizon: float | None = None,
    validate: bool = False,
    faults: Sequence[object] = (),
    watchdog: "object | None" = None,
    journal: "EventJournal | None" = None,
    snapshot_every: int | None = None,
    recover: bool = False,
    max_recoveries: int = 8,
) -> SimulationResult:
    """Convenience wrapper: build a :class:`SimulationEngine` and run it.

    ``capacity`` is one trajectory or a list of them (one per processor);
    the policy's base class picks the decision protocol (see
    :class:`SimulationEngine`).

    With ``recover=True`` a :class:`~repro.errors.SimulatedCrash` raised by
    an armed :class:`~repro.faults.EngineCrashPlan` is survived: a fresh
    engine restores the crash's snapshot, replays the journal (when one is
    attached) and continues to the horizon.  The returned result's
    ``recoveries`` attribute counts the crashes survived.
    """

    def _build() -> SimulationEngine:
        return SimulationEngine(
            jobs,
            capacity,
            scheduler,
            horizon=horizon,
            validate=validate,
            faults=faults,
            watchdog=watchdog,
            journal=journal,
            snapshot_every=snapshot_every,
        )

    result, recoveries = run_with_recovery(
        _build, recover=recover, max_recoveries=max_recoveries
    )
    result.recoveries = recoveries
    return result
