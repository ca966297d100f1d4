"""Multiprocessor discrete-event engine (m ≥ 1 façade over the kernel).

The event loop is :class:`repro.kernel.SchedulingKernel` — the same one
the single-processor :class:`~repro.sim.engine.SimulationEngine` runs —
instantiated with ``m`` (possibly heterogeneous) capacity trajectories and
the assignment decision protocol: the scheduler returns a full assignment
after every interrupt; the kernel diffs it against the current one, closes
segments for displaced jobs, and re-predicts completions with each
processor's exact inverse integral (O(log n) via the per-capacity
prefix-sum index when available).

Migration semantics: preemption and migration are free; a preempted job
resumes from its exact remaining workload on any processor (workload is
capacity-units × time, so a job's progress is processor-independent — the
same modelling choice the paper makes for its dynamically-sized VMs).

Because the loop is shared, everything the single-processor engine can do
works here too, for free:

* **execution-fault injection** (:mod:`repro.faults.execution`) — job
  kills, per-machine revocation bursts and scheduled crashes, with
  per-processor targeting (``JobKillFault(..., proc=2)``);
* **crash recovery** — :meth:`MultiprocessorEngine.snapshot` /
  :meth:`MultiprocessorEngine.restore` with the write-ahead
  :class:`~repro.sim.journal.EventJournal`, and
  ``simulate_multi(..., recover=True)`` resuming bit-identically;
* **invariant monitoring** — the watchdog's monitors read the engine's
  per-processor traces and capacities.

The validator enforces, on top of the per-processor legality checks, that
no job ever runs on two processors at once (no intra-job parallelism).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.capacity.base import CapacityFunction
from repro.kernel.core import SchedulingKernel
from repro.kernel.recovery import run_with_recovery
from repro.multi.metrics import MultiSimulationResult
from repro.multi.scheduler import MultiScheduler, MultiSchedulerContext
from repro.sim.job import Job
from repro.sim.journal import EngineSnapshot, EventJournal
from repro.sim.trace import ScheduleTrace

__all__ = ["MultiprocessorEngine", "simulate_multi"]


class _MultiContext(MultiSchedulerContext):
    """The kernel-backed implementation of the online information model.

    Hot path: fires on every scheduler decision, so it reads the kernel's
    internals (``_now``, ``_current``) directly and caches the immutable
    capacity list at bind time — same discipline as the single-processor
    ``_EngineContext``.
    """

    def __init__(self, kernel: SchedulingKernel) -> None:
        self._kernel = kernel
        self._caps = list(kernel.capacities)
        self.obs = kernel._obs  # None when observability is disabled

    def now(self) -> float:
        return self._kernel._now

    @property
    def n_procs(self) -> int:
        return len(self._caps)

    def remaining(self, job: Job) -> float:
        return self._kernel.remaining_of(job)

    def running(self) -> Tuple[Optional[Job], ...]:
        return tuple(self._kernel._current)

    def capacity_now(self, proc: int) -> float:
        return self._caps[proc].value(self._kernel._now)

    def bounds(self, proc: int) -> Tuple[float, float]:
        cap = self._caps[proc]
        return (cap.lower, cap.upper)

    def set_alarm(self, job: Job, time: float, tag: str = "alarm") -> None:
        self._kernel.set_alarm(job, time, tag)

    def cancel_alarm(self, job: Job) -> None:
        self._kernel.cancel_alarm(job)

    def set_timer(self, time: float, tag: str) -> None:
        self._kernel.set_timer(time, tag)


class MultiprocessorEngine:
    """Run one global scheduler over m processors.

    Parameters mirror the single-processor engine; ``capacities`` carries
    one trajectory per processor, and ``faults`` / ``watchdog`` /
    ``journal`` / ``snapshot_every`` behave exactly as on
    :class:`~repro.sim.engine.SimulationEngine` (same kernel).
    """

    def __init__(
        self,
        jobs: Sequence[Job],
        capacities: Sequence[CapacityFunction],
        scheduler: MultiScheduler,
        *,
        horizon: float | None = None,
        validate: bool = False,
        faults: Sequence[object] = (),
        watchdog: "object | None" = None,
        journal: "EventJournal | None" = None,
        snapshot_every: int | None = None,
    ) -> None:
        self._validate = bool(validate)
        self._kernel = SchedulingKernel(
            jobs,
            list(capacities),
            scheduler,
            make_context=_MultiContext,
            horizon=horizon,
            faults=faults,
            watchdog=watchdog,
            journal=journal,
            snapshot_every=snapshot_every,
            single=False,
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
        """Processor 0's trajectory (monitor fallback for m = 1 reads)."""
        return self._kernel.capacity

    @property
    def capacities(self) -> List[CapacityFunction]:
        return self._kernel.capacities

    @property
    def trace(self) -> ScheduleTrace:
        """The combined outcome/value record (no segments for m > 1)."""
        return self._kernel.trace

    @property
    def proc_traces(self) -> List[ScheduleTrace]:
        return self._kernel.traces

    @property
    def scheduler(self) -> MultiScheduler:
        return self._kernel.scheduler

    @property
    def jobs_by_id(self) -> Dict[int, Job]:
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
        """The shared scheduling kernel this engine instantiates at m≥1."""
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
    def run(self) -> MultiSimulationResult:
        """Execute (or, after :meth:`restore`, resume) the simulation."""
        self._kernel.run_loop()

        result = MultiSimulationResult(
            scheduler_name=self._kernel.scheduler.name,
            jobs=self._kernel.jobs,
            horizon=self._kernel.horizon,
            proc_traces=self._kernel.traces,
            combined=self._kernel.outcomes,
        )
        if self._validate:
            result.validate(self._kernel.capacities)
        self._kernel.after_run(result)
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


def simulate_multi(
    jobs: Sequence[Job],
    capacities: Sequence[CapacityFunction],
    scheduler: MultiScheduler,
    *,
    horizon: float | None = None,
    validate: bool = False,
    faults: Sequence[object] = (),
    watchdog: "object | None" = None,
    journal: "EventJournal | None" = None,
    snapshot_every: int | None = None,
    recover: bool = False,
    max_recoveries: int = 8,
) -> MultiSimulationResult:
    """Convenience wrapper mirroring :func:`repro.sim.simulate`.

    With ``recover=True`` a :class:`~repro.errors.SimulatedCrash` raised by
    an armed :class:`~repro.faults.EngineCrashPlan` is survived: a fresh
    engine restores the crash's snapshot, replays the journal (when one is
    attached) and continues to the horizon.  The returned result's
    ``recoveries`` attribute counts the crashes survived.
    """

    def _build() -> MultiprocessorEngine:
        return MultiprocessorEngine(
            jobs,
            capacities,
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
