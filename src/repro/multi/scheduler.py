"""Multiprocessor scheduling interface.

The paper's model is a single processor; its closing remark points at
"cloud-wise scheduling ... with extensions".  :mod:`repro.cloud.cluster`
covers the *partitioned* extension (route once, schedule locally); this
package covers the *global* one — m processors, one ready pool, free
preemption **and migration** (the standard fluid assumptions of global
real-time scheduling).

A :class:`MultiScheduler` handles the same interrupt types as the
single-processor :class:`~repro.sim.scheduler.Scheduler` — releases, job
ends, alarms, timers and (under execution-fault injection) evictions —
but each handler returns a full **assignment**: a sequence of length
``n_procs`` whose ``p``-th entry is the job processor ``p`` should run
(``None`` = idle).  A job may appear at most once per assignment (no
intra-job parallelism — the kernel enforces it).

One engine runs both contracts (:class:`~repro.sim.engine.
SimulationEngine`, over the scheduling kernel :mod:`repro.kernel`): it
hands a :class:`~repro.sim.scheduler.Scheduler` the single-processor
contract and any other policy this one.  Multiprocessor policies also
participate in crash recovery: they expose the same
:meth:`~MultiScheduler.get_state` / :meth:`~MultiScheduler.set_state`
jid-keyed snapshot protocol as the seven single-processor schedulers.
"""

from __future__ import annotations

import abc
from typing import Optional, Sequence, Tuple

from repro.errors import RecoveryError
from repro.sim.job import Job

__all__ = [
    "MultiSchedulerContext",
    "MultiScheduler",
    "Assignment",
]

#: One job (or idle) per processor.
Assignment = Sequence[Optional[Job]]


class MultiSchedulerContext(abc.ABC):
    """Online information available to a global scheduler."""

    #: Active observability context (:class:`repro.obs.ObsContext`) or
    #: ``None`` when tracing is disabled (the default) — the same contract
    #: as :attr:`repro.sim.scheduler.SchedulerContext.obs`.
    obs = None

    @abc.abstractmethod
    def now(self) -> float: ...

    @property
    @abc.abstractmethod
    def n_procs(self) -> int: ...

    @abc.abstractmethod
    def remaining(self, job: Job) -> float:
        """Remaining workload of a released, unfinished job."""

    @abc.abstractmethod
    def running(self) -> Tuple[Optional[Job], ...]:
        """Current assignment (job per processor, ``None`` = idle)."""

    @abc.abstractmethod
    def capacity_now(self, proc: int) -> float:
        """Instantaneous rate of processor ``proc``."""

    @abc.abstractmethod
    def bounds(self, proc: int) -> Tuple[float, float]:
        """Declared ``(c̲, c̄)`` of processor ``proc``."""

    @abc.abstractmethod
    def set_alarm(self, job: Job, time: float, tag: str = "alarm") -> None: ...

    @abc.abstractmethod
    def cancel_alarm(self, job: Job) -> None: ...

    @abc.abstractmethod
    def set_timer(self, time: float, tag: str) -> None:
        """Arm a job-independent timer interrupt (``on_timer``)."""


class MultiScheduler(abc.ABC):
    """Base class for global multiprocessor policies."""

    name = "multi-scheduler"

    #: Batch-protocol gating flags (see :mod:`repro.sim.batchproto`).
    #: Conservative defaults: a multi policy must opt in to ``plan()``
    #: by setting ``batch_capable`` and implementing it with assignment
    #: decisions.
    batch_capable = False
    batch_pure_completions = False

    def __init__(self) -> None:
        self.ctx: MultiSchedulerContext = None  # type: ignore[assignment]

    def bind(self, ctx: MultiSchedulerContext) -> None:
        self.ctx = ctx
        self.reset()

    def reset(self) -> None:
        """Reinitialise per-run state."""

    @abc.abstractmethod
    def on_release(self, job: Job) -> Assignment: ...

    @abc.abstractmethod
    def on_job_end(self, job: Job, completed: bool) -> Assignment: ...

    def on_alarm(self, job: Job, tag: str) -> Assignment:
        return self.ctx.running()

    def on_timer(self, tag: str) -> Assignment:
        """A job-independent timer fired.  Default: keep current."""
        return self.ctx.running()

    def on_eviction(self, job: Job) -> Assignment:
        """``job`` was forcibly evicted from its processor by an execution
        fault (VM revocation, job kill with retained progress).  The kernel
        has already closed the running segment and returned the job to
        READY; the scheduler must requeue it and pick successors.

        Default: treat the evicted job like a fresh arrival — correct for
        stateless ready-pool policies whose release handler just inserts
        and re-evaluates.  Policies with admission side effects override
        this."""
        return self.on_release(job)

    # ------------------------------------------------------------------
    # Snapshot/restore protocol (crash recovery; mirrors Scheduler)
    # ------------------------------------------------------------------
    def get_state(self) -> dict:
        """Capture the policy's per-run state for an engine snapshot.

        Returns a picklable dict; job references are stored as jids so the
        restoring side re-binds them to its own job objects."""
        return {
            "scheduler": type(self).__name__,
            "policy": self._policy_state(),
        }

    def set_state(self, state: dict, jobs_by_id: "dict[int, Job]") -> None:
        """Restore per-run state captured by :meth:`get_state`.

        Must be called after :meth:`bind` (so queues exist, freshly
        reset)."""
        if state.get("scheduler") != type(self).__name__:
            raise RecoveryError(
                f"snapshot was taken from {state.get('scheduler')!r}, "
                f"cannot restore into {type(self).__name__}"
            )
        self._restore_policy_state(state["policy"], jobs_by_id)

    def _policy_state(self) -> dict:
        """Subclass hook: capture policy-specific per-run state (ready
        pools, partitions, rate estimates) as a picklable, jid-keyed
        dict."""
        raise RecoveryError(
            f"{type(self).__name__} does not support snapshot/restore"
        )

    def _restore_policy_state(
        self, state: dict, jobs_by_id: "dict[int, Job]"
    ) -> None:
        """Subclass hook: inverse of :meth:`_policy_state`."""
        raise RecoveryError(
            f"{type(self).__name__} does not support snapshot/restore"
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"
