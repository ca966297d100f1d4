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

Since the engines share one scheduling kernel (:mod:`repro.kernel`),
multiprocessor policies also participate in crash recovery: they expose
the same :meth:`~MultiScheduler.get_state` / :meth:`~MultiScheduler.set_state`
jid-keyed snapshot protocol as the seven single-processor schedulers.

:class:`SingleProcessorAdapter` lifts any single-processor
:class:`~repro.sim.scheduler.Scheduler` to the ``m = 1`` multiprocessor
interface — the kernel-parity suite uses it to prove the multi engine at
``m = 1`` is bit-identical to the historical single-processor engine.
"""

from __future__ import annotations

import abc
from typing import Optional, Sequence, Tuple

from repro.errors import RecoveryError
from repro.sim.job import Job
from repro.sim.scheduler import Scheduler, SchedulerContext

__all__ = [
    "MultiSchedulerContext",
    "MultiScheduler",
    "Assignment",
    "SingleProcessorAdapter",
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


class _SingleProcessorView(SchedulerContext):
    """Present processor 0 of a multiprocessor context as the whole world."""

    def __init__(self, mctx: MultiSchedulerContext) -> None:
        self._mctx = mctx
        self.obs = mctx.obs  # pass the observability gate through the view

    def now(self) -> float:
        return self._mctx.now()

    def remaining(self, job: Job) -> float:
        return self._mctx.remaining(job)

    def capacity_now(self) -> float:
        return self._mctx.capacity_now(0)

    @property
    def bounds(self) -> Tuple[float, float]:
        return self._mctx.bounds(0)

    def current_job(self) -> Optional[Job]:
        return self._mctx.running()[0]

    def set_alarm(self, job: Job, time: float, tag: str = "claxity") -> None:
        self._mctx.set_alarm(job, time, tag)

    def cancel_alarm(self, job: Job) -> None:
        self._mctx.cancel_alarm(job)

    def set_timer(self, time: float, tag: str) -> None:
        self._mctx.set_timer(time, tag)


class SingleProcessorAdapter(MultiScheduler):
    """Run a single-processor :class:`~repro.sim.scheduler.Scheduler` on
    processor 0 of an ``m = 1`` multiprocessor engine.

    Every interrupt is forwarded to the wrapped policy through a
    processor-0 view of the context, and its ``Optional[Job]`` decision is
    lifted to the one-slot assignment ``[decision]``.  Because the engines
    share one kernel, the resulting run is *bit-identical* to the
    single-processor engine driving the same policy (the parity suite in
    ``tests/multi/test_kernel_parity.py`` pins this)."""

    def __init__(self, inner: Scheduler) -> None:
        super().__init__()
        self.inner = inner
        self.name = inner.name

    def bind(self, ctx: MultiSchedulerContext) -> None:
        if ctx.n_procs != 1:
            raise RecoveryError(
                f"SingleProcessorAdapter requires m = 1, got m = {ctx.n_procs}"
            )
        self.ctx = ctx
        self.inner.bind(_SingleProcessorView(ctx))
        self.name = self.inner.name
        self.reset()

    def on_release(self, job: Job) -> Assignment:
        return [self.inner.on_release(job)]

    def on_job_end(self, job: Job, completed: bool) -> Assignment:
        return [self.inner.on_job_end(job, completed)]

    def on_alarm(self, job: Job, tag: str) -> Assignment:
        return [self.inner.on_alarm(job, tag)]

    def on_timer(self, tag: str) -> Assignment:
        return [self.inner.on_timer(tag)]

    def on_eviction(self, job: Job) -> Assignment:
        return [self.inner.on_eviction(job)]

    # -- batch protocol (forwarded when the inner policy supports it) ----
    @property
    def batch_capable(self) -> bool:  # type: ignore[override]
        return bool(getattr(self.inner, "batch_capable", False))

    @property
    def batch_pure_completions(self) -> bool:  # type: ignore[override]
        return bool(getattr(self.inner, "batch_pure_completions", False))

    def plan(self, view):
        """Lift the inner policy's batch decisions to one-slot assignments."""
        return [[d] for d in self.inner.plan(view)]

    def on_completions(self, view) -> None:
        self.inner.on_completions(view)

    def _policy_state(self) -> dict:
        return {"inner": self.inner.get_state()}

    def _restore_policy_state(
        self, state: dict, jobs_by_id: "dict[int, Job]"
    ) -> None:
        self.inner.set_state(state["inner"], jobs_by_id)
