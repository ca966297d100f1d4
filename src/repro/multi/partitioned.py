"""Partitioned multiprocessor scheduling as one multiprocessor policy.

Each processor runs its own single-processor scheduler (V-Dover by
default); an online dispatcher (reusing the policies of
:mod:`repro.cloud.cluster`) pins every arriving job to one processor, and
jobs never migrate afterwards.

Besides being the practical deployment mode (migration is rarely free in
real clouds), this adapter is a powerful differential oracle: one
``simulate(jobs, capacities, PartitionedScheduler(...))`` run over ``m``
processors must produce exactly the same outcome as running the same
dispatcher + scheduler through :func:`repro.cloud.cluster.run_cluster`
(``m`` independent one-processor runs) — the cross-engine equivalence
test in the suite leans on this.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional, Tuple

from repro.errors import SchedulingError
from repro.sim.job import Job
from repro.sim.scheduler import Scheduler, SchedulerContext
from repro.multi.scheduler import Assignment, MultiScheduler, MultiSchedulerContext

if TYPE_CHECKING:  # annotation only: the cluster module imports the engine
    from repro.cloud.cluster import Dispatcher

__all__ = ["PartitionedScheduler"]


class _ProcView(SchedulerContext):
    """Single-processor view of the multi context, for sub-schedulers.

    During a batched release fold (:meth:`PartitionedScheduler.plan`) the
    parent installs a shared *hypothetical* running vector; sub-scheduler
    reads of ``current_job`` then see the fold's per-processor state
    instead of the not-yet-applied kernel assignment."""

    def __init__(self, ctx: MultiSchedulerContext, proc: int) -> None:
        self._ctx = ctx
        self._proc = proc
        self._hypo_running: "Optional[list]" = None
        self.obs = ctx.obs  # pass the observability gate through the view

    def now(self) -> float:
        return self._ctx.now()

    def remaining(self, job: Job) -> float:
        return self._ctx.remaining(job)

    def capacity_now(self) -> float:
        return self._ctx.capacity_now(self._proc)

    @property
    def bounds(self) -> Tuple[float, float]:
        return self._ctx.bounds(self._proc)

    def current_job(self) -> Optional[Job]:
        hypo = self._hypo_running
        if hypo is not None:
            return hypo[self._proc]
        return self._ctx.running()[self._proc]

    def set_alarm(self, job: Job, time: float, tag: str = "claxity") -> None:
        self._ctx.set_alarm(job, time, tag)

    def cancel_alarm(self, job: Job) -> None:
        self._ctx.cancel_alarm(job)

    def set_timer(self, time: float, tag: str) -> None:
        raise SchedulingError(
            "partitioned sub-schedulers cannot use global timers"
        )


class PartitionedScheduler(MultiScheduler):
    """Dispatcher + per-processor single-processor schedulers.

    Parameters
    ----------
    dispatcher:
        Online routing policy (called once per job at its release).
    scheduler_factory:
        Builds one fresh single-processor scheduler per processor.
    """

    name = "Partitioned"

    #: Untraced release bursts fold through :meth:`plan`.
    batch_capable = True

    def __init__(
        self,
        dispatcher: Dispatcher,
        scheduler_factory: Callable[[], Scheduler],
    ) -> None:
        super().__init__()
        self._dispatcher = dispatcher
        self._factory = scheduler_factory

    def reset(self) -> None:
        m = self.ctx.n_procs
        self._dispatcher.reset(m, [self.ctx.bounds(p)[0] for p in range(m)])
        self._subs: list[Scheduler] = []
        self._views: list[_ProcView] = []
        for proc in range(m):
            sub = self._factory()
            view = _ProcView(self.ctx, proc)
            sub.bind(view)
            self._subs.append(sub)
            self._views.append(view)
        self._proc_of: dict[int, int] = {}
        self.name = f"Partitioned({self._dispatcher.name}/{self._subs[0].name})"

    # ------------------------------------------------------------------
    def _assignment_with(self, proc: int, job: Optional[Job]) -> Assignment:
        desired = list(self.ctx.running())
        desired[proc] = job
        return desired

    def on_release(self, job: Job) -> Assignment:
        proc = self._dispatcher.route(job)
        if not 0 <= proc < self.ctx.n_procs:
            raise SchedulingError(f"dispatcher routed to invalid processor {proc}")
        self._proc_of[job.jid] = proc
        return self._assignment_with(proc, self._subs[proc].on_release(job))

    def plan(self, view) -> list:
        """Incremental re-plan of one release burst: route each newcomer,
        fold it through its partition's sub-scheduler against the
        hypothetical running vector, and return one assignment snapshot per
        event — bit-identical to dispatching the releases one at a time
        (the dispatchers read only the job and their own routing state)."""
        from repro.sim.events import EventKind

        if view.kind != EventKind.RELEASE:
            raise SchedulingError(
                f"{type(self).__name__} batches release groups only, "
                f"got {view.kind!r}"
            )
        n_procs = self.ctx.n_procs
        running = list(self.ctx.running())
        views = self._views
        for pv in views:
            pv._hypo_running = running
        desired = []
        try:
            for job in view.jobs:
                proc = self._dispatcher.route(job)
                if not 0 <= proc < n_procs:
                    raise SchedulingError(
                        f"dispatcher routed to invalid processor {proc}"
                    )
                self._proc_of[job.jid] = proc
                running[proc] = self._subs[proc].on_release(job)
                desired.append(tuple(running))
        finally:
            for pv in views:
                pv._hypo_running = None
        return desired

    def on_job_end(self, job: Job, completed: bool) -> Assignment:
        proc = self._proc_of.get(job.jid)
        if proc is None:  # pragma: no cover - defensive
            return self.ctx.running()
        return self._assignment_with(
            proc, self._subs[proc].on_job_end(job, completed)
        )

    def on_alarm(self, job: Job, tag: str) -> Assignment:
        proc = self._proc_of.get(job.jid)
        if proc is None:  # pragma: no cover - defensive
            return self.ctx.running()
        return self._assignment_with(proc, self._subs[proc].on_alarm(job, tag))

    def on_eviction(self, job: Job) -> Assignment:
        """An execution fault evicted ``job``: the partition is sticky, so
        the job's own processor's sub-scheduler handles the re-admission
        (no re-dispatch — jobs never migrate in partitioned mode)."""
        proc = self._proc_of.get(job.jid)
        if proc is None:  # pragma: no cover - defensive
            return self.ctx.running()
        return self._assignment_with(proc, self._subs[proc].on_eviction(job))

    # ------------------------------------------------------------------
    # Snapshot protocol (crash recovery)
    # ------------------------------------------------------------------
    def _policy_state(self) -> dict:
        return {
            "dispatcher": self._dispatcher.get_state(),
            "subs": [sub.get_state() for sub in self._subs],
            "proc_of": dict(self._proc_of),
        }

    def _restore_policy_state(self, state: dict, jobs_by_id) -> None:
        if len(state["subs"]) != len(self._subs):
            raise SchedulingError(
                f"snapshot has {len(state['subs'])} partitions, "
                f"engine has {len(self._subs)}"
            )
        self._dispatcher.set_state(state["dispatcher"])
        for sub, sub_state in zip(self._subs, state["subs"]):
            sub.set_state(sub_state, jobs_by_id)
        self._proc_of = {int(jid): int(p) for jid, p in state["proc_of"].items()}
