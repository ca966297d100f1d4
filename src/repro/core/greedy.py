"""Simple greedy baselines: value-density, absolute-value, FCFS.

These are not from the paper's evaluation (which compares V-Dover against
Dover) but are the standard strawmen in the overload-scheduling literature
and are used by the extended benchmarks and examples to situate the Dover
family: a value-blind policy (FCFS/EDF) collapses under overload, a
deadline-blind policy (pure greedy) wastes work on jobs that cannot finish.
"""

from __future__ import annotations

from typing import Optional

from repro.sim.batchproto import BatchScheduler, BatchView
from repro.sim.job import Job
from repro.sim.queues import JobQueue
from repro.sim.scheduler import Scheduler

__all__ = [
    "GreedyDensityScheduler",
    "GreedyValueScheduler",
    "FCFSScheduler",
]


class _PriorityPreemptiveScheduler(BatchScheduler, Scheduler):
    """Run the ready job with the best static priority, preemptively.

    Subclasses provide the priority key (smaller = better).  A newly
    released job preempts if and only if it strictly beats the running one.
    """

    def _key(self, job: Job) -> tuple:
        raise NotImplementedError

    def reset(self) -> None:
        self._ready: JobQueue[Job] = JobQueue(self._key, name=f"{self.name}-ready")

    def _on_release_from(self, cur: Optional[Job], job: Job) -> Optional[Job]:
        obs = self.ctx.obs
        if cur is None:
            if obs is not None:
                obs.decision(self.name, "admit.idle", self.ctx.now(), job.jid)
            return job
        if self._key(job) < self._key(cur):
            self._ready.insert(cur)
            if obs is not None:
                obs.decision(
                    self.name, "preempt.priority", self.ctx.now(), job.jid,
                    preempted=cur.jid,
                )
            return job
        self._ready.insert(job)
        if obs is not None:
            obs.decision(self.name, "enqueue.ready", self.ctx.now(), job.jid)
        return cur

    def on_release(self, job: Job) -> Optional[Job]:
        return self._on_release_from(self.ctx.current_job(), job)

    def on_completions(self, view: BatchView) -> None:
        remove = self._ready.remove
        for job in view.jobs:
            remove(job)

    def on_job_end(self, job: Job, completed: bool) -> Optional[Job]:
        current = self.ctx.current_job()
        if current is not None:
            self._ready.remove(job)
            return current
        self._ready.remove(job)
        obs = self.ctx.obs
        if self._ready:
            chosen = self._ready.dequeue()
            if obs is not None:
                obs.decision(
                    self.name, "resume.priority", self.ctx.now(), chosen.jid
                )
            return chosen
        if obs is not None:
            obs.decision(self.name, "idle", self.ctx.now())
        return None

    def on_eviction(self, job: Job) -> Optional[Job]:
        self._ready.insert(job)
        chosen = self._ready.dequeue()
        obs = self.ctx.obs
        if obs is not None:
            obs.decision(
                self.name, "requeue.evicted", self.ctx.now(), chosen.jid
            )
        return chosen

    # -- snapshot / restore --------------------------------------------
    def _policy_state(self) -> dict:
        return {"ready": self._ready.live_jids()}

    def _restore_policy_state(self, state: dict, jobs_by_id) -> None:
        for jid in state["ready"]:
            self._ready.insert(jobs_by_id[jid])


class GreedyDensityScheduler(_PriorityPreemptiveScheduler):
    """Highest value-density first (``v_i / p_i``), preemptive.

    Skips jobs that provably cannot finish even at the *optimistic* bound
    ``c̄`` (running them is pure waste)."""

    name = "GreedyDensity"

    def _key(self, job: Job) -> tuple:
        return (-job.density, job.jid)

    def _hopeless(self, job: Job) -> bool:
        _lo, hi = self.ctx.bounds
        return self.ctx.remaining(job) / hi > job.deadline - self.ctx.now()

    def on_job_end(self, job: Job, completed: bool) -> Optional[Job]:
        current = self.ctx.current_job()
        if current is not None:
            self._ready.remove(job)
            return current
        self._ready.remove(job)
        obs = self.ctx.obs
        while self._ready:
            candidate = self._ready.dequeue()
            if not self._hopeless(candidate):
                if obs is not None:
                    obs.decision(
                        self.name, "resume.priority", self.ctx.now(), candidate.jid
                    )
                return candidate
            if obs is not None:
                obs.decision(
                    self.name, "skip.hopeless", self.ctx.now(), candidate.jid
                )
        if obs is not None:
            obs.decision(self.name, "idle", self.ctx.now())
        return None


class GreedyValueScheduler(_PriorityPreemptiveScheduler):
    """Highest absolute value first, preemptive."""

    name = "GreedyValue"

    def _key(self, job: Job) -> tuple:
        return (-job.value, job.jid)


class FCFSScheduler(BatchScheduler, Scheduler):
    """First come, first served; run-to-completion (no preemption).

    The running job is never preempted; waiting jobs queue in release
    order.  The classic cycle-stealing strawman (Condor-style systems
    without deadline awareness behave like this).
    """

    name = "FCFS"

    def reset(self) -> None:
        self._fifo: JobQueue[Job] = JobQueue(
            lambda job: (job.release, job.jid), name="fcfs-fifo"
        )

    def _on_release_from(self, cur: Optional[Job], job: Job) -> Optional[Job]:
        obs = self.ctx.obs
        if cur is None:
            if obs is not None:
                obs.decision(self.name, "admit.idle", self.ctx.now(), job.jid)
            return job
        self._fifo.insert(job)
        if obs is not None:
            obs.decision(self.name, "enqueue.fifo", self.ctx.now(), job.jid)
        return cur

    def on_release(self, job: Job) -> Optional[Job]:
        return self._on_release_from(self.ctx.current_job(), job)

    def on_completions(self, view: BatchView) -> None:
        remove = self._fifo.remove
        for job in view.jobs:
            remove(job)

    def on_job_end(self, job: Job, completed: bool) -> Optional[Job]:
        current = self.ctx.current_job()
        if current is not None:
            self._fifo.remove(job)
            return current
        self._fifo.remove(job)
        obs = self.ctx.obs
        if self._fifo:
            chosen = self._fifo.dequeue()
            if obs is not None:
                obs.decision(self.name, "resume.fifo", self.ctx.now(), chosen.jid)
            return chosen
        if obs is not None:
            obs.decision(self.name, "idle", self.ctx.now())
        return None

    def on_eviction(self, job: Job) -> Optional[Job]:
        # The evicted job re-queues at its release-order slot (it keeps any
        # retained progress; FCFS has no other preference to express).
        self._fifo.insert(job)
        return self._fifo.dequeue()

    # -- snapshot / restore --------------------------------------------
    def _policy_state(self) -> dict:
        return {"fifo": self._fifo.live_jids()}

    def _restore_policy_state(self, state: dict, jobs_by_id) -> None:
        for jid in state["fifo"]:
            self._fifo.insert(jobs_by_id[jid])
