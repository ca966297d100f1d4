"""Earliest Deadline First — optimal for underloaded systems (Theorem 2).

EDF always runs the ready job with the earliest deadline, preempting on
arrival of an earlier-deadline job.  The paper's Theorem 2 shows this
achieves competitive ratio 1 for underloaded systems *even under
time-varying capacity* (the classical constant-capacity result of Liu &
Layland / Dertouzos carries over via the time-stretch transformation).

Under overload EDF can be arbitrarily bad (Locke's observation): it
happily burns the whole horizon on a long low-value job whose deadline is
earliest, starving everything else.  The adversarial generators in
:mod:`repro.workload.instances` exhibit this; Dover/V-Dover exist to fix it.

Batch protocol: the release logic is factored into
:meth:`_on_release_from` (current job passed explicitly), so an untraced
same-instant release burst folds through one
:meth:`~repro.sim.batchproto.BatchScheduler.plan` call — bit-identical
decisions, minus the per-event kernel dispatch overhead.
"""

from __future__ import annotations

from typing import Optional

from repro.sim.batchproto import BatchScheduler, BatchView
from repro.sim.job import Job
from repro.sim.queues import JobQueue, edf_key
from repro.sim.scheduler import Scheduler

__all__ = ["EDFScheduler"]


class EDFScheduler(BatchScheduler, Scheduler):
    """Preemptive earliest-deadline-first.

    Ties on deadline break by job id, so runs are deterministic.
    """

    name = "EDF"

    def reset(self) -> None:
        self._ready: JobQueue[Job] = JobQueue(edf_key, name="edf-ready")

    def _on_release_from(self, cur: Optional[Job], job: Job) -> Optional[Job]:
        obs = self.ctx.obs
        if cur is None:
            if obs is not None:
                obs.decision(self.name, "admit.idle", self.ctx.now(), job.jid)
            return job
        if edf_key(job) < edf_key(cur):
            self._ready.insert(cur)
            if obs is not None:
                obs.decision(
                    self.name, "preempt.edf", self.ctx.now(), job.jid,
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
        # Same-instant deadline sweep of waiting jobs: the scalar
        # on_job_end with a running current is a silent queue drop.
        remove = self._ready.remove
        for job in view.jobs:
            remove(job)

    def on_job_end(self, job: Job, completed: bool) -> Optional[Job]:
        current = self.ctx.current_job()
        if current is not None:
            # A waiting job expired; just drop it from the ready queue.
            self._ready.remove(job)
            return current
        self._ready.remove(job)  # no-op if `job` was the running one
        obs = self.ctx.obs
        if self._ready:
            chosen = self._ready.dequeue()
            if obs is not None:
                obs.decision(self.name, "resume.edf", self.ctx.now(), chosen.jid)
            return chosen
        if obs is not None:
            obs.decision(self.name, "idle", self.ctx.now())
        return None

    def on_eviction(self, job: Job) -> Optional[Job]:
        # Unlike a release, an eviction can leave the processor idle while
        # the ready queue is non-empty; re-elect over the full queue.
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
