"""Admission-controlled EDF: a classical robust-overload baseline.

EDF collapses under overload because it commits to every job; the textbook
fix is an *admission test*: accept a job only if the already-admitted set
plus the newcomer remains feasible, then run plain EDF on the admitted
set.  Under time-varying capacity the online scheduler cannot evaluate true
feasibility (it would need the future trajectory), so the test here is the
conservative one available online: simulate the EDF chain forward at the
guaranteed floor ``c̲``.

This policy is *not* from the paper — it is the extended-baseline the
benchmarks use to situate V-Dover: admission-EDF is value-blind (it admits
by arrival order, not by value), so it fixes EDF's wasted-work pathology
but still forfeits value under overload, which is exactly the gap the
Dover family's value-based triage closes.

Batch protocol: an untraced same-instant release burst first tries **one**
feasibility chain containing every newcomer (:meth:`_chain_admissible`).
Because the chain terms are non-negative and ``np.add.accumulate`` sums
strictly left-to-right, dropping jobs from an admissible chain never
increases any remaining completion instant — so a full-chain pass implies
every per-event prefix test of the scalar path passes too, and the group
folds through the plain EDF placement logic with zero per-event chain
evaluations.  Only when the full chain fails does the group fall back to
the per-event fold (some prefix may still be admissible), which reproduces
the scalar decisions bit-for-bit.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.sim.batchproto import BatchScheduler, BatchView
from repro.sim.job import Job
from repro.sim.queues import JobQueue, edf_key
from repro.sim.scheduler import Scheduler

__all__ = ["AdmissionEDFScheduler"]


class AdmissionEDFScheduler(BatchScheduler, Scheduler):
    """EDF over an admission-controlled job set.

    The admission test at release time: with every admitted-but-unfinished
    job's *remaining* workload processed at the conservative rate ``c̲`` in
    EDF order, does everyone (including the newcomer) still make their
    deadline?  Accepted jobs are never revoked; rejected jobs are dropped
    outright (they fail at their deadlines, having consumed nothing).
    """

    name = "EDF-AC"

    def __init__(self, rate_estimate: float | None = None) -> None:
        super().__init__()
        self._rate_cfg = rate_estimate

    def reset(self) -> None:
        self._rate = (
            self._rate_cfg if self._rate_cfg is not None else self.ctx.bounds[0]
        )
        self._ready: JobQueue[Job] = JobQueue(edf_key, name="edfac-ready")
        self._rejected: set[int] = set()

    # ------------------------------------------------------------------
    def _admitted_jobs(self, current: Optional[Job]) -> list[Job]:
        jobs = list(self._ready.jobs())
        if current is not None:
            jobs.append(current)
        return jobs

    def _chain_admissible(
        self, newcomers: List[Job], current: Optional[Job]
    ) -> bool:
        """Conservative EDF-chain test at rate ``c̲``.

        Processing the admitted set plus ``newcomers`` in EDF order at the
        floor rate, every completion must precede its deadline.  (Exact for
        constant capacity at ``c̲``; conservative — never over-admits — for
        any real trajectory above the floor.)

        The chain is evaluated as one vectorized pass:
        ``np.add.accumulate`` over ``[now, w_0/c̲, w_1/c̲, …]`` yields the
        predicted completion instants.  ``accumulate`` sums strictly
        left-to-right (no pairwise regrouping), so each instant is
        bit-identical to the historical scalar ``t += remaining/rate``
        loop — the 1-ulp regression test in
        ``tests/properties/test_property_columnar.py`` pins this.
        """
        now = self.ctx.now()
        chain = sorted(self._admitted_jobs(current) + newcomers, key=edf_key)
        remaining = self.ctx.remaining
        rate = self._rate
        n = len(chain)
        terms = np.empty(n + 1, dtype=np.float64)
        terms[0] = now
        for i, job in enumerate(chain):
            terms[i + 1] = remaining(job) / rate
        completion = np.add.accumulate(terms)
        deadlines = np.array([job.deadline for job in chain], dtype=np.float64)
        return not bool((completion[1:] > deadlines + 1e-12).any())

    def _admissible_with(self, newcomer: Job, current: Optional[Job]) -> bool:
        return self._chain_admissible([newcomer], current)

    # ------------------------------------------------------------------
    def _place_admitted(self, cur: Optional[Job], job: Job) -> Optional[Job]:
        """EDF placement of an already-admitted newcomer."""
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
            obs.decision(self.name, "admit.enqueue", self.ctx.now(), job.jid)
        return cur

    def _on_release_from(self, cur: Optional[Job], job: Job) -> Optional[Job]:
        if not self._admissible_with(job, cur):
            self._rejected.add(job.jid)
            obs = self.ctx.obs
            if obs is not None:
                obs.decision(
                    self.name, "reject.admission", self.ctx.now(), job.jid
                )
            return cur
        return self._place_admitted(cur, job)

    def on_release(self, job: Job) -> Optional[Job]:
        return self._on_release_from(self.ctx.current_job(), job)

    def on_releases(self, view: BatchView) -> List[Optional[Job]]:
        cur = self.ctx.current_job()
        if len(view) > 1 and self._chain_admissible(list(view.jobs), cur):
            # Group fast path: one chain proved the whole burst feasible,
            # so every newcomer admits — fold the placement logic only.
            desired: List[Optional[Job]] = []
            for job in view.jobs:
                cur = self._place_admitted(cur, job)
                desired.append(cur)
            return desired
        return super().on_releases(view)

    def on_completions(self, view: BatchView) -> None:
        # Same-instant deadline sweep of waiting jobs: the scalar
        # on_job_end with a running current discards the rejection mark
        # and drops the job from the ready queue, silently.
        discard = self._rejected.discard
        remove = self._ready.remove
        for job in view.jobs:
            discard(job.jid)
            remove(job)

    def on_job_end(self, job: Job, completed: bool) -> Optional[Job]:
        self._rejected.discard(job.jid)
        current = self.ctx.current_job()
        if current is not None:
            self._ready.remove(job)
            return current
        self._ready.remove(job)
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
        # The job was already admitted; eviction does not re-run the
        # admission test (admission is never revoked).
        self._ready.insert(job)
        return self._ready.dequeue()

    @property
    def n_rejected(self) -> int:
        """Jobs turned away by the admission test (so far this run)."""
        return len(self._rejected)

    # ------------------------------------------------------------------
    # Snapshot / restore
    # ------------------------------------------------------------------
    def _policy_state(self) -> dict:
        return {
            "rate": self._rate,
            "ready": self._ready.live_jids(),
            "rejected": sorted(self._rejected),
        }

    def _restore_policy_state(self, state: dict, jobs_by_id) -> None:
        self._rate = state["rate"]
        for jid in state["ready"]:
            self._ready.insert(jobs_by_id[jid])
        self._rejected = set(state["rejected"])
