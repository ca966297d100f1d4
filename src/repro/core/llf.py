"""Least Laxity First under an estimated rate.

The paper notes (Section III-B) that LLF does not generalise cleanly to
time-varying capacity because the true remaining *processing time* — and
hence the true laxity — depends on the unknown future trajectory.  This
implementation follows the paper's own workaround for Dover: laxity is
computed against a fixed rate estimate (the conservative bound ``c̲`` by
default, matching Definition 5's *conservative laxity*).

Event-driven realisation.  For a *waiting* job the estimated laxity
``d − t − p_r/ĉ`` decreases at unit rate while ``p_r`` is frozen, so the
ordering among waiting jobs is static between preemptions: the job with the
minimal "laxity intercept" ``d − p_r/ĉ`` is always the least-lax waiting
job.  For the *running* job the laxity is non-decreasing whenever the real
capacity is at least the estimate, so a waiting job can overtake the
running one; the scheduler arms a crossing timer at the conservative
estimate of that instant and re-evaluates there.  A hysteresis margin
``eta`` prevents the infinite-switching pathology of continuous LLF (two
jobs with equal laxity would otherwise exchange the processor at an
unbounded rate).
"""

from __future__ import annotations

from typing import Optional

from repro.sim.batchproto import BatchScheduler
from repro.sim.job import Job
from repro.sim.queues import JobQueue
from repro.sim.scheduler import Scheduler

__all__ = ["LLFScheduler"]


class LLFScheduler(BatchScheduler, Scheduler):
    """Least (conservative) laxity first with switching hysteresis.

    Parameters
    ----------
    rate_estimate:
        Rate used to estimate laxities; ``None`` means the conservative
        bound ``c̲`` supplied by the context.
    eta:
        Hysteresis quantum: a waiting job must undercut the running job's
        laxity by more than ``eta`` to preempt it, and crossing timers are
        re-armed no denser than ``eta`` apart.  This bounds the switching
        rate at ~1/eta (continuous LLF switches infinitely often on laxity
        ties — Mok's classic observation); the default trades scheduling
        precision of 0.05 time units for a bounded event count.
    """

    name = "LLF"

    #: ``on_job_end`` re-elects (and emits / re-arms timers) even for a
    #: waiting job's deadline, so same-instant deadline sweeps must stay
    #: per-event under the batch protocol.
    batch_pure_completions = False

    def __init__(self, rate_estimate: float | None = None, eta: float = 0.05) -> None:
        super().__init__()
        self._rate_cfg = rate_estimate
        self._eta = float(eta)

    def reset(self) -> None:
        self._rate = (
            self._rate_cfg if self._rate_cfg is not None else self.ctx.bounds[0]
        )
        # Waiting jobs keyed by laxity intercept d - p_r/rate: the minimal
        # intercept is the least-lax waiting job at every instant.
        self._ready: JobQueue[Job] = JobQueue(self._intercept_key, name="llf-ready")

    # ------------------------------------------------------------------
    def _intercept_key(self, job: Job) -> tuple:
        # p_r is frozen while waiting, so this key is stable in-queue.
        return (job.deadline - self.ctx.remaining(job) / self._rate, job.jid)

    def _laxity(self, job: Job) -> float:
        return self.ctx.claxity(job, self._rate)

    def _arm_crossing_timer(self, running: Job) -> None:
        """Arm a re-evaluation alarm at the conservative instant where the
        best waiting job's laxity reaches the running job's current laxity
        (running laxity treated as constant — conservative because real
        capacity >= estimate only helps the running job)."""
        if not self._ready:
            return
        waiter = self._ready.first()
        # The waiter preempts when its laxity undercuts the runner's by more
        # than eta; the gap shrinks at rate <= 1, so the crossing is no
        # earlier than now + gap + eta.  The eta floor guarantees strictly
        # positive re-arm delays (no same-instant alarm storms).
        gap = self._laxity(waiter) - self._laxity(running)
        delay = max(gap + self._eta, self._eta)
        self.ctx.set_alarm(waiter, self.ctx.now() + delay, tag="llf-cross")

    def _elect_from(self, current: Optional[Job]) -> Optional[Job]:
        """Pick the least-lax job among ``current`` + waiting, with
        hysteresis favouring the running job.

        The current job is passed explicitly so a batch fold can thread the
        hypothetical current through the group (laxities, crossing timers
        and queue moves are bit-identical either way — the group shares one
        timestamp, so no work elapses between fold steps)."""
        if not self._ready:
            return current
        waiter = self._ready.first()
        obs = self.ctx.obs
        if current is None:
            chosen = self._ready.dequeue()
            self._arm_crossing_timer(chosen)
            if obs is not None:
                obs.decision(self.name, "admit.idle", self.ctx.now(), chosen.jid)
            return chosen
        if self._laxity(waiter) < self._laxity(current) - self._eta:
            self._ready.remove(waiter)
            self._ready.insert(current)
            self._arm_crossing_timer(waiter)
            if obs is not None:
                obs.decision(
                    self.name, "preempt.llf", self.ctx.now(), waiter.jid,
                    preempted=current.jid,
                )
            return waiter
        self._arm_crossing_timer(current)
        if obs is not None:
            obs.decision(self.name, "keep.current", self.ctx.now(), current.jid)
        return current

    def _elect(self) -> Optional[Job]:
        return self._elect_from(self.ctx.current_job())

    # ------------------------------------------------------------------
    def _on_release_from(self, cur: Optional[Job], job: Job) -> Optional[Job]:
        self._ready.insert(job)
        return self._elect_from(cur)

    def on_release(self, job: Job) -> Optional[Job]:
        return self._on_release_from(self.ctx.current_job(), job)

    def on_job_end(self, job: Job, completed: bool) -> Optional[Job]:
        self._ready.remove(job)
        return self._elect()

    def on_alarm(self, job: Job, tag: str) -> Optional[Job]:
        return self._elect()

    def on_eviction(self, job: Job) -> Optional[Job]:
        self._ready.insert(job)
        return self._elect()

    # ------------------------------------------------------------------
    # Snapshot / restore
    # ------------------------------------------------------------------
    def _policy_state(self) -> dict:
        return {
            "rate": self._rate,
            "ready": self._ready.live_jids(),
        }

    def _restore_policy_state(self, state: dict, jobs_by_id) -> None:
        self._rate = state["rate"]
        # Intercept keys recompute identically: a waiting job's remaining
        # workload is frozen and the engine restores it before set_state.
        for jid in state["ready"]:
            self._ready.insert(jobs_by_id[jid])
