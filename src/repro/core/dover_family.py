"""Shared machinery of the Dover scheduler family (paper, Section III-D).

The paper presents V-Dover as four procedures:

* **A** — the interrupt loop (implemented by the engine);
* **B** — the job-release handler;
* **C** — the job completion-or-failure handler;
* **D** — the zero-conservative-laxity handler.

Dover (Koren & Shasha) and V-Dover share this structure; Section IV of the
paper states the exact two deltas: (i) Dover computes laxities against a
point estimate ``ĉ`` of future capacity, V-Dover against the conservative
bound ``c̲``; (ii) V-Dover keeps jobs that lose the zero-laxity value
comparison alive as *supplement* jobs (they may still complete when the
capacity runs above ``c̲``), while Dover abandons them (under constant
capacity they are provably dead).  :class:`DoverFamilyScheduler` implements
the machinery with both deltas as knobs; :mod:`repro.core.vdover` and
:mod:`repro.core.dover` are thin configurations.

State (paper lines A.1–A.2):

* ``Qedf``   — recently EDF-preempted regular jobs, stored as tuples
  ``(job, t_insert, cSlack_insert)``, earliest deadline first;
* ``Qother`` — other regular jobs, earliest deadline first;
* ``Qsupp``  — supplement jobs, **latest** deadline first;
* ``cSlack`` — the slack time that can be granted to new jobs without any
  job of {current} ∪ Qedf missing its deadline under the conservative rate
  estimate.  While a regular job runs at real rate ``c(t) >= c̲`` its
  conservative laxity cannot decrease, so ``cSlack`` does not decay during
  execution; entries parked in ``Qedf`` *do* decay, which is why their
  stored snapshot is aged by ``now − t_insert`` on restore (lines C.3/C.15).

Pseudocode fidelity notes:

* Lines B.7–B.9 are garbled in the published text; we reconstruct them by
  symmetry with C.5–C.7 (the same EDF-preemption bookkeeping): on an EDF
  preemption the new ``cSlack`` is
  ``min(cSlack − t_c(T_arr), claxity(T_arr))``.
* The zero-laxity interrupt is armed for every *waiting regular* job at the
  absolute instant ``d − p_r/est`` (its laxity decreases at unit rate while
  waiting and ``p_r`` is frozen); the engine drops alarms that fire while a
  job runs, and re-arming on every enqueue version-invalidates stale ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter
from typing import Optional

from repro.errors import EstimateError, SchedulingError
from repro.sim.batchproto import BatchScheduler, BatchView
from repro.sim.job import Job
from repro.sim.queues import EdfEntry, JobQueue, edf_key, latest_deadline_key
from repro.sim.scheduler import Scheduler

__all__ = ["DoverFamilyScheduler", "RegularInterval"]


@dataclass(frozen=True)
class RegularInterval:
    """A *regular interval* (paper, Definition 6): from the first instant a
    regular job is scheduled while Qedf is empty, to the first subsequent
    completion of a regular job while Qedf is empty.

    ``regval`` is the value completed inside the interval, ``clval`` the
    part of it earned by jobs scheduled through the zero-laxity handler —
    the two quantities Lemma 1 bounds the interval's capacity integral by:
    ``∫ c <= regval + clval / (β − 1)``.
    """

    start: float
    end: float
    regval: float
    clval: float

    def lemma1_bound(self, beta: float) -> float:
        """The right-hand side of Lemma 1 for this interval."""
        return self.regval + self.clval / (beta - 1.0)


class DoverFamilyScheduler(BatchScheduler, Scheduler):
    """Configurable implementation of the Dover/V-Dover machinery.

    Parameters
    ----------
    beta:
        The value-comparison threshold of handler D (line D.1).  V-Dover
        optimizes ``beta = 1 + sqrt(k / f(k, δ))`` (Section III-G); Dover
        uses Koren–Shasha's ``1 + sqrt(k)``.
    rate_estimate:
        The rate used for laxities and conservative processing times:
        ``None`` selects the conservative bound ``c̲`` from the context
        (V-Dover); a float selects Dover's point estimate ``ĉ``; the string
        ``"sensed"`` tracks the instantaneous capacity sensor, refreshed at
        every interrupt through :meth:`~repro.sim.scheduler.Scheduler.
        sense_capacity` — i.e. with the clamp / last-known-good / c̲
        degradation ladder of docs/ROBUSTNESS.md, so a noisy, stale or
        dropped-out sensor degrades the estimate but never crashes the
        scheduler.
    supplement:
        Whether losing jobs at the zero-laxity comparison are retained as
        supplement jobs (V-Dover) or abandoned (Dover).
    """

    name = "dover-family"

    def __init__(
        self,
        beta: float,
        *,
        rate_estimate: float | str | None = None,
        supplement: bool = True,
    ) -> None:
        super().__init__()
        if beta <= 1.0:
            raise SchedulingError(
                f"beta must exceed 1 (got {beta!r}); the competitive-ratio "
                "argument and same-instant termination both require it"
            )
        if isinstance(rate_estimate, str) and rate_estimate != "sensed":
            raise SchedulingError(
                f"rate_estimate must be a float, None or 'sensed', "
                f"got {rate_estimate!r}"
            )
        self._beta = float(beta)
        self._rate_cfg = rate_estimate
        #: ``"sensed"`` mode: every handler re-reads the sensor first.
        self._sensed = rate_estimate == "sensed"
        self._supplement_enabled = bool(supplement)

    # ------------------------------------------------------------------
    # Per-run state
    # ------------------------------------------------------------------
    def _check_band(self) -> tuple[float, float]:
        """The declared band, validated once per run: a scheduler whose
        whole contract is built on ``0 < c̲ <= c̄ < ∞`` must fail loudly
        (structured :class:`EstimateError`) on a garbage declaration rather
        than mis-schedule every job."""
        lo, hi = self.ctx.bounds
        if not (math.isfinite(lo) and math.isfinite(hi) and 0.0 < lo <= hi):
            raise EstimateError(
                f"declared capacity band ({lo!r}, {hi!r}) is unusable for "
                f"{self.name}"
            )
        return lo, hi

    def reset(self) -> None:
        if self._rate_cfg is None:
            self._rate = self._check_band()[0]
        elif self._sensed:
            self._check_band()
            self._rate = self.sense_capacity()
        else:
            self._rate = float(self._rate_cfg)
            if self._rate <= 0.0:
                raise SchedulingError(f"rate estimate must be positive: {self._rate}")
        self._qedf: JobQueue[EdfEntry] = JobQueue(
            edf_key, entry_job=itemgetter(0), name="Qedf"
        )
        self._qother: JobQueue[Job] = JobQueue(edf_key, name="Qother")
        self._qsupp: JobQueue[Job] = JobQueue(latest_deadline_key, name="Qsupp")
        self._cslack = math.inf
        self._supp_ids: set[int] = set()
        self._abandoned_ids: set[int] = set()
        # Instrumentation for the analysis module (regular intervals etc.).
        self._stats = {
            "zero_laxity_interrupts": 0,
            "zero_laxity_wins": 0,
            "supplement_labels": 0,
            "edf_preemptions": 0,
            "supplement_preemptions": 0,
        }
        # Regular-interval tracking (Definition 6 / Lemma 1).  Closed
        # intervals are kept as ``(start, end, regval, clval)`` tuples and
        # become RegularInterval objects only on access.
        self._zero_cl_ids: set[int] = set()
        self._intervals: list[tuple[float, float, float, float]] = []
        self._open_start: float | None = None
        self._acc_regval = 0.0
        self._acc_clval = 0.0

    # ------------------------------------------------------------------
    # Helpers
    #
    # In "sensed" mode every handler first re-reads the (possibly faulty)
    # sensor with graceful degradation: ``if self._sensed: self._rate =
    # self.sense_capacity()``.  A job is a supplement job iff its jid is in
    # ``_supp_ids``.
    # ------------------------------------------------------------------
    def _claxity(self, job: Job) -> float:
        """Laxity under the configured rate estimate (Definition 5 when the
        estimate is ``c̲``): :meth:`SchedulerContext.claxity
        <repro.sim.scheduler.SchedulerContext.claxity>`'s arithmetic."""
        ctx = self.ctx
        return job.deadline - ctx.now() - ctx.remaining(job) / self._rate

    def _tc(self, job: Job) -> float:
        """Estimated remaining processing time ``t_c(T, est)``
        (:meth:`SchedulerContext.conservative_remaining_time
        <repro.sim.scheduler.SchedulerContext.conservative_remaining_time>`)."""
        return self.ctx.remaining(job) / self._rate

    def _dispatch_regular(self, job: Job) -> Job:
        """Bookkeeping for scheduling a regular job: opens a regular
        interval when none is open and Qedf is empty (Definition 6)."""
        if self._open_start is None and not self._qedf:
            self._open_start = self.ctx.now()
            self._acc_regval = 0.0
            self._acc_clval = 0.0
        return job

    def _note_completion(self, job: Job, was_supplement: bool) -> None:
        """Fold a completed job into the open interval and close the
        interval if this was a regular completion with Qedf empty."""
        if self._open_start is None:
            return
        self._acc_regval += job.value
        if job.jid in self._zero_cl_ids:
            self._acc_clval += job.value
        if not was_supplement and not self._qedf:
            self._intervals.append(
                (self._open_start, self.ctx.now(), self._acc_regval,
                 self._acc_clval)
            )
            self._open_start = None

    @property
    def regular_intervals(self) -> list[RegularInterval]:
        """Closed regular intervals of the last (or running) simulation."""
        return [RegularInterval(*iv) for iv in self._intervals]

    def _arm_zero_laxity(self, job: Job) -> None:
        """Arm the zero-laxity interrupt of a waiting regular job at the
        absolute time its estimated laxity reaches zero."""
        fire_at = job.deadline - self.ctx.remaining(job) / self._rate
        self.ctx.set_alarm(job, fire_at, tag="zero-claxity")

    def _enqueue_other(self, job: Job) -> None:
        self._qother.insert(job)
        self._arm_zero_laxity(job)

    def _label_supplement(self, job: Job) -> None:
        """Line D.7 — or, for Dover, abandonment."""
        if self._supplement_enabled:
            self._supp_ids.add(job.jid)
            self._qsupp.insert(job)
            self._stats["supplement_labels"] += 1
        else:
            # Dover: under the (assumed constant) estimate the job can no
            # longer meet its deadline; drop it.  Its deadline event will
            # record the failure.
            self._abandoned_ids.add(job.jid)

    @property
    def stats(self) -> dict:
        """Counters for ablation analysis (copies on access)."""
        return dict(self._stats)

    # ------------------------------------------------------------------
    # Handler B: job release
    # ------------------------------------------------------------------
    def _on_release_from(self, cur: Optional[Job], job: Job) -> Optional[Job]:
        if self._sensed:
            self._rate = self.sense_capacity()
        obs = self.ctx.obs

        if cur is None:  # lines B.1–B.4: processor idle
            self._cslack = self._claxity(job)
            if obs is not None:
                obs.decision(self.name, "admit.idle", self.ctx.now(), job.jid)
            return self._dispatch_regular(job)

        if cur.jid in self._supp_ids:  # lines B.13–B.15
            # Regular arrivals preempt supplement work immediately.
            self._qsupp.insert(cur)
            self._stats["supplement_preemptions"] += 1
            self._cslack = self._claxity(job)
            if obs is not None:
                obs.decision(
                    self.name, "preempt.supplement", self.ctx.now(), job.jid,
                    preempted=cur.jid,
                )
            return self._dispatch_regular(job)

        # Current is regular: EDF comparison, lines B.6–B.12.
        if job.deadline < cur.deadline and self._cslack >= self._tc(job):
            # EDF preemption with room in the slack: current becomes a
            # recently-EDF-scheduled job (tuple remembers the slack state).
            self._qedf.insert((cur, self.ctx.now(), self._cslack))
            self._arm_zero_laxity(cur)
            self._cslack = min(self._cslack - self._tc(job), self._claxity(job))
            self._stats["edf_preemptions"] += 1
            if obs is not None:
                obs.decision(
                    self.name, "preempt.edf", self.ctx.now(), job.jid,
                    preempted=cur.jid,
                )
            return self._dispatch_regular(job)

        self._enqueue_other(job)  # line B.11
        if obs is not None:
            obs.decision(self.name, "enqueue.other", self.ctx.now(), job.jid)
        return cur

    def on_release(self, job: Job) -> Optional[Job]:
        return self._on_release_from(self.ctx.current_job(), job)

    # ------------------------------------------------------------------
    # Handler C: job completion or failure (of the running job)
    # ------------------------------------------------------------------
    def _handler_c(self) -> Optional[Job]:
        now = self.ctx.now()
        obs = self.ctx.obs

        if self._qedf and self._qother:  # lines C.1–C.9
            head_job, t_prev, cslack_prev = self._qedf.first()
            self._cslack = cslack_prev - (now - t_prev)
            other = self._qother.first()
            if (
                other.deadline < head_job.deadline
                and self._cslack >= self._tc(other)
            ):  # lines C.5–C.7
                self._qother.remove(other)
                self._cslack = min(
                    self._cslack - self._tc(other), self._claxity(other)
                )
                if obs is not None:
                    obs.decision(self.name, "resume.other", now, other.jid)
                return self._dispatch_regular(other)
            self._qedf.dequeue()  # line C.9
            if obs is not None:
                obs.decision(self.name, "resume.qedf", now, head_job.jid)
            return self._dispatch_regular(head_job)

        if self._qother:  # lines C.10–C.12
            other = self._qother.dequeue()
            self._cslack = self._claxity(other)
            if obs is not None:
                obs.decision(self.name, "resume.other", now, other.jid)
            return self._dispatch_regular(other)

        if self._qedf:  # lines C.13–C.15
            head_job, t_prev, cslack_prev = self._qedf.dequeue()
            self._cslack = cslack_prev - (now - t_prev)
            if obs is not None:
                obs.decision(self.name, "resume.qedf", now, head_job.jid)
            return self._dispatch_regular(head_job)

        # Lines C.16–C.22: no regular work left.
        self._cslack = math.inf
        if self._qsupp:
            revived = self._qsupp.dequeue()
            if obs is not None:
                obs.decision(self.name, "revive.supplement", now, revived.jid)
            return revived
        if obs is not None:
            obs.decision(self.name, "idle", now)
        return None

    def on_job_end(self, job: Job, completed: bool) -> Optional[Job]:
        if self._sensed:
            self._rate = self.sense_capacity()
        current = self.ctx.current_job()
        if current is not None:
            # A *waiting* job expired: purge it from wherever it sits and
            # keep executing.  (Handler C is only for the running job.)
            self._remove_everywhere(job)
            return current
        # The running job completed or failed: full handler C.
        was_supplement = job.jid in self._supp_ids
        self._remove_everywhere(job)  # defensive; it should be in no queue
        if completed:
            self._note_completion(job, was_supplement)
        return self._handler_c()

    def on_completions(self, view: BatchView) -> None:
        # Same-instant deadline sweep of waiting jobs while a job runs:
        # the scalar on_job_end is a sensor refresh plus a silent purge.
        for job in view.jobs:
            if self._sensed:
                self._rate = self.sense_capacity()
            self._remove_everywhere(job)

    def _remove_everywhere(self, job: Job) -> None:
        self._qedf.remove(job)
        self._qother.remove(job)
        self._qsupp.remove(job)
        self._supp_ids.discard(job.jid)

    # ------------------------------------------------------------------
    # Handler D: zero (estimated) laxity
    # ------------------------------------------------------------------
    def on_alarm(self, job: Job, tag: str) -> Optional[Job]:
        if tag != "zero-claxity":  # pragma: no cover - future-proofing
            return self.ctx.current_job()
        if self._sensed:
            self._rate = self.sense_capacity()
        if job.jid in self._supp_ids or job.jid in self._abandoned_ids:
            return self.ctx.current_job()  # stale alarm on a demoted job
        self._stats["zero_laxity_interrupts"] += 1
        current = self.ctx.current_job()

        obs = self.ctx.obs
        if current is None or current.jid in self._supp_ids:
            # Defensive branch: a waiting regular job while no regular job
            # runs should not occur (every handler schedules regular work
            # ahead of supplement/idle), but an urgent regular job must run.
            self._remove_from_regular_queues(job)
            if current is not None:
                self._qsupp.insert(current)
            self._cslack = 0.0
            self._stats["zero_laxity_wins"] += 1
            self._zero_cl_ids.add(job.jid)
            if obs is not None:
                obs.decision(
                    self.name, "zero_laxity.win", self.ctx.now(), job.jid
                )
            return self._dispatch_regular(job)

        protected_value = current.value + sum(
            entry[0].value for entry in self._qedf.entries()
        )
        if job.value > self._beta * protected_value:  # lines D.1–D.5
            self._remove_from_regular_queues(job)
            self._enqueue_other(current)
            for entry in self._qedf.drain():  # line D.3
                self._enqueue_other(entry[0])
            self._cslack = 0.0  # line D.4
            self._stats["zero_laxity_wins"] += 1
            self._zero_cl_ids.add(job.jid)
            if obs is not None:
                obs.decision(
                    self.name,
                    "zero_laxity.win",
                    self.ctx.now(),
                    job.jid,
                    preempted=current.jid,
                )
            return self._dispatch_regular(job)

        # Line D.7: not valuable enough — demote.
        self._remove_from_regular_queues(job)
        self._label_supplement(job)
        if obs is not None:
            obs.decision(
                self.name,
                "zero_laxity.demote"
                if self._supplement_enabled
                else "zero_laxity.abandon",
                self.ctx.now(),
                job.jid,
            )
        return current

    def _remove_from_regular_queues(self, job: Job) -> None:
        if self._qedf.remove(job) is None:
            if self._qother.remove(job) is None:
                raise SchedulingError(
                    f"zero-laxity interrupt for job {job.jid} that is in "
                    "neither Qedf nor Qother"
                )

    # ------------------------------------------------------------------
    # Eviction (execution faults: VM revocation, mid-run job kill)
    # ------------------------------------------------------------------
    def on_eviction(self, job: Job) -> Optional[Job]:
        """The running job was forcibly evicted (and may have lost
        progress).  Requeue it — supplement jobs back to Qsupp, regular
        jobs to Qother with a fresh zero-laxity alarm — then run handler C
        to elect a successor, exactly as if the processor had just freed
        up."""
        if self._sensed:
            self._rate = self.sense_capacity()
        if job.jid in self._supp_ids:
            self._qsupp.insert(job)
        elif job.jid not in self._abandoned_ids:
            self._enqueue_other(job)
        obs = self.ctx.obs
        if obs is not None:
            obs.decision(self.name, "requeue.evicted", self.ctx.now(), job.jid)
        return self._handler_c()

    # ------------------------------------------------------------------
    # Snapshot / restore
    # ------------------------------------------------------------------
    def drain(self, finished: "set[int]") -> list:
        """Hand over the closed regular intervals and forget finished
        jobs' labels (a finished job takes no further alarm, eviction or
        completion, so nothing reads them again)."""
        closed, self._intervals = self._intervals, []
        self._zero_cl_ids -= finished
        self._abandoned_ids -= finished
        return closed

    def _policy_state(self) -> dict:
        return {
            "rate": self._rate,
            "cslack": self._cslack,
            # Qedf entries carry bookkeeping; all queues serialise by jid
            # (insertion order is irrelevant: every ordering key includes
            # the jid tie-break, so keys are unique).
            "qedf": sorted(
                (e[0].jid, e[1], e[2]) for e in self._qedf.entries()
            ),
            "qother": self._qother.live_jids(),
            "qsupp": self._qsupp.live_jids(),
            "supp_ids": sorted(self._supp_ids),
            "abandoned_ids": sorted(self._abandoned_ids),
            "zero_cl_ids": sorted(self._zero_cl_ids),
            "stats": dict(self._stats),
            "intervals": list(self._intervals),
            "open_start": self._open_start,
            "acc_regval": self._acc_regval,
            "acc_clval": self._acc_clval,
        }

    def _restore_policy_state(self, state: dict, jobs_by_id) -> None:
        self._rate = state["rate"]
        self._cslack = state["cslack"]
        for jid, t_insert, cslack_insert in state["qedf"]:
            self._qedf.insert((jobs_by_id[jid], t_insert, cslack_insert))
        for jid in state["qother"]:
            # Plain insert: the armed zero-laxity alarms live in the
            # engine's event-queue snapshot; re-arming here would bump
            # version tokens and orphan them.
            self._qother.insert(jobs_by_id[jid])
        for jid in state["qsupp"]:
            self._qsupp.insert(jobs_by_id[jid])
        self._supp_ids = set(state["supp_ids"])
        self._abandoned_ids = set(state["abandoned_ids"])
        self._zero_cl_ids = set(state["zero_cl_ids"])
        self._stats = dict(state["stats"])
        self._intervals = [tuple(iv) for iv in state["intervals"]]
        self._open_start = state["open_start"]
        self._acc_regval = state["acc_regval"]
        self._acc_clval = state["acc_clval"]
