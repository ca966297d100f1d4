"""Execution traces: what ran when, and validation of schedule legality.

Every simulation records a :class:`ScheduleTrace` — the sequence of run
segments ``(start, end, job, work_done)`` plus per-job outcomes.  The trace
is the ground truth for metrics, for the value-versus-time series of the
paper's Figure 1, and for the *validator*, which independently re-checks
that the engine and scheduler together produced a legal schedule:

* segments do not overlap (single processor);
* work done in a segment equals the capacity integral over it
  (work conservation — no job runs faster than ``c(t)``);
* a completed job received exactly its workload, entirely within
  ``[release, deadline]``;
* no job ran before its release or after its deadline.

Running the validator after every test simulation is the repository's main
defence against subtle engine bugs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from repro.capacity.base import CapacityFunction
from repro.errors import SimulationError
from repro.sim.job import Job, JobStatus

__all__ = ["RunSegment", "ScheduleTrace"]

_EPS = 1e-6


@dataclass(frozen=True)
class RunSegment:
    """A maximal interval during which one job ran uninterrupted."""

    start: float
    end: float
    jid: int
    work: float

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class ScheduleTrace:
    """Chronological record of one simulation run."""

    segments: List[RunSegment] = field(default_factory=list)
    #: job id -> final status
    outcomes: Dict[int, JobStatus] = field(default_factory=dict)
    #: job id -> completion time (only completed jobs)
    completion_times: Dict[int, float] = field(default_factory=dict)
    #: (time, value) points: cumulative value after each completion
    value_points: List[tuple[float, float]] = field(default_factory=list)
    #: job id -> workload progress destroyed by execution faults (a killed
    #: job may have to redo work it already received; that work *was*
    #: legally executed, so the validator budgets for it)
    lost_work: Dict[int, float] = field(default_factory=dict)
    #: cumulative value before ``value_points[0]`` — nonzero only on a
    #: service tenant's live trace, whose older points were drained into
    #: its history (:meth:`repro.kernel.core.SchedulingKernel.drain`); a
    #: class attribute, so a closed-horizon trace never carries it
    value_base = 0.0

    # ------------------------------------------------------------------
    # Recording API (used by the engine)
    # ------------------------------------------------------------------
    def add_segment(self, start: float, end: float, jid: int, work: float) -> None:
        if end < start - _EPS:
            raise SimulationError(f"segment ends before it starts: [{start}, {end}]")
        if end - start <= 0.0:
            return  # zero-length segments carry no information
        # Merge with the previous segment when the same job continues
        # seamlessly (keeps traces compact across same-time event cascades).
        if self.segments:
            last = self.segments[-1]
            if last.jid == jid and abs(last.end - start) <= _EPS:
                self.segments[-1] = RunSegment(
                    last.start, end, jid, last.work + work
                )
                return
        self.segments.append(RunSegment(start, end, jid, work))

    def record_lost_work(self, jid: int, amount: float) -> None:
        """Record that an execution fault destroyed ``amount`` units of
        ``jid``'s already-performed progress (kill with partial retention)."""
        if amount <= 0.0:
            return
        self.lost_work[jid] = self.lost_work.get(jid, 0.0) + amount

    def record_outcome(self, job: Job, status: JobStatus, t: float) -> None:
        self.outcomes[job.jid] = status
        if status is JobStatus.COMPLETED:
            self.completion_times[job.jid] = t
            prev = (
                self.value_points[-1][1] if self.value_points else self.value_base
            )
            self.value_points.append((t, prev + job.value))

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def work_by_job(self) -> Dict[int, float]:
        acc: Dict[int, float] = {}
        for seg in self.segments:
            acc[seg.jid] = acc.get(seg.jid, 0.0) + seg.work
        return acc

    def busy_time(self) -> float:
        """Total time the processor was executing some job."""
        return sum(seg.duration for seg in self.segments)

    def total_work(self) -> float:
        """Total workload executed across all jobs."""
        return sum(seg.work for seg in self.segments)

    def value_series(self, horizon: float) -> list[tuple[float, float]]:
        """Cumulative-value step function as ``(t, value)`` points,
        anchored at ``(0, 0)`` and extended to ``(horizon, final)`` —
        exactly the series plotted in the paper's Figure 1."""
        pts = [(0.0, 0.0)]
        pts.extend(self.value_points)
        final = pts[-1][1]
        if pts[-1][0] < horizon:
            pts.append((horizon, final))
        return pts

    def value_at(self, t: float) -> float:
        """Cumulative value accrued by time ``t``."""
        val = 0.0
        for when, cum in self.value_points:
            if when <= t:
                val = cum
            else:
                break
        return val

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def validate(
        self,
        jobs: Sequence[Job],
        capacity: CapacityFunction,
        *,
        tol: float = 1e-6,
    ) -> None:
        """Re-check schedule legality from first principles.

        Raises :class:`SimulationError` on the first violation found.
        """
        by_id = {job.jid: job for job in jobs}
        self.validate_segments(by_id, capacity, tol=tol)
        self.validate_outcomes(by_id, self.work_by_job(), tol=tol)

    def validate_segments(
        self,
        by_id: Dict[int, Job],
        capacity: CapacityFunction,
        *,
        tol: float = 1e-6,
    ) -> None:
        """Segments are ordered, inside their job's window, and each
        recorded work equals the capacity integral over it."""
        prev_end = -math.inf
        for seg in self.segments:
            if seg.start < prev_end - tol:
                raise SimulationError(
                    f"overlapping segments: segment starting at {seg.start} "
                    f"begins before previous end {prev_end}"
                )
            prev_end = seg.end
            job = by_id.get(seg.jid)
            if job is None:
                raise SimulationError(f"segment for unknown job {seg.jid}")
            if seg.start < job.release - tol:
                raise SimulationError(
                    f"job {seg.jid} ran at {seg.start} before release {job.release}"
                )
            if seg.end > job.deadline + tol:
                raise SimulationError(
                    f"job {seg.jid} ran until {seg.end} past deadline {job.deadline}"
                )
            expected = capacity.integrate(seg.start, seg.end)
            scale = max(1.0, abs(expected))
            if abs(expected - seg.work) > tol * scale:
                raise SimulationError(
                    f"work conservation violated for job {seg.jid} on "
                    f"[{seg.start}, {seg.end}]: recorded {seg.work}, "
                    f"capacity integral {expected}"
                )

    def validate_outcomes(
        self,
        by_id: Dict[int, Job],
        work: Dict[int, float],
        *,
        tol: float = 1e-6,
    ) -> None:
        """Each recorded outcome agrees with the work its job received
        (``work``, summed over processors): a completed job got exactly
        its workload by its deadline, a failed one no more than it."""
        for jid, status in self.outcomes.items():
            job = by_id.get(jid)
            if job is None:
                raise SimulationError(f"outcome for unknown job {jid}")
            done = work.get(jid, 0.0)
            # Execution faults (job kills) can destroy progress a job
            # already legally received; that work was really executed, so
            # the per-job budget is workload + lost.
            budget = job.workload + self.lost_work.get(jid, 0.0)
            if status is JobStatus.COMPLETED:
                if abs(done - budget) > tol * max(1.0, budget):
                    raise SimulationError(
                        f"job {jid} marked completed with work {done} != "
                        f"workload-plus-lost {budget}"
                    )
                tdone = self.completion_times[jid]
                if tdone > job.deadline + tol:
                    raise SimulationError(
                        f"job {jid} completed at {tdone} past deadline "
                        f"{job.deadline}"
                    )
            else:
                if done > budget + tol * max(1.0, budget):
                    raise SimulationError(
                        f"job {jid} executed {done} exceeding workload "
                        f"{budget} yet not completed"
                    )
