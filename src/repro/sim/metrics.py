"""Simulation outcome metrics.

:class:`SimulationResult` is the value returned by every simulation run,
on any number of processors; it bundles the accrued value (the paper's
objective), per-job outcomes, the per-processor traces, and derived
statistics used by the experiment harness (normalized value for Table I,
the cumulative series for Figure 1, utilisation, migrations, ...).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.capacity.base import CapacityFunction
from repro.errors import SimulationError
from repro.sim.job import Job, JobStatus, total_value
from repro.sim.trace import ScheduleTrace

__all__ = ["SimulationResult"]


@dataclass
class SimulationResult:
    """Everything measured in one simulation run.

    ``trace`` is the combined outcome record (outcomes, completion times,
    value points, lost work); ``proc_traces`` holds one execution trace
    per processor.  At ``m = 1`` under a single-processor
    :class:`~repro.sim.scheduler.Scheduler` they are one object: ``trace``
    *is* ``proc_traces[0]`` and carries the segments too.  A result built
    without ``proc_traces`` is that one-processor layout."""

    scheduler_name: str
    jobs: Sequence[Job]
    horizon: float
    trace: ScheduleTrace
    #: simulated-process crashes survived to produce this result (0 for a
    #: run without :class:`~repro.faults.EngineCrashPlan` recovery)
    recoveries: int = 0
    #: one execution trace per processor (defaults to ``[trace]``)
    proc_traces: Optional[List[ScheduleTrace]] = None

    def __post_init__(self) -> None:
        if self.proc_traces is None:
            self.proc_traces = [self.trace]

    @property
    def n_procs(self) -> int:
        return len(self.proc_traces)

    # ------------------------------------------------------------------
    # Primary objective
    # ------------------------------------------------------------------
    @property
    def value(self) -> float:
        """Total value of jobs completed by their deadlines.

        Normally read off the trace's cumulative value series; when that
        series is empty (a trace rebuilt without value points — e.g. a
        hand-assembled or partially restored trace) but jobs *did*
        complete, fall back to summing the completed jobs' values from the
        recorded outcomes instead of silently reporting 0.0."""
        if self.trace.value_points:
            return self.trace.value_points[-1][1]
        completed = set(self._ids_with(JobStatus.COMPLETED))
        if not completed:
            return 0.0
        return sum(job.value for job in self.jobs if job.jid in completed)

    @property
    def generated_value(self) -> float:
        """Total value of *all* released jobs (Table I's normalizer)."""
        return total_value(self.jobs)

    @property
    def normalized_value(self) -> float:
        """``value / generated_value`` — the paper's Table I metric.

        Returns 0 for an empty instance (no jobs means nothing to win)."""
        gen = self.generated_value
        return self.value / gen if gen > 0.0 else 0.0

    # ------------------------------------------------------------------
    # Outcome counts
    # ------------------------------------------------------------------
    def _ids_with(self, status: JobStatus) -> List[int]:
        return [jid for jid, st in self.trace.outcomes.items() if st is status]

    @property
    def completed_ids(self) -> List[int]:
        return sorted(self._ids_with(JobStatus.COMPLETED))

    @property
    def failed_ids(self) -> List[int]:
        return sorted(
            self._ids_with(JobStatus.FAILED) + self._ids_with(JobStatus.ABANDONED)
        )

    @property
    def n_completed(self) -> int:
        return len(self._ids_with(JobStatus.COMPLETED))

    @property
    def n_failed(self) -> int:
        return len(self.failed_ids)

    @property
    def completion_ratio(self) -> float:
        """Fraction of jobs completed (by count, not value)."""
        n = len(self.jobs)
        return self.n_completed / n if n else 0.0

    # ------------------------------------------------------------------
    # Resource usage
    # ------------------------------------------------------------------
    @property
    def busy_time(self) -> float:
        """Processor-time spent running jobs, summed over processors."""
        return sum(trace.busy_time() for trace in self.proc_traces)

    @property
    def utilization(self) -> float:
        """Fraction of the horizon's processor-time that was busy."""
        span = self.horizon * len(self.proc_traces)
        return self.busy_time / span if span > 0.0 else 0.0

    @property
    def executed_work(self) -> float:
        """Total workload pushed through the processors, including work
        spent on jobs that eventually failed (wasted work)."""
        return sum(trace.total_work() for trace in self.proc_traces)

    @property
    def wasted_work(self) -> float:
        """Work spent on jobs that did not complete."""
        work = self.work_by_job()
        completed = set(self.completed_ids)
        return sum(w for jid, w in work.items() if jid not in completed)

    def work_by_job(self) -> Dict[int, float]:
        """Work each job received, summed over processors."""
        acc: Dict[int, float] = {}
        for trace in self.proc_traces:
            for jid, work in trace.work_by_job().items():
                acc[jid] = acc.get(jid, 0.0) + work
        return acc

    def migrations(self) -> int:
        """Number of processor changes across all jobs (a job's segments
        interleaved across processors, counted chronologically)."""
        timeline: list[tuple[float, int, int]] = []
        for proc, trace in enumerate(self.proc_traces):
            for seg in trace.segments:
                timeline.append((seg.start, seg.jid, proc))
        timeline.sort()
        last_proc: Dict[int, int] = {}
        count = 0
        for _start, jid, proc in timeline:
            if jid in last_proc and last_proc[jid] != proc:
                count += 1
            last_proc[jid] = proc
        return count

    # ------------------------------------------------------------------
    # Series
    # ------------------------------------------------------------------
    def value_series(self) -> list[tuple[float, float]]:
        """Cumulative value step function (Figure 1's y-axis)."""
        return self.trace.value_series(self.horizon)

    def summary(self) -> Dict[str, float]:
        """A flat dict of headline numbers (for tables and logs)."""
        return {
            "value": self.value,
            "generated_value": self.generated_value,
            "normalized_value": self.normalized_value,
            "n_jobs": float(len(self.jobs)),
            "n_completed": float(self.n_completed),
            "n_failed": float(self.n_failed),
            "completion_ratio": self.completion_ratio,
            "utilization": self.utilization,
            "wasted_work": self.wasted_work,
        }

    # ------------------------------------------------------------------
    # Legality
    # ------------------------------------------------------------------
    def validate(
        self, capacities: Sequence[CapacityFunction], *, tol: float = 1e-6
    ) -> None:
        """Re-check legality from first principles: each processor's
        segments against its capacity, no job on two processors at once,
        and every outcome against the work the job received (see
        :meth:`~repro.sim.trace.ScheduleTrace.validate`).

        Raises :class:`~repro.errors.SimulationError` on the first
        violation found."""
        traces = self.proc_traces
        if len(capacities) != len(traces):
            raise SimulationError(
                f"{len(capacities)} capacities for {len(traces)} traces"
            )
        by_id = {job.jid: job for job in self.jobs}
        for trace, capacity in zip(traces, capacities):
            trace.validate_segments(by_id, capacity, tol=tol)
        # No intra-job parallelism: a job's segments must not overlap
        # across processors.
        per_job: Dict[int, list[tuple[float, float]]] = {}
        for trace in traces:
            for seg in trace.segments:
                per_job.setdefault(seg.jid, []).append((seg.start, seg.end))
        for jid, intervals in per_job.items():
            intervals.sort()
            for (s0, e0), (s1, _e1) in zip(intervals, intervals[1:]):
                if s1 < e0 - tol:
                    raise SimulationError(
                        f"job {jid} ran on two processors at once "
                        f"([{s0},{e0}] overlaps [{s1},...])"
                    )
        self.trace.validate_outcomes(by_id, self.work_by_job(), tol=tol)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SimulationResult({self.scheduler_name!r}, m={self.n_procs}, "
            f"value={self.value:.4g}, "
            f"normalized={self.normalized_value:.4f}, "
            f"completed={self.n_completed}/{len(self.jobs)})"
        )
