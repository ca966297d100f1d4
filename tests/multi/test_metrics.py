"""Unit tests for multiprocessor result metrics and the cross-processor
validator of :class:`~repro.sim.metrics.SimulationResult`."""

import pytest

from repro.capacity import ConstantCapacity
from repro.errors import SimulationError
from repro.sim import Job, JobStatus, ScheduleTrace, SimulationResult


def J(jid, r, p, d, v=1.0):
    return Job(jid, r, p, d, v)


def make_result(jobs, proc_segments, outcomes=None):
    """Hand-build an m-processor SimulationResult from raw segment tuples."""
    traces = []
    for segments in proc_segments:
        trace = ScheduleTrace()
        for start, end, jid, work in segments:
            trace.add_segment(start, end, jid, work)
        traces.append(trace)
    combined = ScheduleTrace()
    for job, (status, t) in (outcomes or {}).items():
        combined.record_outcome(job, status, t)
    return SimulationResult(
        scheduler_name="hand",
        jobs=jobs,
        horizon=10.0,
        trace=combined,
        proc_traces=traces,
    )


class TestValidator:
    def test_legal_parallel_schedule_passes(self):
        a, b = J(0, 0.0, 2.0, 5.0), J(1, 0.0, 2.0, 5.0)
        result = make_result(
            [a, b],
            [[(0.0, 2.0, 0, 2.0)], [(0.0, 2.0, 1, 2.0)]],
            {a: (JobStatus.COMPLETED, 2.0), b: (JobStatus.COMPLETED, 2.0)},
        )
        result.validate([ConstantCapacity(1.0), ConstantCapacity(1.0)])

    def test_intra_job_parallelism_detected(self):
        """The same job running on two processors at once must be caught."""
        a = J(0, 0.0, 4.0, 5.0)
        result = make_result(
            [a],
            [[(0.0, 2.0, 0, 2.0)], [(1.0, 3.0, 0, 2.0)]],  # overlap [1, 2]
            {a: (JobStatus.COMPLETED, 3.0)},
        )
        with pytest.raises(SimulationError, match="two processors"):
            result.validate([ConstantCapacity(1.0), ConstantCapacity(1.0)])

    def test_split_execution_without_overlap_is_legal(self):
        a = J(0, 0.0, 4.0, 5.0)
        result = make_result(
            [a],
            [[(0.0, 2.0, 0, 2.0)], [(2.0, 4.0, 0, 2.0)]],  # a clean migration
            {a: (JobStatus.COMPLETED, 4.0)},
        )
        result.validate([ConstantCapacity(1.0), ConstantCapacity(1.0)])

    def test_incomplete_workload_on_completed_job_detected(self):
        a = J(0, 0.0, 4.0, 5.0)
        result = make_result(
            [a],
            [[(0.0, 2.0, 0, 2.0)], []],
            {a: (JobStatus.COMPLETED, 2.0)},  # only half the work done
        )
        with pytest.raises(SimulationError, match="completed with work"):
            result.validate([ConstantCapacity(1.0), ConstantCapacity(1.0)])

    def test_capacity_count_mismatch(self):
        result = make_result([J(0, 0.0, 1.0, 2.0)], [[]])
        with pytest.raises(SimulationError, match="capacities"):
            result.validate([ConstantCapacity(1.0), ConstantCapacity(1.0)])


class TestMetrics:
    def test_migration_count(self):
        a, b = J(0, 0.0, 4.0, 9.0), J(1, 0.0, 2.0, 9.0)
        result = make_result(
            [a, b],
            [
                [(0.0, 2.0, 0, 2.0), (2.0, 4.0, 1, 2.0)],
                [(0.0, 2.0, 1, 2.0), (2.0, 4.0, 0, 2.0)],
            ],
        )
        # Both jobs swapped processors once.
        assert result.migrations() == 2

    def test_busy_time_and_work_aggregate(self):
        a = J(0, 0.0, 4.0, 9.0)
        result = make_result(
            [a], [[(0.0, 2.0, 0, 2.0)], [(2.0, 4.0, 0, 2.0)]]
        )
        assert result.busy_time == pytest.approx(4.0)
        assert result.executed_work == pytest.approx(4.0)
        assert result.work_by_job() == {0: pytest.approx(4.0)}

    def test_value_and_ids(self):
        a, b = J(0, 0.0, 1.0, 2.0, v=3.0), J(1, 0.0, 1.0, 2.0, v=4.0)
        result = make_result(
            [a, b],
            [[], []],
            {a: (JobStatus.COMPLETED, 1.0), b: (JobStatus.FAILED, 2.0)},
        )
        assert result.value == pytest.approx(3.0)
        assert result.completed_ids == [0]
        assert result.failed_ids == [1]
        assert result.normalized_value == pytest.approx(3.0 / 7.0)
