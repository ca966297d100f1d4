"""Unit tests for the multiprocessor engine."""

import pytest

from repro.capacity import ConstantCapacity, PiecewiseConstantCapacity
from repro.errors import SchedulingError, SimulationError
from repro.multi import GlobalEDFScheduler, MultiScheduler
from repro.sim import Job, simulate


def J(jid, r, p, d, v=1.0):
    return Job(jid, r, p, d, v)


def two_procs(rate=1.0):
    return [ConstantCapacity(rate), ConstantCapacity(rate)]


class TestBasics:
    def test_parallel_execution(self):
        jobs = [J(0, 0.0, 2.0, 3.0), J(1, 0.0, 2.0, 3.0)]
        r = simulate(jobs, two_procs(), GlobalEDFScheduler(), validate=True)
        assert r.n_completed == 2
        # Both completed at t=2: true parallelism, not serialization.
        assert r.trace.completion_times[0] == pytest.approx(2.0)
        assert r.trace.completion_times[1] == pytest.approx(2.0)

    def test_two_procs_beat_one_on_overload(self):
        from repro.core import EDFScheduler
        from repro.sim import simulate

        jobs = [J(i, 0.0, 2.0, 2.5, v=1.0) for i in range(4)]
        single = simulate(jobs, ConstantCapacity(1.0), EDFScheduler())
        double = simulate(jobs, two_procs(), GlobalEDFScheduler(), validate=True)
        assert double.n_completed > single.n_completed

    def test_empty_processor_list_rejected(self):
        with pytest.raises(SimulationError):
            simulate([J(0, 0.0, 1.0, 2.0)], [], GlobalEDFScheduler())

    def test_heterogeneous_processors(self):
        caps = [ConstantCapacity(1.0), ConstantCapacity(4.0)]
        jobs = [J(0, 0.0, 4.0, 1.5)]  # only feasible on the fast one
        r = simulate(jobs, caps, GlobalEDFScheduler(), validate=True)
        assert r.completed_ids == [0]
        assert r.proc_traces[1].segments  # ran on processor 1

    def test_deadline_failure_recorded(self):
        jobs = [J(0, 0.0, 10.0, 2.0)]
        r = simulate(jobs, two_procs(), GlobalEDFScheduler(), validate=True)
        assert r.failed_ids == [0]
        assert r.value == 0.0

    def test_exact_deadline_completion_tolerance(self):
        jobs = [J(0, 0.0, 2.0, 2.0), J(1, 0.0, 2.0, 2.0)]
        r = simulate(jobs, two_procs(), GlobalEDFScheduler(), validate=True)
        assert r.n_completed == 2

    def test_varying_capacity_per_processor(self):
        caps = [
            PiecewiseConstantCapacity([0.0, 2.0], [1.0, 3.0]),
            PiecewiseConstantCapacity([0.0, 1.0], [2.0, 1.0]),
        ]
        jobs = [J(0, 0.0, 5.0, 4.0), J(1, 0.0, 3.0, 4.0)]
        r = simulate(jobs, caps, GlobalEDFScheduler(), validate=True)
        assert r.n_completed >= 1


class TestAssignmentContract:
    def test_duplicate_assignment_rejected(self):
        class Evil(MultiScheduler):
            name = "evil"

            def on_release(self, job):
                return [job, job]

            def on_job_end(self, job, completed):
                return [None, None]

        with pytest.raises(SchedulingError):
            simulate([J(0, 0.0, 1.0, 2.0)], two_procs(), Evil())

    def test_wrong_length_rejected(self):
        class Short(MultiScheduler):
            name = "short"

            def on_release(self, job):
                return [job]

            def on_job_end(self, job, completed):
                return [None]

        with pytest.raises(SchedulingError):
            simulate([J(0, 0.0, 1.0, 2.0)], two_procs(), Short())

    def test_migration_is_legal_and_counted(self):
        """Force a migration: job 0 starts on proc 0; when job 1 arrives,
        the policy swaps job 0 to proc 1 and puts job 1 on proc 0."""

        class Migrator(MultiScheduler):
            name = "migrator"

            def reset(self):
                self._first = None

            def on_release(self, job):
                if self._first is None:
                    self._first = job
                    return [job, None]
                return [job, self._first]  # first job hops to proc 1

            def on_job_end(self, job, completed):
                running = list(self.ctx.running())
                return running

        jobs = [J(0, 0.0, 3.0, 5.0), J(1, 1.0, 1.0, 5.0)]
        r = simulate(jobs, two_procs(), Migrator(), validate=True)
        assert r.n_completed == 2
        assert r.migrations() == 1
        # Work split across the two processors sums to the workload.
        assert r.work_by_job()[0] == pytest.approx(3.0)
        assert r.proc_traces[0].work_by_job().get(0) == pytest.approx(1.0)
        assert r.proc_traces[1].work_by_job().get(0) == pytest.approx(2.0)
