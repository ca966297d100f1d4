"""Tests for global policies and the partitioned adapter."""

import pytest

from repro.capacity import ConstantCapacity, TwoStateMarkovCapacity
from repro.cloud import LeastWorkDispatcher, RoundRobinDispatcher, run_cluster
from repro.core import VDoverScheduler
from repro.multi import (
    GlobalDensityScheduler,
    GlobalEDFScheduler,
    PartitionedScheduler,
)
from repro.sim import Job, simulate
from repro.workload import PoissonWorkload


def J(jid, r, p, d, v=1.0):
    return Job(jid, r, p, d, v)


class TestGlobalEDF:
    def test_runs_m_earliest_deadlines(self):
        jobs = [
            J(0, 0.0, 5.0, 20.0),
            J(1, 0.0, 5.0, 10.0),
            J(2, 0.0, 5.0, 15.0),
        ]
        caps = [ConstantCapacity(1.0)] * 2
        r = simulate(jobs, caps, GlobalEDFScheduler(), validate=True)
        # Jobs 1 (d=10) and 2 (d=15) start; job 0 waits.
        first_started = {t.segments[0].jid for t in r.proc_traces if t.segments}
        assert first_started == {1, 2}
        assert r.n_completed == 3

    def test_preempts_globally(self):
        # Both procs busy with late-deadline work; an urgent arrival must
        # displace the latest-deadline running job.
        jobs = [
            J(0, 0.0, 6.0, 30.0),
            J(1, 0.0, 6.0, 20.0),
            J(2, 1.0, 1.0, 2.5),
        ]
        caps = [ConstantCapacity(1.0)] * 2
        r = simulate(jobs, caps, GlobalEDFScheduler(), validate=True)
        assert r.n_completed == 3
        assert r.trace.completion_times[2] == pytest.approx(2.0)

    def test_urgent_job_lands_on_fastest_free_processor(self):
        caps = [ConstantCapacity(1.0), ConstantCapacity(5.0)]
        jobs = [J(0, 0.0, 4.0, 1.5)]
        r = simulate(jobs, caps, GlobalEDFScheduler(), validate=True)
        assert r.proc_traces[1].segments
        assert not r.proc_traces[0].segments

    def test_feasible_parallel_stream(self):
        jobs = PoissonWorkload(lam=3.0, horizon=30.0, deadline_slack=4.0).generate(3)
        caps = [ConstantCapacity(2.0)] * 3
        r = simulate(jobs, caps, GlobalEDFScheduler(), validate=True)
        assert r.n_completed >= 0.8 * len(jobs)


class TestGlobalDensity:
    def test_prefers_denser_jobs(self):
        jobs = [
            J(0, 0.0, 4.0, 6.0, v=1.0),    # density 0.25
            J(1, 0.0, 4.0, 6.0, v=8.0),    # density 2
            J(2, 0.0, 4.0, 6.0, v=4.0),    # density 1
        ]
        caps = [ConstantCapacity(1.0)] * 2
        r = simulate(jobs, caps, GlobalDensityScheduler(), validate=True)
        started = {t.segments[0].jid for t in r.proc_traces if t.segments}
        assert started == {1, 2}


class TestPartitioned:
    def test_matches_run_cluster_exactly(self):
        """Differential oracle: partitioned-in-multi-engine must equal m
        independent single-processor engines under the same dispatcher and
        local schedulers."""
        jobs = PoissonWorkload(lam=6.0, horizon=40.0).generate(11)
        caps = [
            TwoStateMarkovCapacity(1.0, 10.0, mean_sojourn=10.0, rng=1),
            TwoStateMarkovCapacity(1.0, 10.0, mean_sojourn=10.0, rng=2),
        ]
        multi = simulate(
            jobs,
            caps,
            PartitionedScheduler(RoundRobinDispatcher(), lambda: VDoverScheduler(k=7.0)),
            validate=True,
        )
        # Fresh, identically-seeded capacity paths for the cluster run.
        caps2 = [
            TwoStateMarkovCapacity(1.0, 10.0, mean_sojourn=10.0, rng=1),
            TwoStateMarkovCapacity(1.0, 10.0, mean_sojourn=10.0, rng=2),
        ]
        cluster = run_cluster(
            jobs, caps2, lambda: VDoverScheduler(k=7.0), RoundRobinDispatcher()
        )
        assert multi.value == pytest.approx(cluster.value)
        assert multi.completed_ids == sorted(
            jid for r in cluster.per_server for jid in r.completed_ids
        )

    def test_no_migrations_ever(self):
        jobs = PoissonWorkload(lam=4.0, horizon=30.0).generate(5)
        caps = [ConstantCapacity(1.0)] * 3
        r = simulate(
            jobs,
            caps,
            PartitionedScheduler(LeastWorkDispatcher(), lambda: VDoverScheduler(k=7.0)),
            validate=True,
        )
        assert r.migrations() == 0

    def test_name_reflects_components(self):
        sched = PartitionedScheduler(RoundRobinDispatcher(), lambda: VDoverScheduler(k=7.0))
        simulate([J(0, 0.0, 1.0, 2.0)], [ConstantCapacity(1.0)], sched)
        assert "round-robin" in sched.name
        assert "V-Dover" in sched.name


class TestGlobalVsPartitioned:
    def test_global_edf_wins_on_migration_friendly_instance(self):
        """The classic argument for global scheduling: a stream that
        partitioning fragments can be packed by migration."""
        jobs = [
            J(0, 0.0, 4.0, 4.0),
            J(1, 0.0, 4.0, 4.0),
            J(2, 0.0, 4.0, 6.1),   # needs to split across both procs' slack
        ]
        caps = [ConstantCapacity(1.5)] * 2
        glob = simulate(jobs, caps, GlobalEDFScheduler(), validate=True)
        part = simulate(
            jobs,
            caps,
            PartitionedScheduler(RoundRobinDispatcher(), lambda: VDoverScheduler(k=7.0)),
            validate=True,
        )
        assert glob.n_completed >= part.n_completed
