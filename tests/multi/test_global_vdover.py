"""Tests for the Global V-Dover extension."""

import pytest

from repro.capacity import ConstantCapacity, PiecewiseConstantCapacity
from repro.errors import SchedulingError
from repro.multi import GlobalEDFScheduler, GlobalVDoverScheduler
from repro.sim import Job, simulate


def J(jid, r, p, d, v=1.0):
    return Job(jid, r, p, d, v)


def procs(n=2, rate=1.0):
    return [ConstantCapacity(rate)] * n


class TestConstruction:
    def test_default_beta(self):
        assert GlobalVDoverScheduler(k=4.0).beta == pytest.approx(3.0)

    def test_rejects_bad_params(self):
        with pytest.raises(SchedulingError):
            GlobalVDoverScheduler(k=0.5)
        with pytest.raises(SchedulingError):
            GlobalVDoverScheduler(k=4.0, beta=1.0)


class TestRegularCore:
    def test_reduces_to_global_edf_when_feasible(self):
        jobs = [J(0, 0.0, 2.0, 8.0), J(1, 0.0, 2.0, 6.0), J(2, 1.0, 2.0, 9.0)]
        gvd = simulate(jobs, procs(), GlobalVDoverScheduler(k=7.0), validate=True)
        gedf = simulate(jobs, procs(), GlobalEDFScheduler(), validate=True)
        assert gvd.completed_ids == gedf.completed_ids
        assert gvd.value == pytest.approx(gedf.value)

    def test_triage_preempts_cheapest_running_job(self):
        """All processors busy with zero-slack work; the urgent valuable
        arrival must evict the *cheapest* running job."""
        jobs = [
            J(0, 0.0, 6.0, 6.0, v=1.0),   # cheapest: the victim
            J(1, 0.0, 6.0, 6.0, v=50.0),
            J(2, 0.5, 5.5, 6.0, v=100.0),  # zero laxity at release, huge value
        ]
        r = simulate(jobs, procs(), GlobalVDoverScheduler(k=100.0), validate=True)
        assert 2 in r.completed_ids
        assert 1 in r.completed_ids
        assert 0 in r.failed_ids

    def test_urgent_low_value_job_demoted(self):
        jobs = [
            J(0, 0.0, 6.0, 6.0, v=50.0),
            J(1, 0.0, 6.0, 6.0, v=50.0),
            J(2, 0.5, 5.5, 6.0, v=1.0),  # urgent but worthless
        ]
        r = simulate(jobs, procs(), GlobalVDoverScheduler(k=100.0), validate=True)
        assert sorted(r.completed_ids) == [0, 1]

    def test_urgent_job_takes_idle_processor_free(self):
        jobs = [
            J(0, 0.0, 6.0, 6.0, v=50.0),
            J(1, 0.5, 5.5, 6.0, v=1.0),  # urgent, but a proc is idle
        ]
        r = simulate(jobs, procs(), GlobalVDoverScheduler(k=100.0), validate=True)
        assert sorted(r.completed_ids) == [0, 1]


class TestSupplements:
    def test_supplement_rides_spare_processor(self):
        caps = [
            PiecewiseConstantCapacity([0.0, 2.0], [1.0, 5.0]),
            ConstantCapacity(1.0),
        ]
        jobs = [
            J(0, 0.0, 12.0, 13.0, v=10.0),
            J(1, 0.0, 12.0, 13.0, v=10.0),
            J(2, 1.0, 4.0, 5.0, v=1.0),   # demoted at release+0... supplement
        ]
        r = simulate(jobs, caps, GlobalVDoverScheduler(k=10.0), validate=True)
        # Job 0/1 occupy both procs; once the spike finishes one of them,
        # the supplement gets the free processor and completes by 5.
        assert 2 in r.completed_ids

    def test_supplement_preempted_by_regular_arrival(self):
        caps = [PiecewiseConstantCapacity([0.0, 1.0], [1.0, 10.0])]
        jobs = [
            J(0, 0.0, 3.0, 3.0, v=10.0),
            J(1, 0.1, 2.9, 3.0, v=1.0),   # demoted to supplement
            J(2, 1.5, 1.0, 4.0, v=5.0),   # regular arrival preempts supp
        ]
        r = simulate(jobs, caps, GlobalVDoverScheduler(k=10.0), validate=True)
        assert 0 in r.completed_ids
        assert 2 in r.completed_ids


class TestDominance:
    def test_beats_global_edf_under_overload(self):
        from repro.workload import PoissonWorkload
        from repro.capacity import TwoStateMarkovCapacity

        total_gvd = total_gedf = 0.0
        for seed in range(5):
            jobs = PoissonWorkload(lam=30.0, horizon=20.0).generate(seed)
            mk = lambda: [
                TwoStateMarkovCapacity(1.0, 10.0, mean_sojourn=5.0, rng=seed * 10 + i)
                for i in range(3)
            ]
            total_gvd += simulate(jobs, mk(), GlobalVDoverScheduler(k=7.0)).value
            total_gedf += simulate(jobs, mk(), GlobalEDFScheduler()).value
        assert total_gvd > total_gedf
