"""Snapshot-state protocol units: policies and dispatchers round-trip.

The end-to-end crash-recovery suites prove bit-identity through the
engine; these units pin the protocol itself — ``get_state`` is picklable
plain data, ``set_state`` restores it exactly, and cross-type restores
fail loudly instead of silently corrupting a recovery.
"""

from __future__ import annotations

import pickle

import pytest

from repro.cloud.cluster import (
    BestFitDispatcher,
    LeastWorkDispatcher,
    RoundRobinDispatcher,
)
from repro.errors import RecoveryError
from repro.sim.job import Job


def _job(jid: int, release: float, workload: float = 2.0) -> Job:
    return Job(
        jid=jid,
        release=release,
        workload=workload,
        deadline=release + 10.0,
        value=workload,
    )


class TestDispatcherState:
    def test_round_robin_roundtrip(self):
        d = RoundRobinDispatcher()
        d.reset(3, [1.0, 1.0, 1.0])
        routed = [d.route(_job(i, float(i))) for i in range(4)]
        assert routed == [0, 1, 2, 0]

        state = pickle.loads(pickle.dumps(d.get_state()))
        clone = RoundRobinDispatcher()
        clone.reset(3, [1.0, 1.0, 1.0])
        clone.set_state(state)
        assert [clone.route(_job(10 + i, 5.0)) for i in range(3)] == [
            d.route(_job(20 + i, 5.0)) for i in range(3)
        ]

    @pytest.mark.parametrize("cls", [LeastWorkDispatcher, BestFitDispatcher])
    def test_backlog_dispatchers_roundtrip(self, cls):
        d = cls()
        d.reset(2, [1.0, 2.0])
        for i in range(6):
            d.route(_job(i, 0.5 * i, workload=1.0 + i))

        state = pickle.loads(pickle.dumps(d.get_state()))
        clone = cls()
        clone.reset(2, [1.0, 2.0])
        clone.set_state(state)
        assert clone._backlog == d._backlog
        assert clone._last_t == d._last_t
        # Identical future decisions.
        probe = _job(99, 4.0, workload=3.0)
        assert clone.route(probe) == d.route(probe)

    def test_cross_type_restore_rejected(self):
        d = RoundRobinDispatcher()
        d.reset(2, [1.0, 1.0])
        state = d.get_state()
        other = LeastWorkDispatcher()
        other.reset(2, [1.0, 1.0])
        with pytest.raises(RecoveryError):
            other.set_state(state)


class TestMultiSchedulerState:
    def _bound(self, scheduler, jobs, m: int = 2):
        """Bind ``scheduler`` to a real engine context without running."""
        from repro.capacity.piecewise import PiecewiseConstantCapacity
        from repro.sim import SimulationEngine

        caps = [
            PiecewiseConstantCapacity([0.0], [5.0], lower=1.0, upper=5.0)
            for _ in range(m)
        ]
        engine = SimulationEngine(jobs, caps, scheduler)
        # Bind outside run_loop, exactly as restore() does.
        kernel = engine.kernel
        scheduler.bind(kernel._make_context(kernel))
        return scheduler

    def test_global_policy_state_is_plain_data(self):
        from repro.multi import GlobalEDFScheduler

        jobs = [_job(i, float(i)) for i in range(4)]
        sched = self._bound(GlobalEDFScheduler(), jobs)
        for job in jobs[:3]:
            sched.on_release(job)
        state = sched.get_state()
        assert state["scheduler"] == "GlobalEDFScheduler"
        assert state["policy"]["ready"] == sorted(state["policy"]["ready"])
        pickle.dumps(state)  # must be picklable plain data

        clone = self._bound(GlobalEDFScheduler(), jobs)
        clone.set_state(state, {j.jid: j for j in jobs})
        assert clone.get_state() == state

    def test_global_vdover_state_roundtrip(self):
        from repro.multi import GlobalVDoverScheduler

        jobs = [_job(i, 0.0) for i in range(5)]
        sched = self._bound(GlobalVDoverScheduler(k=7.0), jobs)
        state = sched.get_state()
        assert state["scheduler"] == "GlobalVDoverScheduler"
        assert set(state["policy"]) == {"regular", "supp", "supp_ids", "rate"}
        pickle.dumps(state)

        # Hand-build a mid-run state and restore it: queues must be
        # repopulated with the exact Job objects, pool membership intact.
        state["policy"]["regular"] = [0, 2]
        state["policy"]["supp"] = [1]
        state["policy"]["supp_ids"] = [1]
        clone = self._bound(GlobalVDoverScheduler(k=7.0), jobs)
        clone.set_state(state, {j.jid: j for j in jobs})
        assert clone.get_state() == state

    def test_partitioned_state_nests_dispatcher_and_subs(self):
        from repro.core import VDoverScheduler
        from repro.multi import PartitionedScheduler

        jobs = [_job(i, float(i)) for i in range(6)]
        sched = self._bound(
            PartitionedScheduler(
                RoundRobinDispatcher(), lambda: VDoverScheduler(k=7.0)
            ),
            jobs,
        )
        state = sched.get_state()
        assert state["policy"]["dispatcher"]["dispatcher"] == "RoundRobinDispatcher"
        assert len(state["policy"]["subs"]) == 2
        assert all(
            s["scheduler"] == "VDoverScheduler" for s in state["policy"]["subs"]
        )
        assert state["policy"]["proc_of"] == {}
        pickle.dumps(state)

    def test_cross_scheduler_restore_rejected(self):
        from repro.multi import GlobalDensityScheduler, GlobalEDFScheduler

        jobs = [_job(0, 0.0)]
        sched = self._bound(GlobalEDFScheduler(), jobs)
        state = sched.get_state()
        other = self._bound(GlobalDensityScheduler(), jobs)
        with pytest.raises(RecoveryError):
            other.set_state(state, {0: jobs[0]})
