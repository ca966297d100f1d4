"""TenantShard tests: incremental drive parity, fault injection,
crash recovery via the op log, and the shed bookkeeping."""

from __future__ import annotations

import pytest

from repro.errors import MessageError, ServiceError, SimulatedCrash
from repro.service import (
    Advance,
    CapacitySpec,
    Close,
    InjectFault,
    Submit,
    TenantShard,
    TenantSpec,
    make_scheduler,
    replay_tenant,
)
from repro.sim.engine import simulate
from repro.sim.job import Job
from repro.sim.journal import EventJournal, results_bit_identical
from repro.store.tenant import TenantStore


def _spec(**kw):
    base = dict(
        tenant="t0",
        horizon=30.0,
        scheduler="vdover",
        capacity=CapacitySpec("constant", {"rate": 1.0}),
        queue_budget=64,
        snapshot_every=4,
    )
    base.update(kw)
    return TenantSpec(**base)


def _jobs(n=8, start=1.0, gap=2.0):
    return [
        Job(
            jid=i + 1,
            release=start + gap * i,
            workload=1.0,
            deadline=start + gap * i + 4.0,
            value=float(i + 1),
        )
        for i in range(n)
    ]


class TestSpecs:
    def test_unknown_scheduler_rejected(self):
        with pytest.raises(ServiceError, match="unknown scheduler"):
            make_scheduler("magic")

    def test_unknown_capacity_kind_rejected(self):
        with pytest.raises(ServiceError, match="capacity kind"):
            CapacitySpec("quantum")

    def test_crash_start_faults_refused(self):
        from repro.faults.execution import ExecutionFaultSpec

        with pytest.raises(ServiceError, match="crash plans"):
            _spec(
                start_faults=(
                    ExecutionFaultSpec("crash", options={"at_event": 3}),
                )
            )

    @pytest.mark.parametrize(
        "name", ["", ".", "..", "a/b", "../escaped", "/abs", "a\\b", "a\0b"]
    )
    def test_tenant_name_must_be_one_directory_name(self, name):
        with pytest.raises(ServiceError, match="directory name"):
            _spec(tenant=name)

    @pytest.mark.parametrize("name", ["t0", "a.b", "...", "tenant one", "é"])
    def test_directory_component_names_accepted(self, name):
        assert _spec(tenant=name).tenant == name

    def test_capacity_specs_build(self):
        assert CapacitySpec("constant", {"rate": 2.0}).build().value(1.0) == 2.0
        assert (
            CapacitySpec(
                "piecewise", {"breakpoints": [0.0, 5.0], "rates": [1.0, 3.0]}
            )
            .build()
            .value(6.0)
            == 3.0
        )
        markov = CapacitySpec(
            "markov2", {"low": 1.0, "high": 8.0, "mean_sojourn": 2.0}, seed=3
        ).build()
        assert markov.lower == 1.0


class TestIncrementalParity:
    """A shard fed submissions one by one must equal the batch run."""

    def test_matches_batch_simulate(self):
        spec = _spec()
        jobs = _jobs()
        shard = TenantShard(spec)
        for job in jobs:
            shard.handle(Submit("t0", job))
        report = shard.close()
        reference = simulate(
            jobs,
            spec.build_capacity(),
            spec.build_scheduler(),
            horizon=spec.horizon,
            event_queue="heap",
        )
        assert results_bit_identical(report.result, reference)
        assert report.lost_jids == ()

    def test_interleaved_advances_change_nothing(self):
        spec = _spec()
        jobs = _jobs()
        shard = TenantShard(spec)
        for i, job in enumerate(jobs):
            shard.handle(Submit("t0", job))
            if i % 2:
                shard.handle(Advance("t0", job.release))
        report = shard.close()
        reference = simulate(
            jobs,
            spec.build_capacity(),
            spec.build_scheduler(),
            horizon=spec.horizon,
            event_queue="heap",
        )
        assert results_bit_identical(report.result, reference)

    def test_closed_shard_refuses_messages(self):
        shard = TenantShard(_spec())
        shard.handle(Close("t0"))
        with pytest.raises(ServiceError, match="closed"):
            shard.handle(Advance("t0", 5.0))


class TestInjection:
    def test_kill_and_evict_recorded_for_replay(self):
        shard = TenantShard(_spec())
        for job in _jobs(4):
            shard.handle(Submit("t0", job))
        shard.handle(InjectFault("t0", "kill", 9.0, retain=0.5))
        shard.handle(InjectFault("t0", "evict", 12.0))
        report = shard.close()
        assert report.injected == (
            (9.0, ("kill", -1, 0.5)),
            (12.0, ("evict", -1)),
        )
        check = replay_tenant(report)
        assert check.ok, check.failures

    def test_fault_behind_frontier_rejected(self):
        shard = TenantShard(_spec())
        shard.handle(
            Submit("t0", Job(jid=1, release=5.0, workload=1.0, deadline=9.0, value=1.0))
        )
        shard.handle(Advance("t0", 10.0))  # dispatches through t=5
        with pytest.raises(MessageError, match="behind the dispatch frontier"):
            shard.handle(InjectFault("t0", "kill", 1.0))

    def test_fault_beyond_horizon_rejected(self):
        shard = TenantShard(_spec())
        with pytest.raises(MessageError, match="outside"):
            shard.handle(InjectFault("t0", "evict", 99.0))

    def test_crash_raises_with_snapshot(self):
        shard = TenantShard(_spec())
        for job in _jobs(6):
            shard.handle(Submit("t0", job))
        with pytest.raises(SimulatedCrash) as exc_info:
            shard.handle(InjectFault("t0", "crash", 11.0))
        crash = exc_info.value
        assert crash.fault_index == -1  # the service's sentinel
        assert crash.at_event is None
        assert crash.snapshot is not None
        assert shard.report().forced_crashes == 1


class TestRecovery:
    def test_recover_then_close_is_bit_identical(self):
        spec = _spec()
        jobs = _jobs(10)
        shard = TenantShard(spec)
        for job in jobs[:7]:
            shard.handle(Submit("t0", job))
        with pytest.raises(SimulatedCrash) as exc_info:
            shard.handle(InjectFault("t0", "crash", 12.0))
        shard.recover(exc_info.value)
        for job in jobs[7:]:
            shard.handle(Submit("t0", job))
        report = shard.close()
        assert report.recoveries == 1
        reference = simulate(
            jobs,
            spec.build_capacity(),
            spec.build_scheduler(),
            horizon=spec.horizon,
            event_queue="heap",
        )
        assert results_bit_identical(report.result, reference)
        assert replay_tenant(report).ok

    def test_double_crash_recovers_twice(self):
        spec = _spec()
        jobs = _jobs(10)
        shard = TenantShard(spec)
        for job in jobs[:5]:
            shard.handle(Submit("t0", job))
        with pytest.raises(SimulatedCrash) as first:
            shard.handle(InjectFault("t0", "crash", 9.0))
        shard.recover(first.value)
        for job in jobs[5:8]:
            shard.handle(Submit("t0", job))
        with pytest.raises(SimulatedCrash) as second:
            shard.handle(InjectFault("t0", "crash", 16.0))
        shard.recover(second.value)
        for job in jobs[8:]:
            shard.handle(Submit("t0", job))
        report = shard.close()
        assert report.recoveries == 2
        assert replay_tenant(report).ok


class TestShedBookkeeping:
    def test_budget_shed_balances_and_replays(self):
        spec = _spec(queue_budget=2)
        shard = TenantShard(spec)
        for i in range(4):  # one contention group of 4, budget 2
            shard.handle(
                Submit(
                    "t0",
                    Job(
                        jid=i + 1,
                        release=2.0,
                        workload=2.0,
                        deadline=12.0,
                        value=float(i + 1),
                    ),
                )
            )
        report = shard.close()
        assert report.submitted == 4
        assert len(report.accepted) == 2
        assert [r.reason for r in report.shed] == ["queue_budget"] * 2
        check = replay_tenant(report)
        assert check.ok, check.failures

    def test_journal_and_shed_log_written(self, tmp_path):
        """With a store the WAL lands in its ``wal/`` log and every shed
        decision in its op log (the one durable shed record)."""
        store = TenantStore(tmp_path / "t0")
        shard = TenantShard(_spec(queue_budget=1), store=store)
        for i in range(3):
            shard.handle(
                Submit(
                    "t0",
                    Job(
                        jid=i + 1,
                        release=1.0,
                        workload=1.0,
                        deadline=8.0,
                        value=1.0 + i,
                    ),
                )
            )
        report = shard.close()
        store.close()
        reopened = TenantStore(tmp_path / "t0")
        assert EventJournal(reopened.wal).records == report.journal.records
        assert len(report.journal) > 0
        sheds = [doc for _seq, doc in reopened.ops() if doc["op"] == "shed"]
        assert len(sheds) == len(report.shed) == 2
        assert sorted(p.name for p in tmp_path.joinpath("t0").iterdir()) == [
            "oplog", "snaps", "spec.json", "wal",
        ]
