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
from repro.sim.journal import results_bit_identical
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
        """With a store every decision lands in its op log, the one
        durable stream: admits carry the journal digest at their
        dispatch count, sheds their record.  No kernel WAL is written;
        the journal stays in memory."""
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
        docs = [doc for _seq, doc in reopened.ops()]
        (admit,) = [doc for doc in docs if doc["op"] == "admit"]
        assert len(bytes.fromhex(admit["digest"])) == 16
        assert len(report.journal) > 0
        sheds = [doc for doc in docs if doc["op"] == "shed"]
        assert len(sheds) == len(report.shed) == 2
        assert sorted(p.name for p in tmp_path.joinpath("t0").iterdir()) == [
            "history", "oplog", "snaps", "spec.json",
        ]


class TestClosedTenant:
    def test_messages_after_close_are_refused(self):
        shard = TenantShard(_spec())
        job = _jobs(1)[0]
        shard.handle(Submit("t0", job, rid="r1"))
        shard.handle(Close("t0"))
        for message in (
            Submit("t0", _jobs(2)[1], rid="r2"),
            InjectFault("t0", "kill", 5.0, rid="f1"),
            Advance("t0", 5.0),
        ):
            with pytest.raises(MessageError, match="closed"):
                shard.handle(message)
        # close and stat still answer
        assert shard.handle(Close("t0")).accepted == (job,)
        stats = shard.stats()
        assert (stats["submitted"], stats["accepted"]) == (1, 1)


def _decision_stream(n_submits=600, advance_every=10):
    """A deterministic rid'd wire stream: Poisson submits (seed 2011),
    periodic advances and a few injected kills."""
    import random

    rng = random.Random(2011)
    msgs = []
    t = 0.0
    for i in range(n_submits):
        t += rng.expovariate(4.0)
        workload = rng.uniform(0.2, 1.2)
        msgs.append(
            Submit(
                "t0",
                Job(
                    jid=i,
                    release=t,
                    workload=workload,
                    deadline=t + workload + rng.uniform(0.5, 6.0),
                    value=rng.uniform(1.0, 10.0),
                ),
                rid=f"bench-{i}",
            )
        )
        if i % 97 == 41:
            msgs.append(
                InjectFault("t0", "kill", time=t + 0.1, rid=f"kill-{i}")
            )
        if i % advance_every == advance_every - 1:
            msgs.append(Advance("t0", t))
    return msgs


def _stream_spec():
    return TenantSpec(
        tenant="t0",
        horizon=1e9,
        scheduler="edf",
        capacity=CapacitySpec("constant", {"rate": 2.0}),
        queue_budget=8,
    )


class TestDecisionStream:
    #: The stream's decision facts, as recorded in
    #: benchmarks/results/BENCH_telemetry.json (accepted, shed,
    #: accepted_crc) and measured before metrics became unconditional
    #: (submitted, frontier).
    RECORDED = {
        "submitted": 600,
        "accepted": 455,
        "shed": 145,
        "accepted_crc": 410519317,
        "frontier": 160.0834357144526,
    }

    def test_decision_facts(self):
        shard = TenantShard(_stream_spec())
        for msg in _decision_stream():
            shard.handle(msg)
        stats = shard.stats()
        for key, value in self.RECORDED.items():
            assert stats[key] == value, key
        counters = stats["metrics"]["counters"]
        assert counters["service.admitted"] == stats["accepted"]
        assert counters["service.shed"] == stats["shed"]

    def test_history_is_bounded_by_the_newest_snapshot(self):
        """A long-lived tenant keeps only what its newest kernel snapshot
        does not supersede: journal records and op entries from its
        dispatch count on — never its whole history."""
        shard = TenantShard(_stream_spec())
        retained = 0
        for msg in _decision_stream(n_submits=3000):
            shard.handle(msg)
            base = shard.kernel.last_snapshot.dispatch_count
            records = shard._journal.records
            assert len(records) <= shard.kernel.dispatch_count - base
            assert all(dc >= base for dc, *_ in shard._ops)
            retained = max(retained, len(records) + len(shard._ops))
        report = shard.report()
        assert len(report.journal) > 100 * shard.spec.snapshot_every
        assert retained < (len(report.accepted) + len(report.injected)) / 10


class TestReplaySnapshots:
    def test_replay_takes_no_snapshots(self, monkeypatch):
        """A closed-horizon replay cannot crash, so it images nothing;
        its verdict and digest are those of a replay that snapshots."""
        from repro.faults.execution import (
            RecordedFaultLog,
            apply_fault_transforms,
        )
        from repro.kernel.core import SchedulingKernel
        from repro.sim.journal import EventJournal

        shard = TenantShard(_stream_spec())
        for msg in _decision_stream():
            shard.handle(msg)
        report = shard.close()

        taken = []
        checkpoint = SchedulingKernel.checkpoint

        def counting(self):
            taken.append(self.dispatch_count)
            return checkpoint(self)

        monkeypatch.setattr(SchedulingKernel, "checkpoint", counting)
        check = replay_tenant(report)
        assert taken == []
        assert check.ok, check.failures
        assert (len(check.replay_journal), check.replay_journal.digest) == (
            len(report.journal), report.journal.digest,
        )

        spec = report.spec
        faults = spec.build_start_faults() + [
            RecordedFaultLog(report.injected)
        ]
        caps = apply_fault_transforms(
            [spec.build_capacity()], faults, spec.horizon
        )
        journal = EventJournal()
        snapshotting = simulate(
            list(report.accepted),
            spec.wrap_sensors(caps[0]),
            spec.build_scheduler(),
            horizon=spec.horizon,
            faults=faults,
            journal=journal,
            snapshot_every=spec.snapshot_every,
            event_queue="heap",
        )
        assert len(taken) > 10
        assert journal.digest == check.replay_journal.digest
        assert results_bit_identical(snapshotting, check.replay_result)
