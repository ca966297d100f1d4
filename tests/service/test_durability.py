"""Durable tenant state: cold start, idempotency, drain (in-process).

The kill -9 soak (tests/service/test_soak.py::TestKill9Smoke) proves
the same contracts against a real SIGKILLed child process; these tests
pin them at the shard/supervisor layer where failures are debuggable.
"""

from __future__ import annotations

import asyncio
import json
import shutil

import pytest

from repro.errors import DrainingError, RecoveryError, StorageError
from repro.service import (
    Advance,
    CapacitySpec,
    Close,
    InjectFault,
    ScheduleService,
    Stat,
    Submit,
    TenantShard,
    TenantSpec,
    replay_tenant,
    tenant_spec_from_dict,
    tenant_spec_to_dict,
)
from repro.sim.job import Job
from repro.sim.journal import EventJournal
from repro.store.tenant import TenantStore


def _spec(tenant="t0", **kw):
    base = dict(
        tenant=tenant,
        horizon=40.0,
        scheduler="vdover",
        capacity=CapacitySpec("constant", {"rate": 1.0}),
        queue_budget=64,
        snapshot_every=4,
    )
    base.update(kw)
    return TenantSpec(**base)


def _job(jid, release, workload=1.0, value=1.0):
    return Job(
        jid=jid,
        release=release,
        workload=workload,
        deadline=release + 6.0,
        value=value,
    )


def _drive(shard, n=12, rid_prefix="r"):
    """A little deterministic workload with rids; returns the rid list."""
    rids = []
    for i in range(n):
        rid = f"{rid_prefix}{i}"
        shard.handle(Submit("t0", _job(i, release=float(i)), rid=rid))
        rids.append(rid)
    shard.handle(Advance("t0", float(n) + 2.0))
    return rids


def _run(coro):
    return asyncio.run(coro)


class TestSpecRoundtrip:
    def test_dict_roundtrip_identity(self):
        spec = _spec(fault_seed=7)
        doc = tenant_spec_to_dict(spec)
        json.dumps(doc)  # must be pure JSON
        again = tenant_spec_from_dict(doc)
        assert tenant_spec_to_dict(again) == doc

    def test_markov_capacity_roundtrips(self):
        spec = _spec(
            capacity=CapacitySpec(
                "markov2",
                {"low": 1.0, "high": 3.0, "mean_sojourn": 10.0},
                seed=5,
            )
        )
        doc = tenant_spec_to_dict(spec)
        assert tenant_spec_to_dict(tenant_spec_from_dict(doc)) == doc

    def test_pre_upgrade_store_still_resumes(self, tmp_path):
        """A tenant directory written before a defaulted spec field existed
        (here: ``fault_seed``) must keep resuming — the shard normalizes
        the stored doc through the spec round-trip before comparing."""
        old_doc = tenant_spec_to_dict(_spec())
        del old_doc["fault_seed"]  # what a pre-upgrade store holds on disk
        store = TenantStore(tmp_path / "t0")
        store.ensure_spec(old_doc)
        store.close()

        revived = TenantShard(
            _spec(), store=TenantStore(tmp_path / "t0"), resume=True
        )
        assert revived.spec.fault_seed == 0

    @pytest.mark.parametrize("protocol", ["scalar", "batch"])
    def test_store_with_retired_field_cold_starts(self, tmp_path, protocol):
        """The reverse upgrade: stores written while the spec carried a
        ``protocol`` field hold it in their spec doc.  The field is gone,
        and the round-trip drops it, so such a store still resumes — with
        its state intact."""
        old_doc = dict(tenant_spec_to_dict(_spec()), protocol=protocol)
        store = TenantStore(tmp_path / "t0")
        store.ensure_spec(old_doc)
        shard = TenantShard(_spec(), store=store)
        _drive(shard, n=12)
        shard.persist_now()
        before = shard.stats()
        store.close()

        revived = TenantShard(
            _spec(), store=TenantStore(tmp_path / "t0"), resume=True
        )
        after = revived.stats()
        for key in ("submitted", "accepted", "shed", "accepted_crc"):
            assert after[key] == before[key], key

    def test_changed_spec_still_refuses(self, tmp_path):
        """Normalization only fills defaults; a genuinely different spec
        still refuses to resume."""
        store = TenantStore(tmp_path / "t0")
        TenantShard(_spec(), store=store)
        store.close()

        with pytest.raises(StorageError):
            TenantShard(
                _spec(horizon=999.0),
                store=TenantStore(tmp_path / "t0"),
                resume=True,
            )


class TestColdStartParity:
    def test_stats_bit_identical_after_cold_start(self, tmp_path):
        store = TenantStore(tmp_path / "t0")
        shard = TenantShard(_spec(), store=store)
        _drive(shard, n=12)
        shard.persist_now()
        before = shard.stats()
        store.close()  # the process is gone

        store2 = TenantStore(tmp_path / "t0")
        revived = TenantShard(_spec(), store=store2, resume=True)
        after = revived.stats()
        for key in ("submitted", "accepted", "shed", "accepted_crc"):
            assert after[key] == before[key], key
        assert after["recoveries"] == before["recoveries"] + 1

    def test_replay_parity_after_cold_start(self, tmp_path):
        store = TenantStore(tmp_path / "t0")
        shard = TenantShard(_spec(), store=store)
        _drive(shard, n=10)
        shard.handle(InjectFault("t0", "kill", time=14.0, retain=0.5))
        shard.persist_now()
        store.close()

        revived = TenantShard(
            _spec(), store=TenantStore(tmp_path / "t0"), resume=True
        )
        report = revived.close()
        check = replay_tenant(report)
        assert check.ok, check.failures
        assert report.lost_jids == ()

    def test_unsynced_snapshotless_ops_replay_from_log(self, tmp_path):
        # No persist_now, no periodic snapshot committed yet: the op log
        # alone rebuilds the world (ops are fsynced per decision).
        store = TenantStore(tmp_path / "t0")
        shard = TenantShard(_spec(snapshot_every=10_000), store=store)
        _drive(shard, n=6)
        before = shard.stats()
        store.close()  # SIGKILL: no drain, no snapshot

        revived = TenantShard(
            _spec(snapshot_every=10_000),
            store=TenantStore(tmp_path / "t0"),
            resume=True,
        )
        after = revived.stats()
        for key in ("submitted", "accepted", "shed", "accepted_crc"):
            assert after[key] == before[key], key
        report = revived.close()
        assert replay_tenant(report).ok

    def test_forced_crash_then_cold_start(self, tmp_path):
        from repro.errors import SimulatedCrash

        store = TenantStore(tmp_path / "t0")
        shard = TenantShard(_spec(), store=store)
        _drive(shard, n=8)
        with pytest.raises(SimulatedCrash) as excinfo:
            shard.handle(InjectFault("t0", "crash", time=9.0, rid="c0"))
        shard.recover(excinfo.value)
        shard.handle(Advance("t0", 11.0))
        shard.persist_now()
        before = shard.stats()
        store.close()

        revived = TenantShard(
            _spec(), store=TenantStore(tmp_path / "t0"), resume=True
        )
        after = revived.stats()
        assert after["forced_crashes"] == before["forced_crashes"] == 1
        assert after["accepted_crc"] == before["accepted_crc"]
        # The crash request id was durably decided.
        assert revived.dedup_outcome("c0") == "crash"

    def test_changed_spec_refuses_resume(self, tmp_path):
        store = TenantStore(tmp_path / "t0")
        TenantShard(_spec(), store=store).persist_now()
        store.close()
        with pytest.raises(StorageError, match="differs"):
            TenantShard(
                _spec(queue_budget=1),
                store=TenantStore(tmp_path / "t0"),
                resume=True,
            )

    def test_unknown_snapshot_version_refused(self, tmp_path):
        store = TenantStore(tmp_path / "t0")
        shard = TenantShard(_spec(), store=store)
        _drive(shard, n=4)
        shard.persist_now()
        store.write_snapshot({"version": 99}, op_seq=store.op_seq)
        store.close()
        with pytest.raises(RecoveryError, match="schema drift"):
            TenantShard(
                _spec(), store=TenantStore(tmp_path / "t0"), resume=True
            )


class TestPreSegmentStores:
    """Stores written while the WAL was a JSON-lines file: their spec
    docs carry the retired ``flush_every``/``fsync`` knobs, and the
    tenant directory holds ``wal.jsonl`` and a ``shed.jsonl`` sidecar."""

    OLD_KNOBS = {"flush_every": 8, "fsync": False}
    #: No periodic anchors: only persist_now commits a snapshot.
    SPEC = _spec(queue_budget=3, snapshot_every=10_000)

    def _old_store(self, path, *, n=12):
        """Drive a shard, then rewrite its directory into the retired
        layout; returns (stats before, journal records)."""
        store = TenantStore(path)
        spec = self.SPEC
        store.ensure_spec(dict(tenant_spec_to_dict(spec), **self.OLD_KNOBS))
        shard = TenantShard(spec, store=store)
        for i in range(6):  # one contention group: the budget sheds 3
            shard.handle(Submit("t0", _job(100 + i, 1.0), rid=f"g{i}"))
        _drive(shard, n=n)
        shard.persist_now()
        # Traffic past the last anchor: its WAL records are the tail.
        shard.handle(Submit("t0", _job(n, float(n) + 4.0), rid="tail"))
        shard.handle(Advance("t0", float(n) + 12.0))
        before, records = shard.stats(), shard.report().journal.records
        store.close()
        lines = [json.dumps({"kind": "event_journal", "schema": 1})]
        lines += [json.dumps(r.to_dict()) for r in records]
        (path / "wal.jsonl").write_text("\n".join(lines) + "\n")
        (path / "shed.jsonl").write_text(
            "".join(json.dumps(r.to_dict()) + "\n" for r in shard.report().shed)
        )
        shutil.rmtree(path / "wal")
        return before, records

    def test_spec_with_retired_wal_knobs_resumes(self, tmp_path):
        store = TenantStore(tmp_path / "t0")
        store.ensure_spec(dict(tenant_spec_to_dict(_spec()), **self.OLD_KNOBS))
        shard = TenantShard(_spec(), store=store)
        _drive(shard, n=8)
        shard.persist_now()
        before = shard.stats()
        store.close()
        revived = TenantShard(
            _spec(), store=TenantStore(tmp_path / "t0"), resume=True
        )
        for key in ("submitted", "accepted", "shed", "accepted_crc"):
            assert revived.stats()[key] == before[key], key

    def test_jsonl_wal_imported_once_then_removed(self, tmp_path):
        path = tmp_path / "t0"
        before, records = self._old_store(path)
        assert before["shed"] > 0  # the sidecar held real records
        revived = TenantShard(self.SPEC, store=TenantStore(path), resume=True)
        after = revived.stats()
        for key in ("submitted", "accepted", "shed", "accepted_crc"):
            assert after[key] == before[key], key
        assert not (path / "wal.jsonl").exists()
        assert not (path / "shed.jsonl").exists()
        assert EventJournal(TenantStore(path).wal).records == records
        report = revived.close()
        check = replay_tenant(report)
        assert check.ok, check.failures
        assert report.lost_jids == ()

    def test_jsonl_wal_torn_tail_dropped(self, tmp_path):
        path = tmp_path / "t0"
        _before, records = self._old_store(path)
        data = (path / "wal.jsonl").read_bytes()
        (path / "wal.jsonl").write_bytes(data[:-7])  # torn final line
        revived = TenantShard(self.SPEC, store=TenantStore(path), resume=True)
        assert revived.report().journal.records[: len(records) - 1] == (
            records[:-1]
        )
        assert replay_tenant(revived.close()).ok

    def test_jsonl_wal_mid_file_corruption_refuses(self, tmp_path):
        path = tmp_path / "t0"
        self._old_store(path)
        lines = (path / "wal.jsonl").read_text().splitlines()
        lines[3] = '{"index": 2, BROKEN'
        (path / "wal.jsonl").write_text("\n".join(lines) + "\n")
        with pytest.raises(RecoveryError, match="corrupt record at line 4"):
            TenantStore(path)
        assert (path / "wal.jsonl").exists()  # nothing was dropped


class TestIdempotency:
    def test_full_resend_after_cold_start_all_duplicates(self, tmp_path):
        store = TenantStore(tmp_path / "t0")
        shard = TenantShard(_spec(), store=store)
        rids = _drive(shard, n=10)
        shard.persist_now()
        before = shard.stats()
        store.close()

        revived = TenantShard(
            _spec(), store=TenantStore(tmp_path / "t0"), resume=True
        )
        # A client replaying its whole traffic log: every line acks
        # duplicate, nothing double-admits.
        dups = 0
        for i, rid in enumerate(rids):
            ack = revived.handle(Submit("t0", _job(i, float(i)), rid=rid))
            assert ack is not None and ack.get("duplicate"), rid
            dups += 1
        assert dups == len(rids)
        after = revived.stats()
        assert after["submitted"] == before["submitted"]
        assert after["accepted_crc"] == before["accepted_crc"]

    def test_duplicate_ack_carries_outcome(self, tmp_path):
        store = TenantStore(tmp_path / "t0")
        shard = TenantShard(_spec(), store=store)
        shard.handle(Submit("t0", _job(0, 0.0), rid="s0"))
        shard.handle(Advance("t0", 5.0))  # decides the group
        ack = shard.handle(Submit("t0", _job(0, 0.0), rid="s0"))
        assert ack == {"duplicate": True, "outcome": "accepted"}

    def test_pending_rid_reports_pending(self):
        shard = TenantShard(_spec())
        shard.handle(Submit("t0", _job(0, 0.0), rid="s0"))
        assert shard.dedup_outcome("s0") == "pending"
        assert shard.dedup_outcome("unknown") is None

    def test_duplicate_fault_not_reinjected(self, tmp_path):
        store = TenantStore(tmp_path / "t0")
        shard = TenantShard(_spec(), store=store)
        _drive(shard, n=4)
        shard.handle(InjectFault("t0", "kill", time=8.0, rid="f0"))
        n_injected = len(shard.report().injected)
        ack = shard.handle(InjectFault("t0", "kill", time=8.0, rid="f0"))
        assert ack == {"duplicate": True, "outcome": "injected"}
        assert len(shard.report().injected) == n_injected


class TestStatMessage:
    def test_stat_is_read_only(self):
        shard = TenantShard(_spec())
        _drive(shard, n=5)
        s1 = shard.handle(Stat("t0"))
        s2 = shard.handle(Stat("t0"))
        assert s1 == s2
        assert s1["tenant"] == "t0"
        assert s1["submitted"] == 5

    def test_stat_works_on_closed_shard(self):
        shard = TenantShard(_spec())
        _drive(shard, n=3)
        shard.handle(Close("t0"))
        stats = shard.handle(Stat("t0"))
        assert stats["closed"] is True

    def test_wire_form(self):
        from repro.service import encode_message, parse_message

        line = encode_message(Stat("t0"))
        assert parse_message(line) == Stat("t0")


class TestServiceDrain:
    def test_drain_refuses_new_work_and_flushes(self, tmp_path):
        async def run():
            service = ScheduleService(
                [_spec()], store_dir=tmp_path / "store"
            )
            await service.start()
            for i in range(8):
                await service.dispatch(
                    Submit("t0", _job(i, float(i)), rid=f"r{i}")
                )
            stats = await service.drain()
            assert service.draining
            with pytest.raises(DrainingError):
                await service.dispatch(Submit("t0", _job(99, 20.0)))
            with pytest.raises(DrainingError):
                await service.dispatch(InjectFault("t0", "kill", time=25.0))
            # Reads still work while draining.
            live = await service.dispatch(Stat("t0"))
            assert live["submitted"] == 8
            await service.close()
            return stats

        stats = _run(run())
        assert stats["t0"]["submitted"] == 8
        # Zero accepted-job loss at the drain boundary: every submission
        # was decided, nothing stuck in a buffer.
        assert stats["t0"]["pending"] == 0
        assert (
            stats["t0"]["accepted"] + stats["t0"]["shed"]
            == stats["t0"]["submitted"]
        )

    def test_drained_state_cold_starts_identically(self, tmp_path):
        store_dir = tmp_path / "store"

        async def first():
            service = ScheduleService([_spec()], store_dir=store_dir)
            await service.start()
            for i in range(10):
                await service.dispatch(
                    Submit("t0", _job(i, float(i)), rid=f"r{i}")
                )
            stats = await service.drain()
            await service.close()
            return stats

        async def second():
            service = ScheduleService.cold_start(store_dir)
            await service.start()
            stats = await service.dispatch(Stat("t0"))
            reports = await service.close()
            return stats, reports["t0"]

        before = _run(first())["t0"]
        after, report = _run(second())
        for key in ("submitted", "accepted", "shed", "accepted_crc"):
            assert after[key] == before[key], key
        assert replay_tenant(report).ok
        assert report.lost_jids == ()

    def test_cold_start_requires_state(self, tmp_path):
        from repro.errors import ServiceError

        with pytest.raises(ServiceError, match="no recoverable"):
            ScheduleService.cold_start(tmp_path / "empty")


class TestDaemonSpecs:
    def test_specs_file_forms(self, tmp_path):
        from repro.service.daemon import load_specs_file

        doc = [tenant_spec_to_dict(_spec("a")), tenant_spec_to_dict(_spec("b"))]
        bare = tmp_path / "bare.json"
        bare.write_text(json.dumps(doc))
        wrapped = tmp_path / "wrapped.json"
        wrapped.write_text(json.dumps({"tenants": doc}))
        assert [s.tenant for s in load_specs_file(bare)] == ["a", "b"]
        assert [s.tenant for s in load_specs_file(wrapped)] == ["a", "b"]

    def test_specs_file_with_retired_field_loads(self, tmp_path):
        from repro.service.daemon import load_specs_file

        doc = [dict(tenant_spec_to_dict(_spec("a")), protocol="batch")]
        path = tmp_path / "specs.json"
        path.write_text(json.dumps(doc))
        (spec,) = load_specs_file(path)
        assert tenant_spec_to_dict(spec) == tenant_spec_to_dict(_spec("a"))

    @pytest.mark.parametrize("name", ["", "..", "../escaped", "a/b"])
    def test_specs_file_with_bad_tenant_name_rejected(self, tmp_path, name):
        from repro.errors import ServiceError
        from repro.service.daemon import load_specs_file

        doc = [dict(tenant_spec_to_dict(_spec("a")), tenant=name)]
        path = tmp_path / "specs.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ServiceError, match="directory name"):
            load_specs_file(path)

    @pytest.mark.parametrize("name", ["", "../escaped"])
    def test_refused_service_writes_nothing(self, tmp_path, name):
        # Refused before any store is opened: neither the --store root
        # nor a sibling of it gains a single file.
        from repro.errors import ServiceError
        from repro.service.daemon import main as serve_main

        specs = tmp_path / "specs.json"
        specs.write_text(
            json.dumps([dict(tenant_spec_to_dict(_spec("a")), tenant=name)])
        )
        root = tmp_path / "root"
        root.mkdir()
        with pytest.raises(ServiceError, match="directory name"):
            serve_main(["--store", str(root / "store"), "--specs", str(specs)])
        assert list(root.rglob("*")) == []
        assert sorted(p.name for p in tmp_path.iterdir()) == ["root", "specs.json"]

    def test_bad_specs_file_rejected(self, tmp_path):
        from repro.errors import ServiceError
        from repro.service.daemon import load_specs_file

        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"tenants": 7}))
        with pytest.raises(ServiceError, match="list"):
            load_specs_file(bad)
