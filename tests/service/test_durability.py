"""Durable tenant state: cold start, idempotency, drain (in-process).

The kill -9 soak (tests/service/test_soak.py::TestKill9Smoke) proves
the same contracts against a real SIGKILLed child process; these tests
pin them at the shard/supervisor layer where failures are debuggable.
"""

from __future__ import annotations

import asyncio
import json
import shutil
from pathlib import Path

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


PARENT_STORES = Path(__file__).parent / "parent_stores"
#: Decision facts both stores hold (their writer's last stat; write_stores.py).
PARENT_FACTS = {"accepted": 18, "shed": 4, "accepted_crc": 3702410901}


def _parent_store(tmp_path, layout):
    """A copy of a store written while the kernel WAL was stored
    (``wal_segments`` or ``wal_jsonl``); returns its tenant directory."""
    shutil.copytree(PARENT_STORES / layout, tmp_path / layout)
    return tmp_path / layout / "t0"


def _cold_start(path):
    store = TenantStore(path)
    return TenantShard(
        tenant_spec_from_dict(store.load_spec()), store=store, resume=True
    )


def _assert_parent_facts(shard):
    stats = shard.stats()
    for key, value in PARENT_FACTS.items():
        assert stats[key] == value, key
    # The one undecided submission was never durable.
    assert stats["submitted"] == stats["accepted"] + stats["shed"]


class TestPreSegmentStores:
    """Stores written while the WAL was a JSON-lines file: their spec
    docs may carry the retired ``flush_every``/``fsync`` knobs, and the
    tenant directory holds ``wal.jsonl`` and a ``shed.jsonl`` sidecar."""

    OLD_KNOBS = {"flush_every": 8, "fsync": False}

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
        path = _parent_store(tmp_path, "wal_jsonl")
        revived = _cold_start(path)
        _assert_parent_facts(revived)
        # Read, not moved: the old files stay until an image carrying a
        # journal digest commits.
        assert (path / "wal.jsonl").exists() and (path / "shed.jsonl").exists()
        revived.persist_now()
        assert sorted(p.name for p in path.iterdir()) == [
            "oplog", "snaps", "spec.json",
        ]
        again = _cold_start(path)
        _assert_parent_facts(again)
        report = again.close()
        check = replay_tenant(report)
        assert check.ok, check.failures
        assert report.lost_jids == ()

    def test_jsonl_wal_torn_tail_dropped(self, tmp_path):
        path = _parent_store(tmp_path, "wal_jsonl")
        data = (path / "wal.jsonl").read_bytes()
        (path / "wal.jsonl").write_bytes(data[:-7])  # torn final line
        revived = _cold_start(path)
        records = revived.report().journal.records
        assert len(records) >= 31  # 31 survive; the lost one is re-run
        assert replay_tenant(revived.close()).ok

    def test_jsonl_wal_mid_file_corruption_refuses(self, tmp_path):
        path = _parent_store(tmp_path, "wal_jsonl")
        lines = (path / "wal.jsonl").read_text().splitlines()
        lines[3] = '{"index": 2, BROKEN'
        (path / "wal.jsonl").write_text("\n".join(lines) + "\n")
        with pytest.raises(RecoveryError, match="corrupt record at line 4"):
            _cold_start(path)
        assert (path / "wal.jsonl").exists()  # nothing was dropped


class TestParentStores:
    """A store with a segment-log ``wal/``, a snapshot from before
    journal digests (payload op tail included), a post-snapshot op-log
    tail and WAL records past the snapshot migrates read-only."""

    def test_cold_start_verifies_the_wal_tail(self, tmp_path):
        path = _parent_store(tmp_path, "wal_segments")
        revived = _cold_start(path)
        _assert_parent_facts(revived)
        journal = revived.report().journal
        # Re-applying the op tail re-ran and verified every WAL record.
        assert len(journal) == journal.position == 32
        check = replay_tenant(revived.close())
        assert check.ok, check.failures

    def test_diverging_wal_tail_refuses(self, tmp_path):
        from repro.sim.journal import JournalRecord
        from repro.store.log import SegmentedLog
        from repro.store.directory import OsDirectory

        path = _parent_store(tmp_path, "wal_segments")
        log = SegmentedLog(OsDirectory(path / "wal"))
        records = [JournalRecord.decode(i, p) for i, p in log.entries()]
        log.close()
        for segment in (path / "wal").glob("*.seg"):
            segment.unlink()
        log = SegmentedLog(OsDirectory(path / "wal"))
        for record in records[:30]:
            log.append(record.encode())
        bad = records[30]
        log.append(JournalRecord(30, bad.time, bad.kind, "jid:999").encode())
        log.close()
        with pytest.raises(RecoveryError, match="diverged at dispatch #30"):
            _cold_start(path)

    def test_wal_removed_only_after_a_digest_snapshot_commits(
        self, tmp_path, monkeypatch
    ):
        path = _parent_store(tmp_path, "wal_segments")
        # A crash before any commit: the next cold start migrates again.
        _cold_start(path).handle(Stat("t0"))
        assert (path / "wal").is_dir()
        revived = _cold_start(path)
        # A crash between the commit and the removal: the committed
        # image carries a digest, so the WAL is never read again (even
        # broken) and the next commit removes it.
        monkeypatch.setattr(
            TenantStore, "_remove_legacy", lambda self: 1 / 0
        )
        with pytest.raises(ZeroDivisionError):
            revived.persist_now()
        monkeypatch.undo()
        assert (path / "wal").is_dir()
        min((path / "wal").glob("*.seg")).write_bytes(b"garbage")
        again = _cold_start(path)
        _assert_parent_facts(again)
        again.persist_now()
        assert sorted(p.name for p in path.iterdir()) == [
            "oplog", "snaps", "spec.json",
        ]
        final = _cold_start(path)
        _assert_parent_facts(final)
        check = replay_tenant(final.close())
        assert check.ok, check.failures


class TestDivergenceGuard:
    """The cold start's witness: op records carry the journal digest at
    their dispatch count, so a re-run that departs from the logged run
    is refused as soon as it re-reaches an acked op past the departure.

    Each case plants one divergence into an abandoned store — a
    perturbed capacity path for the cold-started kernel, a dropped
    fsynced admit, two swapped same-instant admits — with an acked admit
    after it.  A store kept its kernel WAL for this until the digests
    replaced it; that WAL caught all three too, one re-dispatch later.
    Rot that quarantines an acked op needs no later op: the quarantine
    refuses the cold start unless the snapshot supersedes it."""

    SPEC = _spec(snapshot_every=10_000)  # only persist_now anchors

    def _abandoned(self, path):
        """Snapshot, then an op tail: two same-instant admits whose
        releases dispatch, then a later admit (the witness)."""
        store = TenantStore(path)
        shard = TenantShard(self.SPEC, store=store)
        _drive(shard, n=6)
        shard.persist_now()
        shard.handle(Submit("t0", _job(20, 10.0), rid="a"))
        shard.handle(Submit("t0", _job(21, 10.0, workload=2.0), rid="b"))
        shard.handle(Advance("t0", 12.0))
        shard.handle(Submit("t0", _job(22, 13.0), rid="c"))
        shard.handle(Advance("t0", 14.0))
        store.close()  # never closed: the kill -9 stand-in
        return path

    @staticmethod
    def _edit_tail(path, edit):
        """Rewrite the op-log records past the snapshot anchor."""
        store = TenantStore(path)
        _payload, anchor = store.load_snapshot()
        ops, base = store.ops(), store.oplog.base_seq
        store.close()
        for segment in (path / "oplog").glob("*.seg"):
            segment.unlink()
        store = TenantStore(path)
        store.oplog.rebase(base)
        docs = [doc for seq, doc in ops if seq < anchor]
        docs += edit([doc for seq, doc in ops if seq >= anchor])
        store.append_ops(docs)
        store.close()

    def _cold_start(self, path):
        return TenantShard(self.SPEC, store=TenantStore(path), resume=True)

    def test_unplanted_store_cold_starts_and_replays(self, tmp_path):
        path = self._abandoned(tmp_path / "t0")
        check = replay_tenant(self._cold_start(path).close())
        assert check.ok, check.failures

    def test_perturbed_capacity_path_refused(self, tmp_path):
        import pickle

        from repro.capacity.piecewise import PiecewiseConstantCapacity

        path = self._abandoned(tmp_path / "t0")
        store = TenantStore(path)
        payload, anchor = store.load_snapshot()
        engine = payload["engine"]
        engine.capacity_blob = pickle.dumps(
            [PiecewiseConstantCapacity([0.0, engine.now], [1.0, 2.0])]
        )
        store.write_snapshot(payload, op_seq=anchor)
        store.close()
        with pytest.raises(RecoveryError, match="diverged from the op log"):
            self._cold_start(path)

    def test_dropped_admit_refused(self, tmp_path):
        path = self._abandoned(tmp_path / "t0")
        self._edit_tail(
            path, lambda docs: [d for d in docs if d.get("rid") != "a"]
        )
        with pytest.raises(RecoveryError, match="diverged from the op log"):
            self._cold_start(path)

    def test_swapped_same_instant_admits_refused(self, tmp_path):
        def swap(docs):
            rids = [d.get("rid") for d in docs]
            i, j = rids.index("a"), rids.index("b")
            docs[i], docs[j] = docs[j], docs[i]
            return docs

        path = self._abandoned(tmp_path / "t0")
        self._edit_tail(path, swap)
        with pytest.raises(RecoveryError, match="diverged from the op log"):
            self._cold_start(path)

    @staticmethod
    def _rot(path, needle):
        """Flip one bit of the op-log record holding ``needle``."""
        (segment,) = (path / "oplog").glob("*.seg")
        data = bytearray(segment.read_bytes())
        data[data.index(needle) + len(needle) - 1] ^= 0x01
        segment.write_bytes(bytes(data))

    def test_rotted_final_admit_refused(self, tmp_path):
        """Rot in the last acked admit — no op or snapshot after it —
        quarantines it, and no later digest is left to miss it: the
        quarantine itself refuses the cold start, on every retry."""
        path = self._abandoned(tmp_path / "t0")
        self._rot(path, b'"rid": "c"')
        for _attempt in range(2):
            with pytest.raises(RecoveryError, match="quarantined as corrupt"):
                self._cold_start(path)

    def test_rot_in_superseded_ops_still_cold_starts(self, tmp_path):
        path = tmp_path / "t0"
        store = TenantStore(path)
        shard = TenantShard(self.SPEC, store=store)
        _drive(shard, n=6)
        shard.persist_now()
        before = shard.stats()
        store.close()
        self._rot(path, b'"rid": "r3"')  # the image supersedes it
        store = TenantStore(path)
        revived = TenantShard(self.SPEC, store=store, resume=True)
        for key in ("submitted", "accepted", "shed", "accepted_crc"):
            assert revived.stats()[key] == before[key], key
        # A decision made after it lands past the anchor and survives
        # the next cold start.
        revived.handle(Submit("t0", _job(30, 20.0), rid="late"))
        revived.handle(Advance("t0", 21.0))
        store.close()
        again = self._cold_start(path)
        assert again.dedup_outcome("late") == "accepted"
        check = replay_tenant(again.close())
        assert check.ok, check.failures

    def test_fallback_past_compacted_ops_refused(self, tmp_path):
        """Rot in the newest image falls back to the older one, whose
        op tail the newer image's compaction already dropped."""
        path = tmp_path / "t0"
        store = TenantStore(path, segment_bytes=256)
        shard = TenantShard(self.SPEC, store=store)
        _drive(shard, n=4)
        shard.persist_now()
        for i in range(12):
            shard.handle(Submit("t0", _job(10 + i, 6.0 + i), rid=f"x{i}"))
        shard.handle(Advance("t0", 19.0))
        shard.persist_now()
        store.close()
        newest = max((path / "snaps").glob("snap-*.bin"))
        newest.write_bytes(newest.read_bytes()[:-1] + b"?")
        with pytest.raises(RecoveryError, match="are missing or"):
            TenantShard(
                self.SPEC,
                store=TenantStore(path, segment_bytes=256),
                resume=True,
            )

    def test_perturbation_past_the_last_op_fails_replay(self, tmp_path):
        """No acked op follows this departure, so the cold start has
        nothing to check it against; the closed tenant's replay does."""
        import pickle

        from repro.capacity.piecewise import PiecewiseConstantCapacity

        path = self._abandoned(tmp_path / "t0")
        store = TenantStore(path)
        payload, anchor = store.load_snapshot()
        engine = payload["engine"]
        engine.capacity_blob = pickle.dumps(
            [PiecewiseConstantCapacity([0.0, 13.5], [1.0, 2.0])]
        )
        store.write_snapshot(payload, op_seq=anchor)
        store.close()
        check = replay_tenant(self._cold_start(path).close())
        assert not check.ok
        assert not check.journals_identical and not check.results_identical


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
