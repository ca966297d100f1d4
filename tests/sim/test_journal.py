"""EventJournal / JournalRecord / describe_payload unit tests, the
journal's digest chain, the op log's batch durability, and the
read-only readers for the retired on-disk WALs (``wal/`` segment log and
``wal.jsonl``)."""

from __future__ import annotations

import json

import pytest

from repro.errors import RecoveryError, StorageFault
from repro.sim import EventJournal, Job, JournalRecord
from repro.sim.events import EventKind
from repro.sim.journal import (
    DIGEST_SEED,
    describe_payload,
    legacy_wal_payloads,
)
from repro.store import MemoryDirectory, OsDirectory, SegmentedLog, TenantStore
from repro.store.faults import StorageFaultSpec


def _record(i: int, **kw) -> JournalRecord:
    base = dict(index=i, time=float(i), kind=2, key=f"jid:{i}", version=0)
    base.update(kw)
    return JournalRecord(**base)


class TestDescribePayload:
    def test_job_events(self):
        job = Job(7, 0.0, 1.0, 5.0, 1.0)
        for kind in (EventKind.RELEASE, EventKind.COMPLETION, EventKind.DEADLINE):
            assert describe_payload(int(kind), job) == "jid:7"

    def test_alarm(self):
        job = Job(3, 0.0, 1.0, 5.0, 1.0)
        assert describe_payload(int(EventKind.ALARM), (job, "claxity")) == (
            "alarm:3:claxity"
        )

    def test_timer_end_fault(self):
        assert describe_payload(int(EventKind.TIMER), "tick") == "timer:tick"
        assert describe_payload(int(EventKind.END), None) == "end"
        assert describe_payload(int(EventKind.FAULT), ("kill", 0, 0.5)) == (
            "fault:kill:0:0.5"
        )


class TestJournalRecord:
    def test_dict_roundtrip(self):
        rec = _record(4, key="alarm:1:claxity", version=3)
        assert JournalRecord.from_dict(rec.to_dict()) == rec

    def test_version_defaults(self):
        d = _record(0).to_dict()
        del d["version"]
        assert JournalRecord.from_dict(d).version == 0

    def test_wal_payload_roundtrip(self):
        rec = _record(9, time=0.1 + 0.2, key="fault:kill:-1:0.5", version=4)
        assert JournalRecord.decode(9, rec.encode()) == rec


class TestEventJournal:
    def test_append_and_get(self):
        journal = EventJournal()
        for i in range(5):
            journal.append(_record(i))
        assert len(journal) == 5
        assert journal.get(3) == _record(3)
        assert journal.records == tuple(_record(i) for i in range(5))

    def test_out_of_order_append_rejected(self):
        journal = EventJournal()
        journal.append(_record(0))
        with pytest.raises(RecoveryError, match="out of order"):
            journal.append(_record(2))

    def test_file_roundtrip(self, tmp_path):
        # Records framed into a retired ``wal/`` read back unchanged.
        records = [
            _record(i, key=f"alarm:{i}:claxity", version=i) for i in range(4)
        ]
        _old_wal(tmp_path, records)
        assert TenantStore(tmp_path).legacy_wal() == records

    def test_torn_final_line_tolerated(self):
        data = _legacy_bytes(4)
        cut = data.rindex(b'{"index": 3') + 10
        assert len(legacy_wal_payloads(data[:cut])) == 3

    def test_corrupt_middle_line_raises(self):
        lines = _legacy_bytes(4).decode().splitlines()
        lines[2] = '{"index": 1, "time": BROKEN'
        with pytest.raises(RecoveryError, match="corrupt record at line 3"):
            legacy_wal_payloads(("\n".join(lines) + "\n").encode())

    def test_load_rejects_non_journal(self):
        data = (json.dumps({"kind": "something_else"}) + "\n").encode()
        with pytest.raises(RecoveryError, match="not an event journal"):
            legacy_wal_payloads(data)

    def test_load_rejects_bad_schema(self):
        header = {"kind": "event_journal", "schema": 999}
        with pytest.raises(RecoveryError, match="unsupported schema"):
            legacy_wal_payloads((json.dumps(header) + "\n").encode())

    def test_load_rejects_empty(self):
        with pytest.raises(RecoveryError, match="empty"):
            legacy_wal_payloads(b"")


def _legacy_bytes(n: int) -> bytes:
    """A retired JSON-lines WAL holding records 0..n-1."""
    lines = [json.dumps({"kind": "event_journal", "schema": 1})]
    lines += [json.dumps(_record(i).to_dict()) for i in range(n)]
    return ("\n".join(lines) + "\n").encode()


def _old_wal(path, records, **kw):
    """A tenant directory holding the retired segment-log WAL."""
    log = SegmentedLog(OsDirectory(path / "wal"), **kw)
    for record in records:
        log.append(record.encode())
    log.close()
    return path / "wal"


class TestDigest:
    def test_chain_names_the_prefix(self):
        a, b = EventJournal(), EventJournal()
        assert a.digest == DIGEST_SEED
        for i in range(5):
            a.append(_record(i))
            b.append(_record(i))
            assert a.digest == b.digest and a.position == i + 1
        c = EventJournal()
        for i in range(5):
            c.append(_record(i, key="jid:99") if i == 3 else _record(i))
        assert c.digest != a.digest

    def test_swapped_records_change_the_digest(self):
        a, b = EventJournal(), EventJournal()
        for i, key in enumerate(("jid:1", "jid:2")):
            a.append(_record(i, key=key))
        for i, key in enumerate(("jid:2", "jid:1")):
            b.append(_record(i, key=key))
        assert a.digest != b.digest

    def test_rewind_verifies_and_rederives(self):
        journal = EventJournal()
        for i in range(6):
            journal.append(_record(i))
        at3 = EventJournal(journal.records[:3])
        at3.rewind(3)
        journal.rewind(3)  # no digest: derived from the records
        assert journal.digest == at3.digest and len(journal) == 6
        for i in range(3, 6):
            journal.append(_record(i))  # verified, not appended
        assert len(journal) == 6 and journal.position == 6
        journal.rewind(3, at3.digest)
        with pytest.raises(RecoveryError, match="diverged at dispatch #3"):
            journal.append(_record(3, key="jid:99"))

    def test_empty_journal_seeds_at_a_snapshot(self):
        full = EventJournal()
        for i in range(8):
            full.append(_record(i))
        mid = EventJournal(full.records[:5])
        mid.rewind(5)
        seeded = EventJournal()
        seeded.rewind(5, mid.digest)
        for i in range(5, 8):
            seeded.append(_record(i))
        assert seeded.digest == full.digest and len(seeded) == 8
        assert seeded.records == full.records[5:]
        with pytest.raises(RecoveryError, match="was its journal lost"):
            EventJournal().rewind(5)  # no digest, nothing to derive it

    def test_trim_keeps_the_chain(self):
        journal, witness = EventJournal(), EventJournal()
        for i in range(4):
            journal.append(_record(i))
            witness.append(_record(i))
        journal.trim(4)
        assert journal.records == () and len(journal) == 4
        for i in range(4, 7):
            journal.append(_record(i))
            witness.append(_record(i))
        assert journal.digest == witness.digest
        journal.rewind(5, witness.digest)  # any digest: not re-derived
        assert journal.get(5) == _record(5) and journal.position == 5
        for bad in (3, 8):  # trimmed away; never journaled
            with pytest.raises(RecoveryError, match="was its journal lost"):
                journal.rewind(bad, witness.digest)
        with pytest.raises(RecoveryError, match="was its journal lost"):
            journal.rewind(5)  # no digest and no records from dispatch 0


class TestFlushBatching:
    """The op log — the one durable stream — takes a contention group's
    decisions as one batch with one fsync after its last record."""

    @staticmethod
    def _recovered(mem) -> list:
        return [doc["i"] for _seq, doc in TenantStore(mem).ops()]

    def test_batched_appends_buffered_until_boundary(self):
        """Appends reach the OS at once (SIGKILL loses none), but only a
        batch's fsync makes it survive power loss."""
        mem = MemoryDirectory()
        store = TenantStore(mem)
        store.append_ops([{"i": i} for i in range(4)])
        store.append_ops([{"i": 4}, {"i": 5}], sync=False)
        mem.crash()  # power loss: the unsynced batch is gone
        assert self._recovered(mem) == [0, 1, 2, 3]

        mem = MemoryDirectory()
        store = TenantStore(mem)
        store.append_ops([{"i": i} for i in range(4)])
        store.append_ops([{"i": 4}, {"i": 5}], sync=False)
        mem.sync_all()  # SIGKILL: the page cache survives
        mem.crash()
        assert self._recovered(mem) == [0, 1, 2, 3, 4, 5]

    def test_torn_tail_at_flush_boundary(self):
        """A write torn mid-record after a batch's fsync: recovery keeps
        every synced record and drops only the tear."""
        mem = MemoryDirectory()
        spy = StorageFaultSpec("torn_write", at=10**9).apply(mem)
        TenantStore(spy).append_ops([{"i": i} for i in range(6)])
        tear_at = spy.bytes_written + 9  # inside the next batch's frame
        mem = MemoryDirectory()
        torn = StorageFaultSpec("torn_write", at=tear_at).apply(mem)
        store = TenantStore(torn)
        store.append_ops([{"i": i} for i in range(6)])
        with pytest.raises(StorageFault):
            store.append_ops([{"i": 6}, {"i": 7}])
        mem.crash()
        assert self._recovered(mem) == [0, 1, 2, 3, 4, 5]


class _CountingDirectory(MemoryDirectory):
    def __init__(self):
        super().__init__()
        self.dir_syncs = 0

    def fsync_dir(self):
        self.dir_syncs += 1
        super().fsync_dir()


class TestDirFsync:
    """Regression: a freshly created log *file entry* is only durable
    once its directory is fsynced — which the log does once per segment
    birth, before any record lands in it."""

    def test_eager_dir_sync_with_fsync_true(self):
        mem = MemoryDirectory()
        TenantStore(mem, fsync=True)
        mem.crash()  # nothing appended or synced since the open
        assert TenantStore(mem, fsync=True).ops() == []
        assert mem.subdir("oplog").listdir() == ["log-000000000000.seg"]

    def test_sync_dir_is_one_time(self):
        directory = _CountingDirectory()
        log = SegmentedLog(directory)
        births = directory.dir_syncs
        assert births == 1
        for i in range(5):
            log.append(_record(i).encode(), sync=True)
        assert directory.dir_syncs == births


class TestResume:
    """A retired ``wal/`` seeds a journal that verifies, then extends, its
    records in memory."""

    def _written(self, tmp_path, n=3):
        return _old_wal(tmp_path, [_record(i) for i in range(n)])

    @staticmethod
    def _reopen(path):
        journal = EventJournal(TenantStore(path.parent).legacy_wal())
        journal.rewind(len(journal))
        return journal

    def test_clean_resume_appends_in_place(self, tmp_path):
        path = self._written(tmp_path, n=3)
        journal = self._reopen(path)
        assert len(journal) == 3
        journal.append(_record(3))
        assert [r.index for r in journal.records] == [0, 1, 2, 3]

    def test_torn_final_line_truncated_then_extended(self, tmp_path):
        path = self._written(tmp_path, n=3)
        (seg,) = path.glob("*.seg")
        with seg.open("ab") as fh:
            fh.write(b"\x20\x00\x00\x00\x01\x02")  # torn mid-append
        journal = self._reopen(path)
        assert len(journal) == 3  # the three complete records
        journal.append(_record(3))
        assert [r.index for r in journal.records] == [0, 1, 2, 3]

    def test_record_missing_newline_truncated(self, tmp_path):
        # The framed analog of a record missing its newline: the final
        # record short by its last byte is left out, and the kernel
        # regenerates it.
        path = self._written(tmp_path, n=3)
        (seg,) = path.glob("*.seg")
        seg.write_bytes(seg.read_bytes()[:-1])
        journal = self._reopen(path)
        assert len(journal) == 2
        journal.append(_record(2))
        assert [r.index for r in journal.records] == [0, 1, 2]

    def test_mid_file_corruption_refuses(self):
        lines = _legacy_bytes(3).decode().splitlines()
        lines[2] = '{"index": 1, BROKEN'
        with pytest.raises(RecoveryError, match="corrupt record"):
            legacy_wal_payloads(("\n".join(lines) + "\n").encode())

    def test_corrupt_header_refuses(self):
        with pytest.raises(RecoveryError, match="header"):
            legacy_wal_payloads(b"{broken\n")

    def test_foreign_file_refuses(self):
        data = json.dumps({"kind": "mc_checkpoint", "schema": 1}) + "\n"
        with pytest.raises(RecoveryError, match="not an event journal"):
            legacy_wal_payloads(data.encode())

    def test_missing_file_refuses(self, tmp_path):
        # A WAL whose head segment is gone no longer starts at dispatch 0.
        path = _old_wal(
            tmp_path, [_record(i) for i in range(6)], segment_bytes=64
        )
        min(path.glob("*.seg")).unlink()
        with pytest.raises(RecoveryError, match="head segments are missing"):
            self._reopen(path)
