"""EventJournal / JournalRecord / describe_payload unit tests, the WAL
over :class:`~repro.store.log.SegmentedLog`, and the read-only importer
for the retired JSON-lines WAL."""

from __future__ import annotations

import json

import pytest

from repro.errors import RecoveryError, StorageFault
from repro.sim import EventJournal, Job, JournalRecord
from repro.sim.events import EventKind
from repro.sim.journal import describe_payload, legacy_wal_payloads
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
        log = SegmentedLog(OsDirectory(tmp_path / "wal"))
        journal = EventJournal(log)
        for i in range(4):
            journal.append(_record(i, key=f"alarm:{i}:claxity", version=i))
        log.close()
        loaded = EventJournal(SegmentedLog(OsDirectory(tmp_path / "wal")))
        assert loaded.records == journal.records

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


def _mem_journal():
    """A journal over a WAL log on an in-memory, power-loss-modelling
    directory."""
    mem = MemoryDirectory()
    return mem, EventJournal(SegmentedLog(mem))


def _recovered(mem) -> tuple:
    return EventJournal(SegmentedLog(mem)).records


class TestFlushBatching:
    def test_flush_is_noop_in_memory(self):
        journal = EventJournal()
        journal.append(_record(0))
        journal.flush()  # must not raise without a log
        journal.flush(sync=True)

    def test_batched_appends_buffered_until_boundary(self):
        """Appends reach the OS at once (SIGKILL loses none), but only a
        ``flush(sync=True)`` boundary makes them survive power loss."""
        mem, journal = _mem_journal()
        for i in range(6):
            journal.append(_record(i))
            if i == 3:
                journal.flush(sync=True)
        mem.crash()  # power loss: records 4, 5 were never synced
        assert _recovered(mem) == journal.records[:4]

        mem, journal = _mem_journal()
        for i in range(6):
            journal.append(_record(i))
        mem.sync_all()  # SIGKILL: the page cache survives
        mem.crash()
        assert _recovered(mem) == journal.records

    def test_torn_tail_at_flush_boundary(self):
        """A write torn mid-record after a sync boundary: recovery keeps
        every synced record and drops only the tear."""
        mem = MemoryDirectory()
        spy = StorageFaultSpec("torn_write", at=10**9).apply(mem)
        journal = EventJournal(SegmentedLog(spy))
        for i in range(6):
            journal.append(_record(i))
        journal.flush(sync=True)
        tear_at = spy.bytes_written + 9  # inside record 6's frame
        mem = MemoryDirectory()
        torn = StorageFaultSpec("torn_write", at=tear_at).apply(mem)
        journal = EventJournal(SegmentedLog(torn))
        for i in range(6):
            journal.append(_record(i))
        journal.flush(sync=True)
        with pytest.raises(StorageFault):
            journal.append(_record(6))
        mem.crash()
        assert _recovered(mem) == tuple(_record(i) for i in range(6))

    def test_explicit_sync_flush(self):
        mem, journal = _mem_journal()
        for i in range(3):
            journal.append(_record(i))
        journal.flush()  # no sync: still volatile
        journal.flush(sync=True)
        journal.append(_record(3))
        journal.flush(sync=False)
        mem.crash()
        assert len(_recovered(mem)) == 3


class _CountingDirectory(MemoryDirectory):
    def __init__(self):
        super().__init__()
        self.dir_syncs = 0

    def fsync_dir(self):
        self.dir_syncs += 1
        super().fsync_dir()


class TestDirFsync:
    """Regression: a freshly created WAL *file entry* is only durable
    once its directory is fsynced — which the log does once per segment
    birth, before any record lands in it."""

    def test_eager_dir_sync_with_fsync_true(self):
        mem = MemoryDirectory()
        store = TenantStore(mem, fsync=True)
        EventJournal(store.wal)
        mem.crash()  # nothing appended or synced since the open
        assert TenantStore(mem, fsync=True).wal.entries() == []
        assert mem.subdir("wal").listdir() == ["log-000000000000.seg"]

    def test_in_memory_journal_never_needs_it(self):
        journal = EventJournal()
        journal.append(_record(0))
        journal.flush(sync=True)  # no log: a no-op, not an error

    def test_sync_dir_is_one_time(self):
        wal = _CountingDirectory()
        journal = EventJournal(SegmentedLog(wal))
        births = wal.dir_syncs
        assert births == 1
        for i in range(5):
            journal.append(_record(i))
            journal.flush(sync=True)  # must not re-sync the directory
        assert wal.dir_syncs == births


class TestResume:
    def _written(self, tmp_path, n=3):
        log = SegmentedLog(OsDirectory(tmp_path / "wal"))
        journal = EventJournal(log)
        for i in range(n):
            journal.append(_record(i))
        log.close()
        return tmp_path / "wal"

    @staticmethod
    def _reopen(path):
        return EventJournal(SegmentedLog(OsDirectory(path)))

    def test_clean_resume_appends_in_place(self, tmp_path):
        path = self._written(tmp_path, n=3)
        journal = self._reopen(path)
        assert len(journal) == 3
        journal.append(_record(3))
        assert [r.index for r in self._reopen(path).records] == [0, 1, 2, 3]

    def test_torn_final_line_truncated_then_extended(self, tmp_path):
        path = self._written(tmp_path, n=3)
        (seg,) = path.glob("*.seg")
        with seg.open("ab") as fh:
            fh.write(b"\x20\x00\x00\x00\x01\x02")  # torn mid-append
        journal = self._reopen(path)
        assert len(journal) == 3  # the three complete records
        journal.append(_record(3))
        # The tear is gone from disk; the log parses cleanly end to end.
        assert [r.index for r in self._reopen(path).records] == [0, 1, 2, 3]

    def test_record_missing_newline_truncated(self, tmp_path):
        # The framed analog of a record missing its newline: the final
        # record short by its last byte.  Reopening truncates it, and the
        # next append (the kernel regenerating it) lands cleanly.
        path = self._written(tmp_path, n=3)
        (seg,) = path.glob("*.seg")
        seg.write_bytes(seg.read_bytes()[:-1])
        journal = self._reopen(path)
        assert len(journal) == 2
        journal.append(_record(2))
        assert [r.index for r in self._reopen(path).records] == [0, 1, 2]

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
        log = SegmentedLog(OsDirectory(tmp_path / "wal"), segment_bytes=64)
        for i in range(6):
            log.append(_record(i).encode())
        log.close()
        head = min((tmp_path / "wal").glob("*.seg"))
        head.unlink()
        with pytest.raises(RecoveryError, match="head segments are missing"):
            self._reopen(tmp_path / "wal")
