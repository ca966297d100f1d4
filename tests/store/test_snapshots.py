"""SnapshotStore: commit by rename, partial invisibility, quarantine."""

from __future__ import annotations

import pytest

from repro.errors import StorageError
from repro.store.directory import MemoryDirectory, OsDirectory
from repro.store.snapshots import SnapshotStore


class TestRoundtrip:
    def test_write_then_load(self, tmp_path):
        store = SnapshotStore(OsDirectory(tmp_path))
        seq = store.write(b"payload-0", {"op_seq": 7})
        assert seq == 0
        loaded = SnapshotStore(OsDirectory(tmp_path)).load()
        assert loaded is not None
        got_seq, meta, payload = loaded
        assert (got_seq, payload) == (0, b"payload-0")
        assert meta["op_seq"] == 7

    def test_newest_wins(self, tmp_path):
        store = SnapshotStore(OsDirectory(tmp_path))
        store.write(b"old")
        store.write(b"new")
        _seq, _meta, payload = store.load()
        assert payload == b"new"

    def test_empty_store_loads_none(self, tmp_path):
        assert SnapshotStore(OsDirectory(tmp_path)).load() is None

    def test_prune_keeps_window(self, tmp_path):
        store = SnapshotStore(OsDirectory(tmp_path), keep=2)
        for i in range(5):
            store.write(b"p%d" % i)
        snaps = [p.name for p in tmp_path.iterdir() if p.suffix == ".bin"]
        assert sorted(snaps) == [
            "snap-000000000003.bin",
            "snap-000000000004.bin",
        ]

    def test_keep_must_be_positive(self, tmp_path):
        with pytest.raises(StorageError, match="keep"):
            SnapshotStore(OsDirectory(tmp_path), keep=0)

    def test_seq_continues_after_reopen(self, tmp_path):
        SnapshotStore(OsDirectory(tmp_path)).write(b"a")
        store = SnapshotStore(OsDirectory(tmp_path))
        assert store.write(b"b") == 1


class TestPartialInvisible:
    def test_crash_before_manifest_keeps_old_state(self):
        # The rename of the fsynced file into place is the commit point
        # (the store keeps no manifest): a process that dies just before
        # it leaves a complete ``.tmp`` file that readers never see.
        class _Boom(RuntimeError):
            pass

        class _DiesAtRename(MemoryDirectory):
            armed = False

            def rename(self, old, new):
                if self.armed:
                    raise _Boom()
                super().rename(old, new)

        mem = _DiesAtRename()
        store = SnapshotStore(mem, fsync=True)
        store.write(b"committed")
        mem.armed = True
        with pytest.raises(_Boom):
            store.write(b"uncommitted")
        mem.armed = False
        mem.sync_all()  # SIGKILL: everything written reached the OS
        mem.crash()
        assert "snap-000000000001.bin.tmp" in mem.listdir()

        reopened = SnapshotStore(mem)
        assert reopened.load()[2] == b"committed"  # the old state
        assert "snap-000000000001.bin.tmp" not in mem.listdir()

    def test_tmp_leftovers_removed_on_open(self, tmp_path):
        store = SnapshotStore(OsDirectory(tmp_path))
        store.write(b"good")
        (tmp_path / "snap-000000000009.bin.tmp").write_bytes(b"dead")
        reopened = SnapshotStore(OsDirectory(tmp_path))
        assert not (tmp_path / "snap-000000000009.bin.tmp").exists()
        assert reopened.load()[2] == b"good"


class TestQuarantine:
    def test_rotten_snapshot_falls_back(self, tmp_path):
        store = SnapshotStore(OsDirectory(tmp_path), keep=3)
        store.write(b"older")
        store.write(b"newer")
        name = "snap-000000000001.bin"
        data = bytearray((tmp_path / name).read_bytes())
        data[-1] ^= 0x01  # rot in the payload block
        (tmp_path / name).write_bytes(bytes(data))

        reopened = SnapshotStore(OsDirectory(tmp_path), keep=3)
        loaded = reopened.load()
        assert loaded is not None
        assert loaded[2] == b"older"
        # The damaged artifacts were set aside, not deleted.
        assert name in reopened.quarantined
        assert (tmp_path / (name + ".quarantine")).exists()

    def test_old_manifest_is_never_read(self, tmp_path):
        store = SnapshotStore(OsDirectory(tmp_path))
        store.write(b"older")
        store.write(b"newer")
        (tmp_path / "MANIFEST").write_bytes(b"{garbage")
        reopened = SnapshotStore(OsDirectory(tmp_path))
        assert reopened.load()[2] == b"newer"
        assert reopened.quarantined == []

    def test_everything_rotten_loads_none(self, tmp_path):
        store = SnapshotStore(OsDirectory(tmp_path), keep=1)
        store.write(b"only")
        name = "snap-000000000000.bin"
        (tmp_path / name).write_bytes(b"\x00" * 10)
        reopened = SnapshotStore(OsDirectory(tmp_path), keep=1)
        assert reopened.load() is None
        assert name in reopened.quarantined
