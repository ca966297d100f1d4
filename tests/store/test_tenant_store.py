"""TenantStore: spec pinning, op records, snapshot anchoring, compaction."""

from __future__ import annotations

import os

import pytest

from repro.errors import StorageError
from repro.store.directory import MemoryDirectory
from repro.store.tenant import SPEC_FILE, TenantStore


SPEC = {"tenant": "t0", "seed": 11, "workload": {"lam": 2.0}}


class TestSpec:
    def test_written_once_and_reloadable(self, tmp_path):
        store = TenantStore(tmp_path / "t0")
        assert store.load_spec() is None
        store.ensure_spec(SPEC)
        assert store.load_spec() == SPEC
        # Idempotent with the identical spec.
        store.ensure_spec(SPEC)
        reopened = TenantStore(tmp_path / "t0")
        assert reopened.load_spec() == SPEC

    def test_changed_spec_refused(self, tmp_path):
        store = TenantStore(tmp_path / "t0")
        store.ensure_spec(SPEC)
        with pytest.raises(StorageError, match="differs"):
            store.ensure_spec({**SPEC, "seed": 999})

    def test_corrupt_spec_refused(self, tmp_path):
        store = TenantStore(tmp_path / "t0")
        store.ensure_spec(SPEC)
        spec_path = tmp_path / "t0" / SPEC_FILE
        spec_path.write_text(spec_path.read_text().replace("11", "12"))
        with pytest.raises(StorageError, match="corrupt"):
            TenantStore(tmp_path / "t0").load_spec()

    def test_paths(self, tmp_path):
        store = TenantStore(tmp_path / "t0")
        assert store.path == tmp_path / "t0"
        # Two append logs (the op log and the history the snapshots
        # leave out) and the snapshot directory.
        assert sorted(p.name for p in store.path.iterdir()) == [
            "history", "oplog", "snaps",
        ]
        assert TenantStore(MemoryDirectory()).path is None


class TestOpsAndSnapshots:
    def test_ops_roundtrip(self, tmp_path):
        store = TenantStore(tmp_path / "t0")
        assert store.op_seq == 0
        store.append_ops([{"op": "admit", "jid": 1}, {"op": "shed", "jid": 2}])
        assert store.op_seq == 2
        store.close()
        reopened = TenantStore(tmp_path / "t0")
        assert reopened.ops() == [
            (0, {"op": "admit", "jid": 1}),
            (1, {"op": "shed", "jid": 2}),
        ]

    def test_snapshot_anchors_and_compacts(self, tmp_path):
        store = TenantStore(tmp_path / "t0", segment_bytes=128)
        for i in range(20):
            store.append_ops([{"op": "admit", "jid": i}])
        anchor = store.op_seq
        store.write_snapshot({"accepted": 20}, op_seq=anchor)
        store.append_ops([{"op": "admit", "jid": 20}])
        store.close()

        reopened = TenantStore(tmp_path / "t0", segment_bytes=128)
        state, got_anchor = reopened.load_snapshot()
        assert state == {"accepted": 20}
        assert got_anchor == anchor
        # Compaction dropped whole pre-anchor segments; what remains is
        # post-anchor (plus at most a partially-covered segment).
        post = [doc for seq, doc in reopened.ops() if seq >= anchor]
        assert post == [{"op": "admit", "jid": 20}]
        assert reopened.oplog.base_seq > 0

    def test_has_state(self, tmp_path):
        store = TenantStore(tmp_path / "t0")
        assert not store.has_state()
        store.append_ops([{"op": "admit", "jid": 0}])
        assert store.has_state()

        snap_only = TenantStore(tmp_path / "t1")
        assert not snap_only.has_state()
        snap_only.write_snapshot({"x": 1}, op_seq=0)
        assert snap_only.has_state()

    def test_rebase_after_wholesale_log_loss(self, tmp_path):
        store = TenantStore(tmp_path / "t0")
        for i in range(5):
            store.append_ops([{"i": i}])
        store.write_snapshot({"n": 5}, op_seq=5)
        store.close()
        # Rot the whole op log away: every segment quarantines.
        oplog_dir = tmp_path / "t0" / "oplog"
        for seg in oplog_dir.glob("*.seg"):
            seg.write_bytes(b"\x00" * 16)
        reopened = TenantStore(tmp_path / "t0")
        state, anchor = reopened.load_snapshot()
        assert state == {"n": 5}
        # The empty log was re-anchored at the snapshot: new appends
        # stay ahead of the anchor instead of reusing burned sequences.
        assert reopened.op_seq == anchor == 5
        store2 = reopened
        store2.append_ops([{"i": 5}])
        assert store2.ops()[-1][0] == 5

    def test_power_loss_synced_ops_survive(self):
        mem = MemoryDirectory()
        store = TenantStore(mem, fsync=True)
        store.ensure_spec(SPEC)
        for i in range(4):
            store.append_ops([{"i": i}])
        mem.crash()
        recovered = TenantStore(mem)
        assert recovered.load_spec() == SPEC
        assert [doc["i"] for _s, doc in recovered.ops()] == [0, 1, 2, 3]


class TestFsyncFlag:
    """The store's ``fsync`` flag alone decides whether op appends fsync
    (``repro serve --no-fsync`` opens its stores with ``fsync=False``),
    and the fsync histogram observes only appends that fsynced."""

    @pytest.mark.parametrize("fsync, expected", [(False, 0), (True, 3)])
    def test_one_fsync_per_batch_only_when_asked(
        self, tmp_path, monkeypatch, fsync, expected
    ):
        store = TenantStore(tmp_path / "t0", fsync=fsync)
        observed = []
        store.sync_observer = observed.append
        calls = []
        real_fsync = os.fsync

        def counting(fd):
            calls.append(fd)
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", counting)
        for batch in ([{"i": 0}], [{"i": 1}, {"i": 2}], [{"i": 3}] * 3):
            store.append_ops(batch)
        assert len(calls) == expected
        assert len(observed) == expected
        assert len(store.ops()) == 6

    @pytest.mark.parametrize("fsync, expected", [(False, 0), (True, 37)])
    def test_rotation_compaction_and_close_follow_the_flag(
        self, tmp_path, monkeypatch, fsync, expected
    ):
        """Every fsync the store's logs make — segment birth, rotation,
        the rewrite behind a history truncation, compaction and close —
        follows the flag.  ``expected`` for ``fsync=True`` is the count
        the logs made before the flag reached those calls."""
        calls = []
        real_fsync = os.fsync

        def counting(fd):
            calls.append(fd)
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", counting)
        store = TenantStore(tmp_path / "t0", segment_bytes=256, fsync=fsync)
        for i in range(20):
            store.append_ops([{"i": i}])
        assert len(store.oplog._segments) > 1  # rotated
        store.append_history(b"h0", seq=0)
        store.append_history(b"h1", seq=1)
        store.append_history(b"h1-again", seq=1)  # truncate + rewrite
        store.write_snapshot({"state": 1}, op_seq=store.op_seq)
        assert len(store.oplog._segments) == 1  # compacted
        store.close()
        assert len(calls) == expected
        reopened = TenantStore(tmp_path / "t0", segment_bytes=256)
        assert reopened.history_records(2) == [b"h0", b"h1-again"]
        assert reopened.load_snapshot() == ({"state": 1}, 20)
