"""SegmentedLog: framing, rotation, torn tails, quarantine, compaction."""

from __future__ import annotations

import os

import pytest

from repro.errors import StorageError
from repro.store.directory import MemoryDirectory, OsDirectory
from repro.store.log import SegmentedLog


def _records(log: SegmentedLog) -> list:
    return [payload for _seq, payload in log.entries()]


def _fill(log: SegmentedLog, n: int, size: int = 8) -> list:
    payloads = [bytes([65 + (i % 26)]) * size for i in range(n)]
    for p in payloads:
        log.append(p)
    return payloads


class TestAppendRecover:
    def test_roundtrip_and_sequences(self, tmp_path):
        d = OsDirectory(tmp_path)
        log = SegmentedLog(d)
        assert log.append(b"one") == 0
        assert log.append(b"two") == 1
        log.close()
        reopened = SegmentedLog(d)
        assert reopened.entries() == [(0, b"one"), (1, b"two")]
        assert reopened.next_seq == 2
        assert reopened.append(b"three") == 2

    def test_rotation_bounds_segments(self, tmp_path):
        d = OsDirectory(tmp_path)
        # header 12 + frame 8+8=16 per record: 3 records fit in 64 bytes.
        log = SegmentedLog(d, segment_bytes=64)
        payloads = _fill(log, 10)
        segs = [n for n in d.listdir() if n.endswith(".seg")]
        assert len(segs) > 1
        # Segment names carry the first sequence they hold.
        assert segs[0] == "log-000000000000.seg"
        log.close()
        reopened = SegmentedLog(d, segment_bytes=64)
        assert _records(reopened) == payloads

    def test_oversized_record_gets_own_segment(self, tmp_path):
        d = OsDirectory(tmp_path)
        log = SegmentedLog(d, segment_bytes=64)
        big = b"z" * 200  # larger than a whole segment
        log.append(b"small")
        log.append(big)
        log.close()
        assert _records(SegmentedLog(d, segment_bytes=64)) == [b"small", big]

    def test_too_small_segment_bytes_rejected(self, tmp_path):
        with pytest.raises(StorageError, match="segment_bytes"):
            SegmentedLog(OsDirectory(tmp_path), segment_bytes=4)

    def test_append_after_close_rejected(self, tmp_path):
        log = SegmentedLog(OsDirectory(tmp_path))
        log.close()
        with pytest.raises(StorageError, match="closed"):
            log.append(b"x")

    def test_leftover_tmp_removed_on_open(self, tmp_path):
        d = OsDirectory(tmp_path)
        SegmentedLog(d).close()
        (tmp_path / "log-000000000042.seg.tmp").write_bytes(b"dead")
        log = SegmentedLog(d)
        assert not (tmp_path / "log-000000000042.seg.tmp").exists()
        assert log.next_seq == 0


class TestTornTail:
    def test_torn_final_frame_truncates(self, tmp_path):
        d = OsDirectory(tmp_path)
        log = SegmentedLog(d)
        log.append(b"keep-me")
        log.append(b"torn")
        log.close()
        name = "log-000000000000.seg"
        data = (tmp_path / name).read_bytes()
        (tmp_path / name).write_bytes(data[:-2])  # tear the last frame
        reopened = SegmentedLog(d)
        assert _records(reopened) == [b"keep-me"]
        assert reopened.truncated_bytes > 0
        assert reopened.quarantined == []
        # Appends continue from the truncation point.
        assert reopened.append(b"next") == 1

    def test_torn_frame_header_truncates(self, tmp_path):
        d = OsDirectory(tmp_path)
        log = SegmentedLog(d)
        log.append(b"keep")
        log.close()
        name = "log-000000000000.seg"
        with (tmp_path / name).open("ab") as fh:
            fh.write(b"\x05\x00")  # 2 bytes of an 8-byte frame header
        assert _records(SegmentedLog(d)) == [b"keep"]

    def test_tear_in_sealed_segment_quarantines(self, tmp_path):
        d = OsDirectory(tmp_path)
        log = SegmentedLog(d, segment_bytes=64)
        _fill(log, 6)  # two sealed-or-open segments
        log.close()
        segs = sorted(
            p.name for p in tmp_path.iterdir() if p.name.endswith(".seg")
        )
        assert len(segs) >= 2
        path = tmp_path / segs[0]
        path.write_bytes(path.read_bytes()[:-2])  # tear a *sealed* seg
        reopened = SegmentedLog(d, segment_bytes=64)
        # A tear inside a sealed segment is corruption, not a crash
        # signature: that segment and everything after it is set aside.
        assert reopened.quarantined == segs
        assert len(reopened) == 0
        for name in segs:
            assert (tmp_path / (name + ".quarantine")).exists()


class TestCorruptQuarantine:
    def _flip(self, path, offset: int) -> None:
        data = bytearray(path.read_bytes())
        data[offset] ^= 0x01
        path.write_bytes(bytes(data))

    def test_bit_rot_mid_segment_quarantines_suffix(self, tmp_path):
        d = OsDirectory(tmp_path)
        log = SegmentedLog(d)
        log.append(b"alpha")
        log.append(b"beta")
        log.append(b"gamma")
        log.close()
        name = "log-000000000000.seg"
        # Flip a payload byte of "beta": header 12 + frame1 (8+5) = 25,
        # frame2 payload starts at 25+8 = 33.
        self._flip(tmp_path / name, 33)
        reopened = SegmentedLog(d)
        assert _records(reopened) == [b"alpha"]
        assert name in reopened.quarantined
        assert (tmp_path / (name + ".quarantine")).exists()
        # The good prefix was rewritten under the original name.
        assert (tmp_path / name).exists()
        # Recovery continues at the right sequence.
        assert reopened.next_seq == 1

    def test_bit_rot_quarantines_later_segments_too(self, tmp_path):
        d = OsDirectory(tmp_path)
        log = SegmentedLog(d, segment_bytes=64)
        _fill(log, 8)
        log.close()
        segs = sorted(
            p for p in tmp_path.iterdir() if p.name.endswith(".seg")
        )
        assert len(segs) >= 3
        self._flip(segs[0], 22)  # rot inside the first segment's payloads
        reopened = SegmentedLog(d, segment_bytes=64)
        # Everything after the rotten record has suspect lineage.
        assert len(reopened.quarantined) >= len(segs) - 1
        for p in segs[1:]:
            assert (tmp_path / (p.name + ".quarantine")).exists()

    def test_quarantine_reaches(self, tmp_path):
        d = OsDirectory(tmp_path)
        log = SegmentedLog(d)
        for payload in (b"alpha", b"beta", b"gamma"):
            log.append(payload)
        log.close()
        name = "log-000000000000.seg"
        self._flip(tmp_path / name, 33)  # rot "beta"
        reopened = SegmentedLog(d)
        # The set-aside segment held sequences 0-2, CRCs aside.
        assert reopened.quarantine_reaches(2)
        assert not reopened.quarantine_reaches(3)
        reopened.close()
        # A quarantine from an earlier open still counts.
        again = SegmentedLog(d)
        assert again.quarantined == [] and again.quarantine_reaches(2)
        again.close()
        # Framing that does not parse may have held any sequence.
        quarantined = tmp_path / (name + ".quarantine")
        quarantined.write_bytes(quarantined.read_bytes()[:-1])
        final = SegmentedLog(d)
        assert final.quarantine_reaches(10**9)
        final.close()

    def test_bad_magic_quarantines(self, tmp_path):
        d = OsDirectory(tmp_path)
        log = SegmentedLog(d)
        log.append(b"x")
        log.close()
        name = "log-000000000000.seg"
        data = bytearray((tmp_path / name).read_bytes())
        data[0] ^= 0xFF
        (tmp_path / name).write_bytes(bytes(data))
        reopened = SegmentedLog(d)
        assert _records(reopened) == []
        assert name in reopened.quarantined

    def test_sequence_gap_quarantines_suffix(self, tmp_path):
        d = OsDirectory(tmp_path)
        log = SegmentedLog(d, segment_bytes=64)
        _fill(log, 8)
        log.close()
        segs = sorted(
            p.name for p in tmp_path.iterdir() if p.name.endswith(".seg")
        )
        assert len(segs) >= 3
        # Remove a middle segment: the chain breaks there.
        (tmp_path / segs[1]).unlink()
        reopened = SegmentedLog(d, segment_bytes=64)
        assert reopened.quarantined == segs[2:]
        assert len(reopened) == 3  # only the first segment's records


class TestCompaction:
    def test_compact_drops_whole_segments_only(self, tmp_path):
        d = OsDirectory(tmp_path)
        log = SegmentedLog(d, segment_bytes=64)
        payloads = _fill(log, 9)  # 3 per segment
        removed = log.compact(4)  # seq 4 lives in the second segment
        assert removed == 1
        assert log.base_seq == 3
        assert _records(log) == payloads[3:]
        assert log.next_seq == 9

    def test_compact_never_drops_last_segment(self, tmp_path):
        d = OsDirectory(tmp_path)
        log = SegmentedLog(d, segment_bytes=64)
        _fill(log, 9)
        log.compact(10_000)
        assert len(log._segments) == 1  # noqa: SLF001 - structural pin
        assert log.next_seq == 9

    def test_compaction_survives_reopen(self, tmp_path):
        d = OsDirectory(tmp_path)
        log = SegmentedLog(d, segment_bytes=64)
        payloads = _fill(log, 9)
        log.compact(6)
        log.close()
        reopened = SegmentedLog(d, segment_bytes=64)
        assert reopened.base_seq == 6
        assert _records(reopened) == payloads[6:]

    def test_rebase_restarts_empty_log(self, tmp_path):
        d = OsDirectory(tmp_path)
        log = SegmentedLog(d)
        log.rebase(100)
        assert log.next_seq == 100
        assert log.append(b"x") == 100
        log.close()
        assert SegmentedLog(d).entries() == [(100, b"x")]

    def test_rebase_nonempty_rejected(self, tmp_path):
        log = SegmentedLog(OsDirectory(tmp_path))
        log.append(b"x")
        log.append(b"y")
        with pytest.raises(StorageError, match="would drop records"):
            log.rebase(1)

    def test_rebase_drops_records_below_it(self, tmp_path):
        d = OsDirectory(tmp_path)
        log = SegmentedLog(d)
        log.append(b"x")
        log.rebase(5)
        assert (len(log), log.base_seq, log.append(b"y")) == (0, 5, 5)
        log.close()
        assert SegmentedLog(d).entries() == [(5, b"y")]


class TestTruncate:
    @pytest.mark.parametrize("end", [0, 2, 3, 4, 8, 9, 12])
    def test_truncate_drops_the_tail(self, tmp_path, end):
        d = OsDirectory(tmp_path)
        log = SegmentedLog(d, segment_bytes=64)
        payloads = _fill(log, 9)  # 3 per segment
        log.truncate(end)
        kept = payloads[:end]
        assert _records(log) == kept and log.next_seq == len(kept)
        assert log.append(b"new") == len(kept)
        log.close()
        reopened = SegmentedLog(d, segment_bytes=64)
        assert _records(reopened) == kept + [b"new"]

    def test_truncate_below_the_base_rejected(self, tmp_path):
        log = SegmentedLog(OsDirectory(tmp_path), segment_bytes=64)
        _fill(log, 9)
        log.compact(6)
        with pytest.raises(StorageError, match="would drop the log"):
            log.truncate(2)

    def test_truncation_is_durable(self):
        mem = MemoryDirectory()
        log = SegmentedLog(mem, segment_bytes=64)
        payloads = _fill(log, 7)
        log.truncate(4)
        mem.crash()
        assert _records(SegmentedLog(mem, segment_bytes=64)) == payloads[:4]


class TestPowerLoss:
    def test_synced_appends_survive_power_loss(self):
        mem = MemoryDirectory()
        log = SegmentedLog(mem, segment_bytes=64)
        payloads = []
        for i in range(7):
            p = f"rec-{i}".encode()
            log.append(p, sync=True)
            payloads.append(p)
        mem.crash()
        assert _records(SegmentedLog(mem, segment_bytes=64)) == payloads

    def test_unsynced_appends_may_vanish(self):
        mem = MemoryDirectory()
        log = SegmentedLog(mem)
        log.append(b"durable", sync=True)
        log.append(b"volatile", sync=False)
        mem.crash()
        assert _records(SegmentedLog(mem)) == [b"durable"]


class TestFsyncFlag:
    def test_unsynced_log_never_fsyncs(self, tmp_path, monkeypatch):
        """``fsync=False``: segment birth, rotation, the truncation
        rewrite, compaction, quarantine and close flush instead."""
        calls = []
        real_fsync = os.fsync

        def counting(fd):
            calls.append(fd)
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", counting)
        d = OsDirectory(tmp_path)
        log = SegmentedLog(d, segment_bytes=64, fsync=False)
        payloads = _fill(log, 10)
        log.truncate(8)
        assert log.compact(6) > 0
        log.close()
        first = sorted(n for n in d.listdir() if n.endswith(".seg"))[0]
        data = bytearray((tmp_path / first).read_bytes())
        data[-1] ^= 0x01  # rot the first live segment's last payload byte
        (tmp_path / first).write_bytes(bytes(data))
        reopened = SegmentedLog(d, segment_bytes=64, fsync=False)
        assert reopened.quarantined
        reopened.close()
        assert calls == []
        assert _records(SegmentedLog(d, segment_bytes=64))[:1] == payloads[6:7]
