"""Checkpoint corruption paths: what a resumed sweep must and must not eat.

Contract (docs/ROBUSTNESS.md §4): a checkpoint is a segmented log.  A torn
final record is the signature of a crash mid-append and is truncated away
(that replication re-runs).  A corrupt record — a CRC32 mismatch, i.e.
bit rot rather than a torn append — quarantines its segment's suffix,
reported via ``CheckpointStore.quarantined``, and those replications
re-run.  Only a lost header, a foreign or regular file, or a fingerprint
mismatch refuses to resume with a clear :class:`CheckpointError`.
"""

from __future__ import annotations

import json

import pytest

from repro.errors import CheckpointError
from repro.experiments.checkpoint import CheckpointStore
from repro.experiments.runner import FailedReplication, ReplicationOutcome
from repro.store.directory import OsDirectory
from repro.store.log import SegmentedLog


def _outcome(v: float = 5.0) -> ReplicationOutcome:
    return ReplicationOutcome(
        generated_value=10.0,
        n_jobs=3,
        values={"EDF": v},
        completed={"EDF": 2},
        recovered=1,
    )


def _store(path, **kw) -> CheckpointStore:
    args = dict(seed=1, n_runs=4, fingerprint="abc123")
    args.update(kw)
    return CheckpointStore(path, **args)


def _fresh(tmp_path, n_records: int = 3):
    path = tmp_path / "run.ckpt"
    store = _store(path)
    for i in range(n_records):
        store.record(i, _outcome(float(i)))
    store.close()
    return path


def _segment(path):
    (seg,) = path.glob("*.seg")
    return seg


def _flip_in_record(path, seq: int) -> None:
    """Flip one payload byte of record ``seq`` (0 = the header)."""
    seg = _segment(path)
    data = bytearray(seg.read_bytes())
    offset = 12  # segment header
    for _ in range(seq):
        offset += 8 + int.from_bytes(data[offset : offset + 4], "little")
    data[offset + 8 + 2] ^= 0x01
    seg.write_bytes(bytes(data))


def _write_log(path, docs) -> None:
    log = SegmentedLog(OsDirectory(path))
    for doc in docs:
        log.append(json.dumps(doc).encode())
    log.close()


class TestCleanResume:
    def test_roundtrip(self, tmp_path):
        path = _fresh(tmp_path)
        resumed = _store(path)
        assert sorted(resumed.completed) == [0, 1, 2]
        assert resumed.completed[1].values == {"EDF": 1.0}
        assert resumed.completed[1].recovered == 1
        assert resumed.pending() == [3]

    def test_failures_are_retried(self, tmp_path):
        path = tmp_path / "run.ckpt"
        store = _store(path)
        store.record(0, _outcome())
        store.record(
            1,
            FailedReplication(
                index=1, error_type="ValueError", message="boom", attempts=2
            ),
        )
        store.close()
        resumed = _store(path)
        assert resumed.pending() == [1, 2, 3]  # the failure re-runs
        assert resumed.failures[1].message == "boom"

    def test_latest_record_wins(self, tmp_path):
        path = tmp_path / "run.ckpt"
        store = _store(path)
        store.record(
            0,
            FailedReplication(
                index=0, error_type="OSError", message="flaky", attempts=1
            ),
        )
        store.record(0, _outcome(9.0))  # the retry succeeded
        store.close()
        resumed = _store(path)
        assert resumed.completed[0].values == {"EDF": 9.0}
        assert 0 not in resumed.failures


class TestCorruption:
    def test_truncated_final_line_tolerated(self, tmp_path):
        path = _fresh(tmp_path)
        seg = _segment(path)
        seg.write_bytes(seg.read_bytes()[:-5])  # torn mid-append of index 2
        resumed = _store(path)
        assert sorted(resumed.completed) == [0, 1]
        assert resumed.pending() == [2, 3]  # the torn replication re-runs
        assert resumed.quarantined == []

    def test_corrupt_middle_line_skipped_and_reported(self, tmp_path):
        path = _fresh(tmp_path)
        _flip_in_record(path, 2)  # index 1's record
        resumed = _store(path)
        # Everything from the rotten record on has suspect lineage: it
        # is set aside, reported, and those replications re-run.
        assert sorted(resumed.completed) == [0]
        assert resumed.pending() == [1, 2, 3]
        assert resumed.quarantined == [_segment(path).name]
        assert (path / (_segment(path).name + ".quarantine")).exists()

    def test_crc_mismatch_skipped_and_reported(self, tmp_path):
        path = _fresh(tmp_path, n_records=4)
        _flip_in_record(path, 4)  # bit rot in the last record only
        resumed = _store(path)
        assert sorted(resumed.completed) == [0, 1, 2]
        assert resumed.pending() == [3]
        assert len(resumed.quarantined) == 1
        resumed.record(3, _outcome(3.0))  # the re-run appends cleanly
        resumed.close()
        assert sorted(_store(path).completed) == [0, 1, 2, 3]

    def test_corrupt_header_refuses_resume(self, tmp_path):
        path = _fresh(tmp_path)
        _flip_in_record(path, 0)
        for _ in range(2):  # and keeps refusing: the quarantine stays
            with pytest.raises(CheckpointError, match="corrupt checkpoint header"):
                _store(path)

    def test_foreign_file_rejected(self, tmp_path):
        path = tmp_path / "other.jsonl"
        path.write_text(json.dumps({"kind": "event_journal", "schema": 1}) + "\n")
        with pytest.raises(CheckpointError, match="not a Monte-Carlo checkpoint") as exc:
            _store(path)
        assert str(path) in str(exc.value)
        foreign = tmp_path / "foreign"
        _write_log(foreign, [{"kind": "event_journal", "schema": 1}])
        with pytest.raises(CheckpointError, match="not a Monte-Carlo checkpoint"):
            _store(foreign)

    def test_unsupported_schema_rejected(self, tmp_path):
        path = tmp_path / "future.ckpt"
        _write_log(
            path,
            [
                {
                    "kind": "mc_checkpoint",
                    "schema": 99,
                    "seed": 1,
                    "n_runs": 4,
                    "fingerprint": "abc123",
                }
            ],
        )
        with pytest.raises(CheckpointError, match="unsupported checkpoint schema"):
            _store(path)

    def test_out_of_range_index_rejected(self, tmp_path):
        path = _fresh(tmp_path, n_records=1)
        _write_log(
            path,
            [
                {"index": 99, "outcome": {
                    "generated_value": 1.0,
                    "n_jobs": 1,
                    "values": {"EDF": 1.0},
                    "completed": {"EDF": 1},
                }}
            ],
        )
        with pytest.raises(CheckpointError, match="out of range"):
            _store(path)


class TestFingerprint:
    @pytest.mark.parametrize(
        "kw, what",
        [
            ({"fingerprint": "zzz999"}, "fingerprint"),
            ({"seed": 2}, "seed"),
            ({"n_runs": 8}, "n_runs"),
        ],
    )
    def test_mismatch_refuses_resume(self, tmp_path, kw, what):
        path = _fresh(tmp_path)
        with pytest.raises(CheckpointError, match="different run") as excinfo:
            _store(path, **kw)
        assert what in str(excinfo.value)
