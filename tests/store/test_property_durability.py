"""Crash-at-every-byte-offset durability properties.

The central contract of :mod:`repro.store` (docs/ROBUSTNESS.md §12):
**recovered state equals the longest fsynced prefix of operations**.
Concretely, for a run that crashes (torn write + power loss) at global
byte offset *k* — for *every* k the run ever writes:

* every operation whose ``append(..., sync=True)`` returned before the
  crash is recovered, in order, bit-identically;
* the operation in flight at the crash is cleanly absent (torn tails
  truncate; partial snapshots stay invisible);
* recovery itself never raises — no offset leaves the store unopenable.

The deterministic loops below literally enumerate every offset — for a
bare log, a tenant store, and a store-backed ``TenantShard`` whose op
log and snapshots share one directory tree; the
hypothesis block (skipped when hypothesis is not installed, e.g. the
minimal CI environment) randomises payload shapes, segment bounds and
snapshot cadence on top.
"""

from __future__ import annotations

import json

import pytest

from repro.errors import StorageFault
from repro.service import (
    Advance,
    CapacitySpec,
    InjectFault,
    Submit,
    TenantShard,
    TenantSpec,
    replay_tenant,
)
from repro.sim.job import Job
from repro.store.directory import MemoryDirectory
from repro.store.faults import StorageFaultSpec
from repro.store.log import SegmentedLog
from repro.store.tenant import TenantStore


def _run_log_until_fault(directory, payloads, *, segment_bytes=64):
    """Append payloads (sync each) until the injected fault kills the
    process; returns the list whose appends completed."""
    completed = []
    try:
        log = SegmentedLog(directory, segment_bytes=segment_bytes, fsync=True)
        for p in payloads:
            log.append(p, sync=True)
            completed.append(p)
        log.close()
    except StorageFault:
        pass
    return completed


def _total_log_bytes(payloads, *, segment_bytes=64):
    mem = MemoryDirectory()
    spy = StorageFaultSpec("torn_write", at=10**9).apply(mem)
    assert _run_log_until_fault(spy, payloads,
                                segment_bytes=segment_bytes) == payloads
    return spy.bytes_written


def _recovered_log(mem, *, segment_bytes=64):
    log = SegmentedLog(mem, segment_bytes=segment_bytes, fsync=True)
    return [payload for _seq, payload in log.entries()]


class TestLogEveryOffset:
    PAYLOADS = [f"record-{i:02d}".encode() for i in range(12)]

    def test_crash_at_every_byte_offset(self):
        total = _total_log_bytes(self.PAYLOADS)
        assert total > 0
        for offset in range(total):
            mem = MemoryDirectory()
            faulty = StorageFaultSpec("torn_write", at=offset).apply(mem)
            completed = _run_log_until_fault(faulty, self.PAYLOADS)
            mem.crash()  # power loss at the tear
            recovered = _recovered_log(mem)
            assert recovered == completed, (
                f"offset {offset}: recovered {len(recovered)} records, "
                f"expected the {len(completed)} completed appends"
            )

    def test_enospc_at_every_byte_offset(self):
        # Disk-full mid-write must be exactly as safe as a torn write.
        total = _total_log_bytes(self.PAYLOADS)
        for offset in range(0, total, 7):  # stride: same machinery
            mem = MemoryDirectory()
            faulty = StorageFaultSpec("enospc", at=offset).apply(mem)
            completed = []
            try:
                log = SegmentedLog(faulty, segment_bytes=64, fsync=True)
                for p in self.PAYLOADS:
                    log.append(p, sync=True)
                    completed.append(p)
                log.close()
            except OSError:
                pass
            mem.crash()
            assert _recovered_log(mem) == completed

    def test_fsync_lie_recovers_a_prefix(self):
        # With a lying fsync nothing is guaranteed durable — but recovery
        # must still land on a clean *prefix* of the completed appends,
        # never invent or reorder records.
        total = _total_log_bytes(self.PAYLOADS)
        for offset in range(0, total, 5):
            mem = MemoryDirectory()
            lying = StorageFaultSpec("fsync_lie").apply(mem)
            torn = StorageFaultSpec("torn_write", at=offset).apply(lying)
            completed = _run_log_until_fault(torn, self.PAYLOADS)
            mem.crash()
            recovered = _recovered_log(mem)
            assert recovered == completed[: len(recovered)]

    def test_bit_flip_at_every_offset_never_surfaces_rot(self):
        # Silent rot at any payload/frame byte must quarantine, not
        # parse: recovery yields a clean prefix and never raises.
        total = _total_log_bytes(self.PAYLOADS)
        for offset in range(0, total, 3):
            mem = MemoryDirectory()
            flip = StorageFaultSpec("bit_flip", at=offset).apply(mem)
            log = SegmentedLog(flip, segment_bytes=64, fsync=True)
            for p in self.PAYLOADS:
                log.append(p, sync=True)
            log.close()
            recovered = _recovered_log(mem)
            assert recovered == self.PAYLOADS[: len(recovered)]


class TestTenantStoreEveryOffset:
    """End-to-end: ops + periodic snapshots + compaction, crash at every
    offset, recovered (snapshot ∘ post-anchor ops) = completed prefix."""

    N_OPS = 14
    SNAP_EVERY = 5

    def _drive(self, directory):
        """Returns the ops whose fsynced append returned before death."""
        completed = []
        try:
            store = TenantStore(directory, segment_bytes=96, fsync=True)
            store.ensure_spec({"tenant": "t", "seed": 1})
            for i in range(self.N_OPS):
                store.append_ops([{"i": i}])
                completed.append(i)
                if (i + 1) % self.SNAP_EVERY == 0:
                    store.write_snapshot(list(completed),
                                         op_seq=store.op_seq)
            store.close()
        except StorageFault:
            pass
        return completed

    def _recover(self, mem):
        store = TenantStore(mem, fsync=True)
        loaded = store.load_snapshot()
        state, anchor = ([], 0) if loaded is None else loaded
        return list(state) + [
            doc["i"] for seq, doc in store.ops() if seq >= anchor
        ]

    def _total_bytes(self):
        mem = MemoryDirectory()
        spy = StorageFaultSpec("torn_write", at=10**9).apply(mem)
        assert len(self._drive(spy)) == self.N_OPS
        return spy.bytes_written

    def test_crash_at_every_byte_offset(self):
        total = self._total_bytes()
        assert total > 0
        for offset in range(total):
            mem = MemoryDirectory()
            faulty = StorageFaultSpec("torn_write", at=offset).apply(mem)
            completed = self._drive(faulty)
            mem.crash()
            recovered = self._recover(mem)
            assert recovered == completed, (
                f"offset {offset}: recovered {recovered!r} != "
                f"completed {completed!r}"
            )

    def test_sigkill_loses_nothing_even_unsynced(self):
        # SIGKILL (not power loss) keeps everything handed to the OS:
        # sync_all before crash models the page cache surviving.
        total = self._total_bytes()
        for offset in range(0, total, 11):
            mem = MemoryDirectory()
            faulty = StorageFaultSpec("torn_write", at=offset).apply(mem)
            completed = self._drive(faulty)
            mem.sync_all()
            mem.crash()
            recovered = self._recover(mem)
            # The torn in-flight frame is still truncated away; every
            # completed op survives.
            assert recovered == completed


class _TaggedDirectory:
    """Records ``(subdirectory, bytes)`` for every write passing through,
    so a spy run can map global byte offsets to the layer writing them."""

    def __init__(self, inner, tag, writes):
        self._inner, self._tag, self._writes = inner, tag, writes

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def _tagged(self, handle):
        writes, tag = self._writes, self._tag

        class _Handle:
            def write(self, data):
                writes.append((tag, len(data)))
                handle.write(data)

            def __getattr__(self, name):
                return getattr(handle, name)

        return _Handle()

    def create(self, name):
        return self._tagged(self._inner.create(name))

    def open_append(self, name):
        return self._tagged(self._inner.open_append(name))

    def subdir(self, name):
        return _TaggedDirectory(self._inner.subdir(name), name, self._writes)


class _RecordingStore(TenantStore):
    """A TenantStore noting which op docs were handed to ``append_ops``
    and which of those calls returned (their fsync done)."""

    def __init__(self, *args, **kwargs):
        self.attempted, self.returned = [], []
        super().__init__(*args, **kwargs)

    def append_ops(self, docs):
        self.attempted.extend(docs)
        seq = super().append_ops(docs)
        self.returned.extend(docs)
        return seq


class TestShardEveryOffset:
    """End-to-end through a store-backed :class:`TenantShard`: op log,
    history log and snapshots on one power-loss-modelling directory,
    torn at every byte offset of the op-log and history writes (and at
    a stride across the snapshot and spec bytes), then power loss, cold
    start and ``close()``.  The recovered decisions are exactly those whose fsynced
    op append returned — plus, at most, a prefix of the one batch in
    flight, which a segment rotation's seal can make durable early — and
    the closed tenant replays bit-identically."""

    SPEC = TenantSpec(
        tenant="t0",
        horizon=12.0,
        scheduler="edf",
        capacity=CapacitySpec("constant", {"rate": 1.0}),
        queue_budget=2,
        snapshot_every=3,
    )
    STRIDE = 41  # across snapshot and spec bytes

    @staticmethod
    def _job(jid, release, workload=1.0):
        return Job(jid=jid, release=release, workload=workload,
                   deadline=release + 3.0, value=1.0)

    def _messages(self):
        job = self._job
        return [
            Submit("t0", job(0, 1.0), rid="s0"),
            Submit("t0", job(1, 1.0), rid="s1"),
            Submit("t0", job(2, 1.0), rid="s2"),  # over budget: shed
            Submit("t0", job(3, 2.5), rid="s3"),
            InjectFault("t0", "kill", 3.0, retain=0.5, rid="k0"),
            Submit("t0", job(4, 4.0, 2.0), rid="s4"),
            Advance("t0", 7.0),
        ]

    def _drive(self, directory):
        store = None
        try:
            store = _RecordingStore(directory, segment_bytes=256, fsync=True)
            shard = TenantShard(self.SPEC, store=store)
            for message in self._messages():
                shard.handle(message)
        except StorageFault:
            pass
        return store

    def _offsets(self):
        writes = []
        spy = StorageFaultSpec("torn_write", at=10**9).apply(
            _TaggedDirectory(MemoryDirectory(), "spec", writes)
        )
        store = self._drive(spy)
        assert len(store.returned) == 6  # every decision made it
        offsets, at = [], 0
        for tag, size in writes:
            every = tag in ("oplog", "history")
            offsets += [
                k for k in range(at, at + size)
                if every or k % self.STRIDE == 0
            ]
            at += size
        return offsets, {tag for tag, _ in writes}

    def test_crash_at_every_byte_offset(self):
        offsets, layers = self._offsets()
        for offset in offsets:
            mem = MemoryDirectory()
            store = self._drive(
                StorageFaultSpec("torn_write", at=offset).apply(mem)
            )
            attempted = store.attempted if store else []
            returned = store.returned if store else []
            mem.crash()
            shard = TenantShard(
                self.SPEC, store=TenantStore(mem, fsync=True), resume=True
            )
            decided = 0
            while decided < len(attempted) and shard.dedup_outcome(
                attempted[decided]["rid"]
            ):
                decided += 1
            where = f"offset {offset}"
            assert decided >= len(returned), where
            assert not any(
                shard.dedup_outcome(doc["rid"]) for doc in attempted[decided:]
            ), where
            report = shard.close()
            ops = attempted[:decided]
            assert [job.jid for job in report.accepted] == [
                doc["job"]["jid"] for doc in ops if doc["op"] == "admit"
            ], where
            assert [rec.jid for rec in report.shed] == [
                doc["rec"]["jid"] for doc in ops if doc["op"] == "shed"
            ], where
            check = replay_tenant(report)
            assert check.ok, (where, check.failures)
        assert layers == {"spec", "oplog", "snaps", "history"}


class _PowerCut(Exception):
    pass


class _CutStore(TenantStore):
    """A TenantStore whose ``cut_at``-th snapshot commit never happens:
    power fails after the history record was appended and fsynced."""

    def __init__(self, *args, cut_at, **kwargs):
        self.cut_at, self.commits = cut_at, 0
        super().__init__(*args, **kwargs)

    def write_snapshot(self, state, *, op_seq):
        self.commits += 1
        if self.commits == self.cut_at:
            raise _PowerCut()
        return super().write_snapshot(state, op_seq=op_seq)


class TestHistoryAppendWithoutCommit:
    """Power fails between a commit's history append and its snapshot:
    the record on disk names drains no committed image covers.  Every
    cold start must read it not at all — each acked decision exactly
    once, replay parity, the same stats on each of two cold starts —
    and the next commit replaces it."""

    SPEC = TestShardEveryOffset.SPEC

    def _messages(self):
        return TestShardEveryOffset()._messages() + [
            Submit("t0", TestShardEveryOffset._job(5, 7.5), rid="s5"),
            Advance("t0", 11.0),
        ]

    def _commits(self):
        store = _CutStore(MemoryDirectory(), cut_at=0, fsync=True)
        shard = TenantShard(self.SPEC, store=store)
        for message in self._messages():
            shard.handle(message)
        return store.commits

    @staticmethod
    def _decided(report):
        return [job.jid for job in report.accepted], [
            rec.jid for rec in report.shed
        ]

    def test_every_commit_cut(self):
        total = self._commits()
        assert total >= 3
        for cut_at in range(1, total + 1):
            mem = MemoryDirectory()
            store = _CutStore(mem, cut_at=cut_at, fsync=True)
            shard = TenantShard(self.SPEC, store=store)
            acked = []
            messages = self._messages()
            for i, message in enumerate(messages):
                try:
                    shard.handle(message)
                except _PowerCut:
                    break
                acked.append(message)
            mem.crash()
            assert len(store.history) >= cut_at  # the orphan is on disk
            where = f"cut at commit {cut_at}"

            first = TenantShard(
                self.SPEC, store=TenantStore(mem, fsync=True), resume=True
            )
            stats = first.stats()
            accepted, shed = self._decided(first.report())
            assert len(set(accepted)) == len(accepted), where
            assert len(set(shed)) == len(shed), where
            for message in acked:
                rid = getattr(message, "rid", None)
                if rid is not None:
                    assert first.dedup_outcome(rid), (where, rid)
            check = replay_tenant(first.close())
            assert check.ok, (where, check.failures)

            second = TenantShard(
                self.SPEC, store=TenantStore(mem, fsync=True), resume=True
            )
            assert second.stats() == stats, where
            assert self._decided(second.report()) == (accepted, shed), where
            # Resending the rest commits over the orphan record; a third
            # cold start sees the whole stream once.
            for message in messages[len(acked):]:
                second.handle(message)
            final = second.stats()
            mem.sync_all()
            mem.crash()
            third = TenantShard(
                self.SPEC, store=TenantStore(mem, fsync=True), resume=True
            )
            for key in ("submitted", "accepted", "shed", "accepted_crc"):
                assert third.stats()[key] == final[key], (where, key)
            check = replay_tenant(third.close())
            assert check.ok, (where, check.failures)


# ----------------------------------------------------------------------
# Randomised layer (skipped without hypothesis, e.g. minimal CI).
# ----------------------------------------------------------------------
hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402


@settings(max_examples=40, deadline=None)
@given(
    payloads=st.lists(
        st.binary(min_size=0, max_size=40), min_size=1, max_size=25
    ),
    segment_bytes=st.integers(min_value=24, max_value=200),
    offset=st.integers(min_value=0, max_value=4000),
)
def test_random_payloads_random_crash_offset(payloads, segment_bytes, offset):
    mem = MemoryDirectory()
    faulty = StorageFaultSpec("torn_write", at=offset).apply(mem)
    completed = _run_log_until_fault(
        faulty, payloads, segment_bytes=segment_bytes
    )
    mem.crash()
    assert _recovered_log(mem, segment_bytes=segment_bytes) == completed


@settings(max_examples=25, deadline=None)
@given(
    n_ops=st.integers(min_value=1, max_value=20),
    snap_every=st.integers(min_value=1, max_value=8),
    offset=st.integers(min_value=0, max_value=6000),
    op_size=st.integers(min_value=1, max_value=30),
)
def test_random_tenant_store_crash(n_ops, snap_every, offset, op_size):
    blob = "x" * op_size

    def drive(directory):
        completed = []
        try:
            store = TenantStore(directory, segment_bytes=96, fsync=True)
            for i in range(n_ops):
                store.append_ops([{"i": i, "blob": blob}])
                completed.append(i)
                if (i + 1) % snap_every == 0:
                    store.write_snapshot(completed[:], op_seq=store.op_seq)
            store.close()
        except StorageFault:
            pass
        return completed

    mem = MemoryDirectory()
    completed = drive(StorageFaultSpec("torn_write", at=offset).apply(mem))
    mem.crash()
    store = TenantStore(mem, fsync=True)
    loaded = store.load_snapshot()
    state, anchor = ([], 0) if loaded is None else loaded
    recovered = list(state) + [
        doc["i"] for seq, doc in store.ops() if seq >= anchor
    ]
    assert recovered == completed


@settings(max_examples=25, deadline=None)
@given(
    records=st.lists(
        st.dictionaries(
            st.sampled_from(["op", "jid", "dc", "t"]),
            st.integers(min_value=0, max_value=99),
            min_size=1,
        ),
        min_size=1,
        max_size=15,
    ),
    flip_at=st.integers(min_value=0, max_value=1500),
    bit=st.integers(min_value=0, max_value=7),
)
def test_random_bit_rot_never_parses(records, flip_at, bit):
    # JSON op docs through the log with one random flipped bit anywhere:
    # recovery must yield a decodable prefix, never garbage records.
    mem = MemoryDirectory()
    flip = StorageFaultSpec(
        "bit_flip", at=flip_at, options={"bit": bit}
    ).apply(mem)
    log = SegmentedLog(flip, segment_bytes=80, fsync=True)
    encoded = [json.dumps(doc, sort_keys=True).encode() for doc in records]
    for payload in encoded:
        log.append(payload, sync=True)
    log.close()
    recovered = _recovered_log(mem, segment_bytes=80)
    assert recovered == encoded[: len(recovered)]
    for payload in recovered:
        json.loads(payload.decode())  # every survivor decodes
