"""A long-lived tenant's state stays bounded by its live jobs.

A decision at time t reads only released, unfinished jobs, so what a
tenant images, holds and copies per message must not grow with the
jobs it has ever admitted.  These checks drive a store-backed shard
(power-loss-modelling ``MemoryDirectory``) through thousands of
submissions and assert, on deterministic counts at every drain and
every snapshot commit, that the live image and the kernel's tables are
bounded by the unfinished jobs plus the jobs still named by a queued
event — and that history, held once, still adds back up to the whole
run (replay parity at the end).
"""

from __future__ import annotations

import pickle

import pytest

from repro.service import CapacitySpec, TenantShard, TenantSpec, replay_tenant
from repro.sim.events import EventKind
from repro.sim.job import STATUS_CODE, JobStatus
from repro.store.directory import MemoryDirectory
from repro.store.tenant import TenantStore

from tests.service.test_shard import _decision_stream

pytestmark = pytest.mark.bounded_state

#: Rows the stream keeps live or named at once never come near this; a
#: count that grew with the accepted jobs would pass it within a few
#: hundred submissions.
LIVE_BOUND = 64

_TERMINAL = {"COMPLETED", "FAILED", "ABANDONED"}
_TERMINAL_MIN = STATUS_CODE[JobStatus.COMPLETED]


def _named(events):
    """Jids a queued event names (kernel event objects)."""
    named = set()
    for _t, _k, _s, event in events:
        payload = event.payload
        if event.kind is EventKind.ALARM:
            named.add(payload[0].jid)
        elif event.kind in (
            EventKind.RELEASE, EventKind.COMPLETION, EventKind.DEADLINE
        ):
            named.add(payload.jid)
    return named


def _named_in_image(snap):
    """Jids an image's encoded event queue names."""
    named = set()
    for _t, _k, _s, desc, _v in snap.events:
        if desc[0] in ("job", "alarm"):
            named.add(desc[1])
        elif desc[0] == "pjob":
            named.add(desc[2])
    return named


class _WatchedStore(TenantStore):
    """Checks every committed image against the live-image bound."""

    def __init__(self, *args, **kwargs):
        self.commits = []  # (accepted so far, payload bytes, image rows)
        self.shard = None
        super().__init__(*args, **kwargs)

    def write_snapshot(self, state, *, op_seq):
        snap = state["engine"]
        unfinished = {
            jid for jid, name in snap.status.items() if name not in _TERMINAL
        }
        rows = set(snap.status)
        assert rows <= unfinished | _named_in_image(snap)
        assert [job[0] for job in snap.jobs] == list(snap.status)
        # The image's trace is what the drain before it left: at most
        # the one segment that may still merge, no outcome, no value
        # point; lost work of live jobs only.
        assert all(len(segs) <= 1 for segs in snap.trace_segments)
        assert snap.trace_outcomes == {}
        assert snap.trace_completion_times == {}
        assert snap.trace_value_points == []
        assert set(snap.trace_lost_work) <= unfinished
        assert set(snap.completion_version) <= rows
        assert set(snap.alarm_version) <= rows
        intervals = snap.scheduler_state["policy"].get("intervals")
        assert not intervals
        assert len(rows) <= LIVE_BOUND
        self.commits.append(
            (self.shard.stats()["accepted"], len(pickle.dumps(state)),
             len(rows))
        )
        return super().write_snapshot(state, op_seq=op_seq)


def _watch_drains(shard, seen):
    """After every drain the kernel holds live state only."""
    kernel = shard.kernel
    inner = kernel.history_sink

    def sink(delta):
        inner(delta)
        table = kernel.table
        st = table.status
        unfinished = {
            job.jid
            for row, job in enumerate(table.jobs)
            if st[row] < _TERMINAL_MIN
        }
        jids = {job.jid for job in table.jobs}
        assert jids <= unfinished | _named(kernel._events.dump())
        assert set(kernel._by_id) == jids
        assert set(kernel._completion_version) <= jids
        assert set(kernel._alarm_version) <= jids
        for trace in kernel.traces:
            assert len(trace.segments) <= 1
        trace = kernel.trace
        assert not (trace.outcomes or trace.value_points)
        assert set(trace.lost_work) <= unfinished
        assert not getattr(kernel.scheduler, "_intervals", [])
        assert len(jids) <= LIVE_BOUND
        seen.append(len(jids))

    kernel.history_sink = sink


def _run(scheduler, n_submits):
    spec = TenantSpec(
        tenant="t0",
        horizon=1e9,
        scheduler=scheduler,
        capacity=CapacitySpec("constant", {"rate": 2.0}),
        queue_budget=8,
    )
    store = _WatchedStore(MemoryDirectory(), fsync=True)
    shard = TenantShard(spec, store=store)
    store.shard = shard
    drains = []
    _watch_drains(shard, drains)
    for msg in _decision_stream(n_submits=n_submits):
        shard.handle(msg)
    return spec, store, shard, drains


class TestLongLivedTenant:
    def test_edf_state_bounded_over_8000_submits(self):
        spec, store, shard, drains = _run("edf", 8000)
        stats = shard.stats()
        assert stats["accepted"] > 5000
        assert len(store.commits) > 300 and len(drains) > 300
        # Nothing grows with the accepted count: the second half of the
        # run keeps no more live rows than the bound, and the image
        # stays the size it had early on.
        early = [c for c in store.commits if c[0] <= 500]
        late_bytes = store.commits[-1][1]
        assert late_bytes <= 2 * early[-1][1]
        assert max(rows for _a, _b, rows in store.commits) <= LIVE_BOUND
        # History held once still adds back up to the whole run — the
        # scrape's running sums are the whole trace's sums, to the bit.
        report = shard.close()
        assert len(report.accepted) == stats["accepted"]
        live = shard.slo_view()["live"]
        assert live["executed_work"] == report.result.executed_work
        assert live["attained_value"] == report.result.value
        assert live["completions"] == report.result.n_completed
        check = replay_tenant(report)
        assert check.ok, check.failures

    def test_vdover_intervals_drain(self):
        spec, store, shard, drains = _run("vdover", 2500)
        assert len(store.commits) > 80
        report = shard.close()
        check = replay_tenant(report)
        assert check.ok, check.failures

    def test_cold_start_reads_history_once(self):
        """A cold start folds the history's decisions back (dedup,
        counters) and restores the live image; stats and the replay
        match the uncrashed run."""
        spec, store, shard, _drains = _run("edf", 1500)
        shard.persist_now()
        before = shard.stats()
        mem = store._dir
        mem.crash()  # power cut after the drain's commit
        revived = TenantShard(spec, store=TenantStore(mem, fsync=True),
                              resume=True)
        after = revived.stats()
        for key in ("submitted", "accepted", "shed", "accepted_crc",
                    "frontier"):
            assert after[key] == before[key], key
        assert revived.slo_view() == shard.slo_view()
        check = replay_tenant(revived.close())
        assert check.ok, check.failures
