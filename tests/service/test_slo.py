"""Per-tenant SLO telemetry at the shard layer: tracking, the scrape
view, durability through the store, drain/cold-start parity, the
version-1 payload converter, and strict-JSON scrapes."""

from __future__ import annotations

import asyncio
import json
import shutil
from pathlib import Path

from repro.obs.telemetry import SloTracker, slo_parity_view
from repro.service import (
    Advance,
    CapacitySpec,
    InjectFault,
    ScheduleService,
    ServiceIngress,
    Submit,
    TenantShard,
    TenantSpec,
)
from repro.service.exposition import TelemetryExposition
from repro.sim.job import Job
from repro.store.tenant import TenantStore


def _spec(tenant="t0", **kw):
    base = dict(
        tenant=tenant,
        horizon=40.0,
        scheduler="edf",
        capacity=CapacitySpec("constant", {"rate": 1.0}),
        queue_budget=6,
        snapshot_every=4,
    )
    base.update(kw)
    return TenantSpec(**base)


def _job(jid, release, workload=1.0, value=1.0):
    return Job(
        jid=jid,
        release=release,
        workload=workload,
        deadline=release + 5.0,
        value=value,
    )


def _drive(shard, n=10):
    from repro.errors import SimulatedCrash

    for i in range(n):
        shard.handle(Submit("t0", _job(i, release=1.0 + 0.2 * i), rid=f"r{i}"))
    shard.handle(InjectFault("t0", "kill", time=2.5, rid="f0"))
    try:
        shard.handle(InjectFault("t0", "crash", time=3.0, rid="c0"))
    except SimulatedCrash as crash:  # the supervisor's job, done inline
        shard.recover(crash)
    shard.handle(Advance("t0", 6.0))


def _store(tmp_path):
    return TenantStore(tmp_path / "t0", fsync=False)


class TestTrackingOn:
    def test_decision_counters_and_gauges(self, tmp_path):
        shard = TenantShard(_spec(), store=TenantStore(tmp_path / "t0"))
        _drive(shard)
        stats = shard.stats()
        doc = stats["metrics"]
        counters = doc["counters"]
        # every submit was decided: admitted + shed partition the stream
        assert counters["service.admitted"] == stats["accepted"]
        assert counters["service.shed"] == stats["shed"] > 0
        assert counters["service.shed.queue_budget"] == counters["service.shed"]
        assert counters["service.admitted"] + counters["service.shed"] == 10
        assert counters["service.injected.kill"] == 1
        assert counters["service.injected.crash"] == 1
        assert counters["service.recoveries"] == 1  # the forced crash recovered
        assert stats["forced_crashes"] == 1 and stats["recoveries"] == 1
        # one name per fact: nothing else is counted
        assert set(counters) == {
            "service.admitted",
            "service.shed",
            "service.shed.queue_budget",
            "service.injected.kill",
            "service.injected.crash",
            "service.recoveries",
        }
        depth = doc["gauges"]["service.depth"]
        assert depth["hwm"] >= depth["last"] >= 0
        assert doc["histograms"]["service.fsync_s"]["count"] > 0  # timed
        buckets = doc["windows"][SloTracker.WINDOW]["buckets"]
        assert buckets  # observations landed in the decision window
        assert sum(b.get("service.admitted", 0.0) for _, b in buckets) == (
            counters["service.admitted"]
        )
        shard.close()

    def test_duplicate_deliveries_counted(self, tmp_path):
        shard = TenantShard(_spec(), store=_store(tmp_path))
        shard.handle(Submit("t0", _job(1, release=1.0), rid="r1"))
        shard.handle(Advance("t0", 2.0))
        ack = shard.handle(Submit("t0", _job(1, release=1.0), rid="r1"))
        assert ack and ack.get("duplicate")
        counters = shard.stats()["metrics"]["counters"]
        assert counters["service.duplicates"] == 1
        assert counters["service.admitted"] == 1  # not re-counted
        shard.close()

    def test_slo_view_window_and_kernel_facts(self, tmp_path):
        shard = TenantShard(_spec(), store=_store(tmp_path))
        _drive(shard)
        shard.handle(Advance("t0", 39.0))  # let outcomes accumulate
        view = shard.slo_view()
        assert list(view) == ["live"]  # kernel facts only
        live = view["live"]
        assert live["completions"] >= 1
        assert live["attained_value"] > 0.0
        assert live["executed_work"] > 0.0
        assert (
            live["value_per_capacity"]
            == live["attained_value"] / live["executed_work"]
        )
        decided = live["completions"] + live["deadline_misses"]
        assert live["miss_rate"] == (
            live["deadline_misses"] / decided if decided else 0.0
        )
        window = live["window"]
        decisions = shard.stats()["metrics"]["windows"][SloTracker.WINDOW]
        assert window["width"] == decisions["width"]
        total = sum(
            b.get("completions", 0.0) for _, b in window["buckets"]
        )
        assert total == live["completions"]
        shard.close()

    def test_store_less_shard_counts_too(self):
        shard = TenantShard(_spec())
        _drive(shard)
        stats = shard.stats()
        assert stats["metrics"]["counters"]["service.admitted"] == stats[
            "accepted"
        ]
        assert stats["metrics"]["histograms"] == {}  # no store, no fsyncs
        shard.close()


class TestDurability:
    def test_slo_rides_the_snapshot_payload(self, tmp_path):
        """The metrics ride the (live) image; the decisions and their
        request ids ride the history it leaves out."""
        from repro.service.history import HistoryRecord

        shard = TenantShard(_spec(), store=_store(tmp_path))
        _drive(shard)
        shard.persist_now()
        store = _store(tmp_path)
        payload, _anchor = store.load_snapshot()
        records = [
            HistoryRecord.decode(data)
            for data in store.history_records(payload["history"])
        ]
        store.close()
        assert payload["version"] == 3
        assert not {
            "slo", "recoveries", "forced_crashes",
            "accepted", "shed", "injected", "dedup", "rid_jids",
        } & set(payload)
        assert payload["metrics"] == shard.stats()["metrics"]
        requests = {rid: jid for r in records for rid, _o, jid in r.requests}
        assert requests["r0"] == 0
        shard.close()

    def test_kill9_cold_start_slo_parity(self, tmp_path):
        # Abandon a live shard without closing (in-process kill -9): the
        # cold-started twin must agree with the victim's final registry
        # on the parity view — snapshot restore plus op-log refold, with
        # only recoveries/cold_starts/fsync legitimately differing.
        shard = TenantShard(_spec(), store=_store(tmp_path))
        _drive(shard)
        before = shard.stats()["metrics"]
        # shard deliberately NOT closed — its store state is the corpse

        revived = TenantShard(_spec(), store=_store(tmp_path), resume=True)
        after = revived.stats()["metrics"]
        assert slo_parity_view(after) == slo_parity_view(before)
        assert (
            after["counters"]["service.recoveries"]
            == before["counters"]["service.recoveries"] + 1
        )
        assert after["counters"]["service.cold_starts"] == 1
        revived.close()

    def test_parity_view_detects_a_genuinely_diverged_tracker(self):
        a = SloTracker(horizon=10.0)
        b = SloTracker(horizon=10.0)
        a.observe(1.0, "service.admitted")
        b.observe(1.0, "service.admitted")
        assert slo_parity_view(a.snapshot()) == slo_parity_view(b.snapshot())
        b.observe(2.0, "service.shed")
        assert slo_parity_view(a.snapshot()) != slo_parity_view(b.snapshot())

    def test_pre_telemetry_store_cold_starts_clean(self, tmp_path):
        # A version-1 store written with telemetry off (``slo: None``)
        # must resume.  Its decision history folded into the snapshot is
        # gone (only the op-log tail refolds), so decision counters start
        # at the resume point; the payload's recoveries/forced_crashes
        # seed their counters.
        _as_version_1(tmp_path, slo=None, recoveries=1, forced_crashes=1)

        revived = TenantShard(_spec(), store=_store(tmp_path), resume=True)
        stats = revived.stats()
        counters = stats["metrics"]["counters"]
        assert counters["service.cold_starts"] == 1
        assert "service.admitted" not in counters  # pre-snapshot history
        assert stats["recoveries"] == 2  # the payload's 1, plus this one
        assert stats["forced_crashes"] == 1
        revived.handle(Submit("t0", _job(50, release=8.0), rid="r50"))
        revived.handle(Advance("t0", 9.0))
        counters = revived.stats()["metrics"]["counters"]
        assert counters["service.admitted"] == 1
        revived.close()


#: parent_stores/slo_v2: this module's _spec() and _drive(), then a
#: drain, written by the code before history (version-2 payloads).
SLO_V2 = Path(__file__).parent / "parent_stores" / "slo_v2" / "t0"


def _as_version_1(tmp_path, *, slo, recoveries, forced_crashes):
    """Copy the version-2 store SLO_V2 and rewrite its newest snapshot
    into the version-1 payload layout (tracker doc under ``slo``, counts
    beside it)."""
    shutil.copytree(SLO_V2, tmp_path / "t0")
    store = _store(tmp_path)
    payload, anchor = store.load_snapshot()
    old = {k: v for k, v in payload.items() if k != "metrics"}
    old.update(
        version=1,
        slo=slo,
        recoveries=recoveries,
        forced_crashes=forced_crashes,
    )
    store.write_snapshot(old, op_seq=anchor)
    store.close()


#: A version-1 tracker document (horizon 40, 16 slots -> width 2.5).
_V1_SLO = {
    "schema": 1,
    "tenant": "t0",
    "counters": {
        "admitted": 7.0,
        "shed": 3.0,
        "shed.queue_budget": 3.0,
        "injected.kill": 1.0,
        "crashes": 2.0,
        "duplicates": 4.0,
        "recoveries": 3.0,
        "cold_starts": 1.0,
    },
    "ring": {
        "width": 2.5,
        "slots": 16,
        "dropped_buckets": 0,
        "buckets": [
            [0, {"admitted": 4.0}],
            [1, {"admitted": 3.0, "crashes": 2.0, "shed": 3.0,
                 "shed.queue_budget": 3.0, "injected.kill": 1.0}],
        ],
    },
    "depth": {"last": 2, "hwm": 5},
    "fsync": {"count": 3, "sum": 0.006, "min": 0.001, "max": 0.003},
}


class TestVersion1Payloads:
    def test_tracker_doc_converted_on_cold_start(self, tmp_path):
        _as_version_1(tmp_path, slo=_V1_SLO, recoveries=3, forced_crashes=2)

        revived = TenantShard(_spec(), store=_store(tmp_path), resume=True)
        stats = revived.stats()
        doc = stats["metrics"]
        assert doc["counters"] == {
            "service.admitted": 7,
            "service.shed": 3,
            "service.shed.queue_budget": 3,
            "service.injected.kill": 1,
            "service.injected.crash": 2,
            "service.duplicates": 4,
            "service.recoveries": 4,  # 3 persisted + this cold start
            "service.cold_starts": 2,
        }
        assert stats["recoveries"] == 4
        assert stats["forced_crashes"] == 2
        assert doc["gauges"]["service.depth"] == {"last": 2.0, "hwm": 5.0}
        assert doc["histograms"]["service.fsync_s"] == {
            "count": 3, "sum": 0.006, "min": 0.001, "max": 0.003,
        }
        window = doc["windows"][SloTracker.WINDOW]
        assert (window["width"], window["slots"]) == (2.5, 16)
        assert window["buckets"] == [
            [0, {"service.admitted": 4.0}],
            [1, {
                "service.admitted": 3.0,
                "service.injected.crash": 2.0,
                "service.injected.kill": 1.0,
                "service.shed": 3.0,
                "service.shed.queue_budget": 3.0,
            }],
        ]
        # Counting continues on the converted names; the next persist
        # writes version 3.
        revived.handle(Submit("t0", _job(60, release=8.0), rid="r60"))
        revived.handle(Advance("t0", 9.0))
        assert revived.stats()["metrics"]["counters"]["service.admitted"] == 8
        revived.persist_now()
        store = _store(tmp_path)
        payload, _ = store.load_snapshot()
        store.close()
        assert payload["version"] == 3
        assert payload["metrics"]["counters"]["service.admitted"] == 8
        revived.close()

    def test_payload_counts_win_over_a_stale_tracker(self, tmp_path):
        # A tracker restored from a tracker-less store undercounted
        # crashes and recoveries; the payload's own counts are the
        # authoritative ones.
        stale = dict(_V1_SLO, counters={"recoveries": 1.0, "crashes": 0.0})
        _as_version_1(tmp_path, slo=stale, recoveries=5, forced_crashes=3)

        revived = TenantShard(_spec(), store=_store(tmp_path), resume=True)
        stats = revived.stats()
        assert stats["recoveries"] == 6
        assert stats["forced_crashes"] == 3
        report = revived.close()
        assert (report.recoveries, report.forced_crashes) == (6, 3)


def _strict(doc):
    """JSON a strict parser accepts: no NaN or ±Infinity tokens."""
    return json.dumps(doc, allow_nan=False)


class TestStrictJson:
    def _check(self, service):
        async def run():
            await service.start()
            ingress = ServiceIngress(service)
            ack = await ingress.handle_line(
                json.dumps({"type": "stat", "tenant": "t0"})
            )
            status, _, body = TelemetryExposition(service).render(
                "/metrics.json"
            )
            drained = await service.drain()
            await service.close()
            return ack, status, body, drained

        ack, status, body, drained = asyncio.run(run())
        assert ack["ok"] is True
        _strict(ack)
        assert status == 200
        _strict(json.loads(body))
        _strict(drained)
        return ack

    def test_store_less_shard(self):
        ack = self._check(ScheduleService([_spec()]))
        assert ack["metrics"]["histograms"] == {}

    def test_store_backed_shard_before_its_first_fsync(self, tmp_path):
        ack = self._check(
            ScheduleService([_spec()], store_dir=tmp_path, store_fsync=True)
        )
        fsync = ack["metrics"]["histograms"]["service.fsync_s"]
        assert fsync == {"count": 0, "sum": 0.0, "min": None, "max": None}
