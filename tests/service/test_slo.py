"""Per-tenant SLO telemetry at the shard layer: tracking, the scrape
view, durability through the store, and drain/cold-start parity."""

from __future__ import annotations

from repro.obs.telemetry import SloTracker, slo_parity_view
from repro.service import (
    Advance,
    CapacitySpec,
    InjectFault,
    Submit,
    TenantShard,
    TenantSpec,
)
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


class TestTrackingOff:
    def test_stats_omit_slo_and_view_still_lives(self, tmp_path):
        shard = TenantShard(
            _spec(), store=TenantStore(tmp_path / "t0", fsync=False)
        )
        _drive(shard)
        assert "slo" not in shard.stats()
        view = shard.slo_view()
        assert "counters" not in view
        live = view["live"]
        assert live["frontier"] > 0.0
        assert live["depth"] == shard.depth
        assert "window" not in live
        shard.close()


class TestTrackingOn:
    def test_decision_counters_and_gauges(self, tmp_path):
        shard = TenantShard(
            _spec(),
            store=TenantStore(tmp_path / "t0", fsync=False),
            telemetry=True,
        )
        _drive(shard)
        stats = shard.stats()
        doc = stats["slo"]
        counters = doc["counters"]
        # every submit was decided: admitted + shed partition the stream
        assert counters["admitted"] == stats["accepted"]
        assert counters["shed"] == stats["shed"] > 0
        assert counters["shed.queue_budget"] == counters["shed"]
        assert counters["admitted"] + counters["shed"] == 10.0
        assert counters["injected.kill"] == 1.0
        assert counters["crashes"] == 1.0
        assert counters["recoveries"] == 1.0  # the forced crash recovered
        assert doc["depth"]["hwm"] >= doc["depth"]["last"] >= 0
        assert doc["fsync"]["count"] > 0  # op-log appends were timed
        assert doc["ring"]["buckets"]  # observations landed in the window
        shard.close()

    def test_duplicate_deliveries_counted(self, tmp_path):
        shard = TenantShard(
            _spec(),
            store=TenantStore(tmp_path / "t0", fsync=False),
            telemetry=True,
        )
        shard.handle(Submit("t0", _job(1, release=1.0), rid="r1"))
        shard.handle(Advance("t0", 2.0))
        ack = shard.handle(Submit("t0", _job(1, release=1.0), rid="r1"))
        assert ack and ack.get("duplicate")
        assert shard.stats()["slo"]["counters"]["duplicates"] == 1.0
        shard.close()

    def test_slo_view_window_and_kernel_facts(self, tmp_path):
        shard = TenantShard(
            _spec(),
            store=TenantStore(tmp_path / "t0", fsync=False),
            telemetry=True,
        )
        _drive(shard)
        shard.handle(Advance("t0", 39.0))  # let outcomes accumulate
        view = shard.slo_view()
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
        assert window["width"] == view["ring"]["width"]
        total = sum(
            b.get("completions", 0.0) for _, b in window["buckets"]
        )
        assert total == live["completions"]
        shard.close()


class TestDurability:
    def test_slo_rides_the_snapshot_payload(self, tmp_path):
        shard = TenantShard(
            _spec(),
            store=TenantStore(tmp_path / "t0", fsync=False),
            telemetry=True,
        )
        _drive(shard)
        shard.persist_now()
        store = TenantStore(tmp_path / "t0", fsync=False)
        payload, _anchor = store.load_snapshot()
        store.close()
        assert payload["slo"]["counters"]["admitted"] == shard.stats()["accepted"]
        assert "r0" in payload["rid_jids"]
        shard.close()

    def test_kill9_cold_start_slo_parity(self, tmp_path):
        # Abandon a live shard without closing (in-process kill -9): the
        # cold-started twin must agree with the victim's final tracker
        # on the parity view — snapshot restore plus op-log refold, with
        # only recoveries/cold_starts/fsync legitimately differing.
        shard = TenantShard(
            _spec(),
            store=TenantStore(tmp_path / "t0", fsync=False),
            telemetry=True,
        )
        _drive(shard)
        before = shard.stats()["slo"]
        # shard deliberately NOT closed — its store state is the corpse

        revived = TenantShard(
            _spec(),
            store=TenantStore(tmp_path / "t0", fsync=False),
            resume=True,
            telemetry=True,
        )
        after = revived.stats()["slo"]
        assert slo_parity_view(after) == slo_parity_view(before)
        assert (
            after["counters"]["recoveries"]
            == before["counters"]["recoveries"] + 1
        )
        assert after["counters"]["cold_starts"] == 1.0
        revived.close()

    def test_parity_view_detects_a_genuinely_diverged_tracker(self):
        a = SloTracker("t0", horizon=10.0)
        b = SloTracker("t0", horizon=10.0)
        a.observe(1.0, "admitted")
        b.observe(1.0, "admitted")
        assert slo_parity_view(a.snapshot()) == slo_parity_view(b.snapshot())
        b.observe(2.0, "shed")
        assert slo_parity_view(a.snapshot()) != slo_parity_view(b.snapshot())

    def test_pre_telemetry_store_cold_starts_clean(self, tmp_path):
        # A store written with telemetry off (no "slo" payload key) must
        # resume into a telemetry-on shard.  History folded into the
        # snapshot is gone (only the op-log tail refolds), so the tracker
        # starts fresh at the resume point and counts from there.
        shard = TenantShard(
            _spec(), store=TenantStore(tmp_path / "t0", fsync=False)
        )
        _drive(shard)
        shard.persist_now()

        revived = TenantShard(
            _spec(),
            store=TenantStore(tmp_path / "t0", fsync=False),
            resume=True,
            telemetry=True,
        )
        doc = revived.stats()["slo"]
        assert doc["counters"]["cold_starts"] == 1.0
        assert "admitted" not in doc["counters"]  # pre-snapshot history
        revived.handle(Submit("t0", _job(50, release=8.0), rid="r50"))
        revived.handle(Advance("t0", 9.0))
        assert revived.stats()["slo"]["counters"]["admitted"] == 1.0
        revived.close()
