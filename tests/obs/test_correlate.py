"""Request-scoped trace correlation (`repro obs trace`): store + trace
reconstruction, including across a simulated kill -9 cold start."""

from __future__ import annotations

import pytest

from repro.errors import ObservabilityError
from repro.obs.correlate import correlate_request, render_request_trace
from repro.service import CapacitySpec, InjectFault, Submit, TenantShard, TenantSpec
from repro.sim.job import Job
from repro.store.tenant import TenantStore


def _spec(tenant="t0", **kw):
    base = dict(
        tenant=tenant,
        horizon=40.0,
        scheduler="edf",
        capacity=CapacitySpec("constant", {"rate": 1.0}),
        queue_budget=4,
        snapshot_every=4,
    )
    base.update(kw)
    return TenantSpec(**base)


def _job(jid, release, workload=1.0, value=1.0):
    return Job(
        jid=jid,
        release=release,
        workload=workload,
        deadline=release + 6.0,
        value=value,
    )


def _populate(store_dir):
    """Drive a shard with rid-tagged traffic, overflowing the queue so at
    least one submit is shed; flush state to disk and return the shard."""
    shard = TenantShard(
        _spec(), store=TenantStore(store_dir / "t0", fsync=False)
    )
    for i in range(8):
        shard.handle(Submit("t0", _job(i, release=1.0 + 0.1 * i), rid=f"r{i}"))
    shard.handle(InjectFault("t0", "kill", time=2.0, rid="f0"))
    shard.persist_now()
    return shard


class TestStoreCorrelation:
    def test_requires_a_source(self):
        with pytest.raises(ObservabilityError):
            correlate_request("r0")

    def test_unknown_rid_not_found(self, tmp_path):
        shard = _populate(tmp_path)
        shard.close()
        result = correlate_request("nope", store_dir=tmp_path)
        assert result["found"] is False
        assert "not found" in render_request_trace(result)

    def test_admitted_request_resolves_to_jid_and_journal(self, tmp_path):
        shard = _populate(tmp_path)
        shard.close()  # runs the kernel to the horizon -> WAL has outcomes
        result = correlate_request("r0", store_dir=tmp_path)
        assert result["found"] is True
        assert result["tenant"] == "t0"
        assert result["jid"] == 0
        assert result["outcome"] == "accepted"
        stage_kinds = {s["stage"] for s in result["stages"]}
        assert "admission" in stage_kinds
        assert "journal" in stage_kinds  # dispatch records via the replay
        text = render_request_trace(result)
        assert "request 'r0'" in text and "[journal]" in text
        assert "source=replay" in text

    def test_refused_cold_start_reaches_the_result(self, tmp_path):
        store = TenantStore(tmp_path / "t0", fsync=False)
        shard = TenantShard(_spec(snapshot_every=10_000), store=store)
        for i in range(3):  # each later release flushes the group before
            shard.handle(Submit("t0", _job(i, release=1.0 + i), rid=f"r{i}"))
        store.close()
        # Rot r1's acked admit: the op log quarantines it.
        (segment,) = (tmp_path / "t0" / "oplog").glob("*.seg")
        data = bytearray(segment.read_bytes())
        data[data.index(b'"rid": "r1"') + 10] ^= 0x01
        segment.write_bytes(bytes(data))
        result = correlate_request("r0", store_dir=tmp_path)
        assert result["outcome"] == "accepted" and result["jid"] == 0
        (stage,) = [s for s in result["stages"] if s["stage"] == "journal"]
        assert "quarantined as corrupt" in stage["error"]
        assert "[journal] error=" in render_request_trace(result)

    def test_shed_request_reports_reason(self, tmp_path):
        shard = _populate(tmp_path)
        shard.close()
        # queue_budget=4 -> the later submits were shed
        result = correlate_request("r7", store_dir=tmp_path)
        assert result["found"] is True
        assert result["outcome"] == "shed"
        sheds = [s for s in result["stages"] if s["stage"] == "admission"]
        assert sheds and sheds[0]["op"] == "shed"

    def test_fault_request_found(self, tmp_path):
        shard = _populate(tmp_path)
        shard.close()
        result = correlate_request("f0", store_dir=tmp_path)
        assert result["found"] is True
        assert result["outcome"] == "injected"

    def test_survives_cold_start(self, tmp_path):
        # Abandon the live shard without closing (the in-process stand-in
        # for kill -9), cold-start a new one, keep working, and correlate
        # from disk: the rid must still resolve through the restart.
        _populate(tmp_path)  # not closed: snapshot + op log are on disk
        revived = TenantShard(
            _spec(), store=TenantStore(tmp_path / "t0", fsync=False),
            resume=True,
        )
        revived.handle(Submit("t0", _job(20, release=9.0), rid="late"))
        revived.persist_now()
        revived.close()

        early = correlate_request("r1", store_dir=tmp_path)
        assert early["found"] is True and early["jid"] == 1
        assert early["recoveries"] == 1
        late = correlate_request("late", store_dir=tmp_path)
        assert late["found"] is True and late["jid"] == 20
        assert "survived 1 recovery" in render_request_trace(early)

    def test_tenant_filter(self, tmp_path):
        shard = _populate(tmp_path)
        shard.close()
        assert correlate_request("r0", store_dir=tmp_path, tenant="ghost")[
            "found"
        ] is False
        assert correlate_request("r0", store_dir=tmp_path, tenant="t0")[
            "found"
        ] is True


class TestTraceCorrelation:
    def test_lifecycle_events_join_the_path(self, tmp_path):
        # A lifecycle trace (service.request events carry the rid) can be
        # the sole source, or enrich the store view.
        trace = {
            "events": [
                {
                    "kind": "service.request",
                    "t": 1.0,
                    "data": {"rid": "r0", "tenant": "t0", "outcome": "accepted"},
                },
                {"kind": "job.release", "t": 1.0, "data": {"jid": 0}},
                {"kind": "other", "t": 2.0, "data": {"rid": "zzz"}},
            ]
        }
        result = correlate_request("r0", trace=trace)
        assert result["found"] is True
        assert result["outcome"] == "accepted"
        assert all(s["stage"] == "trace" for s in result["stages"])

        shard = _populate(tmp_path)
        shard.close()
        both = correlate_request("r0", store_dir=tmp_path, trace=trace)
        kinds = {s["stage"] for s in both["stages"]}
        assert {"trace", "admission", "journal"} <= kinds
        # jid resolved from the store pulls job.* replay events in too
        assert any(
            s.get("kind") == "job.release" and s["stage"] == "trace"
            for s in both["stages"]
        )
