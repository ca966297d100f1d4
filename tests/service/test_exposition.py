"""Live exposition: HTTP endpoints, wire metrics/health queries, and the
satellite guarantee — a scrape during a restart ladder never raises and
reports ``restarting`` instead of letting the tenant vanish."""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.errors import MessageError
from repro.obs.telemetry import lint_prometheus
from repro.service import (
    CapacitySpec,
    HealthQuery,
    InjectFault,
    MetricsQuery,
    RestartPolicy,
    ScheduleService,
    Submit,
    TelemetryExposition,
    TenantSpec,
)
from repro.sim.job import Job


def _spec(tenant="t0", **kw):
    base = dict(
        tenant=tenant,
        horizon=30.0,
        scheduler="edf",
        capacity=CapacitySpec("constant", {"rate": 1.0}),
        snapshot_every=4,
    )
    base.update(kw)
    return TenantSpec(**base)


def _job(jid, release):
    return Job(
        jid=jid,
        release=release,
        workload=1.0,
        deadline=release + 5.0,
        value=1.0,
    )


def _run(coro):
    return asyncio.run(coro)


async def _http_get(port, path, method="GET"):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(f"{method} {path} HTTP/1.0\r\n\r\n".encode())
    await writer.drain()
    raw = await reader.read()
    writer.close()
    await writer.wait_closed()
    head, _, body = raw.partition(b"\r\n\r\n")
    status = int(head.split()[1])
    return status, head.decode("latin-1"), body.decode("utf-8")


class TestEndpoints:
    def test_metrics_json_health_and_errors(self):
        async def run():
            service = ScheduleService([_spec("t0"), _spec("t1")])
            await service.start()
            await service.dispatch(Submit("t0", _job(1, 1.0)))
            expo = TelemetryExposition(service)
            await expo.start(port=0)
            port = expo.port

            prom = await _http_get(port, "/metrics")
            scrape = await _http_get(port, "/metrics.json")
            health = await _http_get(port, "/health")
            missing = await _http_get(port, "/nope")
            posted = await _http_get(port, "/metrics", method="POST")
            head = await _http_get(port, "/metrics", method="HEAD")

            await expo.stop()
            await service.close()
            return prom, scrape, health, missing, posted, head

        prom, scrape, health, missing, posted, head = _run(run())
        assert prom[0] == 200
        assert "version=0.0.4" in prom[1]
        assert lint_prometheus(prom[2]) == []
        assert 'repro_submitted_total{tenant="t0"} 1.0' in prom[2]

        assert scrape[0] == 200
        fleet = json.loads(scrape[2])["tenants"]
        assert set(fleet) == {"t0", "t1"}
        assert fleet["t0"]["stats"]["submitted"] == 1
        assert "metrics" in fleet["t0"]["stats"]
        assert list(fleet["t0"]["slo"]) == ["live"]

        assert health[0] == 200
        assert json.loads(health[2])["health"] == {"t0": "ok", "t1": "ok"}

        assert missing[0] == 404
        assert posted[0] == 405
        assert head[0] == 200 and head[2] == ""  # HEAD: headers only

    def test_stop_releases_the_port(self):
        async def run():
            service = ScheduleService([_spec()])
            await service.start()
            expo = TelemetryExposition(service)
            await expo.start(port=0)
            assert expo.port is not None
            await expo.stop()
            assert expo.port is None
            await service.close()

        _run(run())


class TestWireQueries:
    def test_metrics_and_health_messages(self):
        async def run():
            service = ScheduleService([_spec("t0"), _spec("t1")])
            await service.start()
            await service.dispatch(Submit("t1", _job(1, 1.0)))
            fleet = await service.dispatch(MetricsQuery("*"))
            one = await service.dispatch(MetricsQuery("t1"))
            states = await service.dispatch(HealthQuery("*"))
            single = await service.dispatch(HealthQuery("t0"))
            with pytest.raises(MessageError, match="unknown tenant"):
                await service.dispatch(MetricsQuery("ghost"))
            await service.close()
            return fleet, one, states, single

        fleet, one, states, single = _run(run())
        assert set(fleet["tenants"]) == {"t0", "t1"}
        assert one["tenant"] == "t1"
        assert one["stats"]["submitted"] == 1
        assert states["health"] == {"t0": "ok", "t1": "ok"}
        assert single == {"tenant": "t0", "health": "ok"}

    def test_scrapes_answer_while_draining(self):
        async def run():
            service = ScheduleService([_spec()])
            await service.start()
            await service.dispatch(Submit("t0", _job(1, 1.0)))
            await service.drain()
            fleet = await service.dispatch(MetricsQuery("*"))
            states = await service.dispatch(HealthQuery("*"))
            await service.close()
            return fleet, states

        fleet, states = _run(run())
        assert fleet["tenants"]["t0"]["stats"]["submitted"] == 1
        assert states["health"]["t0"] in ("ok", "degraded")


class TestScrapeDuringRestarts:
    def test_restarting_tenant_reported_not_vanished(self):
        # Long backoff pins the tenant mid restart ladder; every scrape
        # surface must keep answering and say "restarting".
        policy = RestartPolicy(backoff_base=0.25, backoff_cap=0.25)

        async def run():
            service = ScheduleService(
                [_spec("t0", snapshot_every=1), _spec("t1")],
                policy=policy,
            )
            await service.start()
            for jid in range(3):
                await service.dispatch(Submit("t0", _job(jid, 1.0 + jid)))
            expo = TelemetryExposition(service)
            await expo.start(port=0)
            port = expo.port

            crash = asyncio.ensure_future(
                service.dispatch(InjectFault("t0", "crash", time=5.0))
            )
            await asyncio.sleep(0.05)  # inside the 0.25 s backoff sleep

            seen = []
            wire = await service.dispatch(HealthQuery("*"))
            seen.append(wire["health"]["t0"])
            fleet = await service.dispatch(MetricsQuery("*"))
            assert "t0" in fleet["tenants"]  # never vanishes mid-ladder
            status, _, prom = await _http_get(port, "/metrics")
            assert status == 200
            status, _, health_body = await _http_get(port, "/health")
            assert status == 200
            seen.append(json.loads(health_body)["health"]["t0"])

            await crash
            after = await service.dispatch(HealthQuery("t0"))
            await expo.stop()
            await service.close()
            return seen, prom, after

        seen, prom, after = _run(run())
        assert seen == ["restarting", "restarting"]
        assert (
            'repro_tenant_health{tenant="t0",state="restarting"} 1' in prom
        )
        assert 'repro_tenant_health{tenant="t1",state="ok"} 1' in prom
        # Ladder finished: restarting clears into degraded (restarts > 0).
        assert after["health"] == "degraded"

    def test_concurrent_restarts_never_break_a_scrape(self):
        # Both tenants crash at once; a polling scraper hammering every
        # surface throughout must never see an exception or a missing
        # tenant, and must observe the restarting state at least once.
        policy = RestartPolicy(backoff_base=0.15, backoff_cap=0.15)

        async def run():
            service = ScheduleService(
                [_spec("t0", snapshot_every=1), _spec("t1", snapshot_every=1)],
                policy=policy,
            )
            await service.start()
            for tenant in ("t0", "t1"):
                for jid in range(3):
                    await service.dispatch(
                        Submit(tenant, _job(jid, 1.0 + jid))
                    )
            expo = TelemetryExposition(service)
            await expo.start(port=0)
            port = expo.port

            crashes = [
                asyncio.ensure_future(
                    service.dispatch(InjectFault(t, "crash", time=5.0))
                )
                for t in ("t0", "t1")
            ]
            observed = set()
            problems = []
            for _ in range(12):
                try:
                    fleet = await service.dispatch(MetricsQuery("*"))
                    if set(fleet["tenants"]) != {"t0", "t1"}:
                        problems.append("tenant vanished from wire scrape")
                    observed.update(
                        e["health"] for e in fleet["tenants"].values()
                    )
                    status, _, body = await _http_get(port, "/metrics")
                    if status != 200:
                        problems.append(f"HTTP scrape -> {status}")
                    elif lint_prometheus(body):
                        problems.append("HTTP scrape failed lint")
                except Exception as exc:  # noqa: BLE001 - the assertion
                    problems.append(f"scrape raised: {exc!r}")
                await asyncio.sleep(0.03)
            await asyncio.gather(*crashes)
            await expo.stop()
            await service.close()
            return observed, problems

        observed, problems = _run(run())
        assert problems == []
        assert "restarting" in observed
