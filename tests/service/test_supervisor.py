"""Supervision tests: restart ladder, backoff, circuit breaker,
livelock handling and multi-tenant isolation."""

from __future__ import annotations

import asyncio

import pytest

from repro.errors import MessageError, SimulatedCrash
from repro.service import (
    Advance,
    CapacitySpec,
    Close,
    InjectFault,
    RestartPolicy,
    ScheduleService,
    Submit,
    TenantSpec,
    replay_tenant,
)
from repro.sim.job import Job


def _spec(tenant="t0", **kw):
    base = dict(
        tenant=tenant,
        horizon=30.0,
        scheduler="vdover",
        capacity=CapacitySpec("constant", {"rate": 1.0}),
        queue_budget=64,
        snapshot_every=4,
    )
    base.update(kw)
    return TenantSpec(**base)


def _submit(tenant, jid, release, value=1.0):
    return Submit(
        tenant,
        Job(
            jid=jid,
            release=release,
            workload=1.0,
            deadline=release + 5.0,
            value=value,
        ),
    )


def _run(coro):
    return asyncio.run(coro)


class TestRestartPolicy:
    def test_backoff_grows_and_caps(self):
        policy = RestartPolicy(
            backoff_base=0.1, backoff_factor=2.0, backoff_cap=0.5
        )
        assert [policy.delay(i) for i in (1, 2, 3, 4, 5)] == [
            0.1,
            0.2,
            0.4,
            0.5,
            0.5,
        ]


class TestServiceBasics:
    def test_needs_specs_and_unique_tenants(self):
        from repro.errors import ServiceError

        with pytest.raises(ServiceError, match="at least one"):
            ScheduleService([])
        with pytest.raises(ServiceError, match="duplicate"):
            ScheduleService([_spec("a"), _spec("a")])

    def test_unknown_tenant_rejected(self):
        async def run():
            service = ScheduleService([_spec("a")])
            await service.start()
            with pytest.raises(MessageError, match="unknown tenant"):
                await service.dispatch(Advance("nobody", 1.0))
            await service.close()

        _run(run())

    def test_close_is_idempotent_per_tenant(self):
        async def run():
            service = ScheduleService([_spec("a")])
            await service.start()
            report = await service.dispatch(Close("a"))
            assert report is not None
            reports = await service.close()
            assert reports["a"].result is not None

        _run(run())


class TestForcedCrashLadder:
    def test_forced_crash_recovers_with_backoff(self):
        policy = RestartPolicy(backoff_base=0.001, backoff_cap=0.004)

        async def run():
            service = ScheduleService([_spec()], policy=policy)
            await service.start()
            for i in range(6):
                await service.dispatch(_submit("t0", i + 1, 1.0 + 2.0 * i))
            await service.dispatch(InjectFault("t0", "crash", 8.0))
            await service.dispatch(InjectFault("t0", "crash", 14.0))
            reports = await service.close()
            return reports["t0"]

        report = _run(run())
        assert report.forced_crashes == 2
        assert report.recoveries == 2
        assert report.restarts == 2
        assert all(b <= policy.backoff_cap for b in report.backoffs)
        assert report.lost_jids == ()
        assert replay_tenant(report).ok

    def test_repeated_crashes_at_same_instant_allowed(self):
        """Forced crashes are operator actions — two landing at the same
        kernel position must not be mistaken for a recovery livelock."""

        async def run():
            service = ScheduleService(
                [_spec()], policy=RestartPolicy(backoff_base=0.0)
            )
            await service.start()
            await service.dispatch(_submit("t0", 1, 1.0))
            await service.dispatch(InjectFault("t0", "crash", 5.0))
            await service.dispatch(InjectFault("t0", "crash", 5.0))
            reports = await service.close()
            return reports["t0"], service.supervisor("t0")

        report, supervisor = _run(run())
        assert not supervisor.breaker_open
        assert report.recoveries == 2
        assert replay_tenant(report).ok


class TestCircuitBreaker:
    def _crashy_service(self, max_restarts):
        """A service whose shard crashes on every Advance (monkeyless:
        we drive the real shard but swap its handle with a crasher)."""
        service = ScheduleService(
            [_spec()],
            policy=RestartPolicy(backoff_base=0.0, max_restarts=max_restarts),
        )
        return service

    def test_restart_budget_exhaustion_trips_breaker(self):
        async def run():
            service = self._crashy_service(max_restarts=2)
            await service.start()
            supervisor = service.supervisor("t0")
            shard = supervisor.shard

            real_handle = shard.handle
            crashes = {"n": 0}

            def crashing_handle(message):
                if isinstance(message, Advance):
                    crashes["n"] += 1
                    raise SimulatedCrash(
                        time=float(crashes["n"]),  # advancing position:
                        at_event=crashes["n"],  # the livelock detector
                        fault_index=0,  # must NOT fire first
                        snapshot=shard.kernel.last_snapshot,
                    )
                return real_handle(message)

            shard.handle = crashing_handle
            await service.dispatch(_submit("t0", 1, 1.0))
            result = await service.dispatch(Advance("t0", 5.0))
            assert result is None  # swallowed by the breaker, not raised
            assert supervisor.breaker_open
            assert "budget exhausted" in supervisor.breaker_reason
            # Subsequent submissions shed deterministically, service alive.
            await service.dispatch(_submit("t0", 2, 6.0))
            shard.handle = real_handle
            reports = await service.close()
            return reports["t0"], crashes["n"]

        report, crashes = _run(run())
        assert crashes == 3  # initial + 2 allowed restarts
        assert report.restarts == 2
        shed_reasons = [r.reason for r in report.shed]
        assert "circuit_open" in shed_reasons

    def test_livelocked_crash_trips_breaker_early(self):
        async def run():
            service = self._crashy_service(max_restarts=50)
            await service.start()
            supervisor = service.supervisor("t0")
            shard = supervisor.shard
            real_handle = shard.handle
            crashes = {"n": 0}

            def stuck_handle(message):
                if isinstance(message, Advance):
                    crashes["n"] += 1
                    raise SimulatedCrash(  # same position every time
                        time=3.0,
                        at_event=7,
                        fault_index=0,
                        snapshot=shard.kernel.last_snapshot,
                    )
                return real_handle(message)

            shard.handle = stuck_handle
            await service.dispatch(Advance("t0", 5.0))
            assert supervisor.breaker_open
            assert "livelock" in supervisor.breaker_reason
            shard.handle = real_handle
            await service.close()
            return crashes["n"]

        # Two crashes observed — not 51: the detector cut the loop.
        assert _run(run()) == 2

    def test_breaker_isolates_tenants(self):
        async def run():
            service = ScheduleService(
                [_spec("sick"), _spec("healthy")],
                policy=RestartPolicy(backoff_base=0.0, max_restarts=0),
            )
            await service.start()
            sick = service.supervisor("sick").shard

            def dead_handle(message):
                raise SimulatedCrash(
                    time=1.0, snapshot=sick.kernel.last_snapshot
                )

            sick.handle = dead_handle
            await service.dispatch(Advance("sick", 2.0))
            assert service.supervisor("sick").breaker_open
            # The healthy tenant keeps accepting and completing work.
            for i in range(4):
                await service.dispatch(_submit("healthy", i + 1, 1.0 + i))
            reports = await service.close()
            return reports

        reports = _run(run())
        assert reports["healthy"].lost_jids == ()
        assert len(reports["healthy"].accepted) == 4
        assert replay_tenant(reports["healthy"]).ok
