"""Ingress adapter tests: line handling, error acks, TCP round-trip."""

from __future__ import annotations

import asyncio
import json

from repro.service import (
    CapacitySpec,
    InjectFault,
    ScheduleService,
    ServiceIngress,
    Submit,
    TenantSpec,
    encode_message,
)
from repro.service.ingress import MAX_LINE_BYTES
from repro.sim.job import Job


def _spec(tenant="t0"):
    return TenantSpec(
        tenant=tenant,
        horizon=20.0,
        scheduler="edf",
        capacity=CapacitySpec("constant", {"rate": 1.0}),
        snapshot_every=4,
    )


def _submit_line(tenant, jid, release):
    return encode_message(
        Submit(
            tenant,
            Job(
                jid=jid,
                release=release,
                workload=1.0,
                deadline=release + 4.0,
                value=1.0,
            ),
        )
    )


def _run(coro):
    return asyncio.run(coro)


class TestHandleLine:
    def test_good_bad_and_blank_lines(self):
        async def run():
            service = ScheduleService([_spec()])
            await service.start()
            ingress = ServiceIngress(service)
            ok = await ingress.handle_line(_submit_line("t0", 1, 2.0))
            bad = await ingress.handle_line("this is not json")
            unknown = await ingress.handle_line(
                json.dumps({"type": "advance", "tenant": "ghost", "time": 1})
            )
            blank = await ingress.handle_line("   \n")
            await service.close()
            return ok, bad, unknown, blank, ingress

        ok, bad, unknown, blank, ingress = _run(run())
        # Submits without a client request_id get an ingress-minted one,
        # echoed so the client can `repro obs trace` it later.
        assert ok == {"ok": True, "request_id": "ing-1"}
        assert bad["ok"] is False and "undecodable" in bad["error"]
        assert unknown["ok"] is False and "unknown tenant" in unknown["error"]
        assert blank == {"ok": True, "noop": True}
        assert ingress.accepted_lines == 1
        assert ingress.rejected_lines == 2

    def test_close_ack_carries_counts(self):
        async def run():
            service = ScheduleService([_spec()])
            await service.start()
            ingress = ServiceIngress(service)
            await ingress.handle_line(_submit_line("t0", 1, 2.0))
            ack = await ingress.handle_line(
                json.dumps({"type": "close", "tenant": "t0"})
            )
            await service.close()
            return ack

        ack = _run(run())
        assert ack["ok"] is True
        assert ack["closed"] == "t0"
        assert ack["accepted"] == 1
        assert ack["shed"] == 0

    def test_run_lines_preserves_order(self):
        async def run():
            service = ScheduleService([_spec()])
            await service.start()
            ingress = ServiceIngress(service)
            lines = [_submit_line("t0", i + 1, 1.0 + i) for i in range(5)]
            lines.insert(2, "garbage")
            acks = await ingress.run_lines(lines)
            reports = await service.close()
            return acks, reports["t0"]

        acks, report = _run(run())
        assert [a["ok"] for a in acks] == [True, True, False, True, True, True]
        assert len(report.accepted) == 5
        assert report.lost_jids == ()


class TestClosedTenant:
    def test_messages_after_close_are_refused(self):
        """A closed tenant refuses submits and faults with an error ack;
        it neither counts them nor trips its breaker, and ``stat`` and
        ``close`` still answer."""

        async def run():
            service = ScheduleService([_spec()])
            await service.start()
            ingress = ServiceIngress(service)
            close = json.dumps({"type": "close", "tenant": "t0"})
            lines = [
                _submit_line("t0", 1, 2.0),
                close,
                _submit_line("t0", 2, 3.0),
                _submit_line("t0", 3, 4.0),
                encode_message(InjectFault("t0", "kill", 5.0)),
                json.dumps({"type": "stat", "tenant": "t0"}),
                json.dumps({"type": "health", "tenant": "t0"}),
                close,
            ]
            acks = await ingress.run_lines(lines)
            reports = await service.close()
            return acks, reports["t0"], ingress

        acks, report, ingress = _run(run())
        oks = [True, True, False, False, False, True, True, True]
        assert [a["ok"] for a in acks] == oks
        assert all("closed" in a["error"] for a in acks[2:5])
        stat, health, again = acks[5:]
        assert (stat["submitted"], stat["accepted"], stat["shed"]) == (1, 1, 0)
        assert health["health"] == "ok"
        assert again["closed"] == "t0" and again["accepted"] == 1
        assert len(report.injected) == 0
        assert ingress.rejected_lines == 3


class TestTcp:
    def test_tcp_round_trip(self):
        async def run():
            service = ScheduleService([_spec()])
            await service.start()
            ingress = ServiceIngress(service)
            server = await ingress.serve_tcp("127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]

            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            payloads = [
                _submit_line("t0", 1, 2.0),
                "broken line",
                _submit_line("t0", 2, 3.0),
                json.dumps({"type": "close", "tenant": "t0"}),
            ]
            acks = []
            for payload in payloads:
                writer.write((payload + "\n").encode())
                await writer.drain()
                acks.append(json.loads(await reader.readline()))
            writer.close()
            await writer.wait_closed()
            await ingress.stop_tcp()
            reports = await service.close()
            return acks, reports["t0"]

        acks, report = _run(run())
        assert [a["ok"] for a in acks] == [True, False, True, True]
        assert acks[-1]["closed"] == "t0"
        assert acks[-1]["accepted"] == 2
        assert len(report.accepted) == 2
        assert report.lost_jids == ()


class TestNonFiniteLines:
    def test_rejected_with_an_ack_and_the_frontier_holds(self):
        """Each poisoned line gets an ``ok: false`` ack; none moves the
        tenant's dispatch frontier, and a later submit is still decided."""
        bad = [
            '{"type": "advance", "tenant": "t0", "time": NaN}',
            '{"type": "submit", "tenant": "t0", "job": {"jid": 5, '
            '"release": NaN, "workload": 1, "deadline": 9, "value": 1}}',
            '{"type": "submit", "tenant": "t0", "job": {"jid": 6, '
            '"release": 3, "workload": NaN, "deadline": 9, "value": 1}}',
            '{"type": "submit", "tenant": "t0", "job": {"jid": Infinity, '
            '"release": 3, "workload": 1, "deadline": 9, "value": 1}}',
        ]

        async def run():
            service = ScheduleService([_spec()])
            await service.start()
            ingress = ServiceIngress(service)
            await ingress.handle_line(_submit_line("t0", 1, 2.0))
            stat = json.dumps({"type": "stat", "tenant": "t0"})
            before = await ingress.handle_line(stat)
            acks = [await ingress.handle_line(line) for line in bad]
            after = await ingress.handle_line(stat)
            await ingress.handle_line(_submit_line("t0", 2, 4.0))
            await ingress.handle_line(
                json.dumps({"type": "advance", "tenant": "t0", "time": 5.0})
            )
            reports = await service.close()
            return before, acks, after, reports["t0"]

        before, acks, after, report = _run(run())
        assert [a["ok"] for a in acks] == [False] * len(bad)
        assert all("must be finite" in a["error"] for a in acks)
        assert after["frontier"] == before["frontier"] < 2.0
        assert after["submitted"] == before["submitted"] == 1
        assert [job.jid for job in report.accepted] == [1, 2]
        assert report.lost_jids == ()


class TestOversizedLines:
    def test_acked_counted_and_the_connection_keeps_reading(self):
        """A line past the listener's limit gets an error ack — whether
        its newline is already buffered or still arriving — and the
        next line on the same connection is served."""

        async def run():
            service = ScheduleService([_spec()])
            await service.start()
            ingress = ServiceIngress(service)
            server = await ingress.serve_tcp("127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            stat = json.dumps({"type": "stat", "tenant": "t0"})
            acks = []
            for size in (MAX_LINE_BYTES + 10, 5 * MAX_LINE_BYTES):
                writer.write(b"x" * size + b"\n" + stat.encode() + b"\n")
                await writer.drain()
                acks.append(json.loads(await reader.readline()))
                acks.append(json.loads(await reader.readline()))
            writer.write(_submit_line("t0", 1, 2.0).encode() + b"\n")
            await writer.drain()
            acks.append(json.loads(await reader.readline()))
            writer.close()
            await writer.wait_closed()
            await ingress.stop_tcp()
            await service.close()
            return acks, ingress

        acks, ingress = _run(run())
        assert [a["ok"] for a in acks] == [False, True, False, True, True]
        assert f"longer than {MAX_LINE_BYTES} bytes" in acks[0]["error"]
        assert acks[1]["tenant"] == "t0"
        assert ingress.rejected_lines == 2
