"""Ingress adapters: JSON lines in, acks out.

The service's wire surface is deliberately thin: one JSON object per
line (:mod:`repro.service.messages`), answered by one JSON ack per line
— ``{"ok": true, ...}`` or ``{"ok": false, "error": "..."}``.  Two
adapters feed the same :meth:`ServiceIngress.handle_line` path:

* :meth:`serve_tcp` — an asyncio TCP server (one connection per client,
  lines processed in arrival order per connection);
* :meth:`run_lines` — an in-process driver for an iterable of lines
  (the soak harness uses it).

Malformed lines never kill the service: they produce an error ack and a
``service.rejected`` count — a TCP line longer than
:data:`MAX_LINE_BYTES` included, whose rest is read and dropped so the
connection keeps going.  While the service drains (SIGTERM),
submits and fault injections ack ``{"ok": false, "draining": true}`` —
clients hold the line and resubmit it (same ``request_id``) to the
restarted service.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import replace as _replace
from typing import AsyncIterator, Dict, Iterable, List, Optional

from repro import obs as _obs
from repro.errors import CircuitOpenError, DrainingError, MessageError
from repro.service.messages import InjectFault, Submit, parse_message
from repro.service.shard import TenantReport
from repro.service.supervisor import ScheduleService

__all__ = ["MAX_LINE_BYTES", "ServiceIngress", "read_line"]

#: Longest wire line the TCP listener reads (asyncio's stream limit).
MAX_LINE_BYTES = 64 * 1024


async def read_line(reader: asyncio.StreamReader) -> Optional[bytes]:
    """Read one line (``b""`` at EOF).  A line that overruns the
    reader's limit is read through its newline and dropped, keeping the
    stream in step, and ``None`` is returned in its place."""
    overrun = False
    while True:
        try:
            line = await reader.readuntil(b"\n")
        except asyncio.IncompleteReadError as exc:
            line = exc.partial
        except asyncio.LimitOverrunError as exc:
            await reader.readexactly(exc.consumed)
            overrun = True
            continue
        return None if overrun else line


class ServiceIngress:
    """Validate, route and ack JSON-line traffic for a running service.

    With ``verify_on_close`` every ``close`` ack embeds the replay-parity
    verdict (:func:`repro.service.replay.replay_tenant`): ``parity`` is
    true iff the closed-horizon replay reproduced the tenant's journal
    and result bit-identically — the kill -9 soak's acceptance gate."""

    def __init__(
        self, service: ScheduleService, *, verify_on_close: bool = False
    ) -> None:
        self.service = service
        self.verify_on_close = bool(verify_on_close)
        self.accepted_lines = 0
        self.rejected_lines = 0
        self._server: "asyncio.AbstractServer | None" = None
        # Request-id minting: submits/faults arriving without a client
        # request_id get an ingress-scoped one (``ing-N``) so every
        # decision is correlatable (`repro obs trace`).  The prefix keeps
        # minted ids out of any client id namespace.
        self._minted = 0

    # ------------------------------------------------------------------
    async def handle_line(self, line: "str | bytes") -> Dict:
        """Process one wire line; always returns an ack dict."""
        if isinstance(line, bytes):
            line = line.decode("utf-8", errors="replace")
        line = line.strip()
        if not line:
            return {"ok": True, "noop": True}
        try:
            message = parse_message(line)
            if isinstance(message, (Submit, InjectFault)):
                if message.rid is None:
                    self._minted += 1
                    message = _replace(message, rid=f"ing-{self._minted}")
                octx = _obs.current()
                if octx is not None:
                    when = (
                        message.job.release
                        if isinstance(message, Submit)
                        else message.time
                    )
                    octx.emit(
                        "service.ingress",
                        when,
                        {
                            "rid": message.rid,
                            "tenant": message.tenant,
                            "type": (
                                "submit"
                                if isinstance(message, Submit)
                                else "fault"
                            ),
                        },
                        replay=False,
                    )
            result = await self.service.dispatch(message)
        except DrainingError as exc:
            self.rejected_lines += 1
            return {"ok": False, "error": str(exc), "draining": True}
        except (MessageError, CircuitOpenError) as exc:
            return self._reject(str(exc))
        self.accepted_lines += 1
        ack: Dict = {"ok": True}
        if isinstance(message, (Submit, InjectFault)):
            # Echo the (possibly minted) correlation id — the handle a
            # client passes to `repro obs trace <request_id>`.
            ack["request_id"] = message.rid
        if isinstance(result, TenantReport):  # a Close returns the report
            ack["closed"] = result.tenant
            ack["accepted"] = len(result.accepted)
            ack["shed"] = len(result.shed)
            ack["submitted"] = result.submitted
            ack["recoveries"] = result.recoveries
            if self.verify_on_close:
                ack.update(self._verify(result))
        elif isinstance(result, dict):  # stats / duplicate notices
            ack.update(result)
        return ack

    def _reject(self, error: str) -> Dict:
        self.rejected_lines += 1
        octx = _obs.current()
        if octx is not None:
            octx.metrics.counter("service.rejected").inc()
        return {"ok": False, "error": error}

    @staticmethod
    def _verify(report: TenantReport) -> Dict:
        from repro.service.replay import replay_tenant

        check = replay_tenant(report)
        return {
            "parity": bool(check.ok),
            "parity_failures": list(check.failures),
            "lost": sorted(report.lost_jids),
        }

    async def run_lines(
        self, lines: "Iterable[str] | AsyncIterator[str]"
    ) -> List[Dict]:
        """Drive the service from an iterable of wire lines, in order.

        Accepts both sync iterables (lists, files) and async iterators;
        returns the acks."""
        acks: List[Dict] = []
        if hasattr(lines, "__aiter__"):
            async for line in lines:  # type: ignore[union-attr]
                acks.append(await self.handle_line(line))
        else:
            for line in lines:
                acks.append(await self.handle_line(line))
        return acks

    # ------------------------------------------------------------------
    # TCP adapter
    # ------------------------------------------------------------------
    async def _handle_connection(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        try:
            while True:
                line = await read_line(reader)
                if line == b"":
                    break
                ack = (
                    self._reject(f"line longer than {MAX_LINE_BYTES} bytes")
                    if line is None
                    else await self.handle_line(line)
                )
                writer.write((json.dumps(ack) + "\n").encode("utf-8"))
                await writer.drain()
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass

    async def serve_tcp(
        self, host: str = "127.0.0.1", port: int = 0
    ) -> asyncio.AbstractServer:
        """Start the JSON-line TCP listener (port 0 = ephemeral)."""
        self._server = await asyncio.start_server(
            self._handle_connection, host, port, limit=MAX_LINE_BYTES
        )
        return self._server

    async def stop_tcp(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
