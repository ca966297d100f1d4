"""HTTP exposition of the live telemetry plane.

A deliberately tiny asyncio HTTP/1.0 responder (no framework, no
dependency) that serves the same fleet scrape the ``metrics`` wire
message returns, in scraper-friendly clothes:

* ``GET /metrics`` — Prometheus text format 0.0.4
  (:func:`repro.obs.telemetry.render_prometheus`; linted in CI by
  :func:`repro.obs.telemetry.lint_prometheus`);
* ``GET /metrics.json`` — the raw JSON fleet scrape
  (``{"tenants": {...}}`` — what ``repro top`` polls);
* ``GET /health`` — ``{"health": {tenant: state}}`` from the supervisor
  ladder (``ok`` / ``degraded`` / ``restarting`` / ``circuit_open``).

Reads are served from the event loop thread via
:meth:`repro.service.supervisor.ScheduleService.scrape`, which bypasses
the per-tenant queues — a scrape answers even while every tenant is mid
restart ladder.  A scrape failure returns a 500 with the error text; it
never kills the listener.  A request or header line longer than
``_MAX_REQUEST_BYTES`` is answered 414 or 431, then the connection closes.
"""

from __future__ import annotations

import asyncio
import json
from http import HTTPStatus
from typing import Optional, Tuple

from repro.obs.telemetry import render_prometheus
from repro.service.ingress import read_line
from repro.service.supervisor import ScheduleService

__all__ = ["TelemetryExposition"]

_MAX_REQUEST_BYTES = 8192
_TEXT = "text/plain; charset=utf-8"


class TelemetryExposition:
    """One HTTP listener exposing a service's telemetry plane."""

    def __init__(self, service: ScheduleService) -> None:
        self.service = service
        self._server: "asyncio.AbstractServer | None" = None

    # ------------------------------------------------------------------
    def render(self, path: str) -> Tuple[int, str, str]:
        """Route one request path → (status, content-type, body)."""
        try:
            if path in ("/metrics", "/metrics/"):
                fleet = self.service.scrape()
                return (
                    200,
                    "text/plain; version=0.0.4; charset=utf-8",
                    render_prometheus(fleet),
                )
            if path in ("/metrics.json", "/scrape"):
                fleet = self.service.scrape()
                return (
                    200,
                    "application/json",
                    json.dumps({"tenants": fleet}) + "\n",
                )
            if path in ("/health", "/health/"):
                return (
                    200,
                    "application/json",
                    json.dumps({"health": self.service.health()}) + "\n",
                )
            return (404, _TEXT, "not found\n")
        except Exception as exc:  # noqa: BLE001 - a scrape must not kill us
            return (500, _TEXT, f"scrape failed: {exc}\n")

    # ------------------------------------------------------------------
    async def _handle(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        try:
            request = await read_line(reader)
            if request == b"":
                return
            too_long = 414 if request is None else None
            # Drain (and ignore) the header block — all of it, so closing
            # leaves no unread input to reset the connection with.
            while True:
                header = await read_line(reader)
                if header is None:
                    too_long = too_long or 431
                elif header in (b"", b"\r\n", b"\n"):
                    break
            parts = (request or b"").decode("latin-1", "replace").split()
            method = parts[0] if parts else ""
            path = parts[1] if len(parts) > 1 else "/"
            if too_long is not None:
                status, ctype, body = too_long, _TEXT, "request too long\n"
            elif method not in ("GET", "HEAD"):
                status, ctype, body = 405, _TEXT, "method not allowed\n"
            else:
                status, ctype, body = self.render(path.split("?", 1)[0])
            payload = body.encode("utf-8")
            head = (
                f"HTTP/1.0 {status} {HTTPStatus(status).phrase}\r\n"
                f"Content-Type: {ctype}\r\n"
                f"Content-Length: {len(payload)}\r\n"
                "Connection: close\r\n\r\n"
            ).encode("latin-1")
            writer.write(head if method == "HEAD" else head + payload)
            await writer.drain()
        except (ConnectionError, OSError):  # pragma: no cover - client bailed
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass

    # ------------------------------------------------------------------
    async def start(
        self, host: str = "127.0.0.1", port: int = 0
    ) -> asyncio.AbstractServer:
        """Start the listener (port 0 = ephemeral); returns the server."""
        self._server = await asyncio.start_server(
            self._handle, host, port, limit=_MAX_REQUEST_BYTES
        )
        return self._server

    @property
    def port(self) -> Optional[int]:
        if self._server is None or not self._server.sockets:
            return None
        return self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
