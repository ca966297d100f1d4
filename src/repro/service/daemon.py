"""Process entry for the durable service: TCP ingress + SIGTERM drain.

This is the piece the kill -9 soak actually kills: a real child process
running ``python -m repro serve --store DIR [--specs FILE]``.  Lifecycle:

1. **boot** — if the store directory holds recoverable tenant state,
   :meth:`~repro.service.supervisor.ScheduleService.cold_start` rebuilds
   every tenant from disk; otherwise the spec file creates them fresh
   (both can combine: specs seed the first incarnation, the store feeds
   every later one);
2. **hello** — one JSON line on stdout announces readiness::

       {"event": "serving", "port": 49152, "cold_start": true, ...}

   the parent parses it to learn the ephemeral port;
3. **traffic** — JSON-line messages over TCP, one ack per line
   (:class:`~repro.service.ingress.ServiceIngress` with
   ``verify_on_close`` so ``close`` acks carry the replay-parity
   verdict);
4. **SIGTERM/SIGINT** — graceful drain: new submits/faults ack
   ``draining``, queued work finishes, every tenant's snapshot + op log
   + WAL is flushed, a final ``{"event": "drained", ...}`` line reports
   the per-tenant stats, and the process exits 0.  ``SIGKILL`` skips all
   of that — which is exactly what the store design is for.
"""

from __future__ import annotations

import asyncio
import json
import signal
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.errors import ServiceError
from repro.service.exposition import TelemetryExposition
from repro.service.ingress import ServiceIngress
from repro.service.shard import TenantSpec, tenant_spec_from_dict
from repro.service.supervisor import RestartPolicy, ScheduleService

__all__ = ["load_specs_file", "serve", "main"]


def load_specs_file(path: "str | Path") -> List[TenantSpec]:
    """Tenant specs from a JSON file: either a bare list of spec
    documents or ``{"tenants": [...]}``."""
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    if isinstance(doc, dict):
        doc = doc.get("tenants", [])
    if not isinstance(doc, list):
        raise ServiceError(
            f"specs file {str(path)!r} must hold a list of tenant specs"
        )
    return [tenant_spec_from_dict(entry) for entry in doc]


def _store_has_state(store_dir: Path) -> bool:
    from repro.store.tenant import SPEC_FILE

    if not store_dir.is_dir():
        return False
    return any(
        (sub / SPEC_FILE).exists()
        for sub in store_dir.iterdir()
        if sub.is_dir()
    )


async def serve(
    store_dir: "str | Path",
    *,
    specs: Optional[List[TenantSpec]] = None,
    host: str = "127.0.0.1",
    port: int = 0,
    policy: Optional[RestartPolicy] = None,
    store_fsync: bool = True,
    telemetry: bool = True,
    telemetry_port: int = 0,
    out=None,
) -> Dict[str, Any]:
    """Run the durable service until SIGTERM/SIGINT, then drain.

    Returns the final drain stats (per tenant).  ``out`` (default
    stdout) receives the hello and drained event lines.  With
    ``telemetry`` (the daemon default) an HTTP exposition listener
    serves ``/metrics`` (Prometheus text), ``/metrics.json`` and
    ``/health`` on ``telemetry_port`` (0 = ephemeral; announced in the
    hello line).  Every shard tracks its metrics either way; the
    ``stat`` and ``metrics`` wire messages serve them too."""
    out = out if out is not None else sys.stdout
    store_dir = Path(store_dir)
    store_dir.mkdir(parents=True, exist_ok=True)

    cold = _store_has_state(store_dir)
    if cold:
        service = ScheduleService.cold_start(
            store_dir,
            policy=policy,
            store_fsync=store_fsync,
        )
    else:
        if not specs:
            raise ServiceError(
                f"store {str(store_dir)!r} is empty and no specs were "
                "given; nothing to serve"
            )
        service = ScheduleService(
            specs,
            policy=policy,
            store_dir=store_dir,
            store_fsync=store_fsync,
        )
    await service.start()

    ingress = ServiceIngress(service, verify_on_close=True)
    server = await ingress.serve_tcp(host=host, port=port)
    bound_port = server.sockets[0].getsockname()[1]

    exposition: Optional[TelemetryExposition] = None
    if telemetry:
        exposition = TelemetryExposition(service)
        await exposition.start(host=host, port=telemetry_port)

    stop = asyncio.get_running_loop().create_future()

    def _request_stop(signame: str) -> None:
        if not stop.done():
            stop.set_result(signame)

    loop = asyncio.get_running_loop()
    for sig in (signal.SIGTERM, signal.SIGINT):
        loop.add_signal_handler(sig, _request_stop, sig.name)

    print(
        json.dumps(
            {
                "event": "serving",
                "port": bound_port,
                "host": host,
                "cold_start": cold,
                "tenants": list(service.tenants),
                "store": str(store_dir),
                "telemetry_port": (
                    None if exposition is None else exposition.port
                ),
            }
        ),
        file=out,
        flush=True,
    )

    signame = await stop
    stats = await service.drain()
    if exposition is not None:
        await exposition.stop()
    await ingress.stop_tcp()
    print(
        json.dumps(
            {"event": "drained", "signal": signame, "stats": stats}
        ),
        file=out,
        flush=True,
    )
    return stats


def main(argv: Optional[List[str]] = None) -> int:
    """Standalone entry (the CLI's ``serve`` subcommand routes here)."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="repro serve",
        description="Durable scheduling service: TCP JSON-line ingress, "
        "crash-safe tenant store, SIGTERM drain.",
    )
    parser.add_argument("--store", required=True, help="store directory")
    parser.add_argument(
        "--specs",
        default=None,
        help="JSON tenant-spec file (required for a fresh store)",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0)
    parser.add_argument(
        "--no-fsync",
        action="store_true",
        help="skip fsyncs in the store (faster; survives SIGKILL but "
        "not power loss)",
    )
    parser.add_argument(
        "--no-telemetry",
        action="store_true",
        help="do not open the HTTP exposition listener (/metrics, "
        "/metrics.json, /health); tenant metrics stay on the wire",
    )
    parser.add_argument(
        "--telemetry-port",
        type=int,
        default=0,
        help="HTTP exposition port (default 0 = ephemeral, announced "
        "in the hello line)",
    )
    args = parser.parse_args(argv)

    specs = load_specs_file(args.specs) if args.specs else None
    asyncio.run(
        serve(
            args.store,
            specs=specs,
            host=args.host,
            port=args.port,
            store_fsync=not args.no_fsync,
            telemetry=not args.no_telemetry,
            telemetry_port=args.telemetry_port,
        )
    )
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised by the soak
    raise SystemExit(main())
