"""Typed ingress messages and their JSON-line wire form.

The service speaks newline-delimited JSON (one message per line), the
lowest-friction wire format for a stdin pipe or a raw TCP socket.  Four
message types drive a tenant shard:

``submit``
    One job offered for admission::

        {"type": "submit", "tenant": "t0",
         "job": {"jid": 7, "release": 1.5, "workload": 2.0,
                 "deadline": 4.5, "value": 6.0}}

``fault``
    An injected execution fault at a virtual time: ``op`` is ``kill``
    (with optional ``retain``), ``evict``, or ``crash`` (a forced kernel
    crash exercising snapshot recovery)::

        {"type": "fault", "tenant": "t0", "op": "kill",
         "time": 3.0, "retain": 0.5}

``advance``
    Drive the tenant's virtual clock: dispatch everything strictly
    before ``time``.  Submissions carry their own implicit advance (a
    job cannot be admitted behind the dispatch frontier), so explicit
    advances mark quiet periods and batch boundaries::

        {"type": "advance", "tenant": "t0", "time": 10.0}

``close``
    Finish the tenant: run the kernel to its horizon, wind down, and
    produce the tenant report.

``stat``
    Read-only counters for a tenant (accepted/shed/submitted counts, a
    CRC of the accepted jid set, the dispatch frontier) — what the
    kill -9 soak compares across a drain/cold-start boundary.

``metrics`` / ``health``
    The live telemetry plane (docs/OBSERVABILITY.md §live-service
    telemetry): ``metrics`` returns the tenant's full SLO scrape
    (stats + windowed SLO snapshot + health state), ``health`` just the
    health state.  ``"tenant": "*"`` scrapes the whole fleet.  Both are
    answered synchronously by the supervisor — they bypass the
    per-tenant queue, so a scrape works even while a tenant is mid
    restart ladder or the service is draining.

**Idempotency**: ``submit`` and ``fault`` may carry a client-chosen
``request_id`` string.  A shard remembers every decided request id in
its durable dedup journal; redelivering the same id (for example,
replaying a traffic log against a cold-started service) acks
``{"ok": true, "duplicate": true, ...}`` instead of double-admitting
or double-injecting.

Parsing is strict — an unknown type, a missing field or a non-numeric
value raises :class:`~repro.errors.MessageError` with a reason the
ingress can count and report without dying.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Union

from repro.errors import InvalidInstanceError, MessageError
from repro.sim.job import Job

__all__ = [
    "Submit",
    "InjectFault",
    "Advance",
    "Close",
    "Stat",
    "MetricsQuery",
    "HealthQuery",
    "Message",
    "parse_message",
    "encode_message",
    "FAULT_OPS",
]

#: Injectable fault operations (``crash`` forces a kernel crash).
FAULT_OPS = ("kill", "evict", "crash")


@dataclass(frozen=True)
class Submit:
    tenant: str
    job: Job
    rid: "str | None" = None  # client request id (wire: request_id)


@dataclass(frozen=True)
class InjectFault:
    tenant: str
    op: str  # one of FAULT_OPS
    time: float
    retain: float = 0.0  # kill only: surviving progress fraction
    rid: "str | None" = None  # client request id (wire: request_id)


@dataclass(frozen=True)
class Advance:
    tenant: str
    time: float


@dataclass(frozen=True)
class Close:
    tenant: str


@dataclass(frozen=True)
class Stat:
    tenant: str


@dataclass(frozen=True)
class MetricsQuery:
    """Wire ``metrics``: live SLO scrape; ``tenant="*"`` = whole fleet."""

    tenant: str


@dataclass(frozen=True)
class HealthQuery:
    """Wire ``health``: supervisor health state(s) only."""

    tenant: str


Message = Union[
    Submit, InjectFault, Advance, Close, Stat, MetricsQuery, HealthQuery
]


def _request_id(payload: Mapping[str, Any]) -> "str | None":
    rid = payload.get("request_id")
    if rid is None:
        return None
    if not isinstance(rid, str) or not rid:
        raise MessageError(
            f"request_id must be a non-empty string, got {rid!r}"
        )
    return rid


def _require(payload: Mapping[str, Any], field: str) -> Any:
    if field not in payload:
        raise MessageError(f"message is missing required field {field!r}")
    return payload[field]


def _number(payload: Mapping[str, Any], field: str) -> float:
    """A finite number (JSON's ``NaN``/``Infinity`` and integers too big
    for a float are refused: they would poison the kernel's clock)."""
    value = _require(payload, field)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise MessageError(f"field {field!r} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise MessageError(f"field {field!r} must be finite, got {value!r}")
    return number


def _integer(payload: Mapping[str, Any], field: str) -> int:
    number = _number(payload, field)
    if not number.is_integer():
        raise MessageError(
            f"field {field!r} must be an integer, got {payload[field]!r}"
        )
    value = payload[field]
    return value if isinstance(value, int) else int(number)


def parse_message(raw: "str | bytes | Mapping[str, Any]") -> Message:
    """Decode one wire message (a JSON line or an already-parsed dict)."""
    if isinstance(raw, (str, bytes)):
        try:
            payload = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise MessageError(f"undecodable message line: {exc}") from exc
    else:
        payload = raw
    if not isinstance(payload, dict):
        raise MessageError(
            f"message must be a JSON object, got {type(payload).__name__}"
        )

    mtype = _require(payload, "type")
    tenant = _require(payload, "tenant")
    if not isinstance(tenant, str) or not tenant:
        raise MessageError(f"tenant must be a non-empty string, got {tenant!r}")

    if mtype == "submit":
        jobspec = _require(payload, "job")
        if not isinstance(jobspec, dict):
            raise MessageError(f"job must be an object, got {jobspec!r}")
        try:
            job = Job(
                jid=_integer(jobspec, "jid"),
                release=_number(jobspec, "release"),
                workload=_number(jobspec, "workload"),
                deadline=_number(jobspec, "deadline"),
                value=_number(jobspec, "value"),
            )
        except InvalidInstanceError as exc:
            raise MessageError(f"invalid job: {exc}") from exc
        return Submit(tenant=tenant, job=job, rid=_request_id(payload))

    if mtype == "fault":
        op = _require(payload, "op")
        if op not in FAULT_OPS:
            raise MessageError(
                f"unknown fault op {op!r}; expected one of {FAULT_OPS}"
            )
        time = _number(payload, "time")
        retain = (
            _number(payload, "retain")
            if op == "kill" and "retain" in payload
            else 0.0
        )
        if not 0.0 <= retain <= 1.0:
            raise MessageError(f"retain must be in [0, 1], got {retain!r}")
        return InjectFault(
            tenant=tenant,
            op=op,
            time=time,
            retain=retain,
            rid=_request_id(payload),
        )

    if mtype == "advance":
        return Advance(tenant=tenant, time=_number(payload, "time"))

    if mtype == "close":
        return Close(tenant=tenant)

    if mtype == "stat":
        return Stat(tenant=tenant)

    if mtype == "metrics":
        return MetricsQuery(tenant=tenant)

    if mtype == "health":
        return HealthQuery(tenant=tenant)

    raise MessageError(f"unknown message type {mtype!r}")


def encode_message(message: Message) -> str:
    """The JSON-line wire form of a message (inverse of
    :func:`parse_message`; used by the soak harness and tests)."""
    out: Dict[str, Any]
    if isinstance(message, Submit):
        job = message.job
        out = {
            "type": "submit",
            "tenant": message.tenant,
            "job": {
                "jid": job.jid,
                "release": job.release,
                "workload": job.workload,
                "deadline": job.deadline,
                "value": job.value,
            },
        }
        if message.rid is not None:
            out["request_id"] = message.rid
    elif isinstance(message, InjectFault):
        out = {
            "type": "fault",
            "tenant": message.tenant,
            "op": message.op,
            "time": message.time,
        }
        if message.op == "kill":
            out["retain"] = message.retain
        if message.rid is not None:
            out["request_id"] = message.rid
    elif isinstance(message, Advance):
        out = {"type": "advance", "tenant": message.tenant, "time": message.time}
    elif isinstance(message, Close):
        out = {"type": "close", "tenant": message.tenant}
    elif isinstance(message, Stat):
        out = {"type": "stat", "tenant": message.tenant}
    elif isinstance(message, MetricsQuery):
        out = {"type": "metrics", "tenant": message.tenant}
    elif isinstance(message, HealthQuery):
        out = {"type": "health", "tenant": message.tenant}
    else:
        raise MessageError(f"cannot encode {message!r}")
    return json.dumps(out)
