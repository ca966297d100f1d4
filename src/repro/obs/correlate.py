"""Request-scoped trace correlation: ``repro obs trace <request_id>``.

Every wire message may carry a ``request_id`` (client-chosen, or minted
at the ingress).  The id is threaded through the whole causal path —
wire → admission decision → shard op log → kernel dispatch → journal
record — but **never** into the replay event domain: the op log and the
snapshot dedup map are the durable witnesses, and the kernel's
dispatches link in through the decided jid.  That is what makes
correlation survive a ``kill -9``: this module reconstructs the path
from the tenant store alone (no live process required), optionally
enriched by a lifecycle trace export.

The reconstruction reads, per tenant directory — through an in-memory
copy of it, so that nothing is written to the store (opening one runs
its logs' recovery, and the dispatch stage cold-starts a shard on it),
even while a live daemon appends to it:

* the **history** the snapshot leaves out — each decision's rid →
  outcome and rid → jid entries, which survive op-log compaction
  (older payloads carried them in the snapshot itself);
* the **op log** — surviving ``admit``/``shed``/``push``/``crash_mark``
  records carrying the rid (the admission stage);
* the **dispatch stage** — every release/completion/deadline record
  for the decided jid.  The store keeps no dispatch records, so the
  tenant is cold-started from it, closed, and replayed
  (:func:`~repro.service.replay.replay_tenant`); the replay's journal,
  cut at the dispatch count the store had reached, is what the live
  kernel dispatched across all its incarnations — replay parity makes
  the two identical.  These stages say ``source=replay``; a store the
  cold start refuses yields one stage carrying the refusal instead.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional

from repro.errors import ObservabilityError, ReproError

__all__ = ["correlate_request", "render_request_trace"]


def _event_kind_name(kind: int) -> str:
    from repro.sim.events import EventKind

    try:
        return EventKind(kind).name.lower()
    except ValueError:  # pragma: no cover - future kinds
        return f"kind{kind}"


def _tenant_dirs(store_dir: Path, tenant: Optional[str]) -> List[Path]:
    from repro.store.tenant import SPEC_FILE

    if tenant is not None:
        sub = store_dir / tenant
        return [sub] if (sub / SPEC_FILE).exists() else []
    if not store_dir.is_dir():
        return []
    return sorted(
        sub
        for sub in store_dir.iterdir()
        if sub.is_dir() and (sub / SPEC_FILE).exists()
    )


def _scan_tenant_store(
    tenant_dir: Path, rid: str
) -> Optional[Dict[str, Any]]:
    """One tenant's view of a request id, from disk alone, read through
    an in-memory copy of its directory (the files stay untouched)."""
    from repro.store.directory import MemoryDirectory
    from repro.store.tenant import TenantStore

    store = TenantStore(MemoryDirectory.copy_of(tenant_dir), fsync=False)
    try:
        return _scan_store(store, tenant_dir.name, rid)
    finally:
        store.close()


def _decided(store, payload: Mapping[str, Any], rid: str):
    """``(outcome, jid)`` the snapshot side records for ``rid``: in the
    history records a version-3 image leaves out, or in an older
    payload's own maps."""
    from repro.service.history import HistoryRecord

    if payload.get("version") == 3:
        try:
            for data in store.history_records(int(payload["history"])):
                for r, outcome, jid in HistoryRecord.decode(data).requests:
                    if r == rid:
                        return outcome, jid
        except ReproError:
            pass  # the dispatch stage reports the broken store
        return None, None
    outcome = (payload.get("dedup") or {}).get(rid)
    jid = (payload.get("rid_jids") or {}).get(rid)
    return (
        None if outcome is None else str(outcome),
        None if jid is None else int(jid),
    )


def _scan_store(store, name: str, rid: str) -> Optional[Dict[str, Any]]:
    from repro.obs.telemetry import payload_metrics

    stages: List[Dict[str, Any]] = []
    outcome: Optional[str] = None
    jid: Optional[int] = None
    recoveries: Optional[int] = None

    loaded = store.load_snapshot()
    if loaded is not None:
        payload, _anchor = loaded
        if isinstance(payload, dict):
            counters = payload_metrics(payload).get("counters") or {}
            recoveries = int(counters.get("service.recoveries", 0))
            outcome, jid = _decided(store, payload, rid)

    for seq, doc in store.ops():
        if doc.get("rid") != rid:
            continue
        op = str(doc.get("op"))
        stage: Dict[str, Any] = {"stage": "admission", "op": op, "seq": seq}
        if op == "admit":
            job = doc.get("job") or {}
            jid = int(job.get("jid", -1))
            stage.update(
                jid=jid,
                release=job.get("release"),
                deadline=job.get("deadline"),
                value=job.get("value"),
                dc=doc.get("dc"),
            )
            outcome = outcome or "accepted"
        elif op == "shed":
            rec = doc.get("rec") or {}
            jid = int(rec.get("jid", -1))
            stage.update(
                jid=jid,
                reason=rec.get("reason"),
                time=rec.get("time"),
            )
            outcome = outcome or "shed"
        elif op == "push":
            stage.update(
                time=doc.get("time"), payload=doc.get("payload")
            )
            outcome = outcome or "injected"
        elif op == "crash_mark":
            outcome = outcome or "crash"
        stages.append(stage)

    if outcome is None and not stages:
        return None

    if jid is not None and jid >= 0:
        stages.extend(_dispatch_stages(store, jid))
    return {
        "tenant": name,
        "jid": jid,
        "outcome": outcome,
        "recoveries": recoveries,
        "stages": stages,
    }


def _dispatch_stages(store, jid: int) -> List[Dict[str, Any]]:
    """Journal records for a jid, up to the store's dispatch frontier
    (cold start + close + replay, on the caller's copy of the store), or
    the error that stopped the rebuild (a diverged store's
    RecoveryError)."""
    from repro.service.replay import replay_tenant
    from repro.service.shard import TenantShard, tenant_spec_from_dict

    try:
        spec = tenant_spec_from_dict(store.load_spec())
        shard = TenantShard(spec, store=store, resume=True)
        frontier = shard.kernel.dispatch_count
        records = replay_tenant(shard.close()).replay_journal.records
    except ReproError as exc:
        return [{"stage": "journal", "source": "replay", "error": str(exc)}]
    key = f"jid:{jid}"
    alarm_prefix = f"alarm:{jid}:"
    stages: List[Dict[str, Any]] = []
    for record in records[:frontier]:
        if (
            record.key == key
            or record.key.startswith(key + "@")
            or record.key.startswith(alarm_prefix)
        ):
            stages.append(
                {
                    "stage": "journal",
                    "source": "replay",
                    "index": record.index,
                    "time": record.time,
                    "event": _event_kind_name(record.kind),
                    "key": record.key,
                }
            )
    return stages


def _trace_stages(
    trace: Mapping[str, Any], rid: str, jid: Optional[int]
) -> List[Dict[str, Any]]:
    """Lifecycle events mentioning the rid (plus, when the jid is known,
    replay events for that job) from a loaded trace export."""
    stages: List[Dict[str, Any]] = []
    for event in trace.get("events") or []:
        data = event.get("data") or {}
        if data.get("rid") == rid:
            stages.append(
                {
                    "stage": "trace",
                    "kind": event.get("kind"),
                    "t": event.get("t"),
                    "data": data,
                }
            )
        elif (
            jid is not None
            and data.get("jid") == jid
            and str(event.get("kind", "")).startswith("job.")
        ):
            stages.append(
                {
                    "stage": "trace",
                    "kind": event.get("kind"),
                    "t": event.get("t"),
                }
            )
    return stages


def correlate_request(
    rid: str,
    *,
    store_dir: "str | Path | None" = None,
    trace: Optional[Mapping[str, Any]] = None,
    tenant: Optional[str] = None,
) -> Dict[str, Any]:
    """Reconstruct one request's causal path across crash-resume.

    At least one source is required: a tenant ``store_dir`` (the durable
    witness — works after any number of ``kill -9``) and/or a loaded
    lifecycle ``trace`` (:func:`repro.obs.trace.load_trace`).  Returns::

        {"request_id": ..., "found": bool, "tenant": ..., "jid": ...,
         "outcome": ..., "recoveries": int | None, "stages": [...]}
    """
    if store_dir is None and trace is None:
        raise ObservabilityError(
            "correlate_request needs a store directory and/or a trace file"
        )
    result: Dict[str, Any] = {
        "request_id": rid,
        "found": False,
        "tenant": tenant,
        "jid": None,
        "outcome": None,
        "recoveries": None,
        "stages": [],
    }
    if store_dir is not None:
        root = Path(store_dir)
        for tenant_dir in _tenant_dirs(root, tenant):
            hit = _scan_tenant_store(tenant_dir, rid)
            if hit is None:
                continue
            result["found"] = True
            result["tenant"] = hit["tenant"]
            result["jid"] = hit["jid"]
            result["outcome"] = hit["outcome"]
            result["stages"].extend(hit["stages"])
            result["recoveries"] = hit["recoveries"]
            break
    if trace is not None:
        stages = _trace_stages(trace, rid, result["jid"])
        if stages:
            result["found"] = True
            result["stages"] = stages + result["stages"]
            if result["outcome"] is None:
                for stage in stages:
                    outcome = (stage.get("data") or {}).get("outcome")
                    if outcome:
                        result["outcome"] = outcome
                        break
    return result


def render_request_trace(result: Mapping[str, Any]) -> str:
    """Human-readable causal path (what ``repro obs trace`` prints)."""
    rid = result.get("request_id")
    if not result.get("found"):
        return f"request {rid!r}: not found (undecided, or wrong store/trace?)"
    lines = [
        "request %r: tenant=%s jid=%s outcome=%s%s"
        % (
            rid,
            result.get("tenant"),
            result.get("jid") if result.get("jid") is not None else "-",
            result.get("outcome") or "?",
            (
                "  (survived %d recover%s)"
                % (
                    result["recoveries"],
                    "y" if result["recoveries"] == 1 else "ies",
                )
                if result.get("recoveries")
                else ""
            ),
        )
    ]
    for stage in result.get("stages") or []:
        kind = stage.get("stage", "?")
        extras = " ".join(
            f"{k}={_fmt(v)}"
            for k, v in sorted(stage.items())
            if k not in ("stage", "data") and v is not None
        )
        data = stage.get("data")
        if data:
            extras += (" " if extras else "") + " ".join(
                f"{k}={_fmt(v)}" for k, v in sorted(data.items())
            )
        lines.append(f"  [{kind}] {extras}".rstrip())
    return "\n".join(lines)


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:g}"
    return str(value)
