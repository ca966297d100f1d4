"""Write the tenant stores in this directory.

The ``wal`` stores are stores as the service wrote them while it kept a
second durable stream, the kernel WAL: ``wal_segments/`` holds a
segment-log ``wal/`` (snapshots every 7 dispatches, payload op tails, a
post-snapshot op-log tail, WAL records past the snapshot);
``wal_jsonl/`` holds the older ``wal.jsonl`` plus its ``shed.jsonl``
sidecar.  The ``digest`` stores are stores as the service wrote them
before history: every snapshot a version-2 payload holding the whole
run.  ``digest_v2/`` takes the same traffic as ``wal_segments/`` (a
post-snapshot op-log tail past a payload op tail); ``slo_v2/`` is the
metrics tests' tenant, drained.  All but ``slo_v2/`` end as a ``kill
-9`` leaves them: the shard abandoned, never closed.  ``expected.json``
keeps the writing shard's last ``stat`` (its ``submitted`` counts one
still-undecided submission) and its journal length.

The ``wal`` stores need the code of commit 4d5d56a, the last one with a
kernel WAL, and the ``digest`` stores that of ee30b0a, the last one
before history::

    PYTHONPATH=<checkout of 4d5d56a>/src python write_stores.py OUT wal
    PYTHONPATH=<checkout of ee30b0a>/src python write_stores.py OUT digest
"""
import json
import shutil
import sys
from pathlib import Path

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

STAT_KEYS = ("submitted", "accepted", "shed", "accepted_crc", "frontier")


def job(jid, release, workload=1.0, value=1.0):
    return Job(
        jid=jid,
        release=release,
        workload=workload,
        deadline=release + 6.0,
        value=value,
    )


def drive(path, every):
    """Traffic, a drain snapshot, more traffic, then abandon the shard."""
    spec = TenantSpec(
        tenant="t0",
        horizon=40.0,
        scheduler="vdover",
        capacity=CapacitySpec("constant", {"rate": 1.0}),
        queue_budget=3,
        snapshot_every=every,
    )
    store = TenantStore(path, fsync=False)
    shard = TenantShard(spec, store=store)
    for i in range(6):
        shard.handle(Submit("t0", job(100 + i, 1.0), rid=f"g{i}"))
    for i in range(12):
        shard.handle(Submit("t0", job(i, float(i) + 2.0), rid=f"r{i}"))
    shard.handle(Advance("t0", 15.0))
    shard.persist_now()
    shard.handle(Submit("t0", job(12, 16.0), rid="tail"))
    shard.handle(InjectFault("t0", "kill", 17.5, retain=0.5, rid="k-tail"))
    shard.handle(Submit("t0", job(13, 18.0, 2.0), rid="tail2"))
    shard.handle(Advance("t0", 19.0))
    shard.handle(Submit("t0", job(14, 19.0), rid="tail3"))
    shard.handle(Submit("t0", job(15, 19.0), rid="tail4"))
    shard.handle(InjectFault("t0", "kill", 19.7, retain=0.25, rid="k-tail2"))
    shard.handle(Submit("t0", job(16, 20.0), rid="undecided"))
    stats = shard.stats()
    records = shard.report().journal.records
    store.close()  # never closed: the kill -9 stand-in
    return stats, records


def write_expected(out, stats, records, key="wal_records"):
    doc = {
        "stats": {k: stats[k] for k in STAT_KEYS},
        key: len(records),
    }
    (out / "expected.json").write_text(
        json.dumps(doc, indent=1, sort_keys=True) + "\n"
    )


def drive_slo(path):
    """tests/service/test_slo.py's tenant and traffic, then a drain."""
    from repro.errors import SimulatedCrash

    spec = TenantSpec(
        tenant="t0",
        horizon=40.0,
        scheduler="edf",
        capacity=CapacitySpec("constant", {"rate": 1.0}),
        queue_budget=6,
        snapshot_every=4,
    )
    store = TenantStore(path, fsync=False)
    shard = TenantShard(spec, store=store)
    for i in range(10):
        release = 1.0 + 0.2 * i
        shard.handle(
            Submit(
                "t0",
                Job(jid=i, release=release, workload=1.0,
                    deadline=release + 5.0, value=1.0),
                rid=f"r{i}",
            )
        )
    shard.handle(InjectFault("t0", "kill", time=2.5, rid="f0"))
    try:
        shard.handle(InjectFault("t0", "crash", time=3.0, rid="c0"))
    except SimulatedCrash as crash:
        shard.recover(crash)
    shard.handle(Advance("t0", 6.0))
    shard.persist_now()
    store.close()


def write_digest(out):
    for name in ("digest_v2", "slo_v2"):
        shutil.rmtree(out / name, ignore_errors=True)
    stats, records = drive(out / "digest_v2" / "t0", every=7)
    write_expected(out / "digest_v2", stats, records, key="journal_records")
    drive_slo(out / "slo_v2" / "t0")


def main(out, which):
    if which == "digest":
        write_digest(out)
        return
    for name in ("wal_segments", "wal_jsonl"):
        shutil.rmtree(out / name, ignore_errors=True)
    # Periodic anchors (payload op tails), an op-log tail past the last
    # anchor and WAL records past its snapshot.
    stats, records = drive(out / "wal_segments" / "t0", every=7)
    write_expected(out / "wal_segments", stats, records)

    # The pre-segment layout: only persist_now anchors; the WAL is
    # rewritten as wal.jsonl beside a shed.jsonl sidecar.
    path = out / "wal_jsonl" / "t0"
    stats, records = drive(path, every=10_000)
    payload, _anchor = TenantStore(path, fsync=False).load_snapshot()
    lines = [json.dumps({"kind": "event_journal", "schema": 1})]
    lines += [json.dumps(r.to_dict()) for r in records]
    (path / "wal.jsonl").write_text("\n".join(lines) + "\n")
    (path / "shed.jsonl").write_text(
        "".join(json.dumps(r) + "\n" for r in payload["shed"])
    )
    shutil.rmtree(path / "wal")
    write_expected(out / "wal_jsonl", stats, records)


if __name__ == "__main__":
    main(Path(sys.argv[1]), sys.argv[2])
