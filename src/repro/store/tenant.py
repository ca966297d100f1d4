"""Per-tenant durable state: spec + op log + WAL + snapshots, one directory.

Layout under ``<store_dir>/<tenant>/``::

    spec.json        # the TenantSpec as checksummed JSON (written once)
    oplog/           # SegmentedLog of JSON op records (admits, pushes,
                     #   sheds, crash marks, dedup entries)
    wal/             # SegmentedLog of the kernel's write-ahead
                     #   EventJournal records, one per dispatch
    snaps/           # SnapshotStore of pickled shard state images

Both logs share one format and one crash model (:mod:`repro.store.log`);
a store written before the WAL moved into ``wal/`` still holds a
``wal.jsonl`` (and a ``shed.jsonl`` sidecar), which opening imports once
and removes.

The shard (:mod:`repro.service.shard`) writes *op records first, state
mutation second*: an admit/push/shed is fsynced into the op log before
the kernel sees it, so the disk is always ahead of (or equal to) the
process — ``SIGKILL`` at any instant loses at most acked-but-undecided
buffering, never a decision.  Snapshots anchor the op sequence: a state
image recorded at op sequence ``s`` supersedes every op with
``seq < s``, and :meth:`write_snapshot` compacts the op log accordingly.
The WAL is never compacted — replay verification compares the whole of
it — but a snapshot must never outrun it: :meth:`write_snapshot` syncs
the WAL before it commits the anchor.

This module is deliberately spec-schema agnostic: the tenant spec and
the op payloads are opaque JSON documents; (de)serialising them to
:class:`~repro.service.shard.TenantSpec` etc. lives with the service
layer, keeping ``repro.store`` free of service imports.
"""

from __future__ import annotations

import json
import pickle
import zlib
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import StorageError
from repro.store.directory import Directory, OsDirectory
from repro.store.log import SegmentedLog
from repro.store.snapshots import SnapshotStore

__all__ = ["TenantStore"]

SPEC_FILE = "spec.json"
#: The retired JSON-lines WAL and shed sidecar (imported/removed on open).
LEGACY_WAL_FILE = "wal.jsonl"
LEGACY_SHED_FILE = "shed.jsonl"


class TenantStore:
    """One tenant's crash-safe state: spec, op log, snapshot anchors."""

    def __init__(
        self,
        directory: "Directory | str | Path",
        *,
        segment_bytes: int = 64 * 1024,
        snapshot_keep: int = 2,
        fsync: bool = True,
    ) -> None:
        if not hasattr(directory, "subdir"):
            directory = OsDirectory(directory)  # type: ignore[arg-type]
        self._dir: Directory = directory  # type: ignore[assignment]
        self._fsync = bool(fsync)
        self.oplog = SegmentedLog(
            self._dir.subdir("oplog"),
            segment_bytes=segment_bytes,
            fsync=fsync,
        )
        self.snapshots = SnapshotStore(
            self._dir.subdir("snaps"), keep=snapshot_keep, fsync=fsync
        )
        #: The kernel WAL (:class:`~repro.sim.journal.EventJournal`
        #: frames its records here).
        self.wal = SegmentedLog(
            self._dir.subdir("wal"), segment_bytes=segment_bytes, fsync=fsync
        )
        #: Optional ``callable(seconds)`` timing each durability point —
        #: a synced op append, a WAL sync — for the service's SLO fsync
        #: histogram (wall clock; never in the replay domain).
        self.sync_observer: Optional[Callable[[float], None]] = None
        self._import_legacy_wal()

    @property
    def path(self) -> Optional[Path]:
        """The tenant directory (None for in-memory directories)."""
        return self._dir.path

    def _import_legacy_wal(self) -> None:
        """Move a retired ``wal.jsonl`` into ``wal/`` and drop it (and
        the shed sidecar, whose records the op log already owns).  The
        old file stays the source of truth until its removal is durable,
        so a crash mid-import just imports again."""
        if self._dir.exists(LEGACY_WAL_FILE):
            from repro.sim.journal import legacy_wal_payloads

            payloads = legacy_wal_payloads(
                self._dir.read_bytes(LEGACY_WAL_FILE)
            )
            self.wal.reset()
            for payload in payloads:
                self.wal.append(payload, sync=False)
            self.wal.sync()
        stale = [
            name
            for name in (LEGACY_WAL_FILE, LEGACY_SHED_FILE)
            if self._dir.exists(name)
        ]
        for name in stale:
            self._dir.remove(name)
        if stale:
            self._dir.fsync_dir()

    # -- tenant spec -----------------------------------------------------
    def ensure_spec(self, spec_doc: Dict[str, Any], normalize=None) -> None:
        """Write the spec once; on reopen, verify it has not changed —
        resuming a tenant under a different world would silently break
        replay parity.

        ``normalize`` (a doc -> doc callable) is applied to the *stored*
        doc before comparison, so a store written before a spec field
        existed still resumes when the running spec carries that field at
        its default — the caller round-trips the doc through its spec
        type, filling in defaults.  Genuinely different specs still
        refuse."""
        stored = self.load_spec()
        if stored is not None:
            if normalize is not None:
                stored = normalize(stored)
            if stored != spec_doc:
                raise StorageError(
                    "stored tenant spec differs from the running spec; "
                    "refusing to resume (delete the tenant directory to "
                    "start over)"
                )
            return
        body = json.dumps(spec_doc, sort_keys=True)
        doc = {"spec": spec_doc, "crc": zlib.crc32(body.encode()) & 0xFFFFFFFF}
        tmp = SPEC_FILE + ".tmp"
        h = self._dir.create(tmp)
        h.write((json.dumps(doc, sort_keys=True) + "\n").encode())
        if self._fsync:
            h.fsync()
        else:
            h.flush()
        h.close()
        self._dir.rename(tmp, SPEC_FILE)
        if self._fsync:
            self._dir.fsync_dir()

    def load_spec(self) -> Optional[Dict[str, Any]]:
        if not self._dir.exists(SPEC_FILE):
            return None
        try:
            doc = json.loads(self._dir.read_bytes(SPEC_FILE).decode())
            spec_doc = doc["spec"]
            body = json.dumps(spec_doc, sort_keys=True)
            if (zlib.crc32(body.encode()) & 0xFFFFFFFF) != doc["crc"]:
                raise ValueError("checksum mismatch")
        except (ValueError, KeyError, TypeError) as exc:
            raise StorageError(
                "tenant spec file is corrupt; refusing to guess the "
                f"tenant's world ({exc})"
            ) from exc
        return spec_doc

    # -- op log ----------------------------------------------------------
    def append_ops(
        self, docs: "List[Dict[str, Any]]", *, sync: bool = True
    ) -> int:
        """Append op records (JSON docs); returns the next sequence
        after the batch.  With ``sync`` the whole batch is fsynced
        before returning (one fsync, after the last frame)."""
        t0 = perf_counter()
        for i, doc in enumerate(docs):
            last = i == len(docs) - 1
            self.oplog.append(
                json.dumps(doc, sort_keys=True).encode(),
                sync=sync and last,
            )
        if sync and self.sync_observer is not None:
            self.sync_observer(perf_counter() - t0)
        return self.oplog.next_seq

    @property
    def op_seq(self) -> int:
        return self.oplog.next_seq

    def ops(self) -> List[Tuple[int, Dict[str, Any]]]:
        """All live op records as ``(seq, doc)``."""
        return [
            (seq, json.loads(payload.decode()))
            for seq, payload in self.oplog.entries()
        ]

    # -- snapshots -------------------------------------------------------
    def write_snapshot(self, state: Any, *, op_seq: int) -> int:
        """Commit one state image anchored at ``op_seq`` and compact the
        op log behind it.

        The image's kernel was cut at a dispatch count the WAL already
        holds (records are appended before their event dispatches), so
        syncing the WAL first keeps every committed anchor covered by
        the WAL on disk — under the store's ``fsync`` flag, like every
        other durability point here."""
        if self._fsync:
            t0 = perf_counter()
            self.wal.sync()
            if self.sync_observer is not None:
                self.sync_observer(perf_counter() - t0)
        seq = self.snapshots.write(
            pickle.dumps(state), {"op_seq": int(op_seq)}
        )
        self.oplog.compact(int(op_seq))
        return seq

    def load_snapshot(self) -> Optional[Tuple[Any, int]]:
        """Newest complete state image as ``(state, op_seq)``."""
        loaded = self.snapshots.load()
        if loaded is None:
            return None
        _seq, meta, payload = loaded
        op_seq = int(meta.get("op_seq", 0))
        if self.oplog.next_seq < op_seq and not len(self.oplog):
            # The op log was quarantined wholesale (catastrophic rot):
            # re-anchor its sequence space at the snapshot so post-resume
            # appends stay ahead of the anchor.
            self.oplog.rebase(op_seq)
        return pickle.loads(payload), op_seq

    def has_state(self) -> bool:
        """True if anything recoverable exists (ops or a snapshot)."""
        return len(self.oplog) > 0 or self.snapshots.load() is not None

    def close(self) -> None:
        self.oplog.close()
        self.wal.close()
