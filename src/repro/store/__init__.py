"""Crash-safe durable state store for the always-on service.

Layered bottom-up (each layer is testable on its own):

* :mod:`repro.store.directory` — the :class:`Directory` filesystem
  protocol, with a real (:class:`OsDirectory`) and an in-memory
  power-loss-modelling (:class:`MemoryDirectory`) implementation;
* :mod:`repro.store.faults` — :class:`FaultyDirectory`, the composable
  storage fault injector (torn writes, bit flips, ENOSPC, fsync lies);
* :mod:`repro.store.log` — :class:`SegmentedLog`, CRC32-framed records
  in bounded segments with torn-tail truncation and corrupt-segment
  quarantine;
* :mod:`repro.store.snapshots` — :class:`SnapshotStore`, snapshot
  blobs each committed by the rename of its fsynced file (partial
  snapshots invisible by construction) anchoring op-log compaction;
* :mod:`repro.store.tenant` — :class:`TenantStore`, one tenant's spec +
  op log + snapshots, the unit :class:`repro.service.shard.TenantShard`
  persists through and :meth:`repro.service.supervisor.ScheduleService.
  cold_start` rebuilds from.

Durability guarantees and the what-survives-what matrix live in
docs/ROBUSTNESS.md §12.
"""

from repro.store.directory import Directory, FileHandle, MemoryDirectory, OsDirectory
from repro.store.faults import STORAGE_FAULT_KINDS, FaultyDirectory, StorageFaultSpec
from repro.store.log import SegmentedLog
from repro.store.snapshots import SnapshotStore
from repro.store.tenant import TenantStore

__all__ = [
    "Directory",
    "FileHandle",
    "MemoryDirectory",
    "OsDirectory",
    "FaultyDirectory",
    "StorageFaultSpec",
    "STORAGE_FAULT_KINDS",
    "SegmentedLog",
    "SnapshotStore",
    "TenantStore",
]
