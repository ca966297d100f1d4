"""Snapshot files committed by their rename: partial = invisible.

A :class:`SnapshotStore` holds the durable anchors of a tenant's state:
opaque payload blobs (the shard pickles its state image) written under
monotonically numbered names.  The newest ``snap-<n>.bin`` that validates
is the committed state.

The write protocol makes a partial snapshot impossible to observe:

1. the snapshot file is written to ``snap-<n>.bin.tmp`` and fsynced;
2. it is renamed to ``snap-<n>.bin`` — the commit point — and the
   directory fsynced, so a visible ``snap-*.bin`` always carries its
   full, self-validating content (magic, meta block, payload block, each
   length+CRC32 framed);
3. only then are snapshots beyond the keep window deleted — without a
   directory fsync of their own: a deletion lost to power failure only
   brings back an older snapshot, which the next commit deletes again.

A crash before the rename leaves a ``.tmp`` file that readers never see
(reopening the store removes it); a crash after it leaves the new
snapshot committed, or — power lost before the directory fsync — the
previous one.  Loading tries the numbered files newest first; on bit rot
the damaged file is renamed ``*.quarantine`` and the next one is tried.
A ``MANIFEST`` file left by older versions of this store is never read.
"""

from __future__ import annotations

import json
import struct
import zlib
from typing import Dict, List, Optional, Tuple

from repro.errors import StorageError
from repro.store.directory import Directory

__all__ = ["SnapshotStore"]

_MAGIC = b"RSNP"
_BLOCK = struct.Struct("<II")  # length, crc32


def _snap_name(seq: int) -> str:
    return f"snap-{seq:012d}.bin"


class SnapshotStore:
    """Numbered, self-validating snapshot blobs; the newest valid one is
    the committed state."""

    def __init__(self, directory: Directory, *, keep: int = 2,
                 fsync: bool = True) -> None:
        if keep < 1:
            raise StorageError(f"keep must be >= 1, got {keep!r}")
        self._dir = directory
        self._keep = int(keep)
        self._fsync = bool(fsync)
        #: artifacts renamed ``*.quarantine`` by validation failures.
        self.quarantined: List[str] = []
        self._next_seq = self._scan_next_seq()

    def _scan_next_seq(self) -> int:
        best = -1
        for name in self._dir.listdir():
            if name.endswith(".tmp"):
                self._dir.remove(name)  # dead mid-write leftovers
                continue
            seq = self._parse_seq(name)
            if seq is not None:
                best = max(best, seq)
        return best + 1

    @staticmethod
    def _parse_seq(name: str) -> Optional[int]:
        if not (name.startswith("snap-") and name.endswith(".bin")):
            return None
        try:
            return int(name[5:-4])
        except ValueError:
            return None

    # -- write ----------------------------------------------------------
    @staticmethod
    def _encode(meta: Dict, payload: bytes) -> bytes:
        meta_blob = json.dumps(meta, sort_keys=True).encode()
        return (
            _MAGIC
            + _BLOCK.pack(len(meta_blob), zlib.crc32(meta_blob) & 0xFFFFFFFF)
            + meta_blob
            + _BLOCK.pack(len(payload), zlib.crc32(payload) & 0xFFFFFFFF)
            + payload
        )

    @staticmethod
    def _decode(data: bytes) -> Tuple[Dict, bytes]:
        if len(data) < len(_MAGIC) + _BLOCK.size or data[:4] != _MAGIC:
            raise StorageError("bad snapshot magic")
        off = len(_MAGIC)
        meta_len, meta_crc = _BLOCK.unpack(data[off : off + _BLOCK.size])
        off += _BLOCK.size
        meta_blob = data[off : off + meta_len]
        if len(meta_blob) != meta_len or (
            zlib.crc32(meta_blob) & 0xFFFFFFFF
        ) != meta_crc:
            raise StorageError("snapshot meta block corrupt")
        off += meta_len
        if off + _BLOCK.size > len(data):
            raise StorageError("snapshot payload block missing")
        pay_len, pay_crc = _BLOCK.unpack(data[off : off + _BLOCK.size])
        off += _BLOCK.size
        payload = data[off : off + pay_len]
        if len(payload) != pay_len or (
            zlib.crc32(payload) & 0xFFFFFFFF
        ) != pay_crc:
            raise StorageError("snapshot payload corrupt")
        return json.loads(meta_blob.decode()), payload

    def write(self, payload: bytes, meta: Optional[Dict] = None) -> int:
        """Commit one snapshot; returns its sequence number."""
        seq = self._next_seq
        name = _snap_name(seq)
        tmp = name + ".tmp"
        h = self._dir.create(tmp)
        h.write(self._encode(dict(meta or {}), payload))
        if self._fsync:
            h.fsync()
        else:
            h.flush()
        h.close()
        self._dir.rename(tmp, name)  # the commit point
        if self._fsync:
            self._dir.fsync_dir()
        # Only once the new snapshot is durable may the old ones go.
        self._prune(seq)
        self._next_seq = seq + 1
        return seq

    def _prune(self, newest_seq: int) -> None:
        floor = newest_seq - self._keep + 1
        for name in self._dir.listdir():
            seq = self._parse_seq(name)
            if seq is not None and seq < floor:
                self._dir.remove(name)

    # -- read -----------------------------------------------------------
    def load(self) -> Optional[Tuple[int, Dict, bytes]]:
        """Newest complete snapshot as ``(seq, meta, payload)``, or
        ``None`` when the store has never committed one.  Damaged
        files are quarantined and older valid snapshots tried."""
        names = [n for n in self._dir.listdir() if self._parse_seq(n) is not None]
        for name in sorted(names, reverse=True):
            try:
                meta, payload = self._decode(self._dir.read_bytes(name))
            except StorageError:
                self._dir.rename(name, name + ".quarantine")
                self._dir.fsync_dir()
                self.quarantined.append(name)
                continue
            return self._parse_seq(name), meta, payload
        return None
