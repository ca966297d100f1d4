"""Snapshot files with a checksummed manifest: partial = invisible.

A :class:`SnapshotStore` holds the durable anchors of a tenant's state:
opaque payload blobs (the shard pickles its state image) written under
monotonically numbered names, with a ``MANIFEST`` file pointing at the
newest *complete* snapshot.

The write protocol makes a partial snapshot impossible to observe:

1. the snapshot file is written to ``snap-<n>.bin.tmp``, fsynced, and
   renamed to ``snap-<n>.bin`` (directory fsynced) — so a visible
   ``snap-*.bin`` always carries its full, self-validating content
   (magic, meta block, payload block, each length+CRC32 framed);
2. only then is ``MANIFEST`` replaced the same way (``MANIFEST.tmp`` →
   rename → dir-fsync), atomically repointing readers at the new file;
3. only *after* the manifest is durable are snapshots beyond the keep
   window deleted — without a directory fsync of their own: a deletion
   lost to power failure only brings back an older, unreferenced
   snapshot, which the next commit deletes again.

A crash between (1) and (2) leaves a complete-but-unreferenced snapshot
file and an old manifest still pointing at the previous one: readers
never see the new state until it is fully committed.  Loading validates
the manifest's own checksum and the pointed file's framing; on bit rot
the damaged artifact is renamed ``*.quarantine`` and the store falls
back to the newest remaining snapshot that validates.
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
MANIFEST = "MANIFEST"


def _snap_name(seq: int) -> str:
    return f"snap-{seq:012d}.bin"


def _manifest_crc(doc: Dict) -> int:
    body = {k: v for k, v in sorted(doc.items()) if k != "crc"}
    return zlib.crc32(json.dumps(body, sort_keys=True).encode()) & 0xFFFFFFFF


class SnapshotStore:
    """Numbered snapshot blobs behind an atomically-replaced manifest."""

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
        meta = dict(meta or {})
        seq = self._next_seq
        name = _snap_name(seq)
        self._write_atomic(name, self._encode(meta, payload))

        manifest = {
            "kind": "snapshot_manifest",
            "seq": seq,
            "snapshot": name,
        }
        manifest["crc"] = _manifest_crc(manifest)
        self._write_atomic(
            MANIFEST, (json.dumps(manifest, sort_keys=True) + "\n").encode()
        )

        # Only after the manifest durably points elsewhere may the old
        # snapshots go.
        self._prune(seq)
        self._next_seq = seq + 1
        return seq

    def _write_atomic(self, name: str, data: bytes) -> None:
        tmp = name + ".tmp"
        h = self._dir.create(tmp)
        h.write(data)
        if self._fsync:
            h.fsync()
        else:
            h.flush()
        h.close()
        self._dir.rename(tmp, name)
        if self._fsync:
            self._dir.fsync_dir()

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
        artifacts are quarantined and older valid snapshots tried."""
        target: Optional[str] = None
        if self._dir.exists(MANIFEST):
            try:
                doc = json.loads(self._dir.read_bytes(MANIFEST).decode())
                if (
                    doc.get("kind") != "snapshot_manifest"
                    or doc.get("crc") != _manifest_crc(doc)
                ):
                    raise StorageError("manifest corrupt")
                target = str(doc["snapshot"])
            except (StorageError, ValueError, KeyError):
                self._set_aside(MANIFEST)
                target = None

        if target is not None:
            loaded = self._try_load(target)
            if loaded is not None:
                return loaded

        # Fallback: newest self-validating snapshot file on disk.
        candidates = sorted(
            (
                name
                for name in self._dir.listdir()
                if self._parse_seq(name) is not None
            ),
            reverse=True,
        )
        for name in candidates:
            loaded = self._try_load(name)
            if loaded is not None:
                return loaded
        return None

    def _try_load(self, name: str) -> Optional[Tuple[int, Dict, bytes]]:
        if not self._dir.exists(name):
            return None
        seq = self._parse_seq(name)
        if seq is None:
            return None
        try:
            meta, payload = self._decode(self._dir.read_bytes(name))
        except StorageError:
            self._set_aside(name)
            return None
        return seq, meta, payload

    def _set_aside(self, name: str) -> None:
        self._dir.rename(name, name + ".quarantine")
        self._dir.fsync_dir()
        self.quarantined.append(name)
