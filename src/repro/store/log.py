"""Segmented, checksummed, crash-truncatable append log.

The op log under every tenant's durable state.  Records are opaque byte
payloads framed as ``<u32 length, u32 crc32(payload)>`` and appended to
bounded *segment files*::

    log-000000000000.seg      # header: b"RSG1" + <u64 first_seq>
    log-000000000037.seg      # next segment starts at sequence 37
    log-000000000037.seg.quarantine   # a corrupt segment, set aside

Invariants the layout buys:

* **Atomic birth** — every segment file is created as ``.tmp``, header
  written and fsynced, then renamed into place and the directory
  fsynced: a visible segment always has a complete, valid header
  (``tmp → fsync → rename → dir-fsync``, the same recipe as snapshots).
* **Torn tails truncate** — a crash mid-append leaves an incomplete
  final frame in the *last* segment; open detects it and truncates the
  file back to the last complete frame.  Data before the tear is
  untouched.
* **Corrupt records quarantine** — a complete frame whose CRC32 does
  not match (bit rot, torn overwrite) cannot be silently skipped: every
  record after it is of suspect lineage.  The bad segment is renamed
  ``*.quarantine`` (kept for forensics), its good prefix is rewritten
  as a fresh segment under the original name, all later segments are
  quarantined too, and recovery proceeds from the last good record.
* **Compaction by sequence** — :meth:`compact` drops whole segments
  whose records all precede an anchor sequence (the snapshot the ops
  are superseded by); the partially-covered segment stays.
* **No in-memory copy** — the log keeps segment names and record
  counts only; :meth:`entries` reads the records back from the segment
  files, so a long-lived log costs no memory per record.  Whoever needs
  the records in memory keeps its own decoded copy.

Durability contract: ``append(..., sync=True)`` returns only after the
frame is fsynced — a ``SIGKILL`` after the call loses nothing, a power
loss after the call loses nothing (segment birth was dir-fsynced).
``sync=False`` hands the bytes to the OS (flush) without forcing them
to media.  A log opened with ``fsync=False`` fsyncs only appends that
ask for it (``sync=True``): segment birth, rotation, rewrites,
compaction, quarantine and close flush instead, so it survives
``SIGKILL`` but promises nothing across power loss.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.errors import StorageError
from repro.store.directory import Directory, FileHandle

__all__ = ["SegmentedLog"]

_MAGIC = b"RSG1"
_HEADER = struct.Struct("<Q")  # first sequence number in the segment
_FRAME = struct.Struct("<II")  # payload length, crc32(payload)
_HEADER_LEN = len(_MAGIC) + _HEADER.size  # 12


def _segment_name(first_seq: int) -> str:
    return f"log-{first_seq:012d}.seg"


@dataclass
class _Segment:
    name: str
    first_seq: int
    count: int  # live records in this segment


class SegmentedLog:
    """Append-only log of byte records in bounded, checksummed segments."""

    def __init__(
        self,
        directory: Directory,
        *,
        segment_bytes: int = 64 * 1024,
        fsync: bool = True,
    ) -> None:
        if segment_bytes < _HEADER_LEN + _FRAME.size:
            raise StorageError(
                f"segment_bytes too small ({segment_bytes!r})"
            )
        self._dir = directory
        self._segment_bytes = int(segment_bytes)
        self._fsync = bool(fsync)
        self._segments: List[_Segment] = []
        self._count = 0  # live records
        self._base_seq = 0  # seq of the oldest live record
        self._handle: Optional[FileHandle] = None
        self._size = 0  # bytes in the open (last) segment
        self._closed = False
        #: segment names set aside as ``*.quarantine`` during this open.
        self.quarantined: List[str] = []
        #: bytes of torn tail truncated away during this open.
        self.truncated_bytes = 0
        self._recover()

    # -- accessors ------------------------------------------------------
    @property
    def next_seq(self) -> int:
        """Sequence number the next :meth:`append` will return."""
        return self._base_seq + self._count

    @property
    def base_seq(self) -> int:
        """Sequence of the oldest live record (compaction floor)."""
        return self._base_seq

    def entries(self) -> List[Tuple[int, bytes]]:
        """All live records as ``(seq, payload)``, in order, read back
        from the segment files."""
        out: List[Tuple[int, bytes]] = []
        for seg in self._segments:
            payloads, _end, _verdict = self._scan_frames(
                self._dir.read_bytes(seg.name)
            )
            if len(payloads) < seg.count:
                raise StorageError(
                    f"segment {seg.name} lost records since it was opened"
                )
            out.extend(enumerate(payloads[: seg.count], start=seg.first_seq))
        return out

    def __len__(self) -> int:
        return self._count

    # -- recovery -------------------------------------------------------
    def _recover(self) -> None:
        names = []
        for name in self._dir.listdir():
            if name.endswith(".seg.tmp"):
                # A rotation died between create and rename: the tmp file
                # was never part of the log.
                self._dir.remove(name)
                continue
            if name.startswith("log-") and name.endswith(".seg"):
                names.append(name)
        names.sort()

        expected_seq: Optional[int] = None
        for idx, name in enumerate(names):
            last = idx == len(names) - 1
            data = self._dir.read_bytes(name)
            if len(data) < _HEADER_LEN or data[: len(_MAGIC)] != _MAGIC:
                self._quarantine(names[idx:])
                break
            (first_seq,) = _HEADER.unpack(
                data[len(_MAGIC) : _HEADER_LEN]
            )
            if expected_seq is not None and first_seq != expected_seq:
                # A gap or overlap in the sequence chain: everything from
                # here on has suspect lineage.
                self._quarantine(names[idx:])
                break
            if expected_seq is None:
                self._base_seq = first_seq

            payloads, end, verdict = self._scan_frames(data)
            if verdict == "corrupt":
                # Set the bad segment aside, keep its good prefix under
                # the original name, drop everything after it.
                self._quarantine([name])
                self._write_segment(name, first_seq, payloads)
                self._segments.append(
                    _Segment(name, first_seq, len(payloads))
                )
                self._count += len(payloads)
                self._quarantine(names[idx + 1 :])
                break
            if verdict == "torn":
                if not last:
                    # A non-final segment was sealed by a rotation; a tear
                    # inside one is not a crash signature but corruption.
                    self._quarantine(names[idx:])
                    break
                self.truncated_bytes += len(data) - end
                self._dir.truncate(name, end)
                data = data[:end]
            self._segments.append(_Segment(name, first_seq, len(payloads)))
            self._count += len(payloads)
            expected_seq = first_seq + len(payloads)

        if not self._segments:
            self._base_seq = 0
            self._new_segment(0)
        else:
            seg = self._segments[-1]
            self._size = len(self._dir.read_bytes(seg.name))
            self._handle = self._dir.open_append(seg.name)

    @staticmethod
    def _scan_frames(data: bytes) -> Tuple[List[bytes], int, str]:
        """Parse frames after the header.

        Returns ``(payloads, end_offset_of_last_good_frame, verdict)``
        where verdict is ``"clean"`` (ran to the end), ``"torn"``
        (incomplete final frame) or ``"corrupt"`` (CRC mismatch on a
        complete frame)."""
        payloads: List[bytes] = []
        offset = _HEADER_LEN
        n = len(data)
        while offset < n:
            if offset + _FRAME.size > n:
                return payloads, offset, "torn"
            length, crc = _FRAME.unpack(data[offset : offset + _FRAME.size])
            end = offset + _FRAME.size + length
            if end > n:
                return payloads, offset, "torn"
            payload = data[offset + _FRAME.size : end]
            if zlib.crc32(payload) & 0xFFFFFFFF != crc:
                return payloads, offset, "corrupt"
            payloads.append(payload)
            offset = end
        return payloads, offset, "clean"

    def quarantine_reaches(self, seq: int) -> bool:
        """True if a ``*.quarantine`` segment (from any open) may have held
        a record at sequence ``seq`` or later: frames are counted by their
        lengths, CRCs ignored, and unparseable ones may hold anything."""
        for name in self._dir.listdir():
            if not name.endswith(".seg.quarantine"):
                continue
            data = self._dir.read_bytes(name)
            if len(data) < _HEADER_LEN or data[: len(_MAGIC)] != _MAGIC:
                return True
            (end,) = _HEADER.unpack_from(data, len(_MAGIC))
            offset = _HEADER_LEN
            while offset + _FRAME.size <= len(data):
                offset += _FRAME.size + _FRAME.unpack_from(data, offset)[0]
                end += 1
            if offset != len(data) or end > seq:
                return True
        return False

    def _quarantine(self, names: List[str]) -> None:
        for name in names:
            self._dir.rename(name, name + ".quarantine")
            self.quarantined.append(name)
        if names:
            self._sync_dir()

    def _sync(self, handle: FileHandle) -> None:
        """Seal ``handle``'s bytes: fsync, or flush on an unsynced log."""
        if self._fsync:
            handle.fsync()
        else:
            handle.flush()

    def _sync_dir(self) -> None:
        if self._fsync:
            self._dir.fsync_dir()

    def _write_segment(
        self, name: str, first_seq: int, payloads: List[bytes]
    ) -> None:
        """Atomically materialise a complete segment file."""
        tmp = name + ".tmp"
        h = self._dir.create(tmp)
        h.write(_MAGIC + _HEADER.pack(first_seq))
        for payload in payloads:
            h.write(
                _FRAME.pack(len(payload), zlib.crc32(payload) & 0xFFFFFFFF)
                + payload
            )
        self._sync(h)
        h.close()
        self._dir.rename(tmp, name)
        self._sync_dir()

    def _new_segment(self, first_seq: int) -> None:
        name = _segment_name(first_seq)
        self._write_segment(name, first_seq, [])
        self._segments.append(_Segment(name, first_seq, 0))
        self._handle = self._dir.open_append(name)
        self._size = _HEADER_LEN

    # -- append path ----------------------------------------------------
    def append(self, payload: bytes, *, sync: "bool | None" = None) -> int:
        """Append one record; returns its sequence number."""
        if self._closed:
            raise StorageError("append to a closed log")
        frame = (
            _FRAME.pack(len(payload), zlib.crc32(payload) & 0xFFFFFFFF)
            + payload
        )
        if (
            self._size + len(frame) > self._segment_bytes
            and self._segments[-1].count > 0
        ):
            self._rotate()
        seq = self.next_seq
        assert self._handle is not None
        self._handle.write(frame)
        self._size += len(frame)
        self._segments[-1].count += 1
        self._count += 1
        do_sync = self._fsync if sync is None else bool(sync)
        if do_sync:
            self._handle.fsync()
        else:
            self._handle.flush()
        return seq

    def _rotate(self) -> None:
        assert self._handle is not None
        self._sync(self._handle)  # seal the outgoing segment
        self._handle.close()
        self._new_segment(self.next_seq)

    # -- maintenance ----------------------------------------------------
    def compact(self, min_seq: int) -> int:
        """Drop whole segments entirely below ``min_seq``; returns how
        many segments were removed.  The last segment always stays."""
        removed = 0
        while len(self._segments) > 1:
            head = self._segments[0]
            if head.first_seq + head.count > min_seq:
                break
            self._dir.remove(head.name)
            self._count -= head.count
            self._base_seq = head.first_seq + head.count
            self._segments.pop(0)
            removed += 1
        if removed:
            self._sync_dir()
        return removed

    def rebase(self, first_seq: int) -> None:
        """Restart the log at ``first_seq``, dropping records that all
        precede it (a snapshot anchored there supersedes what rot left):
        its segments are removed and a fresh one begins at ``first_seq``;
        the new segment's birth dir-fsyncs the removals (on a log opened
        with ``fsync``)."""
        if self.next_seq > first_seq:
            raise StorageError(f"rebase to {first_seq} would drop records")
        if self._handle is not None:
            self._handle.close()
        for seg in reversed(self._segments):
            self._dir.remove(seg.name)
        self._segments = []
        self._count = 0
        self._base_seq = first_seq
        self._new_segment(first_seq)

    def truncate(self, end_seq: int) -> None:
        """Drop the records at or past ``end_seq`` — appended ahead of a
        commit that never completed.  Later segments are removed and the
        one holding ``end_seq`` is rewritten with its prefix (atomically,
        as in :meth:`_recover`)."""
        if end_seq >= self.next_seq:
            return
        if end_seq < self._base_seq:
            raise StorageError(f"truncate to {end_seq} would drop the log")
        assert self._handle is not None
        self._handle.close()
        while len(self._segments) > 1 and self._segments[-1].first_seq >= end_seq:
            seg = self._segments.pop()
            self._dir.remove(seg.name)
            self._count -= seg.count
        seg = self._segments[-1]
        keep = end_seq - seg.first_seq
        payloads, _end, _verdict = self._scan_frames(
            self._dir.read_bytes(seg.name)
        )
        self._write_segment(seg.name, seg.first_seq, payloads[:keep])
        self._count -= seg.count - keep
        seg.count = keep
        self._size = len(self._dir.read_bytes(seg.name))
        self._handle = self._dir.open_append(seg.name)

    def close(self) -> None:
        if self._closed:
            return
        if self._handle is not None:
            self._sync(self._handle)
            self._handle.close()
            self._handle = None
        self._closed = True
