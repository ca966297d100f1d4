"""Filesystem abstraction for the durable store: real, in-memory, faulty.

Everything in :mod:`repro.store` writes through a tiny :class:`Directory`
protocol instead of ``pathlib`` directly, for one reason: **crash
semantics must be testable**.  POSIX durability is subtle — ``write()``
lands in the page cache, ``fsync(fd)`` persists a file's *content*,
but a freshly created or renamed *entry* only survives power loss after
the parent directory itself is fsynced.  The store's atomicity recipes
(``tmp → fsync → rename → dir-fsync``) are exactly the dance that makes
partial states invisible; proving they work needs a filesystem whose
power cord can be pulled deterministically.

Three implementations:

* :class:`OsDirectory` — the real thing (``os.fsync`` on files and on
  the directory fd; ``os.replace`` for atomic rename).
* :class:`MemoryDirectory` — an in-memory filesystem with an explicit
  *volatile vs durable* split: every file tracks the bytes the process
  sees (``content``) and the bytes that would survive power loss
  (``durable``, advanced only by ``fsync``); directory entries
  (creations, renames, removals) stay volatile until :meth:`fsync_dir`.
  :meth:`MemoryDirectory.crash` simulates the power loss: all volatile
  state reverts, recursively.
* :class:`~repro.store.faults.FaultyDirectory` — wraps either of the
  above and injects torn writes / bit flips / ``ENOSPC`` / lying fsyncs
  (see :mod:`repro.store.faults`).

Simplification, stated: subdirectory creation and removal are treated
as durable immediately (the store lays out its directory tree once, at
open time, long before any interesting write, and removes only a
retired one), and ``SIGKILL``-style process death
— as opposed to power loss — loses nothing that reached the OS, which
the in-memory model can emulate by fsync-ing everything before
:meth:`crash`.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Dict, List, Optional, Protocol

from repro.errors import StorageError

__all__ = ["FileHandle", "Directory", "OsDirectory", "MemoryDirectory"]


class FileHandle(Protocol):
    """An open, append-positioned binary file."""

    def write(self, data: bytes) -> None: ...

    def flush(self) -> None: ...

    def fsync(self) -> None: ...

    def close(self) -> None: ...

    def tell(self) -> int: ...


class Directory(Protocol):
    """One flat directory of files plus named subdirectories."""

    def create(self, name: str) -> FileHandle: ...

    def open_append(self, name: str) -> FileHandle: ...

    def read_bytes(self, name: str) -> bytes: ...

    def exists(self, name: str) -> bool: ...

    def listdir(self) -> List[str]: ...

    def rename(self, old: str, new: str) -> None: ...

    def remove(self, name: str) -> None: ...  # a file or empty subdir

    def truncate(self, name: str, size: int) -> None: ...

    def fsync_dir(self) -> None: ...

    def subdir(self, name: str) -> "Directory": ...

    @property
    def path(self) -> Optional[Path]: ...


# ----------------------------------------------------------------------
# Real filesystem
# ----------------------------------------------------------------------
class _OsFile:
    def __init__(self, fh) -> None:
        self._fh = fh

    def write(self, data: bytes) -> None:
        self._fh.write(data)

    def flush(self) -> None:
        self._fh.flush()

    def fsync(self) -> None:
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def close(self) -> None:
        self._fh.close()

    def tell(self) -> int:
        return self._fh.tell()


class OsDirectory:
    """The real filesystem rooted at ``path`` (created if missing)."""

    def __init__(self, path: "str | Path") -> None:
        self._path = Path(path)
        self._path.mkdir(parents=True, exist_ok=True)

    @property
    def path(self) -> Optional[Path]:
        return self._path

    def create(self, name: str) -> FileHandle:
        return _OsFile((self._path / name).open("wb"))

    def open_append(self, name: str) -> FileHandle:
        return _OsFile((self._path / name).open("ab"))

    def read_bytes(self, name: str) -> bytes:
        return (self._path / name).read_bytes()

    def exists(self, name: str) -> bool:
        return (self._path / name).exists()

    def listdir(self) -> List[str]:
        return sorted(
            p.name for p in self._path.iterdir() if p.is_file()
        )

    def rename(self, old: str, new: str) -> None:
        os.replace(self._path / old, self._path / new)

    def remove(self, name: str) -> None:
        path = self._path / name
        if path.is_dir():
            path.rmdir()
        else:
            path.unlink()

    def truncate(self, name: str, size: int) -> None:
        with (self._path / name).open("r+b") as fh:
            fh.truncate(size)

    def fsync_dir(self) -> None:
        # Persist entry operations (create/rename/remove).  Some
        # platforms refuse to fsync a directory fd; durability there is
        # best-effort, exactly like the journal's dir-fsync.
        try:
            fd = os.open(self._path, os.O_RDONLY)
        except OSError:  # pragma: no cover - platform-dependent
            return
        try:
            os.fsync(fd)
        except OSError:  # pragma: no cover - platform-dependent
            pass
        finally:
            os.close(fd)

    def subdir(self, name: str) -> "OsDirectory":
        return OsDirectory(self._path / name)


# ----------------------------------------------------------------------
# In-memory filesystem with an explicit power-loss model
# ----------------------------------------------------------------------
class _MemFile:
    """One file's volatile content and its durable (fsynced) prefix."""

    __slots__ = ("content", "durable")

    def __init__(self) -> None:
        self.content = bytearray()
        self.durable: bytes = b""


class _MemHandle:
    def __init__(self, owner: "MemoryDirectory", f: _MemFile) -> None:
        self._owner = owner
        self._f = f
        self._epoch = owner.epoch
        self._closed = False

    def _check(self) -> None:
        if self._closed:
            raise StorageError("write to a closed file handle")
        if self._epoch != self._owner.epoch:
            raise StorageError("file handle outlived a simulated crash")

    def write(self, data: bytes) -> None:
        self._check()
        self._f.content += data

    def flush(self) -> None:
        self._check()  # buffering is not modelled: writes are "in the OS"

    def fsync(self) -> None:
        self._check()
        self._f.durable = bytes(self._f.content)

    def close(self) -> None:
        self._closed = True

    def tell(self) -> int:
        return len(self._f.content)


class MemoryDirectory:
    """In-memory :class:`Directory` with volatile/durable bookkeeping.

    ``files`` is what the process sees; ``_durable_entries`` snapshots
    the *name → file* mapping as of the last :meth:`fsync_dir` — a
    created/renamed/removed entry is volatile until then.  File content
    durability is per-file (``fsync``).  :meth:`crash` reverts every
    volatile bit, recursively through subdirectories.
    """

    def __init__(self) -> None:
        self._files: Dict[str, _MemFile] = {}
        self._durable_entries: Dict[str, _MemFile] = {}
        self._children: Dict[str, "MemoryDirectory"] = {}
        self.epoch = 0  # bumped on crash; invalidates open handles

    @property
    def path(self) -> Optional[Path]:
        return None

    # -- Directory protocol ---------------------------------------------
    def create(self, name: str) -> FileHandle:
        f = _MemFile()
        self._files[name] = f
        return _MemHandle(self, f)

    def open_append(self, name: str) -> FileHandle:
        if name not in self._files:
            raise StorageError(f"no such file {name!r}")
        return _MemHandle(self, self._files[name])

    def read_bytes(self, name: str) -> bytes:
        if name not in self._files:
            raise StorageError(f"no such file {name!r}")
        return bytes(self._files[name].content)

    def exists(self, name: str) -> bool:
        return name in self._files or name in self._children

    def listdir(self) -> List[str]:
        return sorted(self._files)

    def rename(self, old: str, new: str) -> None:
        if old not in self._files:
            raise StorageError(f"no such file {old!r}")
        self._files[new] = self._files.pop(old)

    def remove(self, name: str) -> None:
        if self._children.pop(name, None) is not None:
            return
        if name not in self._files:
            raise StorageError(f"no such file {name!r}")
        del self._files[name]

    def truncate(self, name: str, size: int) -> None:
        f = self._files[name]
        del f.content[size:]

    def fsync_dir(self) -> None:
        self._durable_entries = dict(self._files)

    def subdir(self, name: str) -> "MemoryDirectory":
        # Subdirectory creation is durable immediately (see module doc).
        child = self._children.get(name)
        if child is None:
            child = MemoryDirectory()
            self._children[name] = child
        return child

    @classmethod
    def copy_of(cls, path: "str | Path") -> "MemoryDirectory":
        """A durable in-memory copy of the directory tree at ``path``,
        read once and never written back — a store opened on it runs
        its recovery on the copy.  A file that vanishes mid-copy (a live
        writer compacting or rotating) is left out."""
        mem = cls()
        for entry in sorted(Path(path).iterdir()):
            try:
                if entry.is_dir():
                    mem._children[entry.name] = cls.copy_of(entry)
                elif entry.is_file():
                    f = _MemFile()
                    f.durable = entry.read_bytes()
                    f.content = bytearray(f.durable)
                    mem._files[entry.name] = f
            except FileNotFoundError:
                continue
        mem._durable_entries = dict(mem._files)
        return mem

    # -- the power cord ---------------------------------------------------
    def crash(self) -> None:
        """Simulate power loss: volatile entries and content vanish."""
        self.epoch += 1
        self._files = dict(self._durable_entries)
        for f in self._files.values():
            f.content = bytearray(f.durable)
        for child in self._children.values():
            child.crash()

    def sync_all(self) -> None:
        """Make the *current* state fully durable (recursively) — models
        ``SIGKILL``-style process death, which loses nothing already
        handed to the OS."""
        for f in self._files.values():
            f.durable = bytes(f.content)
        self.fsync_dir()
        for child in self._children.values():
            child.sync_all()
