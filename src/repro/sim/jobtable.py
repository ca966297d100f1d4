"""Columnar (struct-of-arrays) job state: the kernel's ground truth.

Historically the kernel kept per-job execution state in ``Dict[int, float]``
/ ``Dict[int, JobStatus]`` maps.  :class:`JobTable` replaces those with a
column layout:

* **immutable parameter columns** — ``release``, ``workload``, ``deadline``,
  ``value`` and ``jid`` as numpy ``float64``/``int64`` arrays, built once
  from the instance.  Whole-population passes (bootstrap event seeding,
  laxity recomputation, feasibility chains, wind-down sweeps) become single
  vectorized expressions instead of per-job Python loops.
* **mutable hot columns** — ``remaining`` (float) and ``status`` (int code,
  see :data:`repro.sim.job.CODE_STATUS`) as plain Python lists indexed by
  row.  The event loop reads and writes these one scalar at a time, and
  CPython list indexing both beats numpy scalar indexing (which boxes every
  element into ``np.float64``) and guarantees native ``float``/``int``
  values at the serialization boundaries (encoded journal records,
  pickle in snapshots).  Vector views are materialized on demand by
  :meth:`remaining_array` / :meth:`status_array`.

Existing :class:`~repro.sim.job.Job` objects stay the API surface —
schedulers, event payloads and traces keep passing them around; the table
maps ``jid → row`` once and the kernel touches columns by row.

State snapshots become near-memcpy column copies (:meth:`copy_state` /
:meth:`load_state_columns`): two ``list.copy()`` calls instead of
rebuilding keyed dicts.  The jid-keyed dict exports used by the on-disk
:class:`~repro.sim.journal.EngineSnapshot` schema (unchanged, schema 2)
are derived from the columns only when a snapshot is actually taken.

Bit-identity note: every vectorized helper performs *element-wise*
arithmetic only (no reductions), in the same expression order as the
scalar code it replaces — so columnar and scalar results agree to the bit.
Order-sensitive *reductions* (e.g. V-Dover's protected-value sum over
Qedf) deliberately stay scalar; see docs/PERFORMANCE.md ("Summation-order
audit").
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import SimulationError
from repro.sim.job import (
    CODE_STATUS,
    STATUS_CODE,
    Job,
    JobStatus,
)

__all__ = ["JobTable"]

_PENDING = STATUS_CODE[JobStatus.PENDING]
_READY = STATUS_CODE[JobStatus.READY]
_RUNNING = STATUS_CODE[JobStatus.RUNNING]
#: Codes at or above this are terminal (COMPLETED / FAILED / ABANDONED) —
#: relies on the CODE_STATUS ordering, which is append-only by contract.
_TERMINAL_MIN = STATUS_CODE[JobStatus.COMPLETED]


class JobTable:
    """Column store for one instance's per-job execution state.

    Attributes (all indexed by *row*, the position of the job in the
    instance order):

    ``jobs``
        The row-ordered :class:`Job` views (tuple).
    ``row_of``
        ``jid → row`` mapping (dict).
    ``jid``, ``release``, ``workload``, ``deadline``, ``value``
        Immutable numpy parameter columns.
    ``remaining``, ``status``
        Mutable hot columns (Python lists); the kernel mutates them in
        place by row.  ``status`` holds int codes (``STATUS_CODE``).
    """

    __slots__ = (
        "jobs",
        "row_of",
        "jid",
        "release",
        "workload",
        "deadline",
        "value",
        "remaining",
        "status",
    )

    def __init__(self, jobs: Sequence[Job]) -> None:
        self.jobs: Tuple[Job, ...] = tuple(jobs)
        n = len(self.jobs)
        self.row_of: Dict[int, int] = {
            job.jid: row for row, job in enumerate(self.jobs)
        }
        if len(self.row_of) != n:
            raise SimulationError("duplicate job ids in JobTable")
        jobs = self.jobs
        self.jid = np.array([j.jid for j in jobs], dtype=np.int64)
        self.release = np.array([j.release for j in jobs], dtype=np.float64)
        self.workload = np.array([j.workload for j in jobs], dtype=np.float64)
        self.deadline = np.array([j.deadline for j in jobs], dtype=np.float64)
        self.value = np.array([j.value for j in jobs], dtype=np.float64)
        self.remaining: List[float] = [0.0] * n
        self.status: List[int] = [_PENDING] * n

    # ------------------------------------------------------------------
    def append_job(self, job: Job) -> None:
        """Grow the table by one job (live-service admission).

        The immutable parameter columns are rebuilt (``np.append`` copies,
        O(rows) — a service kernel's rows are its live jobs, since
        :meth:`retain` evicts finished ones) — admission is the cold path
        and nothing holds references to them.  The mutable hot columns
        and the ``row_of`` map are extended *in place*: the kernel aliases
        those (``_rem``/``_st``/``_row``) and the aliases must survive
        admission, exactly as they survive :meth:`load_state_columns`.
        """
        if job.jid in self.row_of:
            raise SimulationError(f"duplicate job id {job.jid} in JobTable")
        row = len(self.jobs)
        self.jobs = self.jobs + (job,)
        self.row_of[job.jid] = row
        self.jid = np.append(self.jid, np.int64(job.jid))
        self.release = np.append(self.release, np.float64(job.release))
        self.workload = np.append(self.workload, np.float64(job.workload))
        self.deadline = np.append(self.deadline, np.float64(job.deadline))
        self.value = np.append(self.value, np.float64(job.value))
        self.remaining.append(0.0)
        self.status.append(_PENDING)

    def retain(self, rows: Sequence[int]) -> None:
        """Keep only ``rows`` (ascending), renumbered in their order — the
        service kernel's eviction of finished jobs.  In place for the
        aliased ``row_of`` map and hot columns, like :meth:`append_job`."""
        keep = np.asarray(rows, dtype=np.int64)
        self.jobs = tuple(self.jobs[r] for r in rows)
        self.row_of.clear()
        self.row_of.update((job.jid, row) for row, job in enumerate(self.jobs))
        self.jid = self.jid[keep]
        self.release = self.release[keep]
        self.workload = self.workload[keep]
        self.deadline = self.deadline[keep]
        self.value = self.value[keep]
        self.remaining[:] = [self.remaining[r] for r in rows]
        self.status[:] = [self.status[r] for r in rows]

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.jobs)

    def status_of(self, jid: int) -> Optional[JobStatus]:
        """Status as the enum (``None`` for unknown jids) — the diagnostic
        view; the kernel compares int codes directly."""
        row = self.row_of.get(jid)
        return None if row is None else CODE_STATUS[self.status[row]]

    # ------------------------------------------------------------------
    # Vector views (materialized on demand)
    # ------------------------------------------------------------------
    def remaining_array(self) -> np.ndarray:
        return np.asarray(self.remaining, dtype=np.float64)

    def status_array(self) -> np.ndarray:
        return np.asarray(self.status, dtype=np.int64)

    def rows_released_by(self, horizon: float) -> np.ndarray:
        """Rows of jobs released within ``[0, horizon]`` (bootstrap
        seeding)."""
        return np.nonzero(self.release <= horizon)[0]

    def rows_unresolved(self) -> np.ndarray:
        """Rows still READY or RUNNING — the wind-down failure sweep."""
        st = self.status_array()
        return np.nonzero((st == _READY) | (st == _RUNNING))[0]

    def rows_ready(self) -> np.ndarray:
        return np.nonzero(self.status_array() == _READY)[0]

    def laxities(
        self,
        now: float,
        rate: float,
        rows: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Vectorized :meth:`Job.laxity`: ``d − now − remaining/rate`` for
        every row (or the given rows), element-wise in the exact expression
        order of the scalar method — bit-identical per element."""
        if rows is None:
            deadline = self.deadline
            remaining = self.remaining_array()
        else:
            deadline = self.deadline[rows]
            remaining = self.remaining_array()[rows]
        return deadline - now - remaining / rate

    def zero_laxity_times(
        self,
        rate: float,
        rows: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Instants at which laxity reaches zero under constant ``rate``:
        ``d − remaining/rate`` (the kernel's alarm arming expression)."""
        if rows is None:
            deadline = self.deadline
            remaining = self.remaining_array()
        else:
            deadline = self.deadline[rows]
            remaining = self.remaining_array()[rows]
        return deadline - remaining / rate

    # ------------------------------------------------------------------
    # Snapshot support
    # ------------------------------------------------------------------
    def copy_state(self) -> Tuple[List[float], List[int]]:
        """Near-memcpy image of the mutable columns (``list.copy``)."""
        return (self.remaining.copy(), self.status.copy())

    def load_state_columns(
        self, remaining: Sequence[float], status: Sequence[int]
    ) -> None:
        """Inverse of :meth:`copy_state`."""
        if len(remaining) != len(self.jobs) or len(status) != len(self.jobs):
            raise SimulationError("column snapshot length mismatch")
        # In-place: the kernel holds direct references to these lists.
        self.remaining[:] = remaining
        self.status[:] = status

    def export_remaining(self) -> Dict[int, float]:
        """jid → remaining for *released* jobs — the historical
        ``EngineSnapshot.remaining`` dict (schema 2, unchanged)."""
        status = self.status
        return {
            job.jid: self.remaining[row]
            for row, job in enumerate(self.jobs)
            if status[row] != _PENDING
        }

    def export_status(self) -> Dict[int, str]:
        """jid → status *name* for every job (``EngineSnapshot.status``)."""
        return {
            job.jid: CODE_STATUS[self.status[row]].name
            for row, job in enumerate(self.jobs)
        }

    def load_state_dicts(
        self, remaining: Dict[int, float], status: Dict[int, str]
    ) -> None:
        """Load the jid-keyed snapshot dicts back into the columns."""
        # In-place: the kernel holds direct references to these lists.
        self.remaining[:] = [0.0] * len(self.jobs)
        self.status[:] = [_PENDING] * len(self.jobs)
        row_of = self.row_of
        for jid, name in status.items():
            self.status[row_of[jid]] = STATUS_CODE[JobStatus[name]]
        for jid, rem in remaining.items():
            self.remaining[row_of[jid]] = rem

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"JobTable(n={len(self.jobs)})"
