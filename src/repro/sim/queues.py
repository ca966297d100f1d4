"""Job queues used by the schedulers (the paper's Qedf, Qother, Qsupp).

All three queues of the V-Dover algorithm are priority queues over jobs
(possibly with attached bookkeeping tuples) that additionally support
*removal by job* — a job can leave a queue because its deadline passed,
because the zero-laxity handler drained Qedf into Qother, or because it got
scheduled.  :class:`JobQueue` implements this with a heap plus lazy
deletion (tombstones), giving O(log n) push/pop/remove amortised.

Tombstone hygiene: lazy deletion alone lets the heap grow without bound
under preemption churn (Qedf→Qother drains, evictions) even while the live
membership stays small.  :meth:`JobQueue.remove` therefore counts the
tombstones it creates and, when they outnumber the live entries
(churn ratio > 1/2, the same trigger :class:`repro.sim.events.EventQueue`
uses for stale events), rebuilds the heap from the surviving entries —
preserving each entry's original insertion counter so tie-break order is
untouched.  This bounds the heap at ~2× the live size regardless of how
long the run churns.

Orderings (paper, Section III-D):

* ``Qedf``   — earliest deadline first (entries are ``(job, t_insert,
  cslack_insert)`` tuples);
* ``Qother`` — earliest deadline first;
* ``Qsupp``  — **latest** deadline first.
"""

from __future__ import annotations

import heapq
import itertools
from operator import attrgetter
from typing import Callable, Generic, Iterator, Optional, Tuple, TypeVar

from repro.errors import SchedulingError
from repro.sim.job import Job

__all__ = ["JobQueue", "edf_key", "latest_deadline_key", "EdfEntry"]

#: Bookkeeping entry for Qedf: (job, t_insert, cslack_insert).
EdfEntry = Tuple[Job, float, float]

E = TypeVar("E")


#: Earliest-deadline-first ordering key with deterministic tie-break:
#: ``edf_key(job) == (job.deadline, job.jid)``.  An ``attrgetter``, so a
#: key computation enters no Python frame.
edf_key: Callable[[Job], tuple] = attrgetter("deadline", "jid")


def latest_deadline_key(job: Job) -> tuple:
    """Latest-deadline-first ordering key (used by Qsupp)."""
    return (-job.deadline, job.jid)


class JobQueue(Generic[E]):
    """Heap-ordered queue of entries keyed by their job, with removal.

    Parameters
    ----------
    key:
        Maps a *job* to its ordering key (smallest first).
    entry_job:
        Extracts the job from an entry.  ``None`` (the default) for queues
        whose entries are bare jobs; Qedf passes ``itemgetter(0)``.
    name:
        For diagnostics.

    Heap items are ``(key, counter, jid, entry)``: the jid rides in the
    item, so purging, dequeuing and compaction never re-extract the job.
    """

    def __init__(
        self,
        key: Callable[[Job], tuple] = edf_key,
        *,
        entry_job: Callable[[E], Job] | None = None,
        name: str = "queue",
    ) -> None:
        self._key = key
        self._entry_job = entry_job
        self._name = name
        self._heap: list[tuple[tuple, int, int, E]] = []
        self._live: dict[int, E] = {}  # jid -> current entry
        self._counter = itertools.count()
        self._tombstones = 0  # dead heap entries not yet purged

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._live)

    def __bool__(self) -> bool:
        return bool(self._live)

    def __contains__(self, job: Job) -> bool:
        return job.jid in self._live

    def jobs(self) -> Iterator[Job]:
        """Iterate over live member jobs (heap order not guaranteed)."""
        if self._entry_job is None:
            return iter(self._live.values())
        return map(self._entry_job, self._live.values())

    def entries(self) -> Iterator[E]:
        """Iterate over live entries (heap order not guaranteed)."""
        yield from self._live.values()

    def live_jids(self) -> list[int]:
        """Sorted jids of live members.

        The canonical serialization of queue membership for snapshots and
        policy-state capture — avoids materialising Job views just to read
        their ``jid``.
        """
        return sorted(self._live)

    @property
    def heap_size(self) -> int:
        """Physical heap length including tombstones (hygiene telemetry)."""
        return len(self._heap)

    # ------------------------------------------------------------------
    def insert(self, entry: E) -> None:
        """Insert an entry; its job must not already be a member."""
        job = entry if self._entry_job is None else self._entry_job(entry)
        jid = job.jid
        if jid in self._live:
            raise SchedulingError(
                f"{self._name}: job {jid} inserted twice"
            )
        self._live[jid] = entry
        heapq.heappush(
            self._heap, (self._key(job), next(self._counter), jid, entry)
        )

    def _purge(self) -> None:
        """Drop tombstoned heap entries from the top."""
        heap = self._heap
        live = self._live
        while heap:
            item = heap[0]
            if live.get(item[2]) is item[3]:
                return
            heapq.heappop(heap)
            self._tombstones -= 1

    def first(self) -> E:
        """The paper's ``FirstInQueue``: best entry without removal."""
        self._purge()
        if not self._heap:
            raise SchedulingError(f"{self._name}: first() on empty queue")
        return self._heap[0][3]

    def dequeue(self) -> E:
        """The paper's ``Dequeue``: pop and return the best entry."""
        self._purge()
        if not self._heap:
            raise SchedulingError(f"{self._name}: dequeue() on empty queue")
        _, _, jid, entry = heapq.heappop(self._heap)
        del self._live[jid]
        return entry

    def remove(self, job: Job) -> Optional[E]:
        """Remove ``job``'s entry if present; return it (else ``None``).

        O(1) amortised: the heap copy becomes a tombstone purged lazily,
        and when tombstones outnumber live entries the heap is compacted
        (see module docstring).
        """
        entry = self._live.pop(job.jid, None)
        if entry is not None:
            self._tombstones += 1
            if self._tombstones * 2 > len(self._heap):
                self.compact()
        return entry

    def compact(self) -> int:
        """Rebuild the heap from live entries only; returns tombstones
        dropped.

        Each surviving heap tuple keeps its original insertion counter, so
        the (key, counter) total order — and therefore every future
        ``first``/``dequeue`` result — is exactly what it would have been
        without compaction.
        """
        live = self._live
        before = len(self._heap)
        self._heap = [
            item for item in self._heap if live.get(item[2]) is item[3]
        ]
        heapq.heapify(self._heap)
        self._tombstones = 0
        return before - len(self._heap)

    def drain(self) -> list[E]:
        """Remove and return *all* live entries in key order.

        Single pass: filter the live heap tuples out of the heap once and
        sort them by their (key, counter) prefix — rather than repeated
        ``dequeue()`` calls, each of which re-purges tombstones from the
        top of a shrinking heap.
        """
        live = self._live
        kept = [item for item in self._heap if live.get(item[2]) is item[3]]
        # (key, counter) is unique, so entries themselves are never compared.
        kept.sort()
        self._heap.clear()
        self._live.clear()
        self._tombstones = 0
        return [item[3] for item in kept]

    def clear(self) -> None:
        self._live.clear()
        self._heap.clear()
        self._tombstones = 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"JobQueue({self._name}, size={len(self._live)})"
