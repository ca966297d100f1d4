"""Event types and the event queue for the discrete-event engine.

Events are totally ordered by ``(time, kind priority, sequence)``.  The kind
priority encodes the tie-breaking rules the paper's semantics require at a
shared timestamp:

1. ``COMPLETION`` before ``DEADLINE`` — a job finishing exactly at its
   deadline *succeeds* (deadlines are firm but inclusive);
2. ``DEADLINE`` before ``RELEASE`` — expired jobs leave the system before
   new arrivals are considered;
3. ``RELEASE`` before ``ALARM`` — the paper's workload sets relative
   deadlines to ``p/c̲`` so every job's zero-conservative-laxity instant
   coincides with its release; the release handler must run first, then the
   zero-laxity interrupt fires for the job if it was not scheduled.

Stale events are handled by versioning: each (job, kind) carries a version
token captured at scheduling time; bumping the token invalidates in-flight
events without an O(n) heap scan (lazy deletion, as recommended for heapq).
Lazy deletion alone lets dead entries accumulate — schedulers that churn
alarms (LLF crossing timers, Dover's zero-laxity interrupts) can grow the
heap without bound — so the queue also supports *compaction*: when the
caller has hinted that more than half the queue is dead
(:meth:`EventQueue.note_stale`), the heap is filtered through the caller's
staleness predicate and re-heapified.  Compaction preserves pop order
exactly because every entry's ``(time, kind, seq)`` key is unique.

:class:`EventQueue` is one binary heap plus a *seeded run*.  In the
paper's online model a job is invisible until its release interrupt, so
the kernel does not heap a closed-horizon instance's (RELEASE, DEADLINE)
pairs at bootstrap: it hands them to :meth:`EventQueue.seed`, which keeps
them in release-key order beside the heap.  Every pop takes the smaller of
the heap head and the next seeded release, and taking a seeded release
pushes its deadline into the heap.  A job's deadline is strictly after its
release (:class:`~repro.sim.job.Job` enforces it), so that deadline is in
the heap before anything keyed after the release can pop: the merged pop
order is exactly the one-heap ``(time, kind, seq)`` order, while the heap
holds only released jobs' events (docs/PERFORMANCE.md, "Seeded
release/deadline pairs").  Everything observable counts an unreleased pair
as its two queued entries — ``len()``, :meth:`~EventQueue.dump`, the
compaction trigger and the ``stale_hint`` clamp — so snapshots, journals
and compaction match the one-heap queue byte for byte.

The two lists are public read-only attributes (:attr:`EventQueue.heap`,
:attr:`EventQueue.seeded`): the kernel's run loop reads the head times
off them instead of calling :meth:`~EventQueue.peek_time` per event.  Every
method mutates them in place and never rebinds them, so a reader may hold
them across pushes, pops, compactions and :meth:`~EventQueue.load`.

A bucketed calendar layout with the same pop order stays defined at the
end of this module.  No run path builds it; it remains only while the
benchmark harness (``perfbench/ledger.py``) names it.
"""

from __future__ import annotations

import enum
import heapq
import itertools
from typing import Any, Callable, Iterable, List, Optional, Tuple

from repro.errors import SimulationError

__all__ = [
    "EventKind",
    "Event",
    "EventQueue",
]


class EventKind(enum.IntEnum):
    """Event categories; the integer value is the same-time priority."""

    COMPLETION = 0
    DEADLINE = 1
    RELEASE = 2
    ALARM = 3
    TIMER = 4
    END = 5
    #: Injected execution fault (job kill, VM revocation, scheduled crash).
    #: Lowest priority at a shared timestamp: the world transition the fault
    #: interrupts must have fully taken effect first.
    FAULT = 6


class Event:
    """A scheduled occurrence.

    ``version`` is compared against the engine's current token for the
    (job, kind) pair at pop time; mismatches are silently dropped.
    ``payload`` carries the job for job events or an arbitrary tag for
    timers.

    Hot-path note: this used to be a frozen dataclass; the kernel creates
    one per push (plus ~2 heap-tuple fields), so the ``__slots__`` plain
    class cuts both allocation size and construction time on the
    per-event path.  Value equality and hashing are preserved.
    """

    __slots__ = ("time", "kind", "payload", "version")

    def __init__(
        self,
        time: float,
        kind: EventKind,
        payload: Any = None,
        version: int = 0,
    ) -> None:
        self.time = time
        self.kind = kind
        self.payload = payload
        self.version = version

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Event):
            return NotImplemented
        return (
            self.time == other.time
            and self.kind == other.kind
            and self.payload == other.payload
            and self.version == other.version
        )

    def __hash__(self) -> int:
        return hash((self.time, self.kind, self.version))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Event(time={self.time!r}, kind={self.kind!r}, "
            f"payload={self.payload!r}, version={self.version!r})"
        )


#: Heap entries are ``(time, int(kind), seq, event)`` — compared by the
#: unique (time, kind, seq) prefix, so the Event object itself is never
#: compared.
_Entry = Tuple[float, int, int, Event]

#: Seeded-run entries are ``(release time, RELEASE, release seq, release
#: event, deadline entry)``; the deadline entry is the heap entry
#: ``(deadline time, DEADLINE, release seq + 1, deadline event)`` that
#: enters the heap when the release pops.  Compared by the same unique
#: prefix as heap entries, so the run and the heap head compare directly.
_Seeded = Tuple[float, int, int, Event, _Entry]

_RELEASE = int(EventKind.RELEASE)
_DEADLINE = int(EventKind.DEADLINE)


class EventQueue:
    """A priority queue of :class:`Event` with deterministic ordering.

    Ties beyond (time, kind) break by insertion sequence, which makes every
    simulation run bit-for-bit reproducible for a fixed input.

    ``stale`` is an optional predicate identifying entries that are
    *provably* dead (their version token was bumped, or their job reached a
    terminal state); it is only consulted during :meth:`compact`.
    """

    def __init__(self, stale: Callable[[Event], bool] | None = None) -> None:
        #: The binary heap of ``(time, int(kind), seq, event)`` entries;
        #: its head is ``heap[0]``.  Read-only outside this class.
        self.heap: List[_Entry] = []
        #: Unreleased seeded pairs in *descending* key order: the next
        #: release is ``seeded[-1]``.  Read-only outside this class.
        self.seeded: List[_Seeded] = []
        self._counter = itertools.count()
        self._stale = stale
        self._stale_hint = 0

    def __len__(self) -> int:
        return len(self.heap) + 2 * len(self.seeded)

    def push(self, event: Event) -> None:
        if event.time != event.time:  # NaN guard
            raise SimulationError(f"event with NaN time: {event!r}")
        seq = next(self._counter)
        heapq.heappush(self.heap, (event.time, int(event.kind), seq, event))

    def seed(self, pairs: Iterable[Tuple[Event, Event]]) -> None:
        """Queue jobs' ``(RELEASE, DEADLINE)`` event pairs beside the heap.

        Sequence numbers are assigned in iteration order — release ``s``,
        deadline ``s + 1`` — exactly as pushing each pair would.  A pair's
        deadline enters the heap only when its release pops.  Each
        deadline must fall strictly after its release: that is what keeps
        the merged pop order identical to one heap's (module docstring).
        """
        counter = self._counter
        run = self.seeded
        for release, deadline in pairs:
            if (
                release.kind is not EventKind.RELEASE
                or deadline.kind is not EventKind.DEADLINE
            ):
                raise SimulationError(
                    f"seed takes (RELEASE, DEADLINE) pairs, got "
                    f"({release.kind!r}, {deadline.kind!r})"
                )
            if not deadline.time > release.time:  # also rejects NaN
                raise SimulationError(
                    f"seeded deadline {deadline.time!r} is not after its "
                    f"release {release.time!r}"
                )
            seq = next(counter)
            run.append((
                release.time, _RELEASE, seq, release,
                (deadline.time, _DEADLINE, next(counter), deadline),
            ))
        run.sort(reverse=True)

    def pop(self) -> Event:
        heap = self.heap
        seeded = self.seeded
        if seeded and (not heap or seeded[-1] < heap[0]):
            # The next seeded release; its deadline enters the heap.
            entry = seeded.pop()
            heapq.heappush(heap, entry[4])
            event = entry[3]
        elif heap:
            event = heapq.heappop(heap)[3]
        else:
            raise SimulationError("pop from empty event queue")
        if self._stale_hint:
            # The popped entry may itself have been one of the hinted-dead
            # ones; keep the hint an upper bound rather than letting it
            # exceed the queued total.
            queued = len(heap) + 2 * len(seeded)
            if self._stale_hint > queued:
                self._stale_hint = queued
        return event

    def peek_time(self) -> Optional[float]:
        heap = self.heap
        seeded = self.seeded
        if seeded:
            time = seeded[-1][0]
            if not heap or time < heap[0][0]:
                return time
        return heap[0][0] if heap else None

    def peek_key(self) -> Optional[Tuple[float, int]]:
        """``(time, int(kind))`` of the head event without popping it.

        The batch dispatch path uses this to gather whole same-``(time,
        kind)`` groups; like :meth:`peek_time` it sees stale entries too
        (the caller filters them exactly as the scalar loop would)."""
        heap = self.heap
        seeded = self.seeded
        if seeded and (not heap or seeded[-1] < heap[0]):
            return (seeded[-1][0], _RELEASE)
        return (heap[0][0], heap[0][1]) if heap else None

    def pop_group(self, time: float, kind_int: int) -> List[Event]:
        """Pop every consecutive head entry keyed exactly ``(time,
        kind_int)``, in pop order.

        Equivalent to repeated ``peek_key()``/``pop()`` — one call per
        gathered group instead of two per event, with the key comparison
        done on the raw entries (no tuple allocation).  Stale entries
        come out too; the caller filters them exactly as the scalar loop
        would."""
        heap = self.heap
        seeded = self.seeded
        out: List[Event] = []
        heappop = heapq.heappop
        while True:
            if seeded and (not heap or seeded[-1] < heap[0]):
                head = seeded[-1]
                if head[0] != time or head[1] != kind_int:
                    break
                seeded.pop()
                heapq.heappush(heap, head[4])
                out.append(head[3])
            elif heap:
                head = heap[0]
                if head[0] != time or head[1] != kind_int:
                    break
                out.append(heappop(heap)[3])
            else:
                break
        if out and self._stale_hint:
            self._stale_hint = min(
                self._stale_hint, len(heap) + 2 * len(seeded)
            )
        return out

    # -- compaction (lazy-deletion hygiene) ---------------------------------

    def note_stale(self, n: int = 1) -> int:
        """Record that ``n`` in-flight entries just became dead.

        Called by the engine whenever it bumps a version token (cancelling
        an alarm or a completion).  When the hinted dead count exceeds half
        the queued total (``len()``), :meth:`compact` runs automatically.
        Returns the number of entries removed (0 when no compaction was
        triggered).
        """
        self._stale_hint += int(n)
        if (
            self._stale is not None
            and self._stale_hint * 2 > len(self.heap) + 2 * len(self.seeded)
        ):
            return self.compact()
        return 0

    def compact(self) -> int:
        """Drop all entries the staleness predicate marks dead; re-heapify.

        Safe at any point: pop order is fully determined by the unique
        ``(time, kind, seq)`` keys, so removing dead entries and rebuilding
        the heap never changes which live event comes out next.  Only the
        heap is filtered: a seeded pair is never stale (a release never
        is, and an unreleased job's deadline is not).
        """
        if self._stale is None:
            self._stale_hint = 0
            return 0
        heap = self.heap
        stale = self._stale
        before = len(heap)
        heap[:] = [entry for entry in heap if not stale(entry[3])]
        heapq.heapify(heap)
        self._stale_hint = 0
        return before - len(heap)

    # -- snapshot support ---------------------------------------------------

    def dump(self) -> List[_Entry]:
        """All entries in sorted (pop) order, plus no internal state.

        Used by engine snapshots; pair with :meth:`load` and
        :attr:`next_seq` / :attr:`stale_hint` to rebuild an identical queue.
        Unreleased seeded pairs appear as their two entries.
        """
        entries = list(self.heap)
        for time, kind, seq, release, deadline_entry in self.seeded:
            entries.append((time, kind, seq, release))
            entries.append(deadline_entry)
        entries.sort()
        return entries

    def load(
        self,
        entries: Iterable[_Entry],
        next_seq: int,
        stale_hint: int = 0,
    ) -> None:
        """Replace the queue contents (snapshot restore).

        ``next_seq`` must be the original queue's :attr:`next_seq` so that
        sequence numbers assigned after the restore match the original run
        exactly (bit-identical replay depends on it).  Every entry goes
        into the heap; the pop order is the same as from a seeded run.
        """
        self.heap[:] = entries
        heapq.heapify(self.heap)
        self.seeded.clear()
        self._counter = itertools.count(int(next_seq))
        self._stale_hint = int(stale_hint)

    @property
    def next_seq(self) -> int:
        """The sequence number the next :meth:`push` will consume."""
        # itertools.count has no peek; clone-by-arithmetic is not possible,
        # so burn-and-restore: take the value and rebuild the counter.
        value = next(self._counter)
        self._counter = itertools.count(value)
        return value

    @property
    def stale_hint(self) -> int:
        """Current hinted count of dead entries (snapshot bookkeeping)."""
        return self._stale_hint


class CalendarEventQueue(EventQueue):
    """Bucketed (calendar-queue) event queue.

    No run path builds it (see the module docstring); it stays only while
    ``perfbench/ledger.py`` names it.

    Events hash into fixed-width time buckets; each bucket is a small heap
    over the full ``(time, kind, seq)`` entry, and a second heap orders the
    indices of non-empty buckets.  Because buckets partition the time axis
    monotonically and the per-bucket key is the same unique total order the
    binary heap uses, the pop sequence is **identical** to
    :class:`EventQueue`'s for any push/pop interleaving — the calendar
    layout only changes *where* the log factor is paid (a bucket of O(1)
    expected entries instead of one deep heap).

    ``bucket_width`` sets the time span per bucket; pick roughly
    ``horizon / expected_events × 4`` so a bucket holds a few events.
    """

    def __init__(
        self,
        stale: Callable[[Event], bool] | None = None,
        *,
        bucket_width: float = 1.0,
    ) -> None:
        super().__init__(stale)
        if not bucket_width > 0.0:
            raise SimulationError(
                f"bucket_width must be positive, got {bucket_width!r}"
            )
        self._width = float(bucket_width)
        self._buckets: dict[int, List[_Entry]] = {}
        self._order: List[int] = []  # heap of non-empty bucket indices
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def note_stale(self, n: int = 1) -> int:
        """See :meth:`EventQueue.note_stale` (the trigger counts buckets)."""
        self._stale_hint += int(n)
        if self._stale is not None and self._stale_hint * 2 > self._size:
            return self.compact()
        return 0

    def _bucket_of(self, time: float) -> int:
        return int(time // self._width)

    def push(self, event: Event) -> None:
        if event.time != event.time:  # NaN guard
            raise SimulationError(f"event with NaN time: {event!r}")
        entry = (event.time, int(event.kind), next(self._counter), event)
        self._place(entry)

    def push_many(self, events: Iterable[Event]) -> None:
        for event in events:
            self.push(event)

    def seed(self, pairs: Iterable[Tuple[Event, Event]]) -> None:
        """Buckets hold every entry: a seeded pair is simply pushed."""
        for release, deadline in pairs:
            self.push(release)
            self.push(deadline)

    def _place(self, entry: _Entry) -> None:
        idx = self._bucket_of(entry[0])
        bucket = self._buckets.get(idx)
        if bucket is None:
            self._buckets[idx] = [entry]
            heapq.heappush(self._order, idx)
        else:
            heapq.heappush(bucket, entry)
        self._size += 1

    def _head_bucket(self) -> Optional[List[_Entry]]:
        """The bucket holding the globally minimal entry (cleans up emptied
        buckets lazily); ``None`` when the queue is empty."""
        order = self._order
        buckets = self._buckets
        while order:
            bucket = buckets.get(order[0])
            if bucket:
                return bucket
            # Emptied (or vanished) bucket index: retire it.
            buckets.pop(order[0], None)
            heapq.heappop(order)
        return None

    def pop(self) -> Event:
        bucket = self._head_bucket()
        if bucket is None:
            raise SimulationError("pop from empty event queue")
        time, kind, seq, event = heapq.heappop(bucket)
        self._size -= 1
        if self._stale_hint:
            self._stale_hint = min(self._stale_hint, self._size)
        return event

    def peek_time(self) -> Optional[float]:
        bucket = self._head_bucket()
        return bucket[0][0] if bucket else None

    def peek_key(self) -> Optional[Tuple[float, int]]:
        bucket = self._head_bucket()
        return (bucket[0][0], bucket[0][1]) if bucket else None

    def pop_group(self, time: float, kind_int: int) -> List[Event]:
        """See :meth:`EventQueue.pop_group`; buckets partition the time
        axis, so a same-time group always sits in one bucket — but the
        head bucket is re-resolved per pop (popping the bucket's last
        entry retires it)."""
        out: List[Event] = []
        heappop = heapq.heappop
        while True:
            bucket = self._head_bucket()
            if not bucket:
                break
            head = bucket[0]
            if head[0] != time or head[1] != kind_int:
                break
            out.append(heappop(bucket)[3])
            self._size -= 1
        if out and self._stale_hint:
            self._stale_hint = min(self._stale_hint, self._size)
        return out

    def compact(self) -> int:
        if self._stale is None:
            self._stale_hint = 0
            return 0
        before = self._size
        stale = self._stale
        buckets = {}
        for idx, bucket in self._buckets.items():
            kept = [entry for entry in bucket if not stale(entry[3])]
            if kept:
                heapq.heapify(kept)
                buckets[idx] = kept
        self._buckets = buckets
        self._order = list(buckets.keys())
        heapq.heapify(self._order)
        self._size = sum(len(b) for b in buckets.values())
        self._stale_hint = 0
        return before - self._size

    def dump(self) -> List[_Entry]:
        out: List[_Entry] = []
        for bucket in self._buckets.values():
            out.extend(bucket)
        out.sort()
        return out

    def load(
        self,
        entries: Iterable[_Entry],
        next_seq: int,
        stale_hint: int = 0,
    ) -> None:
        self._buckets = {}
        self._order = []
        self._size = 0
        for entry in entries:
            self._place(entry)
        self._counter = itertools.count(int(next_seq))
        self._stale_hint = int(stale_hint)

