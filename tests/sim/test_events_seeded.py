"""Seeded release/deadline pairs ≡ one binary heap.

:meth:`EventQueue.seed` keeps unreleased jobs beside the heap, stages
only the next release in it and pushes a deadline only when its release
pops.  The licence for that is a differential property: against a plain
one-heap queue (the layout where bootstrap pushed every job's
(RELEASE, DEADLINE) pair), any interleaving of seeding, dynamic pushes,
pops, group pops, stale hints that trip compaction and a dump → load
round trip yields the same pop sequence, ``len()``, ``stale_hint``,
``next_seq`` and ``dump()`` after every step.  The queue builds a seeded
job's events itself, so they compare equal to the reference's, not
identical.
"""

from __future__ import annotations

import heapq

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import InvalidInstanceError
from repro.sim.events import Event, EventKind, EventQueue
from repro.sim.job import Job

pytestmark = pytest.mark.batchproto_smoke

#: Seeded releases lie on this coarse grid; deadlines land on it too (so
#: they tie with other jobs' releases and with each other) or past it.
GRID = 6
PAST_HORIZON = 100.0


class OneHeap:
    """The reference: every entry in one heap, as before seeding existed."""

    def __init__(self, stale):
        self.heap = []
        self.next_seq = 0
        self.stale = stale
        self.stale_hint = 0

    def __len__(self):
        return len(self.heap)

    def push(self, event):
        heapq.heappush(
            self.heap, (event.time, int(event.kind), self.next_seq, event)
        )
        self.next_seq += 1

    def pop(self):
        event = heapq.heappop(self.heap)[3]
        if self.stale_hint:
            self.stale_hint = min(self.stale_hint, len(self.heap))
        return event

    def peek_time(self):
        return self.heap[0][0] if self.heap else None

    def peek_key(self):
        return (self.heap[0][0], self.heap[0][1]) if self.heap else None

    def pop_group(self, time, kind_int):
        out = []
        while self.heap and self.heap[0][:2] == (time, kind_int):
            out.append(heapq.heappop(self.heap)[3])
        if out and self.stale_hint:
            self.stale_hint = min(self.stale_hint, len(self.heap))
        return out

    def note_stale(self, n):
        self.stale_hint += n
        if self.stale_hint * 2 > len(self):
            return self.compact()
        return 0

    def compact(self):
        before = len(self.heap)
        self.heap = [e for e in self.heap if not self.stale(e[3])]
        heapq.heapify(self.heap)
        self.stale_hint = 0
        return before - len(self.heap)

    def dump(self):
        return sorted(self.heap)

    def load(self, entries, next_seq, stale_hint):
        self.heap = list(entries)
        heapq.heapify(self.heap)
        self.next_seq = next_seq
        self.stale_hint = stale_hint


@st.composite
def seeded_jobs(draw):
    """Tie-heavy (release, deadline) pairs, listed out of release order:
    bursts at one instant, deadlines on other jobs' releases, tied
    deadlines, and deadlines past the horizon."""
    n = draw(st.integers(0, 14))
    burst = float(draw(st.integers(0, GRID)))
    jobs = []
    for _ in range(n):
        release = draw(
            st.one_of(st.just(burst), st.integers(0, GRID).map(float))
        )
        deadline = draw(
            st.one_of(
                st.integers(int(release) + 1, GRID + 2).map(float),
                st.just(PAST_HORIZON),
            )
        )
        jobs.append((release, deadline))
    return jobs


#: One step: ("push", dt, kind), ("pop",), ("group",), ("stale", k) or
#: ("roundtrip",) — the round trip runs at most once per example.
steps = st.lists(
    st.one_of(
        st.tuples(
            st.just("push"),
            st.sampled_from([0.0, 0.0, 0.5, 1.0, 2.0, 7.0]),
            st.sampled_from(list(EventKind)),
        ),
        st.just(("pop",)),
        st.just(("group",)),
        st.tuples(st.just("stale"), st.integers(1, 4)),
        st.just(("roundtrip",)),
    ),
    max_size=60,
)


def _assert_same(queue, ref):
    assert len(queue) == len(ref)
    assert queue.stale_hint == ref.stale_hint
    assert queue.next_seq == ref.next_seq
    assert queue.peek_time() == ref.peek_time()
    assert queue.peek_key() == ref.peek_key()
    assert queue.dump() == ref.dump()


@settings(max_examples=300, deadline=None)
@given(jobs=seeded_jobs(), ops=steps)
def test_seeded_queue_matches_one_heap(jobs, ops):
    dead = set()
    stale = lambda event: event.payload in dead  # noqa: E731
    queue, ref = EventQueue(stale), OneHeap(stale)

    seeded = [
        Job(j, release, 1.0, deadline, 1.0)
        for j, (release, deadline) in enumerate(jobs)
    ]
    queue.seed(seeded)
    for job in seeded:
        ref.push(Event(job.release, EventKind.RELEASE, job))
        ref.push(Event(job.deadline, EventKind.DEADLINE, job))
    end = Event(PAST_HORIZON + 1.0, EventKind.END)
    queue.push(end)
    ref.push(end)
    _assert_same(queue, ref)

    now = 0.0
    # Payloads whose entries may be marked dead: dynamic events, and the
    # deadlines of released jobs (an unreleased pair is never stale).
    killable = []
    round_tripped = False
    for n, op in enumerate(ops):
        if op[0] == "push":
            _, dt, kind = op
            event = Event(now + dt, kind, ("dyn", n))
            queue.push(event)
            ref.push(event)
            killable.append(event.payload)
        elif op[0] == "pop" and len(ref):
            got, want = queue.pop(), ref.pop()
            assert got == want
            now = got.time
            if got.kind is EventKind.RELEASE and isinstance(got.payload, Job):
                killable.append(got.payload)
        elif op[0] == "group" and len(ref):
            key = ref.peek_key()
            got, want = queue.pop_group(*key), ref.pop_group(*key)
            assert len(got) == len(want) >= 1
            assert got == want
            now = key[0]
            killable.extend(
                e.payload
                for e in got
                if e.kind is EventKind.RELEASE and isinstance(e.payload, Job)
            )
        elif op[0] == "stale" and killable:
            marked = killable[: op[1]]
            del killable[: op[1]]
            dead.update(marked)
            assert queue.note_stale(len(marked)) == ref.note_stale(len(marked))
        elif op[0] == "roundtrip" and not round_tripped:
            round_tripped = True
            entries, seq, hint = queue.dump(), queue.next_seq, queue.stale_hint
            queue = EventQueue(stale)
            queue.load(entries, seq, hint)
            ref.load(ref.dump(), ref.next_seq, ref.stale_hint)
        _assert_same(queue, ref)

    while len(ref):
        assert queue.pop() == ref.pop()
        _assert_same(queue, ref)


class TestSeedContract:
    def test_len_counts_unreleased_pairs(self):
        q = EventQueue()
        q.seed([Job(j, 1.0, 1.0, 3.0, 1.0) for j in range(3)])
        assert len(q) == 6 and q.next_seq == 6
        assert q.pop().payload.jid == 0
        # The released job's deadline now sits in the heap.
        assert len(q) == 6 - 1
        assert [e.kind for e in q.pop_group(1.0, int(EventKind.RELEASE))] == [
            EventKind.RELEASE
        ] * 2
        assert q.peek_key() == (3.0, int(EventKind.DEADLINE))

    @pytest.mark.parametrize("deadline", [1.0, 0.5, float("nan")])
    def test_deadline_must_follow_release(self, deadline):
        # Seeding relies on it, and Job enforces it: no such job exists.
        with pytest.raises(InvalidInstanceError):
            EventQueue().seed([Job(0, 1.0, 1.0, deadline, 1.0)])

    def test_pairs_must_be_release_then_deadline(self):
        job = Job(0, 1.0, 1.0, 2.0, 1.0)
        q = EventQueue()
        q.seed([job])
        assert q.pop() == Event(1.0, EventKind.RELEASE, job)
        assert q.pop() == Event(2.0, EventKind.DEADLINE, job)
        assert len(q) == 0

    def test_second_seed_restages(self):
        """Seeding again, with jobs that release before the staged one,
        pops in the one-heap order (the staged release goes back to the
        run)."""
        first = [Job(j, 5.0 - j, 1.0, 9.0, 1.0) for j in range(3)]
        later = [Job(3 + j, 1.0 + 2.0 * j, 1.0, 4.0 + j, 1.0) for j in range(3)]
        timer = Event(2.5, EventKind.TIMER, "t")
        q, ref = EventQueue(), OneHeap(stale=None)
        q.seed(first)
        q.push(timer)
        q.seed(later)
        for job in first:
            ref.push(Event(job.release, EventKind.RELEASE, job))
            ref.push(Event(job.deadline, EventKind.DEADLINE, job))
        ref.push(timer)
        for job in later:
            ref.push(Event(job.release, EventKind.RELEASE, job))
            ref.push(Event(job.deadline, EventKind.DEADLINE, job))
        _assert_same(q, ref)
        while len(ref):
            assert q.pop() == ref.pop()
            _assert_same(q, ref)
