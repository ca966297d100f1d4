"""Calendar-queue equivalence: the bucketed event queue must produce the
exact pop sequence of the binary heap for any push/pop interleaving.  No
run path builds the calendar queue; these tests stay with the class."""

import random

import pytest

from repro.errors import SimulationError
from repro.sim.events import CalendarEventQueue, Event, EventKind, EventQueue
from repro.sim.job import Job


def _random_events(rng, n, span=100.0):
    kinds = list(EventKind)
    return [
        Event(
            # Quantized times force plenty of exact ties across kinds/seqs.
            round(rng.uniform(0.0, span), 1),
            rng.choice(kinds),
            payload=i,
        )
        for i in range(n)
    ]


class TestPopOrderEquivalence:
    @pytest.mark.parametrize("width", [0.3, 1.0, 7.5, 250.0])
    def test_bulk_push_then_drain(self, width):
        rng = random.Random(11)
        events = _random_events(rng, 400)
        heap = EventQueue()
        cal = CalendarEventQueue(bucket_width=width)
        for ev in events:
            heap.push(ev)
            cal.push(ev)
        out_heap = [heap.pop() for _ in range(len(events))]
        out_cal = [cal.pop() for _ in range(len(events))]
        assert out_heap == out_cal
        assert len(cal) == 0

    def test_interleaved_push_pop(self):
        """Random interleaving of pushes and pops, including pushes at or
        before the current head (same-timestamp batches)."""
        rng = random.Random(23)
        heap = EventQueue()
        cal = CalendarEventQueue(bucket_width=2.0)
        last = 0.0
        for step in range(600):
            if rng.random() < 0.6 or not len(heap):
                t = round(last + rng.uniform(0.0, 5.0), 1)
                ev = Event(t, rng.choice(list(EventKind)), payload=step)
                heap.push(ev)
                cal.push(ev)
            else:
                a, b = heap.pop(), cal.pop()
                assert a == b
                last = a.time
        while len(heap):
            assert heap.pop() == cal.pop()

    def test_push_many_matches_sequential(self):
        rng = random.Random(5)
        events = _random_events(rng, 100)
        bulk = CalendarEventQueue(bucket_width=1.0)
        seq = CalendarEventQueue(bucket_width=1.0)
        bulk.push_many(events)
        for ev in events:
            seq.push(ev)
        assert [bulk.pop() for _ in range(100)] == [
            seq.pop() for _ in range(100)
        ]


    def test_seed_matches_heap(self):
        rng = random.Random(17)
        jobs = []
        for j in range(50):
            release = float(rng.randrange(0, 10))
            deadline = release + rng.randrange(1, 5)
            jobs.append(Job(j, release, 1.0, deadline, 1.0))
        heap = EventQueue()
        cal = CalendarEventQueue(bucket_width=2.0)
        heap.seed(jobs)
        cal.seed(jobs)
        assert len(cal) == len(heap) == 100
        assert cal.next_seq == heap.next_seq
        assert [cal.pop() for _ in range(100)] == [heap.pop() for _ in range(100)]


class TestCompactionAndSnapshots:
    def test_compact_equivalence(self):
        """Compacting mid-stream never changes the surviving pop order."""
        dead = set()
        stale = lambda ev: ev.payload in dead
        rng = random.Random(31)
        events = _random_events(rng, 200)
        heap = EventQueue(stale)
        cal = CalendarEventQueue(stale, bucket_width=3.0)
        for ev in events:
            heap.push(ev)
            cal.push(ev)
        dead.update(rng.sample(range(200), 80))
        assert heap.compact() == 80
        assert cal.compact() == 80
        assert len(heap) == len(cal) == 120
        while len(heap):
            assert heap.pop() == cal.pop()

    def test_dump_load_round_trip(self):
        rng = random.Random(43)
        events = _random_events(rng, 60)
        cal = CalendarEventQueue(bucket_width=0.7)
        for ev in events:
            cal.push(ev)
        dumped = cal.dump()
        assert dumped == sorted(dumped)
        clone = CalendarEventQueue(bucket_width=0.7)
        clone.load(dumped, cal.next_seq, cal.stale_hint)
        # Post-restore pushes must get the continuing sequence numbers.
        tie = Event(dumped[0][0], dumped[0][3].kind, payload="late")
        cal.push(tie)
        clone.push(tie)
        while len(cal):
            assert cal.pop() == clone.pop()

    def test_nan_and_bad_width_rejected(self):
        with pytest.raises(SimulationError):
            CalendarEventQueue(bucket_width=0.0)
        cal = CalendarEventQueue(bucket_width=1.0)
        with pytest.raises(SimulationError):
            cal.push(Event(float("nan"), EventKind.TIMER, "x"))

