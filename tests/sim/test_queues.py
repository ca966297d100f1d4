"""Unit tests for the scheduler job queues (Qedf/Qother/Qsupp semantics)."""

import numpy as np
import pytest

from repro.errors import SchedulingError
from repro.sim import Job, JobQueue, edf_key, latest_deadline_key


def J(jid, deadline):
    return Job(jid, 0.0, 1.0, deadline, 1.0)


class TestEdfOrder:
    def test_earliest_deadline_first(self):
        q = JobQueue(edf_key)
        q.insert(J(0, 5.0))
        q.insert(J(1, 2.0))
        q.insert(J(2, 8.0))
        assert q.dequeue().deadline == 2.0
        assert q.dequeue().deadline == 5.0
        assert q.dequeue().deadline == 8.0

    def test_tie_breaks_by_id(self):
        q = JobQueue(edf_key)
        q.insert(J(5, 3.0))
        q.insert(J(1, 3.0))
        assert q.dequeue().jid == 1

    def test_first_does_not_remove(self):
        q = JobQueue(edf_key)
        q.insert(J(0, 5.0))
        assert q.first().jid == 0
        assert len(q) == 1


class TestLatestDeadlineOrder:
    def test_latest_first(self):
        """Qsupp serves the job with the most remaining deadline room."""
        q = JobQueue(latest_deadline_key)
        q.insert(J(0, 5.0))
        q.insert(J(1, 2.0))
        q.insert(J(2, 8.0))
        assert q.dequeue().deadline == 8.0
        assert q.dequeue().deadline == 5.0


class TestRemoval:
    def test_remove_member(self):
        q = JobQueue(edf_key)
        a, b = J(0, 5.0), J(1, 2.0)
        q.insert(a)
        q.insert(b)
        assert q.remove(b) is b
        assert b not in q
        assert q.dequeue() is a

    def test_remove_absent_returns_none(self):
        q = JobQueue(edf_key)
        assert q.remove(J(9, 1.0)) is None

    def test_tombstones_are_purged(self):
        q = JobQueue(edf_key)
        jobs = [J(i, float(i + 1)) for i in range(10)]
        for job in jobs:
            q.insert(job)
        for job in jobs[:5]:
            q.remove(job)
        assert q.dequeue() is jobs[5]

    def test_reinsert_after_remove(self):
        q = JobQueue(edf_key)
        a = J(0, 5.0)
        q.insert(a)
        q.remove(a)
        q.insert(a)  # must not raise
        assert q.dequeue() is a

    def test_double_insert_raises(self):
        q = JobQueue(edf_key)
        a = J(0, 5.0)
        q.insert(a)
        with pytest.raises(SchedulingError):
            q.insert(a)


class TestEntryQueues:
    def test_tuple_entries(self):
        """Qedf stores (job, t_insert, cslack) tuples keyed by the job."""
        q = JobQueue(edf_key, entry_job=lambda e: e[0], name="Qedf")
        a, b = J(0, 5.0), J(1, 2.0)
        q.insert((a, 1.0, 3.0))
        q.insert((b, 2.0, 4.0))
        job, t_ins, cslack = q.dequeue()
        assert job is b and t_ins == 2.0 and cslack == 4.0

    def test_remove_by_job(self):
        q = JobQueue(edf_key, entry_job=lambda e: e[0])
        a = J(0, 5.0)
        q.insert((a, 1.0, 3.0))
        assert q.remove(a) == (a, 1.0, 3.0)


class TestBulk:
    def test_drain_in_order(self):
        q = JobQueue(edf_key)
        for i, d in enumerate([5.0, 2.0, 8.0, 1.0]):
            q.insert(J(i, d))
        drained = q.drain()
        assert [j.deadline for j in drained] == [1.0, 2.0, 5.0, 8.0]
        assert len(q) == 0

    def test_empty_operations_raise(self):
        q = JobQueue(edf_key)
        with pytest.raises(SchedulingError):
            q.first()
        with pytest.raises(SchedulingError):
            q.dequeue()

    def test_jobs_iteration(self):
        q = JobQueue(edf_key)
        q.insert(J(0, 5.0))
        q.insert(J(1, 2.0))
        assert {j.jid for j in q.jobs()} == {0, 1}

    def test_clear(self):
        q = JobQueue(edf_key)
        q.insert(J(0, 5.0))
        q.clear()
        assert not q


class TestCompaction:
    """Tombstone hygiene: the heap stays bounded under removal churn."""

    def test_compact_drops_tombstones(self):
        q = JobQueue(edf_key)
        jobs = [J(i, float(i + 1)) for i in range(8)]
        for job in jobs:
            q.insert(job)
        # Remove below the auto-trigger threshold, then compact manually.
        q.remove(jobs[0])
        assert q.compact() >= 0
        assert q.heap_size == len(q)

    def test_remove_auto_compacts_at_half(self):
        q = JobQueue(edf_key)
        jobs = [J(i, float(i + 1)) for i in range(10)]
        for job in jobs:
            q.insert(job)
        for job in jobs[:6]:
            q.remove(job)
        # Tombstones can never outnumber half the heap for long: the
        # churn-ratio trigger (tombstones * 2 > heap) fires during the
        # removal sequence and rebuilds from the 4..9 survivors.
        assert q.heap_size <= 2 * len(q)
        assert [j.jid for j in q.drain()] == [6, 7, 8, 9]

    def test_heap_bounded_under_churn(self):
        """Insert/remove cycles leave the heap ~2x the live size, not the
        cumulative number of removals (the unbounded-growth regression)."""
        q = JobQueue(edf_key)
        live = [J(i, float(i + 1)) for i in range(16)]
        for job in live:
            q.insert(job)
        high_water = q.heap_size
        for round_ in range(100):
            victim = J(1000 + round_, 0.5)
            q.insert(victim)
            q.remove(victim)
            high_water = max(high_water, q.heap_size)
        assert len(q) == 16
        assert high_water <= 2 * 17 + 1
        assert [j.jid for j in q.drain()] == list(range(16))

    def test_emptying_a_one_item_queue_does_not_compact(self, monkeypatch):
        """The last live entry leaving clears the heap outright, without
        rebuilding a one-item heap."""
        q = JobQueue(edf_key)
        calls = []
        compact = q.compact
        monkeypatch.setattr(q, "compact", lambda: calls.append(1) or compact())
        for jid in range(50):
            job = J(jid, 1.0)
            q.insert(job)
            assert q.remove(job) is job
            assert q.heap_size == 0
            q.insert(job)
            assert q.dequeue() is job
            assert q.heap_size == 0
        assert calls == []

    def test_heap_bounded_under_random_churn(self):
        """Random inserts, removals (present and absent), re-inserts,
        dequeues and peeks: after every step the heap holds at most
        2 × live + 1 items, and the surviving order is untouched."""
        rng = np.random.default_rng(2027)
        q = JobQueue(edf_key)
        members: dict[int, Job] = {}
        for step in range(4000):
            op = rng.integers(5)
            jid = int(rng.integers(40))
            if op <= 1 and jid not in members:
                members[jid] = J(jid, float(rng.integers(1, 9)))
                q.insert(members[jid])
            elif op == 2:
                assert q.remove(J(jid, 1.0)) is members.pop(jid, None)
            elif op == 3 and members:
                best = min(members.values(), key=edf_key)
                assert q.dequeue() is members.pop(best.jid)
            elif members:
                assert q.first() is min(members.values(), key=edf_key)
            assert len(q) == len(members)
            assert q.heap_size <= 2 * len(q) + 1, step
        assert q.drain() == sorted(members.values(), key=edf_key)

    def test_compaction_preserves_tie_break_order(self):
        """Surviving entries keep their insertion counters, so equal-key
        ties pop in insertion order even across a compaction."""
        q = JobQueue(edf_key, entry_job=lambda e: e[0])
        a, b = J(0, 3.0), J(1, 3.0)  # distinct jids: key ties break by jid
        fill = [J(i, 9.0) for i in range(2, 12)]
        q.insert((a, "first",))
        q.insert((b, "second",))
        for job in fill:
            q.insert((job, "fill"))
        for job in fill:
            q.remove(job)  # triggers auto-compaction mid-sequence
        assert q.heap_size == 2
        assert q.dequeue()[0] is a
        assert q.dequeue()[0] is b


class TestDrainSinglePass:
    """drain() restructure: one purge + sort, not n re-purging dequeues."""

    def test_drain_ignores_tombstones(self):
        q = JobQueue(edf_key)
        jobs = [J(i, float(10 - i)) for i in range(10)]
        for job in jobs:
            q.insert(job)
        for job in jobs[::2]:
            q.remove(job)
        drained = q.drain()
        assert [j.jid for j in drained] == [9, 7, 5, 3, 1]
        assert len(q) == 0 and q.heap_size == 0

    def test_drain_matches_repeated_dequeue(self):
        """Timing-free correctness: drain() returns exactly the sequence
        repeated dequeue() calls would, on an identically-built twin."""
        import random

        rng = random.Random(7)
        q1 = JobQueue(edf_key)
        q2 = JobQueue(edf_key)
        jobs = [J(i, rng.choice([1.0, 2.0, 3.0])) for i in range(64)]
        for job in jobs:
            q1.insert(job)
            q2.insert(job)
        removed = rng.sample(jobs, 24)
        for job in removed:
            q1.remove(job)
            q2.remove(job)
        reference = []
        while q2:
            reference.append(q2.dequeue())
        assert q1.drain() == reference

    def test_drain_after_reinsert_uses_new_entry(self):
        q = JobQueue(edf_key)
        a = J(0, 5.0)
        q.insert(a)
        q.remove(a)
        q.insert(a)
        assert q.drain() == [a]
