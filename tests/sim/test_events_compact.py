"""EventQueue compaction: lazy-deletion hygiene keeps the heap bounded.

Satellite contract: armed-and-abandoned alarms (V-Dover re-arms a laxity
alarm on every enqueue) must not grow the heap without bound over a long
run.  The unit half checks :meth:`EventQueue.compact` semantics directly;
the regression half watches the live engine queue through an
observation-only probe monitor and asserts the high-water mark stays
O(pending jobs), not O(alarms ever armed).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.capacity import TwoStateMarkovCapacity
from repro.core import VDoverScheduler
from repro.errors import SimulationError
from repro.sim import InvariantWatchdog, simulate
from repro.sim.events import Event, EventKind, EventQueue
from repro.sim.invariants import InvariantMonitor
from repro.workload.poisson import PoissonWorkload


def _event(t: float, kind=EventKind.TIMER, payload=None, version=0) -> Event:
    return Event(t, kind, payload, version)


class TestCompactUnit:
    def test_compact_without_predicate_is_noop(self):
        q = EventQueue()
        q.push(_event(1.0))
        assert q.note_stale(5) == 0
        assert q.compact() == 0
        assert len(q) == 1

    def test_compact_drops_only_stale_entries(self):
        q = EventQueue(stale=lambda e: e.payload == "dead")
        for i in range(6):
            q.push(_event(float(i), payload="dead" if i % 2 else "live"))
        removed = q.compact()
        assert removed == 3
        assert len(q) == 3
        assert [q.pop().time for _ in range(3)] == [0.0, 2.0, 4.0]

    def test_compact_preserves_pop_order(self):
        rng = np.random.default_rng(17)
        q = EventQueue(stale=lambda e: e.payload == "dead")
        times = rng.uniform(0.0, 50.0, size=200)
        tags = ["dead" if rng.random() < 0.5 else "live" for _ in times]
        reference = EventQueue()
        for t, tag in zip(times, tags):
            q.push(_event(float(t), payload=tag))
            if tag == "live":
                reference.push(_event(float(t), payload=tag))
        q.compact()
        got = [q.pop().time for _ in range(len(q))]
        want = [reference.pop().time for _ in range(len(reference))]
        assert got == want

    def test_note_stale_auto_compacts_past_half(self):
        q = EventQueue(stale=lambda e: e.payload == "dead")
        for i in range(10):
            q.push(_event(float(i), payload="dead" if i < 6 else "live"))
        # Hint below the threshold: nothing happens yet.
        assert q.note_stale(4) == 0
        assert len(q) == 10 and q.stale_hint == 4
        # Crossing half the heap triggers the sweep.
        assert q.note_stale(2) == 6
        assert len(q) == 4 and q.stale_hint == 0

    def test_pop_keeps_hint_bounded_by_heap(self):
        q = EventQueue(stale=lambda e: False)
        q.push(_event(0.0))
        q.push(_event(1.0))
        q._stale_hint = 99  # simulate an overcounted hint
        q.pop()
        assert q.stale_hint <= len(q)

    def test_dump_load_preserves_order_and_counters(self):
        q = EventQueue(stale=lambda e: False)
        for t in (3.0, 1.0, 2.0):
            q.push(_event(t))
        q.note_stale(1)
        clone = EventQueue(stale=lambda e: False)
        clone.load(q.dump(), q.next_seq, q.stale_hint)
        assert clone.stale_hint == q.stale_hint
        assert clone.next_seq == q.next_seq
        assert [clone.pop().time for _ in range(len(clone))] == [1.0, 2.0, 3.0]

    def test_nan_time_rejected(self):
        with pytest.raises(SimulationError, match="NaN"):
            EventQueue().push(_event(float("nan")))

    def test_compact_and_load_keep_the_lists(self):
        """The kernel's run loop holds ``heap`` and ``seeded`` for a whole
        call: compaction and restore must mutate them, never rebind."""
        q = EventQueue(stale=lambda e: e.payload == "dead")
        heap, seeded = q.heap, q.seeded
        q.seed([
            (_event(1.0, EventKind.RELEASE), _event(2.0, EventKind.DEADLINE))
        ])
        for i in range(4):
            q.push(_event(float(i), payload="dead" if i % 2 else "live"))
        assert q.compact() == 2
        q.load(q.dump(), q.next_seq)
        assert q.heap is heap and q.seeded is seeded
        assert [q.pop().time for _ in range(len(q))] == [0.0, 1.0, 2.0, 2.0]


# ----------------------------------------------------------------------
# Regression: the live engine heap stays bounded under alarm churn
# ----------------------------------------------------------------------
class _QueueSizeProbe(InvariantMonitor):
    """Observation-only probe riding the watchdog hook."""

    name = "queue-size-probe"

    def __init__(self) -> None:
        self.high_water = 0

    def after_event(self, engine, event):
        self.high_water = max(self.high_water, engine.event_queue_size)
        return []


def test_engine_heap_bounded_under_alarm_churn():
    """V-Dover re-arms its laxity alarm on every enqueue/preemption; with
    lazy deletion alone the heap would retain every abandoned alarm.  The
    high-water mark must stay proportional to the job count, not to the
    total number of alarms armed over the run."""
    horizon = 40.0
    workload = PoissonWorkload(
        lam=8.0, horizon=horizon, density_range=(1.0, 7.0), c_lower=1.0
    )
    jobs = workload.generate(np.random.default_rng(12))
    capacity = TwoStateMarkovCapacity(
        1.0, 35.0, mean_sojourn=2.0, rng=np.random.default_rng(13)
    )
    probe = _QueueSizeProbe()
    simulate(
        jobs,
        capacity,
        VDoverScheduler(k=7.0),
        watchdog=InvariantWatchdog([probe]),
    )
    assert probe.high_water > 0
    # Release + deadline + completion + a live alarm per pending job, plus
    # auto-compaction's 2x lazy-deletion slack: generous, but orders of
    # magnitude below the unbounded-churn regime this guards against.
    assert probe.high_water <= 8 * len(jobs) + 32, (
        f"event heap grew to {probe.high_water} for {len(jobs)} jobs"
    )


@pytest.mark.parametrize("policy", ["global-vdover", "partitioned"])
def test_multi_engine_heap_bounded_under_alarm_churn(policy):
    """The multiprocessor engine runs the same kernel loop, so it gets the
    same lazy-deletion hygiene: cancelled/re-armed alarms call
    ``note_stale`` and the heap auto-compacts.  (The pre-kernel multi
    engine never compacted — this is the regression guard.)"""
    from repro.cloud.cluster import LeastWorkDispatcher
    from repro.multi import (
        GlobalVDoverScheduler,
        PartitionedScheduler,
    )

    horizon = 40.0
    workload = PoissonWorkload(
        lam=12.0, horizon=horizon, density_range=(1.0, 7.0), c_lower=1.0
    )
    jobs = workload.generate(np.random.default_rng(12))
    capacities = [
        TwoStateMarkovCapacity(
            1.0, 35.0, mean_sojourn=2.0, rng=np.random.default_rng(13 + p)
        )
        for p in range(3)
    ]
    make = {
        "global-vdover": lambda: GlobalVDoverScheduler(k=7.0),
        "partitioned": lambda: PartitionedScheduler(
            LeastWorkDispatcher(), lambda: VDoverScheduler(k=7.0)
        ),
    }[policy]
    probe = _QueueSizeProbe()
    simulate(
        jobs, capacities, make(), watchdog=InvariantWatchdog([probe])
    )
    assert probe.high_water > 0
    assert probe.high_water <= 8 * len(jobs) + 32, (
        f"multi event heap grew to {probe.high_water} for {len(jobs)} jobs"
    )


# ----------------------------------------------------------------------
# Compaction and restore under the run loop's aliases of the queue lists
# ----------------------------------------------------------------------
class _Compactor(InvariantMonitor):
    """Test probe: compacts the kernel's event queue after every
    dispatched event, so compaction lands between a dispatch and the run
    loop's next read of the queue head (``EventQueue.heap`` /
    ``seeded``, which the loop holds for the whole call)."""

    name = "compactor"

    def __init__(self) -> None:
        self.removed = 0

    def after_event(self, engine, event):
        self.removed += engine.kernel._events.compact()
        return []


def _dover_instance():
    horizon = 60.0
    jobs = PoissonWorkload(lam=6.0, horizon=horizon).generate(
        np.random.default_rng(21)
    )
    capacity = TwoStateMarkovCapacity(
        1.0, 35.0, mean_sojourn=horizon / 4.0, rng=np.random.default_rng(22)
    )
    return jobs, capacity


def _stepped(engine, start: float, step: float):
    """Drive ``engine`` with ``run_until`` over a grid of bounds, checking
    that no call dispatches an event at or past its exclusive bound, then
    finish the run."""
    kernel = engine.kernel
    until = start + step
    while not kernel.ended and until <= kernel.horizon:
        kernel.run_until(until)
        assert kernel.now < until
        until += step
    return engine.run()


def test_forced_compaction_mid_loop_matches_plain_run():
    from repro.core import DoverScheduler
    from repro.sim import EventJournal, SimulationEngine, results_bit_identical

    jobs, capacity = _dover_instance()
    plain_journal = EventJournal()
    plain = simulate(
        jobs, capacity, DoverScheduler(k=7.0, c_hat=35.0), journal=plain_journal
    )

    probe = _Compactor()
    journal = EventJournal()
    engine = SimulationEngine(
        jobs,
        capacity,
        DoverScheduler(k=7.0, c_hat=35.0),
        journal=journal,
        watchdog=InvariantWatchdog([probe]),
    )
    result = _stepped(engine, 0.0, 0.25)
    assert probe.removed > 0
    assert results_bit_identical(plain, result)
    assert journal.records == plain_journal.records
    assert journal.digest == plain_journal.digest


def test_restore_then_compaction_matches_plain_run():
    from repro.core import DoverScheduler
    from repro.sim import EventJournal, SimulationEngine, results_bit_identical

    jobs, capacity = _dover_instance()
    plain_journal = EventJournal()
    plain = simulate(
        jobs, capacity, DoverScheduler(k=7.0, c_hat=35.0), journal=plain_journal
    )

    first = SimulationEngine(
        jobs, capacity, DoverScheduler(k=7.0, c_hat=35.0), journal=EventJournal()
    )
    first.kernel.run_until(25.0)
    snapshot = first.snapshot()
    assert 0 < snapshot.dispatch_count < len(plain_journal)

    probe = _Compactor()
    journal = EventJournal()
    resumed = SimulationEngine(
        jobs,
        capacity,
        DoverScheduler(k=7.0, c_hat=35.0),
        journal=journal,
        watchdog=InvariantWatchdog([probe]),
    )
    resumed.restore(snapshot)
    result = _stepped(resumed, 25.0, 0.25)
    assert probe.removed > 0
    assert results_bit_identical(plain, result)
    assert journal.records == plain_journal.records[snapshot.dispatch_count:]
    assert journal.digest == plain_journal.digest
