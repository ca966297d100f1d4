"""Invariant watchdog: clean runs stay clean, broken runs get caught.

Two halves:

* the positive battery — every scheduler on realistic instances under the
  full monitor set produces **zero** violations, and attaching the
  watchdog changes nothing (it is observation-only: the watched run is
  bit-identical to the unwatched one);
* the negative battery — hand-built broken engine states trigger each
  monitor at least once, and paranoid mode raises on the first hit.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.capacity import ConstantCapacity, TwoStateMarkovCapacity
from repro.core import (
    DoverScheduler,
    EDFScheduler,
    LLFScheduler,
    VDoverScheduler,
)
from repro.errors import InvariantViolationError
from repro.sim import (
    InvariantWatchdog,
    Job,
    JobStatus,
    ScheduleTrace,
    default_monitors,
    results_bit_identical,
    simulate,
)
from repro.sim.events import Event, EventKind
from repro.sim.invariants import (
    AdmissibilityMonitor,
    CapacityBandMonitor,
    DeadlineMonitor,
    MonotoneTimeMonitor,
    ValueAccountingMonitor,
    WorkConservationMonitor,
)
from repro.workload.poisson import PoissonWorkload

SCHEDULERS = [
    pytest.param(lambda: EDFScheduler(), id="edf"),
    pytest.param(lambda: LLFScheduler(), id="llf"),
    pytest.param(lambda: DoverScheduler(k=7.0, c_hat=1.0), id="dover"),
    pytest.param(lambda: VDoverScheduler(k=7.0), id="vdover"),
]


def _instance(seed: int = 21, horizon: float = 10.0):
    workload = PoissonWorkload(
        lam=6.0, horizon=horizon, density_range=(1.0, 7.0), c_lower=1.0
    )
    jobs = workload.generate(np.random.default_rng(seed))
    capacity = TwoStateMarkovCapacity(
        1.0, 35.0, mean_sojourn=horizon / 4.0, rng=np.random.default_rng(seed + 1)
    )
    return jobs, capacity


# ----------------------------------------------------------------------
# Positive battery: clean runs produce zero violations
# ----------------------------------------------------------------------
@pytest.mark.parametrize("make_scheduler", SCHEDULERS)
def test_clean_runs_have_zero_violations(make_scheduler):
    jobs, capacity = _instance()
    watchdog = InvariantWatchdog(default_monitors(admissibility=True))
    simulate(jobs, capacity, make_scheduler(), watchdog=watchdog)
    assert watchdog.summary() == {}, watchdog.violations


@pytest.mark.parametrize("make_scheduler", SCHEDULERS)
def test_watchdog_is_observation_only(make_scheduler):
    """Determinism audit: the watched run is bit-identical to the
    unwatched one — monitors never perturb the simulation."""
    jobs, capacity = _instance(seed=33)
    bare = simulate(jobs, capacity, make_scheduler())
    watched = simulate(
        jobs,
        capacity,
        make_scheduler(),
        watchdog=InvariantWatchdog(default_monitors(admissibility=True)),
    )
    assert results_bit_identical(bare, watched)


def test_paranoid_mode_passes_clean_run():
    jobs, capacity = _instance(seed=4)
    watchdog = InvariantWatchdog(paranoid=True)
    simulate(jobs, capacity, EDFScheduler(), watchdog=watchdog)
    assert watchdog.total_violations == 0


# ----------------------------------------------------------------------
# Negative battery: every monitor fires on a broken state
# ----------------------------------------------------------------------
class _FakeEngine:
    """Duck-typed engine facade exposing exactly what monitors read."""

    def __init__(self, jobs, capacity, trace=None, now=0.0):
        self._jobs = {j.jid: j for j in jobs}
        self._capacity = capacity
        self._trace = trace if trace is not None else ScheduleTrace()
        self._now = now

    @property
    def jobs_by_id(self):
        return dict(self._jobs)

    @property
    def capacity(self):
        return self._capacity

    @property
    def capacities(self):
        return [self._capacity]

    @property
    def trace(self):
        return self._trace

    @property
    def proc_traces(self):
        return [self._trace]

    @property
    def now(self):
        return self._now


def _job(jid=0, release=0.0, workload=1.0, deadline=10.0, value=1.0):
    return Job(jid, release, workload, deadline, value)


def test_monotone_time_monitor_fires():
    engine = _FakeEngine([_job()], ConstantCapacity(1.0), now=5.0)
    monitor = MonotoneTimeMonitor()
    monitor.start(engine)
    bad = monitor.after_event(engine, Event(1.0, EventKind.TIMER, "tick"))
    assert len(bad) == 1 and bad[0].monitor == "monotone-time"


def test_deadline_monitor_fires_on_overrun():
    job = _job(deadline=5.0)
    trace = ScheduleTrace()
    trace.add_segment(0.0, 7.0, job.jid, 7.0)  # runs 2 past the deadline
    engine = _FakeEngine([job], ConstantCapacity(1.0), trace=trace)
    monitor = DeadlineMonitor()
    monitor.start(engine)
    bad = monitor.after_event(engine, Event(7.0, EventKind.TIMER, "t"))
    assert any(v.monitor == "deadline" and v.jid == job.jid for v in bad)


def test_deadline_monitor_fires_on_early_start():
    job = _job(release=3.0, deadline=9.0)
    trace = ScheduleTrace()
    trace.add_segment(1.0, 4.0, job.jid, 3.0)  # starts before release
    engine = _FakeEngine([job], ConstantCapacity(1.0), trace=trace)
    monitor = DeadlineMonitor()
    monitor.start(engine)
    assert monitor.after_event(engine, Event(4.0, EventKind.TIMER, "t"))


def test_work_conservation_monitor_fires():
    job = _job(workload=9.0)
    trace = ScheduleTrace()
    trace.add_segment(0.0, 3.0, job.jid, 9.0)  # 9 units in 3s at capacity 1
    engine = _FakeEngine([job], ConstantCapacity(1.0), trace=trace)
    monitor = WorkConservationMonitor()
    monitor.start(engine)
    bad = monitor.after_event(engine, Event(3.0, EventKind.TIMER, "t"))
    assert any(v.monitor == "work-conservation" for v in bad)


def test_value_accounting_monitor_fires():
    job = _job(value=4.0)
    trace = ScheduleTrace()
    trace.outcomes[job.jid] = JobStatus.COMPLETED
    trace.completion_times[job.jid] = 1.0
    trace.value_points.append((1.0, 99.0))  # wrong accrual
    engine = _FakeEngine([job], ConstantCapacity(1.0), trace=trace, now=1.0)
    monitor = ValueAccountingMonitor()
    bad = monitor.after_run(engine, None)
    assert any(v.monitor == "value-accounting" for v in bad)


class _BandBreakingCapacity:
    """A capacity whose sampled value escapes its own declared band."""

    lower = 1.0
    upper = 2.0

    def value(self, t: float) -> float:
        return 5.0


def test_capacity_band_monitor_fires():
    engine = _FakeEngine([_job()], _BandBreakingCapacity())
    monitor = CapacityBandMonitor()
    bad = monitor.after_event(engine, Event(0.5, EventKind.TIMER, "t"))
    assert any(v.monitor == "capacity-band" for v in bad)


def test_admissibility_monitor_fires():
    # workload 50 > c_lower * (deadline - release) = 1 * 10
    job = _job(workload=50.0, deadline=10.0)
    engine = _FakeEngine([job], ConstantCapacity(1.0))
    monitor = AdmissibilityMonitor()
    bad = monitor.after_event(engine, Event(0.0, EventKind.RELEASE, job))
    assert any(v.monitor == "admissibility" and v.jid == job.jid for v in bad)
    # Non-release events are ignored.
    assert monitor.after_event(engine, Event(0.0, EventKind.TIMER, "t")) == []


def test_admissibility_excluded_from_defaults():
    names = {type(m).__name__ for m in default_monitors()}
    assert "AdmissibilityMonitor" not in names
    names = {type(m).__name__ for m in default_monitors(admissibility=True)}
    assert "AdmissibilityMonitor" in names


def test_watchdog_counts_and_paranoid():
    job = _job(deadline=5.0)
    trace = ScheduleTrace()
    trace.add_segment(0.0, 7.0, job.jid, 7.0)
    engine = _FakeEngine([job], ConstantCapacity(1.0), trace=trace)

    counting = InvariantWatchdog([DeadlineMonitor()])
    counting.start(engine)
    counting.after_event(engine, Event(7.0, EventKind.TIMER, "t"))
    assert counting.counts["deadline"] >= 1
    assert counting.total_violations == len(counting.violations)

    paranoid = InvariantWatchdog([DeadlineMonitor()], paranoid=True)
    paranoid.start(engine)
    with pytest.raises(InvariantViolationError):
        paranoid.after_event(engine, Event(7.0, EventKind.TIMER, "t"))
