"""Invariant watchdog over the multiprocessor engine.

The monitors read the engine's per-processor traces/capacities
(``engine.proc_traces`` / ``engine.capacities``), so the same battery
guards every processor count.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.capacity import TwoStateMarkovCapacity
from repro.capacity.piecewise import PiecewiseConstantCapacity
from repro.cloud.cluster import LeastWorkDispatcher
from repro.core import VDoverScheduler
from repro.errors import InvariantViolationError
from repro.multi import (
    GlobalEDFScheduler,
    GlobalVDoverScheduler,
    PartitionedScheduler,
)
from repro.sim import InvariantWatchdog, simulate
from repro.sim.invariants import AdmissibilityMonitor, default_monitors
from repro.sim.job import Job
from repro.workload.poisson import PoissonWorkload

POLICIES = [
    pytest.param(lambda: GlobalEDFScheduler(), id="g-edf"),
    pytest.param(lambda: GlobalVDoverScheduler(k=7.0), id="g-vdover"),
    pytest.param(
        lambda: PartitionedScheduler(
            LeastWorkDispatcher(), lambda: VDoverScheduler(k=7.0)
        ),
        id="part-lw",
    ),
]


def _instance(seed: int = 5, horizon: float = 12.0, m: int = 3):
    workload = PoissonWorkload(
        lam=8.0, horizon=horizon, density_range=(1.0, 7.0), c_lower=1.0
    )
    jobs = workload.generate(np.random.default_rng(seed))
    capacities = [
        TwoStateMarkovCapacity(
            1.0,
            35.0,
            mean_sojourn=horizon / 4.0,
            rng=np.random.default_rng(seed + 1 + p),
        )
        for p in range(m)
    ]
    return jobs, capacities


@pytest.mark.parametrize("make_policy", POLICIES)
def test_clean_multi_run_has_zero_violations(make_policy):
    jobs, capacities = _instance()
    watchdog = InvariantWatchdog(paranoid=True)  # first violation raises
    simulate(jobs, capacities, make_policy(), watchdog=watchdog)
    assert watchdog.total_violations == 0
    assert watchdog.summary() == {}


def test_watchdog_survives_multi_crash_recovery():
    from repro.faults import EngineCrashPlan

    jobs, capacities = _instance(seed=9)
    watchdog = InvariantWatchdog(paranoid=True)
    result = simulate(
        jobs,
        capacities,
        GlobalVDoverScheduler(k=7.0),
        faults=[EngineCrashPlan(at_event=20)],
        snapshot_every=8,
        recover=True,
        watchdog=watchdog,
    )
    assert result.recoveries == 1
    assert watchdog.total_violations == 0


def test_admissibility_monitor_uses_best_fleet_floor():
    """Definition 4, multiprocessor reading: admissible iff *some* single
    machine can guarantee the job alone (c* = max_p floor).  A job that
    needs rate 2 is admissible on a fleet whose strongest floor is 3 —
    and inadmissible on an all-floor-1 fleet."""
    job = Job(jid=0, release=0.0, workload=4.0, deadline=2.0, value=4.0)

    def fleet(floors):
        return [
            PiecewiseConstantCapacity([0.0], [5.0], lower=f, upper=5.0)
            for f in floors
        ]

    strong = InvariantWatchdog(
        [AdmissibilityMonitor()] + default_monitors(), paranoid=True
    )
    simulate([job], fleet([1.0, 3.0]), GlobalEDFScheduler(), watchdog=strong)
    assert strong.total_violations == 0

    weak = InvariantWatchdog([AdmissibilityMonitor()])
    simulate([job], fleet([1.0, 1.0]), GlobalEDFScheduler(), watchdog=weak)
    assert weak.counts.get("admissibility") == 1

    with pytest.raises(InvariantViolationError):
        simulate(
            [job],
            fleet([1.0, 1.0]),
            GlobalEDFScheduler(),
            watchdog=InvariantWatchdog([AdmissibilityMonitor()], paranoid=True),
        )
