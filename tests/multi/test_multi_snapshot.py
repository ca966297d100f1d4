"""Multiprocessor crash recovery: snapshot/restore must be bit-identical.

Mirror of ``tests/sim/test_snapshot.py`` on m processors —
the same kernel machinery (periodic :class:`~repro.sim.journal.
EngineSnapshot`, write-ahead :class:`~repro.sim.journal.EventJournal`,
replay verification) now serves every shipped multiprocessor policy:
global EDF/density, Global-V-Dover and partitioned V-Dover behind each
dispatcher.  ``results_bit_identical`` compares with no float
tolerance: per-processor segments, outcomes, completion times and value
points all exact.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.capacity import TwoStateMarkovCapacity
from repro.cloud.cluster import (
    BestFitDispatcher,
    LeastWorkDispatcher,
    RoundRobinDispatcher,
)
from repro.core import VDoverScheduler
from repro.errors import RecoveryError, SimulatedCrash
from repro.faults import EngineCrashPlan
from repro.multi import (
    GlobalDensityScheduler,
    GlobalEDFScheduler,
    GlobalVDoverScheduler,
    PartitionedScheduler,
)
from repro.sim import (
    EventJournal,
    SimulationEngine,
    results_bit_identical,
    simulate,
)
from repro.workload.poisson import PoissonWorkload

POLICIES = [
    pytest.param(lambda: GlobalEDFScheduler(), id="g-edf"),
    pytest.param(lambda: GlobalDensityScheduler(), id="g-density"),
    pytest.param(lambda: GlobalVDoverScheduler(k=7.0), id="g-vdover"),
    pytest.param(
        lambda: PartitionedScheduler(
            RoundRobinDispatcher(), lambda: VDoverScheduler(k=7.0)
        ),
        id="part-rr",
    ),
    pytest.param(
        lambda: PartitionedScheduler(
            LeastWorkDispatcher(), lambda: VDoverScheduler(k=7.0)
        ),
        id="part-lw",
    ),
    pytest.param(
        lambda: PartitionedScheduler(
            BestFitDispatcher(), lambda: VDoverScheduler(k=7.0)
        ),
        id="part-bf",
    ),
]


def _instance(seed: int = 5, horizon: float = 12.0, m: int = 3):
    workload = PoissonWorkload(
        lam=6.0, horizon=horizon, density_range=(1.0, 7.0), c_lower=1.0
    )
    jobs = workload.generate(np.random.default_rng(seed))
    capacities = [
        TwoStateMarkovCapacity(
            1.0 + 0.5 * p,
            35.0 - 5.0 * p,
            mean_sojourn=horizon / 4.0,
            rng=np.random.default_rng(seed + 1 + p),
        )
        for p in range(m)
    ]
    return jobs, capacities


@pytest.mark.parametrize("make_policy", POLICIES)
@pytest.mark.parametrize("crash_at", [1, 17, 60])
def test_multi_crash_resume_bit_identical(make_policy, crash_at):
    jobs, capacities = _instance()
    reference = simulate(jobs, capacities, make_policy())

    journal = EventJournal()
    recovered = simulate(
        jobs,
        capacities,
        make_policy(),
        faults=[EngineCrashPlan(at_event=crash_at)],
        journal=journal,
        snapshot_every=8,
        recover=True,
    )
    assert recovered.recoveries == 1
    assert results_bit_identical(reference, recovered), (
        f"resume diverged for {reference.scheduler_name}"
    )
    assert len(journal) > crash_at


@pytest.mark.parametrize("make_policy", POLICIES)
def test_multi_snapshot_survives_pickling(make_policy):
    """A pickle round-trip (a real process boundary) loses nothing."""
    jobs, capacities = _instance(seed=9)
    reference = simulate(jobs, capacities, make_policy())

    engine = SimulationEngine(
        jobs,
        capacities,
        make_policy(),
        faults=[EngineCrashPlan(at_event=25)],
        snapshot_every=10,
    )
    with pytest.raises(SimulatedCrash) as excinfo:
        engine.run()
    snapshot = excinfo.value.snapshot.roundtrip()

    fresh = SimulationEngine(jobs, capacities, make_policy())
    fresh.restore(snapshot)
    resumed = fresh.run()
    assert results_bit_identical(reference, resumed)


def test_multi_multiple_crash_plans_all_survived():
    jobs, capacities = _instance(seed=13)
    reference = simulate(jobs, capacities, GlobalVDoverScheduler(k=7.0))
    recovered = simulate(
        jobs,
        capacities,
        GlobalVDoverScheduler(k=7.0),
        faults=[
            EngineCrashPlan(at_event=10),
            EngineCrashPlan(at_time=6.0),
            EngineCrashPlan(at_event=55),
        ],
        snapshot_every=4,
        recover=True,
    )
    assert recovered.recoveries == 3
    assert results_bit_identical(reference, recovered)


def test_multi_restore_rejects_wrong_processor_count():
    jobs, capacities = _instance(seed=5, m=3)
    engine = SimulationEngine(
        jobs,
        capacities,
        GlobalEDFScheduler(),
        faults=[EngineCrashPlan(at_event=9)],
    )
    with pytest.raises(SimulatedCrash) as excinfo:
        engine.run()
    snapshot = excinfo.value.snapshot

    smaller = SimulationEngine(jobs, capacities[:2], GlobalEDFScheduler())
    with pytest.raises(RecoveryError):
        smaller.restore(snapshot)


def test_multi_restore_rejects_wrong_scheduler():
    jobs, capacities = _instance(seed=5)
    engine = SimulationEngine(
        jobs,
        capacities,
        GlobalEDFScheduler(),
        faults=[EngineCrashPlan(at_event=9)],
    )
    with pytest.raises(SimulatedCrash) as excinfo:
        engine.run()
    snapshot = excinfo.value.snapshot

    other = SimulationEngine(
        jobs, capacities, GlobalVDoverScheduler(k=7.0)
    )
    with pytest.raises(RecoveryError):
        other.restore(snapshot)


def test_multi_journal_replay_detects_divergence():
    """Tampering with a journaled record past the snapshot makes the
    resumed multiprocessor engine's replay verification fail loudly."""
    jobs, capacities = _instance(seed=7)
    journal = EventJournal()
    engine = SimulationEngine(
        jobs,
        capacities,
        GlobalEDFScheduler(),
        faults=[EngineCrashPlan(at_event=20)],
        journal=journal,
        snapshot_every=8,
    )
    with pytest.raises(SimulatedCrash) as excinfo:
        engine.run()
    snapshot = excinfo.value.snapshot
    assert snapshot.dispatch_count < len(journal)

    victim = snapshot.dispatch_count
    original = journal._records[victim]
    journal._records[victim] = type(original)(
        index=original.index,
        time=original.time,
        kind=original.kind,
        key="jid:999999",
        version=original.version,
    )

    fresh = SimulationEngine(
        jobs, capacities, GlobalEDFScheduler(), journal=journal
    )
    fresh.restore(snapshot)
    with pytest.raises(RecoveryError, match="diverged"):
        fresh.run()


def test_multi_crash_without_recover_reraises():
    jobs, capacities = _instance(seed=5)
    with pytest.raises(SimulatedCrash):
        simulate(
            jobs,
            capacities,
            GlobalEDFScheduler(),
            faults=[EngineCrashPlan(at_event=5)],
        )
