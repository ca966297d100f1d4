"""One engine for m ≥ 1: a capacity list of one *is* the m = 1 run.

:func:`repro.sim.simulate` takes one capacity trajectory or a list of
them, and the policy's base class picks the decision protocol.  This
suite pins the consequences for a single-processor
:class:`~repro.sim.Scheduler`: handing it ``[capacity]`` instead of
``capacity`` reproduces the run **bit-identically** — same values, same
trace segments, same outcomes and the same journal, record for record —
also through crash recovery; and handing it two capacities is refused.
Everything else the engine does on one processor is pinned by the golden
decision corpus (``tests/golden/``).

The workloads are the paper's Figure-1 regime (λ = 6, c ∈ {1, 35},
densities in [1, k]) under EDF, Dover and V-Dover.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.capacity import TwoStateMarkovCapacity
from repro.core import DoverScheduler, EDFScheduler, VDoverScheduler
from repro.multi import GlobalEDFScheduler
from repro.sim import (
    EventJournal,
    SimulationEngine,
    results_bit_identical,
    simulate,
)
from repro.workload.poisson import PoissonWorkload

SCHEDULERS = [
    pytest.param(lambda: EDFScheduler(), id="edf"),
    pytest.param(lambda: DoverScheduler(k=7.0, c_hat=1.0), id="dover-c1"),
    pytest.param(lambda: DoverScheduler(k=7.0, c_hat=35.0), id="dover-c35"),
    pytest.param(lambda: VDoverScheduler(k=7.0), id="vdover"),
]


def _instance(seed: int, lam: float = 6.0, horizon: float = 12.0):
    workload = PoissonWorkload(
        lam=lam, horizon=horizon, density_range=(1.0, 7.0), c_lower=1.0
    )
    jobs = workload.generate(np.random.default_rng(seed))
    capacity = TwoStateMarkovCapacity(
        1.0,
        35.0,
        mean_sojourn=horizon / 4.0,
        rng=np.random.default_rng(seed + 1),
    )
    return jobs, capacity


@pytest.mark.parametrize("make_scheduler", SCHEDULERS)
@pytest.mark.parametrize("seed", [3, 21])
def test_m1_multi_bit_identical_to_single(make_scheduler, seed):
    """A Scheduler given ``[capacity]`` runs exactly as given
    ``capacity``: same result and the same journal, record for record."""
    jobs, capacity = _instance(seed)

    single_journal = EventJournal()
    ref = simulate(jobs, capacity, make_scheduler(), journal=single_journal)

    list_journal = EventJournal()
    got = simulate(jobs, [capacity], make_scheduler(), journal=list_journal)

    assert results_bit_identical(got, ref)
    assert got.value == ref.value
    # One processor under the paper's contract: the combined record is
    # the processor's trace (segments and outcomes in one object).
    assert got.proc_traces[0] is got.trace
    assert list_journal.records == single_journal.records
    assert list_journal.digest == single_journal.digest


@pytest.mark.parametrize("make_scheduler", SCHEDULERS)
def test_m1_parity_survives_crash_recovery(make_scheduler):
    """Crash a ``[capacity]`` run mid-way, resume it, and it still lands
    on the uncrashed ``capacity`` reference bit for bit."""
    from repro.faults import EngineCrashPlan

    jobs, capacity = _instance(seed=5)
    ref = simulate(jobs, capacity, make_scheduler())

    got = simulate(
        jobs,
        [capacity],
        make_scheduler(),
        faults=[EngineCrashPlan(at_event=17)],
        snapshot_every=8,
        recover=True,
    )
    assert got.recoveries == 1
    assert results_bit_identical(got, ref)


def test_engines_share_the_kernel():
    """No duplicated event loop: both decision protocols run on the one
    façade and the one kernel class."""
    from repro.kernel import SchedulingKernel

    jobs, capacity = _instance(seed=3)
    single = SimulationEngine(jobs, capacity, EDFScheduler())
    multi = SimulationEngine(jobs, [capacity], GlobalEDFScheduler())
    assert type(single.kernel) is SchedulingKernel
    assert type(multi.kernel) is SchedulingKernel
    assert (single.n_procs, multi.n_procs) == (1, 1)


def test_scheduler_rejects_more_than_one_processor():
    from repro.errors import SimulationError

    jobs, capacity = _instance(seed=3)
    capacity2 = TwoStateMarkovCapacity(
        1.0, 35.0, mean_sojourn=3.0, rng=np.random.default_rng(99)
    )
    with pytest.raises(SimulationError):
        simulate(jobs, [capacity, capacity2], EDFScheduler())
