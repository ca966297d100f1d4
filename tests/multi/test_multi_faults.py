"""Per-processor execution faults on the multiprocessor engine.

Execution faults carry a ``proc`` target: on an ``m``-server fleet a job
kill or VM revocation strikes exactly one machine while its siblings keep
running.  The sharpest check exploits the partitioned policy's exact
decomposition: with a round-robin dispatcher the per-processor job
streams are fixed at release time, so arming a fault on processor 1 must
leave processor 0's trace **bit-identical** to the fault-free run.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.capacity import TwoStateMarkovCapacity
from repro.capacity.piecewise import PiecewiseConstantCapacity
from repro.cloud.cluster import RoundRobinDispatcher
from repro.core import VDoverScheduler
from repro.errors import FaultConfigError
from repro.faults import (
    ExecutionFaultSpec,
    JobKillFault,
    RevocationBurst,
    apply_fault_transforms,
)
from repro.multi import GlobalEDFScheduler, PartitionedScheduler
from repro.sim import simulate
from repro.workload.poisson import PoissonWorkload


def _instance(seed: int = 5, horizon: float = 12.0, m: int = 2):
    workload = PoissonWorkload(
        lam=6.0, horizon=horizon, density_range=(1.0, 7.0), c_lower=1.0
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


def _partitioned():
    return PartitionedScheduler(
        RoundRobinDispatcher(), lambda: VDoverScheduler(k=7.0)
    )


def test_kill_on_proc1_leaves_proc0_bit_identical():
    jobs, capacities = _instance()
    clean = simulate(jobs, capacities, _partitioned())
    hit = simulate(
        jobs,
        capacities,
        _partitioned(),
        faults=[JobKillFault(rate=0.5, seed=3, proc=1)],
    )
    # The fault must actually do something on its target machine...
    assert hit.proc_traces[1].segments != clean.proc_traces[1].segments
    # ...and nothing at all on the untargeted one.
    assert hit.proc_traces[0].segments == clean.proc_traces[0].segments


def test_kill_lost_work_attributed_to_target_machine_jobs():
    jobs, capacities = _instance(seed=9)
    clean = simulate(jobs, capacities, _partitioned())
    hit = simulate(
        jobs,
        capacities,
        _partitioned(),
        faults=[JobKillFault(rate=0.5, seed=3, proc=1)],
        validate=True,  # lost-work accounting must still balance
    )
    assert hit.trace.lost_work  # at least one kill landed
    proc0_jids = {seg.jid for seg in clean.proc_traces[0].segments}
    assert all(jid not in proc0_jids for jid in hit.trace.lost_work)


def test_fault_targeting_out_of_range_processor_rejected():
    jobs, capacities = _instance(m=2)
    with pytest.raises(FaultConfigError, match="processor 5"):
        simulate(
            jobs,
            capacities,
            GlobalEDFScheduler(),
            faults=[JobKillFault(rate=0.5, seed=1, proc=5)],
        )
    # The single-processor engine only has processor 0.
    with pytest.raises(FaultConfigError, match="processor 1"):
        simulate(
            jobs,
            capacities[0],
            VDoverScheduler(k=7.0),
            faults=[RevocationBurst(windows=[(1.0, 2.0)], proc=1)],
        )


def test_negative_proc_rejected_at_construction():
    with pytest.raises(FaultConfigError):
        JobKillFault(rate=1.0, proc=-1)
    with pytest.raises(FaultConfigError):
        RevocationBurst(rate=0.1, proc=-2)


def test_apply_fault_transforms_targets_one_trajectory():
    flat = lambda: PiecewiseConstantCapacity(  # noqa: E731
        [0.0], [10.0], lower=2.0, upper=10.0
    )
    c0, c1 = flat(), flat()
    burst = RevocationBurst(windows=[(2.0, 4.0)], proc=1)
    out = apply_fault_transforms([c0, c1], [burst], horizon=8.0)
    assert out[0] is c0  # untargeted trajectory passes through untouched
    assert out[1] is not c1
    assert out[1].value(3.0) == 2.0  # pinned to the floor in the window
    assert out[1].value(5.0) == 10.0
    assert c1.value(3.0) == 10.0  # original object unchanged


def test_apply_fault_transforms_rejects_out_of_range_target():
    c = PiecewiseConstantCapacity([0.0], [5.0], lower=1.0, upper=5.0)
    with pytest.raises(FaultConfigError, match="processor 3"):
        apply_fault_transforms(
            [c], [RevocationBurst(windows=[(1.0, 2.0)], proc=3)], horizon=4.0
        )


def test_execution_fault_spec_builds_proc_targeted_faults():
    kill = ExecutionFaultSpec(
        kind="kill", severity=0.5, options={"proc": 2}
    ).build()
    assert isinstance(kill, JobKillFault) and kill.proc == 2
    rev = ExecutionFaultSpec(
        kind="revocation", severity=0.1, options={"proc": 1}
    ).build()
    assert isinstance(rev, RevocationBurst) and rev.proc == 1
    # Default stays 0 (single-processor behaviour unchanged).
    assert ExecutionFaultSpec(kind="kill", severity=0.5).build().proc == 0


def test_revocation_burst_on_global_policy_evicts_only_target():
    """Global policies migrate, so the cleanest observable is the
    eviction record: with one explicit window on processor 1, validation
    still passes and the run completes (eviction handled as re-release)."""
    jobs, capacities = _instance(seed=11)
    result = simulate(
        jobs,
        capacities,
        GlobalEDFScheduler(),
        faults=[RevocationBurst(windows=[(3.0, 5.0)], proc=1)],
        validate=True,
    )
    assert result.value >= 0.0
