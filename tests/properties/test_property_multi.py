"""Property tests: multiprocessor schedules are always legal.

The multi validator re-derives per-processor legality, cross-processor
non-parallelism and workload accounting from first principles; hypothesis
drives random instances, processor counts and capacity paths through both
global policies and the partitioned adapter.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.capacity import ConstantCapacity, PiecewiseConstantCapacity
from repro.cloud import LeastWorkDispatcher, RoundRobinDispatcher, run_cluster
from repro.core import VDoverScheduler
from repro.multi import (
    GlobalDensityScheduler,
    GlobalEDFScheduler,
    PartitionedScheduler,
)
from repro.sim import Job, simulate


@st.composite
def instances(draw):
    n = draw(st.integers(min_value=1, max_value=14))
    jobs = []
    for i in range(n):
        release = draw(st.floats(min_value=0.0, max_value=20.0))
        workload = draw(st.floats(min_value=0.1, max_value=6.0))
        slack = draw(st.floats(min_value=1.0, max_value=4.0))
        density = draw(st.floats(min_value=1.0, max_value=7.0))
        jobs.append(
            Job(i, release, workload, release + slack * workload, density * workload)
        )
    return jobs


@st.composite
def processor_sets(draw):
    m = draw(st.integers(min_value=1, max_value=4))
    caps = []
    for i in range(m):
        if draw(st.booleans()):
            caps.append(ConstantCapacity(draw(st.floats(min_value=0.5, max_value=4.0))))
        else:
            b = draw(st.floats(min_value=1.0, max_value=10.0))
            caps.append(
                PiecewiseConstantCapacity(
                    [0.0, b], [draw(st.floats(0.5, 4.0)), draw(st.floats(0.5, 4.0))]
                )
            )
    return caps


POLICIES = [
    lambda: GlobalEDFScheduler(),
    lambda: GlobalDensityScheduler(),
    lambda: PartitionedScheduler(
        RoundRobinDispatcher(), lambda: VDoverScheduler(k=7.0)
    ),
]


@settings(max_examples=40, deadline=None)
@given(
    jobs=instances(),
    caps=processor_sets(),
    which=st.integers(0, len(POLICIES) - 1),
)
def test_multi_schedules_are_legal(jobs, caps, which):
    result = simulate(jobs, caps, POLICIES[which](), validate=True)
    assert len(result.completed_ids) + len(result.failed_ids) == len(jobs)
    assert set(result.completed_ids).isdisjoint(result.failed_ids)
    assert 0.0 <= result.normalized_value <= 1.0 + 1e-12
    total_capacity = sum(c.integrate(0.0, result.horizon) for c in caps)
    assert result.executed_work <= total_capacity + 1e-6


@settings(max_examples=25, deadline=None)
@given(jobs=instances(), m=st.integers(1, 3))
def test_partitioned_multi_equals_run_cluster(jobs, m):
    """Cross-engine differential property: the multi engine running the
    partitioned adapter must agree with m independent single-processor
    engines, job for job."""
    caps = [ConstantCapacity(1.0 + 0.5 * i) for i in range(m)]
    multi = simulate(
        jobs,
        caps,
        PartitionedScheduler(LeastWorkDispatcher(), lambda: VDoverScheduler(k=7.0)),
        validate=True,
    )
    cluster = run_cluster(
        jobs,
        [ConstantCapacity(1.0 + 0.5 * i) for i in range(m)],
        lambda: VDoverScheduler(k=7.0),
        LeastWorkDispatcher(),
    )
    assert multi.value == pytest.approx(cluster.value)
    assert multi.completed_ids == sorted(
        jid for r in cluster.per_server for jid in r.completed_ids
    )


@settings(max_examples=25, deadline=None)
@given(jobs=instances(), m=st.integers(1, 4))
def test_global_edf_never_worse_than_single_processor_edf(jobs, m):
    """Adding identical processors cannot lose completions for EDF-type
    policies on the same stream (weak sanity; not a theorem for value,
    asserted on completions of the m=1 baseline)."""
    from repro.core import EDFScheduler

    single = simulate(jobs, ConstantCapacity(1.0), EDFScheduler())
    multi = simulate(
        jobs, [ConstantCapacity(1.0)] * m, GlobalEDFScheduler(), validate=True
    )
    if m >= 1:
        # with m == 1 global EDF degenerates to EDF exactly
        if m == 1:
            assert multi.value == pytest.approx(single.value)
