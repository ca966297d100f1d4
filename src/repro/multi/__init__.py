"""Multiprocessor extension: global scheduling with free migration, plus a
partitioned adapter — the 'cloud-wise' extension the paper's conclusion
points at, in both standard flavours.

The policies here run on the one engine: ``repro.sim.simulate(jobs,
capacities, policy)`` with a list of capacity trajectories, one per
processor, returns a :class:`~repro.sim.metrics.SimulationResult` whose
``proc_traces`` hold each processor's segments."""

from repro.multi.global_vdover import GlobalVDoverScheduler
from repro.multi.global_policies import (
    GlobalDensityScheduler,
    GlobalEDFScheduler,
    GlobalTopM,
)
from repro.multi.partitioned import PartitionedScheduler
from repro.multi.scheduler import (
    Assignment,
    MultiScheduler,
    MultiSchedulerContext,
)

__all__ = [
    "GlobalDensityScheduler",
    "GlobalEDFScheduler",
    "GlobalVDoverScheduler",
    "GlobalTopM",
    "PartitionedScheduler",
    "Assignment",
    "MultiScheduler",
    "MultiSchedulerContext",
]
