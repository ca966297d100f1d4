"""The shared scheduling kernel.

One event loop for every run in the repository, on any number of
processors: :class:`~repro.sim.engine.SimulationEngine` is the one thin
façade over :class:`SchedulingKernel`, which owns the clock, the event
heap and its lazy-deletion hygiene, per-processor segment accounting
(with the prefix-sum capacity fast path), completion re-prediction, alarm
and timer plumbing, execution-fault dispatch, snapshot/restore with the
write-ahead event journal, and the invariant-watchdog hooks.  The policy's
base class picks the decision protocol: a single-processor
:class:`~repro.sim.scheduler.Scheduler` returns ``Optional[Job]`` on one
processor, a :class:`~repro.multi.scheduler.MultiScheduler` returns
assignments on ``m ≥ 1``.

See ``docs/ARCHITECTURE.md`` for the layering diagram and migration notes.
"""

from repro.kernel.core import SchedulingKernel
from repro.kernel.recovery import CrashLoopDetector, run_with_recovery

__all__ = ["SchedulingKernel", "CrashLoopDetector", "run_with_recovery"]
