"""Multiprocessor demonstration: heterogeneous fleet + crash recovery.

The paper's analysis is single-processor; the multiprocessor engine is
the repository's extension (ROADMAP "cloud-wise scheduling").  This
module packages two end-to-end demonstrations for the CLI and CI:

1. :func:`run_multi_demo` — a small paired Monte-Carlo comparison of the
   shipped multiprocessor policies (Global-EDF, Global-Density,
   Global-V-Dover and partitioned V-Dover behind a least-work dispatcher)
   on an ``m``-server fleet with *heterogeneous* capacity bands, run
   through the same crash-isolated harness as every single-processor
   experiment (:class:`~repro.experiments.runner.MonteCarloRunner` with a
   :class:`~repro.experiments.runner.MultiInstanceFactory`).

2. :func:`multi_crash_resume_equivalence` — the multiprocessor mirror of
   :func:`~repro.experiments.recovery_sweep.crash_resume_equivalence`:
   crash each policy's engine mid-run via an
   :class:`~repro.faults.EngineCrashPlan`, resume from the last periodic
   snapshot with the write-ahead journal attached, and verify the
   recovered :class:`~repro.sim.metrics.SimulationResult` is
   **bit-identical** to an uncrashed run
   (:func:`~repro.sim.journal.results_bit_identical`).

Both run on the shared scheduling kernel (:mod:`repro.kernel`), so the
snapshot/journal machinery exercised here is literally the same code the
single-processor proofs run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.stats import summarize
from repro.cloud.cluster import LeastWorkDispatcher
from repro.core.vdover import VDoverScheduler
from repro.errors import ExperimentError
from repro.multi.global_policies import (
    GlobalDensityScheduler,
    GlobalEDFScheduler,
)
from repro.multi.global_vdover import GlobalVDoverScheduler
from repro.multi.partitioned import PartitionedScheduler
from repro.experiments.recovery_sweep import crash_resume_report
from repro.experiments.runner import (
    MonteCarloRunner,
    MultiInstanceFactory,
    SchedulerSpec,
)
from repro.workload.poisson import PoissonWorkload

__all__ = [
    "multi_policy_specs",
    "multi_demo_factory",
    "run_multi_demo",
    "multi_crash_resume_equivalence",
]


@dataclass(frozen=True)
class _VDoverFactory:
    """Picklable per-processor V-Dover factory for partitioned policies."""

    k: float

    def __call__(self) -> VDoverScheduler:
        return VDoverScheduler(k=self.k)


def multi_policy_specs(k: float = 7.0) -> list[SchedulerSpec]:
    """The four shipped multiprocessor policies, as picklable specs."""
    return [
        SchedulerSpec("Global-EDF", GlobalEDFScheduler, {}),
        SchedulerSpec("Global-Density", GlobalDensityScheduler, {}),
        SchedulerSpec("Global-V-Dover", GlobalVDoverScheduler, {"k": k}),
        SchedulerSpec(
            "Part(LW/V-Dover)",
            PartitionedScheduler,
            {
                "dispatcher": LeastWorkDispatcher(),
                "scheduler_factory": _VDoverFactory(k),
            },
        ),
    ]


def multi_demo_factory(
    m: int, lam: float, k: float, expected_jobs: float
) -> MultiInstanceFactory:
    """Heterogeneous ``m``-server fleet in the paper's Figure-1 regime.

    Per-server bands interpolate from a weak machine (``[1, 20]``) to a
    strong one (``[2, 35]``); every server keeps the Figure-1 sojourn.
    """
    if m < 1:
        raise ExperimentError(f"need at least one server, got m={m}")
    horizon = expected_jobs / lam
    frac = [p / max(1, m - 1) for p in range(m)] if m > 1 else [1.0]
    return MultiInstanceFactory(
        workload=PoissonWorkload(
            lam=lam,
            horizon=horizon,
            density_range=(1.0, k),
            c_lower=1.0,
        ),
        n_procs=m,
        sojourn=horizon / 4.0,
        lows=tuple(1.0 + 1.0 * f for f in frac),
        highs=tuple(20.0 + 15.0 * f for f in frac),
    )


def run_multi_demo(
    *,
    m: int = 4,
    lam: float = 20.0,
    k: float = 7.0,
    n_runs: int = 5,
    seed: int = 2011,
    expected_jobs: float = 240.0,
    workers: int | None = 0,
) -> list[list]:
    """Paired Monte-Carlo comparison of the multiprocessor policies.

    Returns table rows ``[policy, mean value %, mean completed]`` sorted
    by value share (descending); the normalization is against the
    generated value of the whole cluster-wide stream.  The default
    ``lam=20`` is *cluster-wide* — high enough that an ``m=4`` fleet sees
    real overload and the policies separate.
    """
    factory = multi_demo_factory(m, lam, k, expected_jobs)
    specs = multi_policy_specs(k)
    runner = MonteCarloRunner(factory, specs)
    outcomes = runner.run(n_runs, seed=seed, workers=workers)
    rows = []
    for spec in specs:
        share = summarize(
            [100.0 * o.normalized(spec.name) for o in outcomes]
        )
        done = summarize([float(o.completed[spec.name]) for o in outcomes])
        rows.append([spec.name, share.mean, done.mean])
    rows.sort(key=lambda r: -r[1])
    return rows


def multi_crash_resume_equivalence(
    *,
    m: int = 3,
    lam: float = 6.0,
    k: float = 7.0,
    seed: int = 31,
    expected_jobs: float = 120.0,
    crash_at_event: int = 40,
    snapshot_every: int = 16,
) -> dict[str, dict]:
    """Crash each multiprocessor policy mid-run; prove resumed ≡ uncrashed.

    Mirrors :func:`~repro.experiments.recovery_sweep.
    crash_resume_equivalence` on the ``m``-server fleet.  Returns
    ``{policy: {"identical": bool, "recoveries": int, "value": float,
    "events_journaled": int}}``; ``identical`` must be True everywhere.
    """
    factory = multi_demo_factory(m, lam, k, expected_jobs)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    jobs, capacities = factory.make(rng)
    return crash_resume_report(
        jobs,
        capacities,
        multi_policy_specs(k),
        crash_at_event=crash_at_event,
        snapshot_every=snapshot_every,
    )
