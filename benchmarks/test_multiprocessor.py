"""E12 — multiprocessor extension: migration vs value triage.

The paper's conclusion gestures at cloud-wise scheduling "with
extensions"; this benchmark measures the two standard extensions against
each other on m = 4 servers with *independent* residual-capacity paths:

* **Global-EDF / Global-Density** — one pool, free migration: work flows
  to whichever server is currently fast;
* **Partitioned V-Dover** — route once, triage locally: no migration, but
  overload-safe value decisions per server.

Measured shape (asserted): migration dominates while the system is
underloaded-ish (independent capacity paths make partitioning waste
spikes), but plain global EDF collapses under heavy overload exactly like
its single-processor self, falling *below* partitioned V-Dover — the
crossover that motivates a (future) global V-Dover.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import render_table
from repro.capacity import TwoStateMarkovCapacity
from repro.cloud import LeastWorkDispatcher
from repro.core import VDoverScheduler
from repro.experiments.runner import default_mc_runs
from repro.multi import (
    GlobalDensityScheduler,
    GlobalEDFScheduler,
    GlobalVDoverScheduler,
    PartitionedScheduler,
)
from repro.sim import simulate
from repro.workload import PoissonWorkload

M_PROCS = 4


def _policies():
    return [
        ("Global-EDF", lambda: GlobalEDFScheduler()),
        ("Global-Density", lambda: GlobalDensityScheduler()),
        ("Global-V-Dover", lambda: GlobalVDoverScheduler(k=7.0)),
        (
            "Partitioned V-Dover",
            lambda: PartitionedScheduler(
                LeastWorkDispatcher(), lambda: VDoverScheduler(k=7.0)
            ),
        ),
    ]


def test_multiprocessor_extension(archive, benchmark):
    runs = default_mc_runs(8)
    lambdas = (12.0, 24.0, 40.0)
    means: dict[tuple[float, str], float] = {}
    rows = []
    for lam in lambdas:
        horizon = 1600.0 / lam
        per_policy: dict[str, list[float]] = {name: [] for name, _ in _policies()}
        for seed in range(runs):
            jobs = PoissonWorkload(lam=lam, horizon=horizon).generate(seed)
            generated = sum(j.value for j in jobs)
            if generated <= 0:
                continue
            for name, make in _policies():
                caps = [
                    TwoStateMarkovCapacity(
                        1.0, 10.0, mean_sojourn=horizon / 4, rng=seed * 10 + i
                    )
                    for i in range(M_PROCS)
                ]
                result = simulate(jobs, caps, make())
                per_policy[name].append(result.value / generated)
        row = [f"{lam:g}"]
        for name, _ in _policies():
            mean = 100.0 * float(np.mean(per_policy[name]))
            means[(lam, name)] = mean
            row.append(mean)
        rows.append(row)

    archive(
        "multiprocessor",
        render_table(
            ["lambda"] + [name for name, _ in _policies()],
            rows,
            title=(
                f"Multiprocessor extension — % of offered value, m={M_PROCS} "
                f"servers with independent capacity paths (n={runs} runs)"
            ),
            float_fmt="{:.2f}",
        ),
    )

    # Light load: migration beats static partitioning.
    assert means[(12.0, "Global-EDF")] > means[(12.0, "Partitioned V-Dover")]
    # Heavy overload: EDF's value-blindness resurfaces; triage wins.
    assert means[(40.0, "Partitioned V-Dover")] > means[(40.0, "Global-EDF")]
    # Value-aware migration dominates value-blind migration under load.
    assert means[(40.0, "Global-Density")] > means[(40.0, "Global-EDF")]
    # The Global V-Dover extension dominates both parents at every load.
    for lam in lambdas:
        assert means[(lam, "Global-V-Dover")] >= means[(lam, "Global-EDF")] - 1.0
        assert (
            means[(lam, "Global-V-Dover")]
            >= means[(lam, "Partitioned V-Dover")] - 1.0
        )

    jobs = PoissonWorkload(lam=24.0, horizon=40.0).generate(0)
    caps = [
        TwoStateMarkovCapacity(1.0, 10.0, mean_sojourn=10.0, rng=i) for i in range(M_PROCS)
    ]
    benchmark(lambda: simulate(jobs, caps, GlobalEDFScheduler()).value)
