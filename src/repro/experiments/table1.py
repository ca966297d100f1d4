"""Experiment E1: the paper's Table I.

Setup (Section IV): Poisson arrivals with rate λ sweeping
``{4, 5, 6, 7, 8, 10, 12}``, exponential workloads (mean 1), relative
deadline ``workload / c̲`` (zero conservative laxity), value density
U[1, 7] (k = 7), horizon ``H = 2000/λ`` (2000 expected jobs), capacity a
two-state CTMC over {1, 35} with mean sojourn ``H/4``.

Reported metric: percentage of the total generated value captured, averaged
over Monte-Carlo runs — Dover at each ĉ ∈ {1, 10.5, 24.5, 35}, V-Dover, and
V-Dover's relative gain over the *best* Dover column (the paper bolds the
best Dover per row and reports the gain against it).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from repro.analysis.stats import Summary, paired_gain_percent, summarize
from repro.errors import ExperimentError
from repro.analysis.tables import render_table
from repro.core.dover import DoverScheduler
from repro.core.vdover import VDoverScheduler
from repro.experiments.runner import (
    FailedReplication,
    MonteCarloRunner,
    PaperInstanceFactory,
    SchedulerSpec,
)
from repro.workload.poisson import PoissonWorkload

__all__ = ["Table1Config", "Table1Row", "Table1Result", "run_table1"]

VDOVER_NAME = "V-Dover"


def _dover_name(c_hat: float) -> str:
    return f"Dover(c={c_hat:g})"


@dataclass(frozen=True)
class Table1Config:
    """Knobs of the Table-I reproduction (defaults = the paper's values,
    except the Monte-Carlo count, which the paper sets to 800)."""

    lambdas: Sequence[float] = (4.0, 5.0, 6.0, 7.0, 8.0, 10.0, 12.0)
    c_hats: Sequence[float] = (1.0, 10.5, 24.5, 35.0)
    k: float = 7.0
    low: float = 1.0
    high: float = 35.0
    expected_jobs: float = 2000.0
    workload_mean: float = 1.0
    n_runs: int = 100
    seed: int = 2011
    workers: int | None = None

    def horizon(self, lam: float) -> float:
        return self.expected_jobs / lam

    def specs(self) -> list[SchedulerSpec]:
        specs = [
            SchedulerSpec(_dover_name(c), DoverScheduler, {"k": self.k, "c_hat": c})
            for c in self.c_hats
        ]
        specs.append(SchedulerSpec(VDOVER_NAME, VDoverScheduler, {"k": self.k}))
        return specs


@dataclass
class Table1Row:
    """One λ row: mean captured-value percentages and the paired gain."""

    lam: float
    dover_percent: dict[float, Summary]  # c_hat -> summary (percent)
    vdover_percent: Summary
    best_c_hat: float
    gain_percent: Summary  # paired V-Dover vs best-Dover relative gain

    @property
    def best_dover_percent(self) -> Summary:
        return self.dover_percent[self.best_c_hat]


@dataclass
class Table1Result:
    config: Table1Config
    rows: list[Table1Row] = field(default_factory=list)
    #: failure metadata (schema v2): λ -> replications lost to crash/timeout
    failures: dict[float, list[FailedReplication]] = field(default_factory=dict)

    @property
    def n_failed(self) -> int:
        return sum(len(f) for f in self.failures.values())

    def render(self) -> str:
        headers = (
            ["lambda"]
            + [f"Dover c={c:g}" for c in self.config.c_hats]
            + ["V-Dover", "best c", "Gain %"]
        )
        body = []
        for row in self.rows:
            cells: list[object] = [f"{row.lam:g}"]
            for c in self.config.c_hats:
                mark = "*" if c == row.best_c_hat else " "
                cells.append(f"{row.dover_percent[c].mean:7.3f}{mark}")
            cells.append(f"{row.vdover_percent.mean:7.3f}")
            cells.append(f"{row.best_c_hat:g}")
            cells.append(f"{row.gain_percent.mean:+.2f}")
            body.append(cells)
        rendered = render_table(
            headers,
            body,
            title=(
                f"Table I — % of generated value captured "
                f"(n={self.config.n_runs} MC runs; * = best Dover)"
            ),
        )
        if self.n_failed:
            rendered += (
                f"\n[!] {self.n_failed} replication(s) failed and were "
                f"excluded; see result.failures for structured records"
            )
        return rendered


def run_table1(
    config: Table1Config | None = None,
    *,
    checkpoint_dir: "str | None" = None,
    timeout: float | None = None,
    max_retries: int = 0,
    backoff: float = 0.0,
) -> Table1Result:
    """Reproduce Table I under ``config`` (paper defaults).

    Resilience knobs (docs/ROBUSTNESS.md): with ``checkpoint_dir`` every
    λ-row checkpoints each finished replication to
    ``<dir>/table1_lam<λ>.ckpt`` and an interrupted run resumes from
    completed seeds with bit-identical summaries; ``timeout`` /
    ``max_retries`` / ``backoff`` bound each replication's wall clock and
    retry transient failures.  Replications that still fail are *excluded*
    from the averages and reported as structured records in
    ``result.failures`` instead of aborting the whole table.
    """
    config = config or Table1Config()
    out = Table1Result(config=config)
    specs = config.specs()
    for i, lam in enumerate(config.lambdas):
        horizon = config.horizon(lam)
        factory = PaperInstanceFactory(
            workload=PoissonWorkload(
                lam=lam,
                horizon=horizon,
                workload_mean=config.workload_mean,
                density_range=(1.0, config.k),
                c_lower=config.low,
            ),
            low=config.low,
            high=config.high,
            sojourn=horizon / 4.0,
        )
        runner = MonteCarloRunner(factory, specs)
        checkpoint = None
        if checkpoint_dir is not None:
            checkpoint = Path(checkpoint_dir) / f"table1_lam{lam:g}.ckpt"
        report = runner.run_report(
            config.n_runs,
            seed=config.seed + i,
            workers=config.workers,
            timeout=timeout,
            max_retries=max_retries,
            backoff=backoff,
            checkpoint=checkpoint,
        )
        if report.failures:
            out.failures[lam] = report.failure_records()
        outcomes = report.survivors
        if not outcomes:
            raise ExperimentError(
                f"Table I row λ={lam:g}: every replication failed "
                f"({report.failure_records()[0]})"
            )

        normalized = {
            spec.name: np.array([o.normalized(spec.name) for o in outcomes])
            for spec in specs
        }
        dover_percent = {
            c: summarize(100.0 * normalized[_dover_name(c)]) for c in config.c_hats
        }
        best_c = max(config.c_hats, key=lambda c: dover_percent[c].mean)
        gain = paired_gain_percent(
            normalized[VDOVER_NAME], normalized[_dover_name(best_c)]
        )
        out.rows.append(
            Table1Row(
                lam=lam,
                dover_percent=dover_percent,
                vdover_percent=summarize(100.0 * normalized[VDOVER_NAME]),
                best_c_hat=best_c,
                gain_percent=gain,
            )
        )
    return out
