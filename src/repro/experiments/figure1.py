"""Experiment E2: the paper's Figure 1 — value versus time, λ = 6.

Four panels, one per Dover estimate ``ĉ ∈ {1, 10.5, 24.5, 35}``; each panel
plots the cumulative value accrued over time by V-Dover and by Dover(ĉ) on
the *same* realized instance.  The qualitative signatures the paper reads
off the figure (and the regression tests assert):

* panel ĉ = 1: identical trajectories while ``c(t) = 1`` (V-Dover reduces
  to Dover at constant conservative capacity), V-Dover pulling ahead while
  ``c(t) = 35`` (supplement jobs ride the spike);
* panels ĉ ∈ {10.5, 24.5, 35}: similar trajectories while ``c(t) = 35``,
  Dover falling behind while ``c(t) = 1`` (it overestimates the capacity
  and overcommits);
* V-Dover ends at or above Dover in every panel.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.analysis.tables import render_series
from repro.capacity.markov import TwoStateMarkovCapacity
from repro.core.dover import DoverScheduler
from repro.core.vdover import VDoverScheduler
from repro.sim.engine import simulate
from repro.sim.job import total_value
from repro.workload.poisson import PoissonWorkload

__all__ = ["Figure1Config", "Figure1Panel", "Figure1Result", "run_figure1"]


@dataclass(frozen=True)
class Figure1Config:
    lam: float = 6.0
    c_hats: Sequence[float] = (1.0, 10.5, 24.5, 35.0)
    k: float = 7.0
    low: float = 1.0
    high: float = 35.0
    expected_jobs: float = 2000.0
    seed: int = 1106

    @property
    def horizon(self) -> float:
        return self.expected_jobs / self.lam


@dataclass
class Figure1Panel:
    """One sub-figure: the paired trajectories for one ĉ."""

    c_hat: float
    vdover_series: list[tuple[float, float]]
    dover_series: list[tuple[float, float]]
    generated_value: float
    capacity_path: list[tuple[float, float, float]]  # (start, end, rate)

    @property
    def vdover_final(self) -> float:
        return self.vdover_series[-1][1]

    @property
    def dover_final(self) -> float:
        return self.dover_series[-1][1]

    def lead_series(self) -> list[tuple[float, float]]:
        """V-Dover's cumulative lead over Dover, sampled at the union of
        both series' time points (step interpolation)."""
        times = sorted({t for t, _ in self.vdover_series} | {t for t, _ in self.dover_series})

        def at(series: list[tuple[float, float]], t: float) -> float:
            val = 0.0
            for when, cum in series:
                if when <= t:
                    val = cum
                else:
                    break
            return val

        return [(t, at(self.vdover_series, t) - at(self.dover_series, t)) for t in times]

    def render(self, max_points: int = 15) -> str:
        head = (
            f"Figure 1 panel ĉ={self.c_hat:g}: "
            f"V-Dover final={self.vdover_final:.1f}, "
            f"Dover final={self.dover_final:.1f}, "
            f"generated={self.generated_value:.1f}"
        )
        body = [
            render_series(self.vdover_series, name="  V-Dover", max_points=max_points),
            render_series(self.dover_series, name=f"  Dover(ĉ={self.c_hat:g})", max_points=max_points),
        ]
        return "\n".join([head] + body)


@dataclass
class Figure1Result:
    config: Figure1Config
    panels: list[Figure1Panel] = field(default_factory=list)

    def render(self) -> str:
        return "\n\n".join(panel.render() for panel in self.panels)


def run_figure1(config: Figure1Config | None = None) -> Figure1Result:
    """Reproduce Figure 1: a single seeded instance per panel, with the
    same instance shared by both algorithms within a panel."""
    config = config or Figure1Config()
    out = Figure1Result(config=config)
    workload = PoissonWorkload(
        lam=config.lam,
        horizon=config.horizon,
        density_range=(1.0, config.k),
        c_lower=config.low,
    )
    root = np.random.SeedSequence(config.seed)
    for panel_seed, c_hat in zip(root.spawn(len(config.c_hats)), config.c_hats):
        job_seed, cap_seed = panel_seed.spawn(2)
        jobs = workload.generate(np.random.default_rng(job_seed))
        capacity = TwoStateMarkovCapacity(
            config.low,
            config.high,
            mean_sojourn=config.horizon / 4.0,
            rng=np.random.default_rng(cap_seed),
        )
        vd = simulate(jobs, capacity, VDoverScheduler(k=config.k))
        dv = simulate(jobs, capacity, DoverScheduler(k=config.k, c_hat=c_hat))
        out.panels.append(
            Figure1Panel(
                c_hat=c_hat,
                vdover_series=vd.value_series(),
                dover_series=dv.value_series(),
                generated_value=total_value(jobs),
                capacity_path=capacity.realized_path(vd.horizon),
            )
        )
    return out
