"""Shared helpers for the benchmark/reproduction harness.

Every benchmark regenerates one paper artifact (table/figure) or ablation,
prints it, and writes it under ``test-results/benchmarks/`` (untracked), so
a run never rewrites the archived copies in ``benchmarks/results/``; copy a
fresh artifact over its archived twin to refresh EXPERIMENTS.md.  Scale
knobs:

* ``REPRO_MC_RUNS``  — Monte-Carlo replications (default: laptop-friendly;
  the paper uses 800);
* ``REPRO_JOBS``     — expected jobs per run (paper: 2000).

Run with ``pytest benchmarks/ --benchmark-only``.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).resolve().parents[1] / "test-results" / "benchmarks"


def expected_jobs(default: float = 1000.0) -> float:
    raw = os.environ.get("REPRO_JOBS")
    return float(raw) if raw else default


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    return RESULTS_DIR


@pytest.fixture
def archive(results_dir):
    """Print an artifact and save it under test-results/benchmarks/<name>.txt."""

    def _archive(name: str, text: str) -> None:
        print()
        print(text)
        (results_dir / f"{name}.txt").write_text(text + "\n")

    return _archive
