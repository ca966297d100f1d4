"""Tier-1 performance smoke (``perf_smoke`` marker).

A short indexed-vs-naive comparison that rides in the normal tier-1 flow
(well under 30 s): the O(log n) prefix-sum index must agree with the
naive linear piece-scan on a long realized Markov path and on the
periodic sinusoidal segment cache, must actually beat the scan on deep
queries, and an 8-replication Monte-Carlo pass (``REPRO_MC_RUNS=8``)
must stay value-conserving end to end on the indexed hot path.

Deselect with ``-m "not perf_smoke"`` when iterating on unrelated code.
"""

from __future__ import annotations

import time

import pytest

from repro.capacity import (
    SinusoidalCapacity,
    TwoStateMarkovCapacity,
    crosscheck_index,
    naive_advance,
    naive_integrate,
)
from repro.core import EDFScheduler, VDoverScheduler
from repro.experiments import (
    MonteCarloRunner,
    PaperInstanceFactory,
    SchedulerSpec,
    default_mc_runs,
)
from repro.workload import PoissonWorkload

pytestmark = pytest.mark.perf_smoke


@pytest.fixture(scope="module")
def long_markov_path():
    """A ~4k-segment realized path (materialized once for the module)."""
    cap = TwoStateMarkovCapacity(1.0, 35.0, mean_sojourn=0.5, rng=42)
    cap.integrate(0.0, 2000.0)  # force materialization
    assert len(cap.breakpoints_materialized) >= 2000
    return cap


class TestIndexedVsNaiveAgreement:
    def test_markov_long_path(self, long_markov_path):
        cap = long_markov_path
        cap.check_index_invariants()
        assert crosscheck_index(cap, 0.0, 1800.0, n_queries=48) == 48

    def test_sinusoidal_segment_cache(self):
        cap = SinusoidalCapacity(1.0, 5.0, period=7.3, phase=0.4)
        assert crosscheck_index(cap, 0.0, 150.0, n_queries=48) == 48


class TestIndexedBeatsNaive:
    def test_deep_advance_is_faster(self, long_markov_path):
        """Deep queries across the whole path: the bisect must clearly beat
        the linear rescan (conservative 3x bar; measured ~100-400x)."""
        cap = long_markov_path
        total = cap.integrate(0.0, 1800.0)
        works = [total * f for f in (0.3, 0.6, 0.9)] * 10

        t0 = time.perf_counter()
        fast = [cap.advance(0.0, w, horizon=2000.0) for w in works]
        t_fast = time.perf_counter() - t0

        t0 = time.perf_counter()
        slow = [naive_advance(cap, 0.0, w, horizon=2000.0) for w in works]
        t_slow = time.perf_counter() - t0

        # Same landing piece, same prefix sums; the naive reference's
        # *sequential* subtraction can differ from the index's one-shot
        # `target − W[i]` by rounding order (≤ ~1 ulp).
        for f, s in zip(fast, slow):
            assert f == pytest.approx(s, rel=1e-12)
        assert t_slow > 3.0 * t_fast, (
            f"indexed advance not faster: {t_fast:.4f}s vs naive {t_slow:.4f}s"
        )

    def test_deep_integrate_is_faster(self, long_markov_path):
        cap = long_markov_path
        spans = [(float(a), 1800.0 - float(a)) for a in range(0, 300, 10)]

        t0 = time.perf_counter()
        fast = [cap.integrate(a, b) for a, b in spans]
        t_fast = time.perf_counter() - t0

        t0 = time.perf_counter()
        slow = [naive_integrate(cap, a, b) for a, b in spans]
        t_slow = time.perf_counter() - t0

        for f, s in zip(fast, slow):
            assert f == pytest.approx(s, rel=1e-9)
        assert t_slow > 3.0 * t_fast, (
            f"indexed integrate not faster: {t_fast:.4f}s vs naive {t_slow:.4f}s"
        )


class TestMonteCarloSmoke:
    def test_eight_replications_value_conserving(self, monkeypatch):
        """REPRO_MC_RUNS=8 end-to-end pass on the indexed hot path."""
        monkeypatch.setenv("REPRO_MC_RUNS", "8")
        runs = default_mc_runs(3)
        assert runs == 8
        factory = PaperInstanceFactory(
            workload=PoissonWorkload(lam=6.0, horizon=20.0),
            sojourn=5.0,
        )
        specs = [
            SchedulerSpec("EDF", EDFScheduler),
            SchedulerSpec("V-Dover", VDoverScheduler, {"k": 7.0}),
        ]
        outcomes = MonteCarloRunner(factory, specs).run(runs, seed=1, workers=1)
        assert len(outcomes) == 8
        for out in outcomes:
            for name in ("EDF", "V-Dover"):
                # No scheduler can accrue more than the generated value.
                assert 0.0 <= out.values[name] <= out.generated_value + 1e-9
                assert 0 <= out.completed[name] <= out.n_jobs
        # Across a small ensemble someone must complete something.
        assert sum(o.completed["EDF"] for o in outcomes) > 0
