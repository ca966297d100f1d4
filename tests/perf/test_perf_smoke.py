"""Tier-1 performance smoke (``perf_smoke`` marker).

A short indexed-vs-naive comparison that rides in the normal tier-1 flow
(well under 30 s): the O(log n) prefix-sum index must agree with the
naive linear piece-scan on a long realized Markov path and on the
periodic sinusoidal segment cache, must do a constant number of index
lookups per deep query where the scan walks hundreds of pieces (counted,
not clocked: wall times are printed, never asserted), and an
8-replication Monte-Carlo pass (``REPRO_MC_RUNS=8``) must stay
value-conserving end to end on the indexed hot path.

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
    prefix,
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


class _StepCounter:
    """Counts a capacity's query work per call: pieces walked by the
    linear scan (:meth:`pieces`) plus the bisects the prefix index
    performs (``bisect_left``/``bisect_right`` as
    :mod:`repro.capacity.prefix` calls them, one index lookup each)."""

    def __init__(self, cap, monkeypatch):
        self.steps = 0
        pieces = cap.pieces

        def counted_pieces(t0, t1):
            for piece in pieces(t0, t1):
                self.steps += 1
                yield piece

        def counted(bisect):
            def lookup(*args):
                self.steps += 1
                return bisect(*args)

            return lookup

        monkeypatch.setattr(cap, "pieces", counted_pieces)
        for name in ("bisect_left", "bisect_right"):
            monkeypatch.setattr(
                prefix, name, counted(getattr(prefix, name))
            )

    def run(self, fn, queries):
        """``(results, steps per query, wall seconds)`` of ``fn`` over
        ``queries``."""
        self.steps = 0
        t0 = time.perf_counter()
        out = [fn(*q) for q in queries]
        wall = time.perf_counter() - t0
        return out, self.steps / len(queries), wall


#: Index lookups a deep indexed query may take (``advance`` and
#: ``integrate`` each bisect twice).  The naive scan walks hundreds of
#: pieces for the same queries and must fail this bound.
MAX_STEPS_PER_QUERY = 2
#: Every indexed query looks the index up at least once, so a counter
#: that stopped seeing the lookups (reading 0) fails.
MIN_STEPS_PER_QUERY = 1


class TestIndexedBeatsNaive:
    def test_deep_advance_is_faster(
        self, long_markov_path, monkeypatch
    ):
        """Deep queries across the whole path: a bounded number of index
        lookups each, where the linear rescan walks the path."""
        cap = long_markov_path
        total = cap.integrate(0.0, 1800.0)
        queries = [(0.0, total * f, 2000.0) for f in (0.3, 0.6, 0.9)] * 10
        counter = _StepCounter(cap, monkeypatch)

        fast, fast_steps, t_fast = counter.run(cap.advance, queries)
        slow, slow_steps, t_slow = counter.run(
            lambda t, w, h: naive_advance(cap, t, w, horizon=h), queries
        )
        print(f"advance: indexed {t_fast:.4f}s, naive {t_slow:.4f}s")

        # Same landing piece, same prefix sums; the naive reference's
        # *sequential* subtraction can differ from the index's one-shot
        # `target − W[i]` by rounding order (≤ ~1 ulp).
        for f, s in zip(fast, slow):
            assert f == pytest.approx(s, rel=1e-12)
        assert MIN_STEPS_PER_QUERY <= fast_steps <= MAX_STEPS_PER_QUERY
        assert slow_steps > 100 * MAX_STEPS_PER_QUERY

    def test_deep_integrate_is_faster(
        self, long_markov_path, monkeypatch
    ):
        cap = long_markov_path
        queries = [(float(a), 1800.0 - float(a)) for a in range(0, 300, 10)]
        counter = _StepCounter(cap, monkeypatch)

        fast, fast_steps, t_fast = counter.run(cap.integrate, queries)
        slow, slow_steps, t_slow = counter.run(
            lambda a, b: naive_integrate(cap, a, b), queries
        )
        print(f"integrate: indexed {t_fast:.4f}s, naive {t_slow:.4f}s")

        for f, s in zip(fast, slow):
            assert f == pytest.approx(s, rel=1e-9)
        assert MIN_STEPS_PER_QUERY <= fast_steps <= MAX_STEPS_PER_QUERY
        assert slow_steps > 100 * MAX_STEPS_PER_QUERY


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
