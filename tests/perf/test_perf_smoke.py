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


class TestKernelBenchArtifact:
    """Machine-readable kernel benchmark: ``BENCH_kernel.json``.

    Runs the Figure-1 instance through EDF and V-Dover on the columnar
    kernel, checks the values are bit-identical to the seed pins, and
    writes wall-ms / events-per-second numbers where CI can upload them
    (``test-results/``).  The archived copy under ``benchmarks/results/``
    stays as recorded: tier-1 never rewrites tracked files.
    """

    # Seed pins (Figure-1 instance, PoissonWorkload(lam=6, horizon=2000/6)
    # seed 7 x TwoStateMarkovCapacity(1, 35, sojourn=horizon/4, rng=3)).
    EDF_VALUE = 5007.37367023652
    VDOVER_VALUE = 5391.145120371147

    def test_emit_bench_kernel_json(self):
        import json
        from pathlib import Path

        from repro.capacity import TwoStateMarkovCapacity
        from repro.sim import SimulationEngine

        lam, horizon = 6.0, 2000.0 / 6.0
        jobs = PoissonWorkload(lam=lam, horizon=horizon).generate(7)

        def measure(make_sched, repeat=3):
            best_ms = float("inf")
            value = dispatches = None
            for _ in range(repeat):
                cap = TwoStateMarkovCapacity(
                    1.0, 35.0, mean_sojourn=horizon / 4, rng=3
                )
                engine = SimulationEngine(jobs, cap, make_sched())
                t0 = time.perf_counter()
                result = engine.run()
                elapsed = (time.perf_counter() - t0) * 1e3
                best_ms = min(best_ms, elapsed)
                value = result.value
                dispatches = engine.dispatch_count
            return {
                "wall_ms_min": round(best_ms, 3),
                "value": value,
                "dispatches": dispatches,
                "events_per_sec": round(dispatches / (best_ms / 1e3)),
            }

        edf = measure(EDFScheduler)
        vdover = measure(lambda: VDoverScheduler(k=7.0))

        # Acceptance: Figure-1 values bit-identical to the seed.
        assert edf["value"] == self.EDF_VALUE
        assert vdover["value"] == self.VDOVER_VALUE

        payload = {
            "schema": 1,
            "bench": "kernel_figure1",
            "instance": {
                "workload": f"PoissonWorkload(lam={lam}, horizon={horizon!r}) seed 7",
                "capacity": "TwoStateMarkovCapacity(1, 35, sojourn=horizon/4, rng=3)",
                "jobs": len(jobs),
            },
            "edf": {**edf, "bit_identical": edf["value"] == self.EDF_VALUE},
            "vdover": {
                **vdover,
                "bit_identical": vdover["value"] == self.VDOVER_VALUE,
            },
            "notes": (
                "wall_ms_min is best-of-3 on the runner; dispatches counts "
                "journaled (non-stale) events, so events_per_sec is a "
                "conservative throughput figure.  Methodology and the "
                "before/after comparison: docs/PERFORMANCE.md."
            ),
        }
        out = Path(__file__).resolve().parents[2] / "test-results"
        out.mkdir(parents=True, exist_ok=True)
        (out / "BENCH_kernel.json").write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n"
        )


class TestTelemetryBenchArtifact:
    """Service decision-path benchmark: ``BENCH_telemetry.json``.

    A deterministic rid'd wire stream (submits, advances, a few injected
    kills, queue-budget sheds) is driven through a store-less
    ``TenantShard`` — its metrics registry always on — so the measured
    rate is the decision path with no disk and no asyncio scheduling.

    Asserted: the decision facts (``accepted``/``shed``/
    ``accepted_crc``/``frontier``) equal the ones recorded in
    ``benchmarks/results/BENCH_telemetry.json`` when tracking was still
    optional — counting observes, it never steers — and the
    ``service.admitted`` counter equals ``accepted``.  Never asserted:
    wall-clock thresholds; the JSON carries the measured messages/s and
    CI archives it.
    """

    #: Decision facts of this stream: ``accepted``/``shed``/
    #: ``accepted_crc`` as recorded in BENCH_telemetry.json (both arms),
    #: ``submitted``/``frontier`` as measured with tracking on and off
    #: before tracking became unconditional.
    RECORDED = {
        "submitted": 600,
        "accepted": 455,
        "shed": 145,
        "accepted_crc": 410519317,
        "frontier": 160.0834357144526,
    }

    def _messages(self, n_submits=600, advance_every=10):
        """One deterministic tenant timeline, rebuilt per run (handle()
        takes ownership of the Job objects) — same seed, same stream."""
        import random

        from repro.service import Advance, InjectFault, Submit
        from repro.sim import Job

        rng = random.Random(2011)
        msgs = []
        t = 0.0
        for i in range(n_submits):
            t += rng.expovariate(4.0)
            workload = rng.uniform(0.2, 1.2)
            msgs.append(
                Submit(
                    "t0",
                    Job(
                        jid=i,
                        release=t,
                        workload=workload,
                        deadline=t + workload + rng.uniform(0.5, 6.0),
                        value=rng.uniform(1.0, 10.0),
                    ),
                    rid=f"bench-{i}",
                )
            )
            if i % 97 == 41:
                msgs.append(
                    InjectFault("t0", "kill", time=t + 0.1, rid=f"kill-{i}")
                )
            if i % advance_every == advance_every - 1:
                msgs.append(Advance("t0", t))
        return msgs

    def test_emit_bench_telemetry_json(self):
        import gc
        import json
        import statistics
        from pathlib import Path

        from repro.service import CapacitySpec, TenantShard, TenantSpec

        def spec():
            return TenantSpec(
                tenant="t0",
                horizon=1e9,
                scheduler="edf",
                capacity=CapacitySpec("constant", {"rate": 2.0}),
                queue_budget=8,
            )

        def one():
            """One timed run, GC parked so a collection mid-run doesn't
            land in the ledger.  Message build is outside t0."""
            msgs = self._messages()
            shard = TenantShard(spec())
            gc.collect()
            gc.disable()
            try:
                t0 = time.perf_counter()
                for msg in msgs:
                    shard.handle(msg)
                elapsed = (time.perf_counter() - t0) * 1e3
            finally:
                gc.enable()
            stats = shard.stats()
            shard.close()
            return elapsed, stats, len(msgs)

        rounds = 9
        times = []
        for _ in range(rounds):
            ms, stats, n_msgs = one()
            times.append(ms)

        # Hard equivalence gates (never wall-clock): counting observes,
        # it never steers a decision.
        for key, value in self.RECORDED.items():
            assert stats[key] == value, key
        counters = stats["metrics"]["counters"]
        assert counters["service.admitted"] == stats["accepted"]
        assert counters["service.shed"] == stats["shed"]

        best_ms = min(times)
        payload = {
            "schema": 1,
            "bench": "telemetry",
            "workload": (
                "600 rid'd Poisson submits (expovariate(4), seed 2011) + "
                "periodic advances + 7 injected kills through a store-less "
                "edf TenantShard, queue_budget 8 (sheds exercised) — the "
                "decision path with zero disk in the ledger"
            ),
            "results": {
                "wall_ms_min": round(best_ms, 3),
                "wall_ms_median": round(statistics.median(times), 3),
                "messages": n_msgs,
                "messages_per_sec": round(n_msgs / (best_ms / 1e3)),
                "accepted": stats["accepted"],
                "shed": stats["shed"],
                "accepted_crc": stats["accepted_crc"],
            },
            "notes": (
                "wall_ms_min is best-of-9 (GC parked), messages_per_sec "
                "follows it.  The decision facts are asserted equal to "
                "the recorded benchmarks/results/BENCH_telemetry.json "
                "arms; wall clock never is.  See docs/OBSERVABILITY.md, "
                "'Live service telemetry'."
            ),
        }
        out = Path(__file__).resolve().parents[2] / "test-results"
        out.mkdir(parents=True, exist_ok=True)
        (out / "BENCH_telemetry.json").write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n"
        )
