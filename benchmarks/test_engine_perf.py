"""Kernel microbenchmarks: simulation throughput and queue operations.

Not a paper artifact — these watch the substrate's performance so
experiment-scale regressions are caught where they start (the guides'
"profile before optimizing" loop needs a baseline).

The ``TestCapacityIndex`` group benchmarks the prefix-sum capacity index
(docs/PERFORMANCE.md) against the naive linear piece-scan on a long
realized Markov path, and regenerates the before/after comparison
artifact ``engine_perf_index.txt`` (archived in ``benchmarks/results/``;
the "before" column is the pre-index baseline measured at commit 64b444e,
reproduced in ``PRE_INDEX_BASELINE_MS`` below, and is reported only: the
asserted signal is the count of index lookups per deep query)."""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.capacity import TwoStateMarkovCapacity, naive_advance, naive_integrate
from repro.core import EDFScheduler, VDoverScheduler
from repro.core.transform import StretchTransform
from repro.sim import Job, JobQueue, edf_key, simulate
from repro.workload import PoissonWorkload


@pytest.fixture(scope="module")
def paper_instance():
    lam, horizon = 6.0, 2000.0 / 6.0
    jobs = PoissonWorkload(lam=lam, horizon=horizon).generate(7)
    return jobs, horizon


def test_perf_edf_full_scale(paper_instance, benchmark):
    """EDF over a full paper-scale instance (~2000 jobs)."""
    jobs, horizon = paper_instance

    def run():
        capacity = TwoStateMarkovCapacity(1.0, 35.0, mean_sojourn=horizon / 4, rng=3)
        return simulate(jobs, capacity, EDFScheduler()).value

    benchmark(run)


def test_perf_vdover_full_scale(paper_instance, benchmark):
    """V-Dover over a full paper-scale instance (~2000 jobs)."""
    jobs, horizon = paper_instance

    def run():
        capacity = TwoStateMarkovCapacity(1.0, 35.0, mean_sojourn=horizon / 4, rng=3)
        return simulate(jobs, capacity, VDoverScheduler(k=7.0)).value

    benchmark(run)


# ----------------------------------------------------------------------
# Prefix-sum capacity index: indexed vs naive linear scan
# ----------------------------------------------------------------------

#: Pre-index baseline, measured at commit 64b444e (seed code) with the
#: exact workloads below on the same machine that produced
#: ``results/engine_perf_index.txt``.  Kept here so the artifact can be
#: regenerated (the pre-index code itself is gone).
PRE_INDEX_BASELINE_MS = {
    "advance_deep_x2000": 6502.76,     # advance(0, w), no horizon
    "advance_capped_x2000": 1917.555,  # advance(0, w, horizon=1e4), path pre-built
    "integrate_spread_x2000": 4.19,    # integrate(t, t+5)
    "integrate_deep_naive_x200": 40.74,  # base-class scan, integrate(0, t)
    "edf_full_scale": 39.86,
    "vdover_full_scale": 44.40,
    "stretch_roundtrip_x500": 116.12,
    "edf_value": 5007.37367023652,
    "vdover_value": 5391.145120371147,
    "segments": 20037,
}


@pytest.fixture(scope="module")
def indexed_path():
    """~20k-segment realized Markov path, fully materialized up front so
    benchmarks measure query cost, not one-time path sampling."""
    horizon = 10_000.0
    cap = TwoStateMarkovCapacity(1.0, 35.0, mean_sojourn=0.5, rng=42)
    cap.integrate(0.0, horizon)
    total = cap.integrate(0.0, horizon)
    works = np.linspace(0.01, total * 0.999, 2000)
    ts = np.linspace(0.0, horizon * 0.999, 2000)
    return cap, horizon, works, ts


def test_perf_advance_indexed(indexed_path, benchmark):
    """O(log n) searchsorted advance across the whole 20k-segment path."""
    cap, horizon, works, _ = indexed_path

    def run():
        s = 0.0
        for w in works:
            s += cap.advance(0.0, float(w), horizon=horizon)
        return s

    benchmark(run)


def test_perf_advance_naive(indexed_path, benchmark):
    """The pre-index reference: linear piece-scan advance (200 queries)."""
    cap, horizon, works, _ = indexed_path

    def run():
        s = 0.0
        for w in works[:200]:
            s += naive_advance(cap, 0.0, float(w), horizon=horizon)
        return s

    benchmark(run)


def test_perf_integrate_indexed(indexed_path, benchmark):
    cap, _, _, ts = indexed_path

    def run():
        s = 0.0
        for a in ts:
            s += cap.integrate(0.0, float(a))
        return s

    benchmark(run)


def test_perf_integrate_naive(indexed_path, benchmark):
    cap, _, _, ts = indexed_path

    def run():
        s = 0.0
        for a in ts[:200]:
            s += naive_integrate(cap, 0.0, float(a))
        return s

    benchmark(run)


def test_perf_stretch_roundtrip(indexed_path, benchmark):
    """Lemma-1-shaped hot path: T then T⁻¹ (an advance from 0) x500."""
    cap, _, _, ts = indexed_path
    tr = StretchTransform(cap)

    def run():
        s = 0.0
        for t in ts[:500]:
            s += tr.inverse(tr.forward(float(t)))
        return s

    benchmark(run)


#: Index lookups a deep indexed ``advance`` may take (it resolves two
#: prefix sums); the naive scan walks thousands of pieces per query.
MAX_LOOKUPS_PER_QUERY = 2


def _query_steps(cap, monkeypatch, fn, queries) -> float:
    """Capacity work per query of ``fn``: pieces walked by the linear
    scan (``pieces``) plus index lookups (``segment_index``)."""
    steps = 0
    pieces, segment_index = cap.pieces, cap.segment_index

    def counted_pieces(t0, t1):
        nonlocal steps
        for piece in pieces(t0, t1):
            steps += 1
            yield piece

    def counted_segment_index(t):
        nonlocal steps
        steps += 1
        return segment_index(t)

    with monkeypatch.context() as patch:
        patch.setattr(cap, "pieces", counted_pieces)
        patch.setattr(cap, "segment_index", counted_segment_index)
        for query in queries:
            fn(*query)
    return steps / len(queries)


@pytest.mark.perf_smoke
def test_perf_index_artifact(indexed_path, paper_instance, archive, monkeypatch):
    """Regenerate ``results/engine_perf_index.txt``: timed indexed-vs-naive
    comparison against the archived pre-index baseline, plus the
    bit-identity check on the Figure-1 simulation values.  The asserted
    signal is the count behind the speedup (index lookups per deep query
    against pieces walked by the naive scan); the times are printed."""
    cap, horizon, works, ts = indexed_path
    pre = PRE_INDEX_BASELINE_MS

    def timed(fn, repeat=1):
        best = float("inf")
        for _ in range(repeat):
            t0 = time.perf_counter()
            out = fn()
            best = min(best, (time.perf_counter() - t0) * 1e3)
        return out, best

    _, t_adv = timed(
        lambda: [cap.advance(0.0, float(w), horizon=horizon) for w in works]
    )
    _, t_integ = timed(lambda: [cap.integrate(float(a), float(a) + 5.0) for a in ts])
    _, t_integ_deep = timed(lambda: [cap.integrate(0.0, float(a)) for a in ts[:200]])
    naive_t, t_adv_naive = timed(
        lambda: [naive_advance(cap, 0.0, float(w), horizon=horizon) for w in works[:200]]
    )
    fast_t = [cap.advance(0.0, float(w), horizon=horizon) for w in works[:200]]
    for f, s in zip(fast_t, naive_t):
        assert f == pytest.approx(s, rel=1e-12)

    jobs, h = paper_instance
    edf_val, t_edf = timed(
        lambda: simulate(
            jobs,
            TwoStateMarkovCapacity(1.0, 35.0, mean_sojourn=h / 4, rng=3),
            EDFScheduler(),
        ).value,
        repeat=3,
    )
    vdo_val, t_vdo = timed(
        lambda: simulate(
            jobs,
            TwoStateMarkovCapacity(1.0, 35.0, mean_sojourn=h / 4, rng=3),
            VDoverScheduler(k=7.0),
        ).value,
        repeat=3,
    )
    # Acceptance: Figure-1-instance results bit-identical to the seed.
    assert edf_val == pre["edf_value"]
    assert vdo_val == pre["vdover_value"]

    tr = StretchTransform(cap)
    # Warm-up: the first unbounded inverse materializes the lazy path out
    # to w/c_lower; that one-time sampling cost is not query cost.
    tr.inverse(tr.forward(float(ts[499])))
    _, t_tr = timed(
        lambda: [tr.inverse(tr.forward(float(t))) for t in ts[:500]], repeat=2
    )

    deep = [(0.0, float(w), horizon) for w in works[::100]]
    fast_steps = _query_steps(
        cap, monkeypatch, lambda t, w, h: cap.advance(t, w, horizon=h), deep
    )
    naive_steps = _query_steps(
        cap, monkeypatch, lambda t, w, h: naive_advance(cap, t, w, horizon=h), deep
    )

    n = len(cap.breakpoints_materialized)
    lines = [
        "Prefix-sum capacity index: before/after (docs/PERFORMANCE.md)",
        "=" * 62,
        f"path: TwoStateMarkovCapacity(1, 35, sojourn=0.5, rng=42); queries "
        f"span [0, {horizon:g}] (~20k segments); {n} segments materialized "
        "in total (unbounded advance must cover t + w/c_lower)",
        "pre-index column: archived baseline at commit 64b444e (seed code)",
        "",
        f"{'query (on the materialized path)':42s} {'pre-index':>10s} {'indexed':>10s} {'speedup':>8s}",
        f"{'advance(0, w, horizon) x2000':42s} {pre['advance_capped_x2000']:9.2f}ms {t_adv:9.2f}ms "
        f"{pre['advance_capped_x2000'] / t_adv:7.0f}x",
        f"{'integrate(t, t+5) x2000':42s} {pre['integrate_spread_x2000']:9.2f}ms {t_integ:9.2f}ms "
        f"{pre['integrate_spread_x2000'] / t_integ:7.1f}x",
        f"{'integrate(0, t) x200 (deep)':42s} {pre['integrate_deep_naive_x200']:9.2f}ms {t_integ_deep:9.2f}ms "
        f"{pre['integrate_deep_naive_x200'] / t_integ_deep:7.0f}x",
        f"{'stretch T, T^-1 round-trip x500':42s} {pre['stretch_roundtrip_x500']:9.2f}ms {t_tr:9.2f}ms "
        f"{pre['stretch_roundtrip_x500'] / t_tr:7.0f}x",
        f"{'naive advance reference x200 (today)':42s} {'-':>10s} {t_adv_naive:9.2f}ms",
        "",
        "(short-span integrate was never the bottleneck: a ~10-piece scan",
        " and two bisects cost about the same; deep queries are the win)",
        "",
        f"{'full-scale simulation':42s} {'pre-index':>10s} {'indexed':>10s}",
        f"{'EDF (~2000 jobs, Figure-1 instance)':42s} {pre['edf_full_scale']:9.2f}ms {t_edf:9.2f}ms",
        f"{'V-Dover (~2000 jobs, Figure-1 instance)':42s} {pre['vdover_full_scale']:9.2f}ms {t_vdo:9.2f}ms",
        "",
        f"EDF value      {edf_val!r}  (bit-identical to pre-index: "
        f"{edf_val == pre['edf_value']})",
        f"V-Dover value  {vdo_val!r}  (bit-identical to pre-index: "
        f"{vdo_val == pre['vdover_value']})",
        "",
        f"capacity work per deep advance: indexed {fast_steps:g} index "
        f"lookups, naive scan {naive_steps:g} pieces walked",
        "",
        f"Acceptance: <= {MAX_LOOKUPS_PER_QUERY} index lookups per deep "
        "advance where the naive scan walks the path (counted, not clocked;",
        "the times above are reported only); indexed == naive to <= 1e-9 "
        "(0 ulp on dyadic grids, see",
        "tests/properties/test_property_capacity_index.py); Figure-1 "
        "simulation values unchanged bit for bit.",
    ]
    archive("engine_perf_index", "\n".join(lines))
    assert fast_steps <= MAX_LOOKUPS_PER_QUERY
    assert naive_steps > 100 * MAX_LOOKUPS_PER_QUERY


# ----------------------------------------------------------------------
# Columnar hot path: before/after (docs/PERFORMANCE.md)
# ----------------------------------------------------------------------

#: Pre-columnar baseline, measured at commit 0939185 (dict-state kernel,
#: one-event-at-a-time dispatch, no stale filter) with the exact Figure-1
#: workload below — best-of-12 per batch over interleaved old/new batches
#: on the machine that produced ``results/engine_perf_columnar.txt``
#: (interleaving cancels the container's frequency drift; see
#: docs/PERFORMANCE.md for the methodology).
PRE_COLUMNAR_BASELINE = {
    "edf_full_scale_ms": 42.26,
    "vdover_full_scale_ms": 48.67,
    "edf_dispatches": 6285,     # incl. stale no-op pops, all journaled
    "vdover_dispatches": 6510,
    "edf_value": 5007.37367023652,
    "vdover_value": 5391.145120371147,
}


@pytest.mark.perf_smoke
def test_perf_columnar_artifact(paper_instance, archive):
    """Regenerate ``results/engine_perf_columnar.txt``: the columnar
    kernel (JobTable + batched dispatch + pre-journal stale filter)
    against the archived dict-state baseline, with the Figure-1
    bit-identity proof."""
    from repro.sim import SimulationEngine

    jobs, h = paper_instance
    pre = PRE_COLUMNAR_BASELINE

    def measure(make_sched, repeat=9):
        best = float("inf")
        value = dispatches = None
        for _ in range(repeat):
            cap = TwoStateMarkovCapacity(1.0, 35.0, mean_sojourn=h / 4, rng=3)
            engine = SimulationEngine(jobs, cap, make_sched())
            t0 = time.perf_counter()
            value = engine.run().value
            best = min(best, (time.perf_counter() - t0) * 1e3)
            dispatches = engine.dispatch_count
        return best, value, dispatches

    t_edf, edf_val, d_edf = measure(EDFScheduler)
    t_vdo, vdo_val, d_vdo = measure(lambda: VDoverScheduler(k=7.0))

    # Acceptance: Figure-1 values bit-identical across the refactor.
    assert edf_val == pre["edf_value"]
    assert vdo_val == pre["vdover_value"]

    lines = [
        "Columnar hot path: before/after (docs/PERFORMANCE.md)",
        "=" * 62,
        "instance: Figure-1 (~2016 jobs, PoissonWorkload lam=6 seed 7;",
        "TwoStateMarkovCapacity(1, 35, sojourn=horizon/4, rng=3))",
        "pre-columnar column: archived baseline at commit 0939185",
        "(dict job state, per-event dispatch, stale events journaled)",
        "",
        f"{'full-scale simulation':34s} {'pre-columnar':>12s} {'columnar':>10s} {'speedup':>8s}",
        f"{'EDF wall (best-of-9)':34s} {pre['edf_full_scale_ms']:10.2f}ms {t_edf:8.2f}ms "
        f"{pre['edf_full_scale_ms'] / t_edf:7.2f}x",
        f"{'V-Dover wall (best-of-9)':34s} {pre['vdover_full_scale_ms']:10.2f}ms {t_vdo:8.2f}ms "
        f"{pre['vdover_full_scale_ms'] / t_vdo:7.2f}x",
        f"{'EDF journaled dispatches':34s} {pre['edf_dispatches']:12d} {d_edf:10d} "
        f"{'(stale filtered pre-journal)'}",
        f"{'V-Dover journaled dispatches':34s} {pre['vdover_dispatches']:12d} {d_vdo:10d}",
        "",
        "NOTE: the wall columns compare this run against a baseline from a",
        "different session; container frequency drift is ~+/-40%, so only",
        "the interleaved-batch measurement in docs/PERFORMANCE.md (~1.1x",
        "EDF, ~1.03x V-Dover) is a fair wall-clock comparison.  The",
        "dispatch counts and values above are deterministic.",
        "",
        f"EDF value      {edf_val!r}  (bit-identical: {edf_val == pre['edf_value']})",
        f"V-Dover value  {vdo_val!r}  (bit-identical: {vdo_val == pre['vdover_value']})",
        "",
        "Machine-readable twin: results/BENCH_kernel.json (as recorded;",
        "tier-1 pins the values as golden-corpus cases).",
    ]
    archive("engine_perf_columnar", "\n".join(lines))
    # Honest floor only — wall-clock on shared runners is noisy; the
    # dispatch-count reduction is the deterministic part of the win.
    assert d_edf < pre["edf_dispatches"]
    assert d_vdo < pre["vdover_dispatches"]


def test_perf_queue_churn(benchmark):
    """Insert/dequeue/remove churn on the scheduler queue (10k ops)."""
    jobs = [Job(i, 0.0, 1.0, float(i % 97 + 1), 1.0) for i in range(1000)]

    def churn():
        q = JobQueue(edf_key)
        for job in jobs:
            q.insert(job)
        for job in jobs[::2]:
            q.remove(job)
        drained = 0
        while q:
            q.dequeue()
            drained += 1
        return drained

    assert benchmark(churn) == 500
