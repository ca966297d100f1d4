"""Multiprocessor engine benchmarks: indexed vs naive capacity math.

Not a paper artifact — the multiprocessor engine shares the single-
processor scheduling kernel (docs/ARCHITECTURE.md), so this file checks
that the prefix-sum capacity fast path actually engages per processor
and regenerates ``benchmarks/results/multi_engine_perf.txt``:

* ``simulate_multi`` on an m=4 heterogeneous fleet with indexed
  trajectories vs the same fleet wrapped in :class:`_NaiveCapacity`
  (which forces the kernel onto the pre-index linear-scan reference,
  ``naive_integrate`` / ``naive_advance``) — same values; the indexed
  run walks no capacity pieces at all while the naive run walks them
  (counted, asserted), with both wall times reported;
* the m=1 façade comparison: ``simulate`` vs ``simulate_multi`` with a
  single processor, quantifying the adapter overhead of running a
  single-processor policy through the multiprocessor façade.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

from repro.capacity import TwoStateMarkovCapacity, naive_advance, naive_integrate
from repro.core import VDoverScheduler
from repro.multi import (
    GlobalEDFScheduler,
    GlobalVDoverScheduler,
    SingleProcessorAdapter,
    simulate_multi,
)
from repro.sim import simulate
from repro.workload import PoissonWorkload

from conftest import expected_jobs


class _NaiveCapacity:
    """Force the kernel's non-indexed path on a wrapped trajectory.

    ``supports_prefix_index`` is False, so the kernel computes segment
    work with ``integrate(seg_start, t)`` and completion instants with
    ``advance(t, w)`` — both routed here to the linear piece-scan
    reference implementations.  Everything else (``value``, ``lower``,
    ``upper``, trace validation hooks) delegates to the real trajectory,
    so the simulated world is physically identical.
    """

    supports_prefix_index = False

    def __init__(self, inner) -> None:
        self._inner = inner

    def integrate(self, t0: float, t1: float) -> float:
        return naive_integrate(self._inner, t0, t1)

    def advance(self, t0: float, work: float, horizon: float = math.inf) -> float:
        return naive_advance(self._inner, t0, work, horizon)

    def __getattr__(self, name):
        return getattr(self._inner, name)


def _fleet(m: int, horizon: float, *, seed: int = 101):
    """Heterogeneous m-server fleet (bands interpolate 1→2 / 20→35)."""
    caps = []
    for p in range(m):
        frac = p / (m - 1) if m > 1 else 0.0
        caps.append(
            TwoStateMarkovCapacity(
                1.0 + frac,
                20.0 + 15.0 * frac,
                mean_sojourn=horizon / 4.0,
                rng=np.random.default_rng(seed + p),
            )
        )
    return caps


@pytest.fixture(scope="module")
def multi_instance():
    lam = 20.0
    horizon = expected_jobs(600.0) / lam
    jobs = PoissonWorkload(
        lam=lam, horizon=horizon, density_range=(1.0, 7.0), c_lower=1.0
    ).generate(11)
    return jobs, horizon


def _count_pieces(monkeypatch) -> list:
    """Count the capacity pieces the linear scan walks (one-cell list)."""
    walked = [0]
    pieces = TwoStateMarkovCapacity.pieces

    def counted(self, t0, t1):
        for piece in pieces(self, t0, t1):
            walked[0] += 1
            yield piece

    monkeypatch.setattr(TwoStateMarkovCapacity, "pieces", counted)
    return walked


def _timed(fn, repeat: int = 3):
    best, out = float("inf"), None
    for _ in range(repeat):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, (time.perf_counter() - t0) * 1e3)
    return out, best


def test_perf_multi_gedf_indexed(multi_instance, benchmark):
    """Global-EDF over the m=4 fleet, prefix-sum fast path."""
    jobs, horizon = multi_instance

    def run():
        return simulate_multi(
            jobs, _fleet(4, horizon), GlobalEDFScheduler()
        ).value

    benchmark(run)


def test_perf_multi_gvdover_indexed(multi_instance, benchmark):
    """Global-V-Dover over the m=4 fleet, prefix-sum fast path."""
    jobs, horizon = multi_instance

    def run():
        return simulate_multi(
            jobs, _fleet(4, horizon), GlobalVDoverScheduler(k=7.0)
        ).value

    benchmark(run)


@pytest.mark.perf_smoke
def test_perf_multi_artifact(multi_instance, archive, monkeypatch):
    """Regenerate ``results/multi_engine_perf.txt``: indexed vs naive
    capacity math through the shared kernel on an m=4 fleet, plus the
    m=1 façade-overhead comparison.  Values must agree between the two
    capacity paths (the naive wrapper only changes *how* work integrals
    are computed, never the physics).  The fast path engaging is asserted
    as a count — the indexed run walks zero capacity pieces, the naive
    run walks them — not as a wall-clock race: on this instance's short
    paths the scan is cheap and the two wall times overlap."""
    jobs, horizon = multi_instance
    m = 4
    walked = _count_pieces(monkeypatch)

    rows = []
    for name, make in (
        ("Global-EDF", lambda: GlobalEDFScheduler()),
        ("Global-V-Dover", lambda: GlobalVDoverScheduler(k=7.0)),
    ):
        walked[0] = 0
        fast_res, t_fast = _timed(
            lambda make=make: simulate_multi(jobs, _fleet(m, horizon), make())
        )
        fast_pieces = walked[0]
        walked[0] = 0
        naive_res, t_naive = _timed(
            lambda make=make: simulate_multi(
                jobs,
                [_NaiveCapacity(c) for c in _fleet(m, horizon)],
                make(),
            ),
            repeat=1,
        )
        naive_pieces = walked[0]
        assert naive_res.value == pytest.approx(fast_res.value, rel=1e-9)
        assert naive_res.completed_ids == fast_res.completed_ids
        rows.append(
            (
                name,
                t_naive,
                t_fast,
                fast_res.value,
                naive_res.value == fast_res.value,
                fast_pieces,
                naive_pieces,
            )
        )

    # m=1 façade comparison: the *same* policy through both engines
    # (V-Dover direct vs V-Dover behind the SingleProcessorAdapter, the
    # configuration tests/multi/test_kernel_parity.py proves bit-identical).
    single_res, t_single = _timed(
        lambda: simulate(
            jobs,
            TwoStateMarkovCapacity(
                1.0, 20.0, mean_sojourn=horizon / 4.0,
                rng=np.random.default_rng(101),
            ),
            VDoverScheduler(k=7.0),
        )
    )
    multi_res, t_multi = _timed(
        lambda: simulate_multi(
            jobs, _fleet(1, horizon), SingleProcessorAdapter(VDoverScheduler(k=7.0))
        )
    )
    assert multi_res.value == single_res.value

    lines = [
        "Multiprocessor engine: shared-kernel capacity fast path",
        "=" * 62,
        f"fleet: m={m} heterogeneous TwoStateMarkov servers (floors 1..2, "
        "peaks 20..35),",
        f"lam=20 Poisson arrivals over horizon {horizon:g} "
        f"({len(jobs)} jobs); naive column wraps every trajectory in",
        "_NaiveCapacity (pre-index linear piece-scan reference).",
        "",
        f"{'policy':24s} {'naive':>10s} {'indexed':>10s} {'speedup':>8s} "
        f"{'values':>10s} {'pieces naive/indexed':>21s}",
    ]
    for name, t_naive, t_fast, value, bitwise, fast_p, naive_p in rows:
        lines.append(
            f"{name:24s} {t_naive:9.2f}ms {t_fast:9.2f}ms "
            f"{t_naive / t_fast:7.1f}x "
            f"{'identical' if bitwise else 'approx':>10s} "
            f"{naive_p:>12d} / {fast_p:<6d}"
        )
    lines += [
        "",
        "m=1 facade overhead (same kernel, same policy, two engines):",
        f"{'simulate (V-Dover)':38s} {t_single:9.2f}ms  value={single_res.value!r}",
        f"{'simulate_multi m=1 (adapted V-Dover)':38s} {t_multi:9.2f}ms  "
        f"value={multi_res.value!r}",
        "(tests/multi/test_kernel_parity.py proves the m=1 engines",
        " bit-identical event for event; this row just prices the facade)",
        "",
        "Acceptance: indexed and naive capacity math agree on every",
        "policy's total value; the indexed path is the default for all",
        "supports_prefix_index trajectories on every processor (it walks",
        "no capacity pieces; the naive path walks them).",
        "Wall times are reported, not asserted.",
    ]
    archive("multi_engine_perf", "\n".join(lines))
    for name, _t_naive, _t_fast, _value, _bitwise, fast_p, naive_p in rows:
        assert fast_p == 0, f"{name}: indexed run scanned {fast_p} pieces"
        assert naive_p > 0, f"{name}: naive run scanned no pieces"
