"""Same-instant group dispatch ≡ the golden decision corpus.

When no observability session is open, the kernel hands a same-instant
interrupt group (a burst of releases, a sweep of waiting jobs' deadlines)
to a ``batch_capable`` scheduler in one ``plan()`` call
(:mod:`repro.sim.batchproto`).  The contract is *bit-identity* with
handling the interrupts one at a time: results and journals, byte for
byte — including across a crash/restore resume.  The golden corpus
(``tests/golden/``) was recorded from one-handler-call-per-interrupt
dispatch; this suite re-runs every corpus case and demands an exact match.
Traced runs dispatch per event, so every journaled + traced case is also
run journaled only, where the kernel gathers.  The tie-heavy instance
(integer release grid) puts a multi-event group at every timestamp, so the
grouped paths are the ones being checked.

Also here:

* per-event dispatch of the same groups (a scheduler with the batch
  contract switched off) reproduces the corpus too, and a traced run's
  export matches it event for event even when the trace ring overflows;
* same-instant deadline groups and runs that trip the gather latch;
* the burst benchmark instances reproduce the values and dispatch counts
  recorded in ``benchmarks/results/BENCH_policyproto.json``;
* the scan-count regression — bootstrap seeding, wind-down and the batch
  view's ready-set derivation are one vectorized pass each, not one per
  event.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro import obs
from repro.core import EDFScheduler
from repro.sim import simulate
from repro.sim.batchproto import BatchView
from repro.sim.events import EventKind
from repro.sim.jobtable import JobTable
from tests.golden import corpus

pytestmark = pytest.mark.batchproto_smoke

POLICIES = corpus.POLICIES
GOLDEN = corpus.load_corpus()

BENCH_POLICYPROTO = (
    Path(__file__).resolve().parents[2]
    / "benchmarks"
    / "results"
    / "BENCH_policyproto.json"
)


def _check(name: str) -> dict:
    live = corpus.run_case(name)
    assert live == GOLDEN[name], name
    return live


def test_corpus_covers_every_case():
    assert sorted(GOLDEN) == sorted(corpus.case_names())


class TestScalarBatchBitIdentity:
    """The headline contract: journals, obs exports and results match the
    per-event corpus, for every policy."""

    @pytest.mark.parametrize("name", sorted(POLICIES), ids=sorted(POLICIES))
    @pytest.mark.parametrize("queue", ["heap"])
    def test_journal_and_trace_identical(self, name, queue):
        live = _check(f"tie/{name}/{queue}/plain")
        assert live["dispatches"] > 0

    @pytest.mark.parametrize("name", sorted(POLICIES), ids=sorted(POLICIES))
    def test_crash_resume_identical(self, name):
        live = _check(f"tie/{name}/heap/crash")
        # The resumed run's *replay* stream is byte-for-byte the
        # uncrashed run's.
        assert live == GOLDEN[f"tie/{name}/heap/plain"]

    @pytest.mark.parametrize("name", sorted(POLICIES), ids=sorted(POLICIES))
    def test_untraced_results_identical(self, name):
        """Every journaled + traced case of the policy, run journaled but
        untraced, matches its digests minus the trace.  A traced run
        dispatches per event, so this is where gathering meets a journal,
        an event-indexed crash inside a group (``tie/*/crash``), deadline
        groups (``deadline_grid``) and the gather latch (``latch``)."""
        cases = [
            case
            for case in sorted(GOLDEN)
            if "trace" in GOLDEN[case] and case.split("/")[1] == name
        ]
        assert len(cases) == 4
        for case in cases:
            golden = dict(GOLDEN[case])
            del golden["trace"]
            assert corpus.run_case(case, traced=False) == golden, case

    @pytest.mark.parametrize("name", sorted(POLICIES), ids=sorted(POLICIES))
    def test_per_event_dispatch_matches_corpus(self, name):
        """A scheduler without the batch contract takes one handler call
        per interrupt of every group — and lands on the same corpus."""
        scheduler = POLICIES[name]()
        scheduler.batch_capable = False
        live = corpus.run_journaled(
            corpus.tie_heavy_instance(), corpus.small_capacity(), scheduler
        )
        assert live == GOLDEN[f"tie/{name}/heap/plain"]


class _PerEventEDF(EDFScheduler):
    """EDF without the batch contract: one handler call per interrupt."""

    batch_capable = False


class TestTracedRunsDispatchPerEvent:
    """An open observability session keeps the kernel on per-event
    dispatch, so a trace records the interrupt stream itself: one ring
    slot per event, and the same ``dropped`` count once the ring
    overflows."""

    def test_ring_overflow_matches_per_event(self, tmp_path):
        make_cap = corpus.BENCH_INSTANCES["bursty_quantized"][1]
        exports = []
        for scheduler in (EDFScheduler(), _PerEventEDF()):
            with obs.session(ring=2000) as octx:
                simulate(
                    corpus.bursty_instance(instants=20, per_instant=32),
                    make_cap(),
                    scheduler,
                )
            path = tmp_path / f"{len(exports)}.jsonl"
            octx.sink.export_jsonl(path)
            exports.append((path.read_bytes(), octx.sink.dropped))
        assert exports[0][1] > 0  # the ring overflowed
        assert exports[0] == exports[1]

    @pytest.mark.parametrize(
        "session, gathers",
        [(None, True), ({"trace": False}, False), ({"profile": True}, False)],
        ids=["no_session", "metrics_only", "profiled"],
    )
    def test_any_session_disables_gathering(self, session, gathers):
        groups = []

        class _CountingEDF(EDFScheduler):
            def plan(self, view):
                groups.append(len(view))
                return super().plan(view)

        jobs, cap = corpus.tie_heavy_instance(), corpus.small_capacity()
        if session is None:
            simulate(jobs, cap, _CountingEDF())
        else:
            with obs.session(**session):
                simulate(jobs, cap, _CountingEDF())
        assert bool(groups) is gathers


class _CountingJobTable(JobTable):
    """JobTable that counts its whole-population scans."""

    def __init__(self, jobs):
        super().__init__(jobs)
        self.counts = {"released_by": 0, "unresolved": 0, "ready": 0}

    def rows_released_by(self, horizon):
        self.counts["released_by"] += 1
        return super().rows_released_by(horizon)

    def rows_unresolved(self):
        self.counts["unresolved"] += 1
        return super().rows_unresolved()

    def rows_ready(self):
        self.counts["ready"] += 1
        return super().rows_ready()


class TestScanCounts:
    """The population scans are per-run (or per-batch), never per-event."""

    @pytest.mark.parametrize(
        "make", [_PerEventEDF, EDFScheduler], ids=["scalar", "batch"]
    )
    def test_engine_scans_once_per_run(self, monkeypatch, make):
        import repro.kernel.core as kernel_core

        tables = []

        def capture(jobs):
            table = _CountingJobTable(jobs)
            tables.append(table)
            return table

        monkeypatch.setattr(kernel_core, "JobTable", capture)
        simulate(corpus.tie_heavy_instance(), corpus.small_capacity(), make())
        (table,) = tables
        assert table.counts["released_by"] == 1  # bootstrap seeding
        assert table.counts["unresolved"] == 1  # wind-down sweep
        # The run loop itself never re-derives the ready set.
        assert table.counts["ready"] == 0

    def test_batch_view_caches_ready_rows(self):
        jobs = corpus.tie_heavy_instance(n=8)
        table = _CountingJobTable(jobs)
        view = BatchView(1.0, EventKind.RELEASE, jobs[:3], [0, 1, 2], table)
        assert table.counts["ready"] == 0  # lazy: no scan until asked
        first = view.ready_rows
        assert table.counts["ready"] == 1
        assert view.ready_rows is first  # cached: at most one scan per batch
        assert table.counts["ready"] == 1


class TestFastPathEquivalence:
    """Uninstrumented runs (no journal, watchdog or tracing) match the
    corpus.

    With nothing attached the kernel gathers groups with the bulk
    ``pop_group`` and applies one *net* decision per release group (the
    last of ``plan()``'s decisions) instead of one per event, so this is pinned
    separately from the journaled cases — including the full segment
    list, where a wrongly-applied intermediate switch would show up."""

    @pytest.mark.parametrize("name", sorted(POLICIES), ids=sorted(POLICIES))
    @pytest.mark.parametrize(
        "instance", ["zero_laxity", "slack"], ids=["zero_laxity", "slack"]
    )
    def test_uninstrumented_runs_identical(self, name, instance):
        _check(f"uninstrumented/{instance}/{name}")


class TestGroupEdgeCases:
    """Same-instant deadline groups (gathered when no group member runs,
    per event otherwise) and runs where the gather latch trips, journaled
    + traced and uninstrumented."""

    @pytest.mark.parametrize("mode", ["plain", "uninstrumented"])
    @pytest.mark.parametrize("name", sorted(POLICIES), ids=sorted(POLICIES))
    @pytest.mark.parametrize("family", sorted(corpus.GROUP_EDGE_INSTANCES))
    def test_matches_corpus(self, family, name, mode):
        _check(f"{family}/{name}/{mode}")

    def test_latch_case_trips_the_latch(self):
        from repro.capacity import ConstantCapacity
        from repro.sim import SimulationEngine

        engine = SimulationEngine(
            corpus.decimal_grid_instance(), ConstantCapacity(1.0),
            POLICIES["edf"](),
        )
        engine.run()
        assert engine.kernel._batch_unsafe


class TestBenchInstances:
    """The Figure-1 instance and the burst instances of the retired
    scalar-vs-batch benchmark: values and dispatch counts stay exactly as
    ``BENCH_policyproto.json`` recorded them."""

    @pytest.mark.parametrize("instance", sorted(corpus.BENCH_INSTANCES))
    def test_values_and_dispatches(self, instance):
        recorded = json.loads(BENCH_POLICYPROTO.read_text())["results"]
        for policy in corpus.BENCH_POLICIES:
            live = _check(f"bench/{instance}/{policy}")
            bench = recorded[instance][policy]["batch"]
            assert live["value"] == bench["value"], policy
            assert live["dispatches"] == bench["dispatches"], policy

    def test_figure1_pins(self):
        assert GOLDEN["bench/figure1_poisson/edf"]["value"] == 5007.37367023652
        assert (
            GOLDEN["bench/figure1_poisson/vdover"]["value"] == 5391.145120371147
        )


@pytest.mark.parametrize("mode", ["plain", "journaled"])
def test_partitioned_m4_matches_corpus(mode):
    _check(f"partitioned_m4/{mode}")
