"""Monte-Carlo harness × observability: per-worker metrics merging,
checkpoint persistence and failure trace tails (satellite of the
telemetry PR)."""

from __future__ import annotations

import pytest

from repro import obs
from repro.core import EDFScheduler, VDoverScheduler
from repro.experiments.runner import (
    MonteCarloRunner,
    PaperInstanceFactory,
    SchedulerSpec,
)
from repro.workload import PoissonWorkload


@pytest.fixture
def runner():
    factory = PaperInstanceFactory(
        workload=PoissonWorkload(lam=3.0, horizon=15.0)
    )
    return MonteCarloRunner(
        factory,
        [
            SchedulerSpec("V-Dover", VDoverScheduler, {"k": 7.0}),
            SchedulerSpec("EDF", EDFScheduler),
        ],
    )


class TestMetricsMerging:
    def test_disabled_by_default(self, runner):
        report = runner.run_report(3, seed=5, workers=1)
        assert report.ok
        assert report.merged_metrics() is None
        assert all(o.metrics is None for o in report.survivors)

    def test_ambient_session_derives_spec(self, runner):
        with obs.session():
            report = runner.run_report(3, seed=5, workers=1)
        assert report.ok
        merged = report.merged_metrics()
        assert merged is not None
        assert merged["counters"]["kernel.events"] > 0
        wall = merged["histograms"]["mc.replication_wall_s"]
        assert wall["count"] == 3
        # every survivor carries its own snapshot
        assert all(o.metrics is not None for o in report.survivors)

    def test_explicit_spec_without_ambient_session(self, runner):
        report = runner.run_report(3, seed=5, workers=1, obs_spec=obs.ObsSpec())
        assert report.merged_metrics() is not None
        assert not obs.enabled()  # worker sessions are always closed

    def test_observed_results_match_unobserved(self, runner):
        plain = runner.run_report(3, seed=5, workers=1)
        observed = runner.run_report(3, seed=5, workers=1, obs_spec=obs.ObsSpec())
        assert {i: o.values for i, o in plain.outcomes.items()} == {
            i: o.values for i, o in observed.outcomes.items()
        }


class TestCheckpointPersistence:
    def test_metrics_survive_resume(self, runner, tmp_path):
        ck = tmp_path / "ck.jsonl"
        with obs.session():
            first = runner.run_report(3, seed=9, workers=1, checkpoint=ck)
        assert first.ok and first.merged_metrics() is not None
        # Resume: everything loads from the checkpoint — no re-execution,
        # yet the merged metrics are still available.
        resumed = runner.run_report(3, seed=9, workers=1, checkpoint=ck)
        assert resumed.resumed == 3
        assert resumed.merged_metrics() is not None
        assert (
            resumed.merged_metrics()["counters"]["kernel.events"]
            == first.merged_metrics()["counters"]["kernel.events"]
        )


class TestFailureTraceTail:
    class _Exploding(EDFScheduler):
        name = "exploding"

        def on_job_end(self, job, completed):
            raise RuntimeError("detonated mid-run")

    def _failing_runner(self):
        factory = PaperInstanceFactory(
            workload=PoissonWorkload(lam=3.0, horizon=15.0)
        )
        return MonteCarloRunner(
            factory, [SchedulerSpec("boom", self._Exploding)]
        )

    def test_tail_attached_when_observed(self, tmp_path):
        runner = self._failing_runner()
        with obs.session():
            report = runner.run_report(1, seed=0, workers=1)
        failure = report.failure_records()[0]
        assert failure.trace_tail, "expected trailing trace events"
        kinds = [e["kind"] for e in failure.trace_tail]
        assert "run.start" in kinds or "decision" in kinds

    def test_tail_persisted_in_checkpoint(self, tmp_path):
        runner = self._failing_runner()
        ck = tmp_path / "ck.jsonl"
        with obs.session():
            runner.run_report(1, seed=0, workers=1, checkpoint=ck)
        resumed_runner = self._failing_runner()
        # Failures are retried on resume; run *without* obs this time and
        # check the freshly recorded failure replaced the old tail.
        report = resumed_runner.run_report(1, seed=0, workers=1, checkpoint=ck)
        assert not report.ok

    def test_empty_tail_when_unobserved(self):
        runner = self._failing_runner()
        report = runner.run_report(1, seed=0, workers=1)
        assert report.failure_records()[0].trace_tail == ()
