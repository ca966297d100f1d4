"""The observability gate: session stacking, and — the subsystem's hard
requirement — proof that enabling it never perturbs simulation results."""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.capacity import TwoStateMarkovCapacity
from repro.core import DoverScheduler, EDFScheduler, VDoverScheduler
from repro.errors import ObservabilityError
from repro.multi import GlobalEDFScheduler
from repro.sim import simulate
from repro.workload import PoissonWorkload


def _instance(seed: int = 11, lam: float = 6.0, horizon: float = 25.0):
    ss = np.random.SeedSequence(seed)
    job_seed, cap_seed = ss.spawn(2)
    jobs = PoissonWorkload(lam=lam, horizon=horizon).generate(job_seed)
    capacity = TwoStateMarkovCapacity(1.0, 35.0, mean_sojourn=1.0, rng=cap_seed)
    return jobs, capacity


class TestGate:
    def test_disabled_by_default(self):
        assert obs.current() is None
        assert not obs.enabled()

    def test_session_scopes_context(self):
        with obs.session() as octx:
            assert obs.current() is octx
        assert obs.current() is None

    def test_sessions_nest(self):
        with obs.session() as outer:
            with obs.session() as inner:
                assert obs.current() is inner
            assert obs.current() is outer
        assert obs.current() is None

    def test_disable_without_enable_raises(self):
        with pytest.raises(ObservabilityError):
            obs.disable()

    def test_metrics_only_mode(self):
        with obs.session(trace=False) as octx:
            assert octx.sink is None
            jobs, capacity = _instance()
            simulate(jobs, capacity, EDFScheduler())
            assert octx.metrics.counter("kernel.events").n > 0


class TestNonPerturbation:
    """Figure-1 bit-identity requirement: tracing observes, never perturbs."""

    @pytest.mark.parametrize(
        "make",
        [
            lambda: VDoverScheduler(k=7.0),
            lambda: DoverScheduler(k=7.0, c_hat=10.5),
            lambda: EDFScheduler(),
        ],
        ids=["vdover", "dover", "edf"],
    )
    def test_single_processor_results_identical(self, make):
        jobs, capacity = _instance()
        baseline = simulate(jobs, capacity, make())
        with obs.session(profile=True):
            observed = simulate(jobs, capacity, make())
        assert observed.value == baseline.value
        assert observed.trace.segments == baseline.trace.segments
        assert observed.trace.outcomes == baseline.trace.outcomes
        assert observed.trace.value_points == baseline.trace.value_points

    def test_multiprocessor_results_identical(self):
        ss = np.random.SeedSequence(23)
        job_seed, c1, c2 = ss.spawn(3)
        jobs = PoissonWorkload(lam=8.0, horizon=20.0).generate(job_seed)
        caps = [
            TwoStateMarkovCapacity(1.0, 35.0, mean_sojourn=1.0, rng=c1),
            TwoStateMarkovCapacity(1.0, 20.0, mean_sojourn=1.0, rng=c2),
        ]
        baseline = simulate(jobs, caps, GlobalEDFScheduler())
        with obs.session():
            observed = simulate(jobs, caps, GlobalEDFScheduler())
        assert observed.value == baseline.value
        assert observed.trace.outcomes == baseline.trace.outcomes
        assert [t.segments for t in observed.proc_traces] == [
            t.segments for t in baseline.proc_traces
        ]


class TestEmission:
    def test_kernel_and_scheduler_events_recorded(self):
        jobs, capacity = _instance()
        with obs.session() as octx:
            simulate(jobs, capacity, VDoverScheduler(k=7.0))
        kinds = {e.kind for e in octx.sink.events()}
        assert {"run.start", "job.release", "job.start", "decision", "run.end"} <= kinds
        counters = octx.metrics.snapshot()["counters"]
        assert counters["kernel.events"] > 0
        assert any(k.startswith("scheduler.decisions.") for k in counters)

    def test_profile_populates_latency_histograms(self):
        jobs, capacity = _instance()
        with obs.session(profile=True) as octx:
            simulate(jobs, capacity, EDFScheduler())
        hists = octx.metrics.snapshot()["histograms"]
        assert any(k.startswith("kernel.dispatch_latency_s.") for k in hists)

    def test_unprofiled_session_has_no_latency_histograms(self):
        jobs, capacity = _instance()
        with obs.session() as octx:
            simulate(jobs, capacity, EDFScheduler())
        hists = octx.metrics.snapshot()["histograms"]
        assert not any(k.startswith("kernel.dispatch_latency_s.") for k in hists)
