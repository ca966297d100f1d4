"""Renderer tests: report, tail and the first-divergent-decision diff."""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.capacity import TwoStateMarkovCapacity
from repro.core import DoverScheduler, EDFScheduler, VDoverScheduler
from repro.obs import diff_traces, load_trace, render_report, render_tail
from repro.sim import simulate
from repro.workload import PoissonWorkload


def _instance(seed: int = 47, lam: float = 6.0, horizon: float = 20.0):
    ss = np.random.SeedSequence(seed)
    job_seed, cap_seed = ss.spawn(2)
    jobs = PoissonWorkload(lam=lam, horizon=horizon).generate(job_seed)
    capacity = TwoStateMarkovCapacity(1.0, 35.0, mean_sojourn=1.0, rng=cap_seed)
    return jobs, capacity


def _traced_run(tmp_path, scheduler, name, profile=False):
    jobs, capacity = _instance()
    with obs.session(profile=profile) as octx:
        simulate(jobs, capacity, scheduler)
        path = tmp_path / f"{name}.jsonl"
        octx.sink.export_jsonl(path, metrics=octx.snapshot_metrics())
    return load_trace(path)


class TestReport:
    def test_sections(self, tmp_path):
        trace = _traced_run(tmp_path, VDoverScheduler(k=7.0), "v", profile=True)
        text = render_report(trace)
        assert "events by kind:" in text
        assert "job.release" in text
        assert "decisions:" in text
        assert "V-Dover" in text
        assert "dispatch latency by event kind (profiled):" in text
        assert "kernel.events" in text  # metric counters section
        assert "fault/recovery timeline: 0 event(s)" in text

    def test_unprofiled_report_omits_latency(self, tmp_path):
        trace = _traced_run(tmp_path, EDFScheduler(), "e")
        assert "dispatch latency" not in render_report(trace)


class TestTail:
    def test_tail_window(self, tmp_path):
        trace = _traced_run(tmp_path, EDFScheduler(), "e")
        text = render_tail(trace, n=3)
        assert text.startswith("last 3 of ")
        assert len(text.splitlines()) == 4
        assert "run.end" in text  # the final event is always run.end


class TestDiff:
    def test_identical_traces_agree(self, tmp_path):
        a = _traced_run(tmp_path, EDFScheduler(), "a")
        b = _traced_run(tmp_path, EDFScheduler(), "b")
        assert "traces agree on all" in diff_traces(a, b)

    def test_first_behavioural_divergence(self, tmp_path):
        # V-Dover vs Dover(c-hat) on the same instance: the diff must skip
        # over identically-behaving prefix decisions (policy names differ
        # but are excluded) and pinpoint the first real divergence.
        a = _traced_run(tmp_path, VDoverScheduler(k=7.0), "v")
        b = _traced_run(tmp_path, DoverScheduler(k=7.0, c_hat=10.5), "d")
        text = diff_traces(a, b, names=("V-Dover", "Dover"))
        assert "first divergence at decision #" in text
        assert "V-Dover:" in text and "Dover:" in text
        # And it is not decision #0 — the early admits behave identically.
        assert "first divergence at decision #0:" not in text

