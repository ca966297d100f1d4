"""The closed-horizon workloads: ``table1_sweep`` and ``burst_groups``.

Both run in this process through the public API with its default knobs
(no ``protocol=``, no ``event_queue=``).  Work is organised in *rounds*:
round ``r`` of seed ``s`` is a fixed set of instances, so every round of
every run is reproducible, and a run repeats rounds with fresh instances
until its time is up.  Times are reference seconds (:mod:`calib`); the
detail line repeats the end-to-end figures in wall seconds.

With tracing on, a run first measures rounds 0, 1, ... untraced for half
its time, then installs the ledger and repeats the same rounds traced for
the other half.  Values must agree between the two passes (tracing only
observes); the traced-over-untraced wall of the common rounds is
``trace.overhead``, and the ledger counters of traced round 0 are the
run's count fingerprint.

A round that raises is a failed operation: it is counted, the run stops
measuring, and the rounds finished so far are reported.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import pickle
import random
import time
from typing import Callable, Dict, List, Tuple

from calib import Speed
from common import (
    Tally,
    add,
    diff,
    fingerprint_counts,
    layer_metrics,
    median,
    peak_rss_mb,
    quantile,
)
from ledger import Ledger, install_closed

perf = time.perf_counter

# Figure-1 pins: PoissonWorkload(lam=6, horizon=2000/6) seed 7 x
# TwoStateMarkovCapacity(1, 35, sojourn=horizon/4, rng=3).
FIGURE1_PINS = {"EDF": 5007.37367023652, "V-Dover": 5391.145120371147}

# Values recorded for the canonical burst instances (generator seeds 13
# and 29, capacity rng 3) in benchmarks/results/BENCH_policyproto.json.
BURST_PINS = {
    "bursty_quantized": {
        "edf": 12713.912234489464,
        "edf-ac": 6710.8620973455,
        "vdover": 20399.16145559367,
    },
    "feasible_burst": {
        "edf": 658.3279138112058,
        "edf-ac": 658.3279138112058,
        "vdover": 658.3279138112058,
    },
}

#: Set-up is timed this many times per run; the median is reported.
SETUP_REPEATS = 25

TABLE1_LAMBDAS = (4.0, 8.0, 12.0)
#: Replications per lambda row (one ``run_report`` call) in a round.
TABLE1_REPS = 6


class Clock:
    """One phase's timed calls and rounds, in wall seconds and in
    reference seconds (:mod:`calib`)."""

    def __init__(self, parallel: int = 1) -> None:
        self.speed = Speed(parallel)
        self.call_walls: List[float] = []  # per blocking call
        self.call_refs: List[float] = []
        self.walls: List[float] = []  # per round: the sum of its calls
        self.refs: List[float] = []
        self.round_jobs: List[int] = []
        self.round_ops: List[int] = []
        self.values: List[list] = []
        self._wall = self._ref = 0.0

    @property
    def rounds(self) -> int:
        return len(self.refs)

    @property
    def ops(self) -> int:
        return sum(self.round_ops)

    def call(self, wall: float) -> None:
        ref = self.speed.span(wall)
        self.call_walls.append(wall)
        self.call_refs.append(ref)
        self._wall += wall
        self._ref += ref

    def end_round(self, jobs: int, ops: int, values: list) -> None:
        self.walls.append(self._wall)
        self.refs.append(self._ref)
        self._wall = self._ref = 0.0
        self.round_jobs.append(jobs)
        self.round_ops.append(ops)
        self.values.append(values)

    def ratio_to(self, other: "Clock") -> float:
        """Reference time of this phase over ``other``'s, on the rounds
        both completed (the same inputs)."""
        n = min(self.rounds, other.rounds)
        return sum(self.refs[:n]) / sum(other.refs[:n])

    def detail(self) -> Dict:
        return {"rounds": self.rounds, "calls": len(self.call_refs), "ops": self.ops,
                "wall_s": sum(self.walls), "reference_s": sum(self.refs)}


def run_rounds(one_round, budget: float, tally: Tally,
               on_round: Callable[[int], None] = lambda rnd: None,
               parallel: int = 1) -> Clock:
    """Rounds 0, 1, ... until ``budget`` wall seconds have passed, or
    until a round raises (counted as a failure in ``tally``); timed with
    calibration at ``parallel`` processes."""
    clock = Clock(parallel)
    try:
        start = perf()
        rnd = 0
        while rnd == 0 or perf() - start < budget:
            try:
                clock.end_round(*one_round(rnd, clock))
                on_round(rnd)
            except Exception as exc:  # noqa: BLE001 - a failed op, not a crash
                tally.check(False, f"round {rnd}: {exc!r}")
                break
            rnd += 1
    finally:
        clock.speed.close()
    return clock


def timed_setup(setup_once) -> Tuple[float, float]:
    """Median set-up time over ``SETUP_REPEATS`` runs, in reference and
    in wall seconds."""
    speed = Speed()
    walls, refs = [], []
    for _ in range(SETUP_REPEATS):
        walls.append(setup_once())
        refs.append(speed.span(walls[-1]))
    return median(refs), median(walls)


def end_to_end(clock: Clock, setup: Tuple[float, float],
               per_call: bool) -> Tuple[Dict[str, float], Dict[str, float]]:
    """The end-to-end table in reference seconds, and the same figures in
    wall seconds.  Rates are median per-round rates (a short stall of the
    shared machine moves one round, not the run's figure); the latency
    samples are each blocking call (``per_call``) or each round.
    Without a finished round only set-up is known."""

    def table(setup_s, rounds, calls):
        if not clock.rounds:
            return {"setup_s": setup_s}
        samples = calls if per_call else rounds
        return {
            "setup_s": setup_s,
            "jobs_per_s": median(n / t for n, t in zip(clock.round_jobs, rounds)),
            "ops_per_s": median(n / t for n, t in zip(clock.round_ops, rounds)),
            "call_p50_ms": 1e3 * quantile(samples, 0.5),
            "call_p99_ms": 1e3 * quantile(samples, 0.99),
            "peak_rss_mb": peak_rss_mb(),
        }

    return (table(setup[0], clock.refs, clock.call_refs),
            table(setup[1], clock.walls, clock.call_walls))


def check_passes(tally: Tally, traced: Clock, untraced: Clock) -> None:
    """Tracing only observes: common rounds must produce equal values."""
    for rnd in range(min(traced.rounds, untraced.rounds)):
        tally.check(traced.values[rnd] == untraced.values[rnd],
                    f"round {rnd} values differ between untraced and traced pass")


def check_value(tally: Tally, what: str, expected: float, run) -> None:
    """One pinned value: ``run()`` must return exactly ``expected``."""
    try:
        value = run()
    except Exception as exc:  # noqa: BLE001
        tally.check(False, f"{what}: {exc!r}")
        return
    tally.check(value == expected, f"{what} value {value!r}")


# ----------------------------------------------------------------------
# table1_sweep
# ----------------------------------------------------------------------
def _observe_reports(on_call) -> Callable[[], None]:
    """Pass every ``MonteCarloRunner.run_report`` call to
    ``on_call(runner, report, wall seconds)`` and return the undo.
    ``run_table1`` makes one call per lambda row, so each row is timed,
    and its replications checked and counted, from its report."""
    from repro.experiments.runner import MonteCarloRunner

    original = MonteCarloRunner.__dict__["run_report"]

    def run_report(self, *args, **kwargs):
        t0 = perf()
        report = original(self, *args, **kwargs)
        on_call(self, report, perf() - t0)
        return report

    MonteCarloRunner.run_report = run_report
    return lambda: setattr(MonteCarloRunner, "run_report", original)


def _figure1_pins(tally: Tally) -> None:
    from repro.capacity import TwoStateMarkovCapacity
    from repro.core import EDFScheduler, VDoverScheduler
    from repro.sim import simulate
    from repro.workload import PoissonWorkload

    horizon = 2000.0 / 6.0
    jobs = PoissonWorkload(lam=6.0, horizon=horizon).generate(7)
    for name, make in (("EDF", EDFScheduler), ("V-Dover", lambda: VDoverScheduler(k=7.0))):
        check_value(tally, f"Figure-1 {name}", FIGURE1_PINS[name], lambda make=make: simulate(
            jobs, TwoStateMarkovCapacity(1.0, 35.0, mean_sojourn=horizon / 4, rng=3),
            make()).value)


def run_table1_sweep(seed: int, seconds: float, trace: bool, out_dir, tally: Tally) -> Dict:
    from repro.experiments.table1 import Table1Config, run_table1

    workers = os.cpu_count() or 1
    ctx = multiprocessing.get_context("fork")

    def config(rnd: int) -> Table1Config:
        # run_table1 seeds row i with config.seed + i.
        return Table1Config(lambdas=TABLE1_LAMBDAS, n_runs=TABLE1_REPS, workers=workers,
                            seed=seed * 1_000_003 + len(TABLE1_LAMBDAS) * rnd)

    def setup_once() -> float:
        # What precedes the first replication: the scheduler specs and a
        # pool start of the size run_report uses.  Instances are made in
        # the workers, inside the timed work.
        t0 = perf()
        config(0).specs()
        with ctx.Pool(processes=workers) as pool:
            pool.map(abs, range(workers))
        return perf() - t0

    setup_s = timed_setup(setup_once)
    # Warm-up before timing: the pins run the simulation code once in this
    # process, so every forked pool starts with its lazy state filled.
    _figure1_pins(tally)

    calls: list = []  # (runner, report) of the current round's rows
    timing: Dict[str, Clock] = {}

    def on_call(runner, report, wall: float) -> None:
        # Calibrates right after the row, before run_table1 starts the next.
        timing["clock"].call(wall)
        calls.append((runner, report))

    def one_round(rnd: int, clock: Clock) -> Tuple[int, int, list]:
        del calls[:]
        timing["clock"] = clock
        result = run_table1(config(rnd))
        jobs = reps = 0
        values: list = [result.rows]
        for runner, report in calls:
            tally.check(not report.failures, f"round {rnd}: "
                        f"{[str(f) for f in report.failure_records()]}")
            for index, outcome in sorted(report.outcomes.items()):
                ok = all(
                    0.0 <= outcome.values[s.name] <= outcome.generated_value + 1e-9
                    and 0 <= outcome.completed[s.name] <= outcome.n_jobs
                    for s in runner.specs
                )
                tally.check(ok, f"round {rnd} rep {index} out of range")
                jobs += outcome.n_jobs * len(runner.specs)
                reps += 1
                values.append(outcome)
        tally.check(len(calls) == len(TABLE1_LAMBDAS),
                    f"round {rnd}: {len(calls)} run_report calls")
        return jobs, reps, values

    undo = _observe_reports(on_call)
    try:
        if not trace:
            clock = run_rounds(one_round, seconds, tally, parallel=workers)
            # The blocking call is one lambda row (one run_report).
            metrics, raw = end_to_end(clock, setup_s, per_call=True)
            return {"metrics": metrics, "detail": dict(clock.detail(), wall_figures=raw)}

        untraced = run_rounds(one_round, seconds / 2, tally, parallel=workers)
        ledger = Ledger()
        ledger.span_path = str(out_dir / "spans.jsonl")
        ledger.share(ctx)
        install_closed(ledger)
        first: Dict[str, float] = {}
        ipc = {"bytes": 0, "reps": 0}

        def fingerprint_round(rnd: int) -> None:
            # Workers' round-0 totals; the parent itself runs no traced
            # code.  Spans are kept for round 0 only (one pool per row, so
            # later rounds would otherwise add a span file per worker).
            if rnd != 0:
                return
            add(first, ledger.collect_shared())
            ledger.worker_span_cap = 0
            # Pickled size of what crosses the pool boundary: the
            # (index, factory, specs, seed, policy, obs) payloads and the
            # outcomes.
            for runner, report in calls:
                payload = len(pickle.dumps((0, runner.factory, runner.specs, None, None, None)))
                for outcome in report.outcomes.values():
                    ipc["bytes"] += payload + len(pickle.dumps(outcome))
                    ipc["reps"] += 1

        try:
            traced = run_rounds(one_round, seconds / 2, tally, fingerprint_round, workers)
        finally:
            ledger.uninstall()
    finally:
        undo()
    totals = dict(first)
    add(totals, ledger.collect_shared())
    add(totals, ledger.snapshot())
    check_passes(tally, traced, untraced)
    ledger.write_spans(ledger.span_path)

    wall = sum(traced.walls)
    extra = {
        "runner.busy_frac": totals["runner.busy_s"] / (wall * workers),
        "runner.ipc_bytes": ipc["bytes"] / max(ipc["reps"], 1),
    }
    layers = layer_metrics(
        totals, traced.ops, wall * workers, traced.ratio_to(untraced), extra
    )
    fingerprint = fingerprint_counts(first)
    fingerprint["replications"] = ipc["reps"]
    return {"metrics": layers, "fingerprint": fingerprint,
            "detail": {"traced_rounds": traced.rounds, "untraced_rounds": untraced.rounds}}


# ----------------------------------------------------------------------
# burst_groups
# ----------------------------------------------------------------------
def _bursty(rng: random.Random, instants: int = 150, per_instant: int = 32):
    """Quantized releases, ``per_instant`` jobs per integer instant with up
    to 12 time units of slack: wide same-instant groups under overload."""
    from repro.sim import Job

    jobs = []
    for i in range(instants * per_instant):
        release = float(i % instants)
        workload = rng.uniform(0.5, 3.0)
        jobs.append(Job(jid=i, release=release, workload=workload,
                        deadline=release + workload + rng.uniform(0.0, 12.0),
                        value=rng.uniform(1.0, 10.0) * workload))
    return jobs


def _feasible(rng: random.Random, instants: int = 150, per_instant: int = 16):
    """Underloaded bursts of tiny jobs with 20-40 units of slack: every
    burst passes AdmissionEDF's feasibility chain whole."""
    from repro.sim import Job

    jobs = []
    for i in range(instants * per_instant):
        release = float(i % instants)
        workload = rng.uniform(0.02, 0.08)
        jobs.append(Job(jid=i, release=release, workload=workload,
                        deadline=release + 20.0 + rng.uniform(0.0, 20.0),
                        value=rng.uniform(1.0, 10.0) * workload))
    return jobs


# name -> (generator, capacity high state, canonical generator seed)
BURST_INSTANCES = {
    "bursty_quantized": (_bursty, 35.0, 13),
    "feasible_burst": (_feasible, 2.0, 29),
}


def _burst_policies():
    from repro.core import AdmissionEDFScheduler, EDFScheduler, VDoverScheduler

    return {
        "edf": EDFScheduler,
        "edf-ac": AdmissionEDFScheduler,
        "vdover": lambda: VDoverScheduler(k=7.0),
    }


def _burst_round(seed: int, rnd: int):
    """Round ``rnd``'s instances: (name, jobs, capacity factory)."""
    from repro.capacity import TwoStateMarkovCapacity

    out = []
    for k, (name, (gen, high, _)) in enumerate(BURST_INSTANCES.items()):
        base = (seed * 1_000_003 + rnd * 2 + k) % (2**32)
        jobs = gen(random.Random(base))
        out.append((name, jobs, lambda high=high, base=base: TwoStateMarkovCapacity(
            1.0, high, mean_sojourn=20.0, rng=base)))
    return out


def run_burst(seed: int, seconds: float, trace: bool, out_dir, tally: Tally) -> Dict:
    from repro.capacity import TwoStateMarkovCapacity
    from repro.sim import simulate
    from repro.sim.job import total_value

    policies = _burst_policies()

    def setup_once() -> float:
        t0 = perf()
        for _name, _jobs, make_cap in _burst_round(seed, 0):
            make_cap()
        return perf() - t0

    setup_s = timed_setup(setup_once)

    def one_round(rnd: int, clock: Clock, ledger: "Ledger | None" = None,
                  queue_of: "Dict[str, str] | None" = None):
        jobs_done = 0
        values = []
        for name, jobs, make_cap in _burst_round(seed, rnd):
            cap = make_cap()
            total = total_value(jobs)
            for pname, make in policies.items():
                before = ledger.snapshot() if ledger is not None else None
                c0 = perf()
                value = simulate(jobs, cap, make()).value
                clock.call(perf() - c0)
                if before is not None and queue_of is not None and rnd == 0:
                    got = diff(ledger.snapshot(), before)
                    queue_of[f"{name}/{pname}"] = (
                        "CalendarEventQueue" if got["events.queue_calendar"] else "EventQueue"
                    )
                jobs_done += len(jobs)
                values.append(value)
                if name == "feasible_burst":
                    ok = math.isclose(value, total, rel_tol=1e-9)
                else:
                    ok = 0.0 < value <= total + 1e-9
                tally.check(ok, f"round {rnd} {name}/{pname} value {value!r} "
                            f"of {total!r}")
        return jobs_done, len(BURST_INSTANCES), values

    def pins() -> None:
        for name, (gen, high, canon) in BURST_INSTANCES.items():
            jobs = gen(random.Random(canon))
            for pname, make in policies.items():
                check_value(tally, f"pinned {name}/{pname}", BURST_PINS[name][pname],
                            lambda make=make, high=high: simulate(jobs, TwoStateMarkovCapacity(
                                1.0, high, mean_sojourn=20.0, rng=3), make()).value)

    if not trace:
        clock = run_rounds(one_round, seconds, tally)
        pins()
        # The blocking call is one round: both instances through all three
        # policies.  Single simulate() calls mix two instance sizes, which
        # puts their median in the gap between two clusters.
        metrics, raw = end_to_end(clock, setup_s, per_call=False)
        return {"metrics": metrics, "detail": dict(clock.detail(), wall_figures=raw)}

    untraced = run_rounds(one_round, seconds / 2, tally)
    ledger = Ledger()
    install_closed(ledger)
    first: Dict[str, float] = {}
    queue_of: Dict[str, str] = {}

    def fingerprint_round(rnd: int) -> None:
        if rnd == 0:
            first.update(ledger.snapshot())

    try:
        traced = run_rounds(
            lambda rnd, clock: one_round(rnd, clock, ledger, queue_of),
            seconds / 2, tally, fingerprint_round)
    finally:
        ledger.uninstall()
    totals = ledger.snapshot()
    check_passes(tally, traced, untraced)
    pins()
    ledger.write_spans(str(out_dir / "spans.jsonl"))
    wall = sum(traced.walls)
    layers = layer_metrics(
        totals, traced.ops, wall, traced.ratio_to(untraced),
        {"runner.busy_frac": totals["runner.busy_s"] / wall},
    )
    fingerprint = fingerprint_counts(first)
    fingerprint["queue_class"] = queue_of
    fingerprint["values_round0"] = traced.values[0]
    return {"metrics": layers, "fingerprint": fingerprint,
            "detail": {"traced_rounds": traced.rounds, "untraced_rounds": untraced.rounds}}
