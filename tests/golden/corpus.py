"""Golden decision corpus: the behavioural oracle for the kernel run loop.

Every case runs one instance through one policy and records what the run
decided — value, dispatch count and digests of the segment list, the
outcome record, the write-ahead journal and the replay-only observability
export.  ``decisions.jsonl`` next to this file holds the recorded figures,
one case per line; ``tests/properties/test_property_batchproto.py`` re-runs
every case and demands an exact match, so any change to which events
dispatch, in which order, with which decisions, shows up as a digest
mismatch.

The corpus was recorded from the per-event dispatch loop (one handler call
per interrupt, the paper's procedure A) before the kernel gathered
same-instant groups; the gathering kernel matched it on every case, which
is what licensed deleting the per-event-only loops.  Traced runs dispatch
per event again, so each journaled + traced case is also re-run journaled
only (``run_case(name, traced=False)``) to check the gathering kernel
against the same digests.

Cases:

* ``tie/<policy>/heap/<plain|crash>`` — the seven single-processor
  policies on a tie-heavy instance (integer release grid, zero laxity at
  release), journaled and traced, uncrashed and with a crash at dispatch
  40 resumed from the last snapshot plus journal replay (``heap`` stays
  in the names so recorded cases keep their keys);
* ``uninstrumented/<zero_laxity|slack>/<policy>`` — the same policies with
  nothing attached (no journal, watchdog, snapshots or tracing), where the
  kernel applies only a release group's net decision;
* ``bench/<instance>/<policy>`` — the Figure-1 instance and the two burst
  instances of ``benchmarks/results/BENCH_policyproto.json`` under EDF,
  AdmissionEDF and V-Dover;
* ``partitioned_m4/<plain|journaled>`` — one 4-processor partitioned
  V-Dover run over the tie-heavy grid;
* ``deadline_grid/<policy>/<plain|uninstrumented>`` — same-instant
  deadline groups, journaled + traced and uninstrumented;
* ``latch/<policy>/<plain|uninstrumented>`` — runs where the gather latch
  trips mid-run (a preempted job left within float-epsilon of done).

Regenerate only when a behaviour change is intended::

    PYTHONPATH=src python -m tests.golden.corpus --write

Without ``--write`` the script recomputes every case and lists the ones
that no longer match.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys
import tempfile
from pathlib import Path
from typing import Callable, Dict, List

from repro import obs
from repro.capacity import ConstantCapacity, TwoStateMarkovCapacity
from repro.cloud import LeastWorkDispatcher
from repro.core import (
    AdmissionEDFScheduler,
    DoverScheduler,
    EDFScheduler,
    FCFSScheduler,
    GreedyDensityScheduler,
    LLFScheduler,
    VDoverScheduler,
)
from repro.faults.execution import EngineCrashPlan
from repro.multi import PartitionedScheduler
from repro.sim import Job, SimulationEngine, simulate
from repro.sim.journal import EventJournal
from repro.workload import PoissonWorkload

CORPUS_PATH = Path(__file__).with_name("decisions.jsonl")

#: All seven single-processor policies, each behind a fresh-instance thunk.
POLICIES: Dict[str, Callable] = {
    "edf": lambda: EDFScheduler(),
    "edf-ac": lambda: AdmissionEDFScheduler(),
    "llf": lambda: LLFScheduler(),
    "greedy": lambda: GreedyDensityScheduler(),
    "fcfs": lambda: FCFSScheduler(),
    "dover": lambda: DoverScheduler(k=7.0, c_hat=2.0),
    "vdover": lambda: VDoverScheduler(k=7.0),
}

#: The policies the burst benchmark instances run.
BENCH_POLICIES = ("edf", "edf-ac", "vdover")

#: Event index at which the ``crash`` cases die.
CRASH_AT_EVENT = 40


# ----------------------------------------------------------------------
# Instances
# ----------------------------------------------------------------------
def tie_heavy_instance(seed: int = 3, n: int = 40) -> List[Job]:
    """Quantized release times (integer grid) force cross-job same-instant
    groups; relative deadline == p/c̲ puts every release at its zero-laxity
    instant, the paper's hardest workload shape."""
    rng = random.Random(seed)
    jobs = []
    for i in range(n):
        release = float(rng.randrange(0, 20))
        workload = rng.uniform(0.5, 3.0)
        jobs.append(
            Job(
                jid=i,
                release=release,
                workload=workload,
                deadline=release + workload,
                value=rng.uniform(1.0, 10.0) * workload,
            )
        )
    return jobs


def slack_instance(seed: int = 5, n: int = 160) -> List[Job]:
    """The integer release grid again, with up to 6 units of slack."""
    rng = random.Random(seed)
    jobs = []
    for i in range(n):
        release = float(rng.randrange(0, 20))
        workload = rng.uniform(0.5, 3.0)
        jobs.append(
            Job(
                jid=i,
                release=release,
                workload=workload,
                deadline=release + workload + rng.uniform(0.0, 6.0),
                value=rng.uniform(1.0, 10.0) * workload,
            )
        )
    return jobs


def bursty_instance(seed: int = 13, instants: int = 150, per_instant: int = 32):
    """``per_instant`` jobs per integer instant with up to 12 units of
    slack: wide same-instant groups under overload."""
    rng = random.Random(seed)
    jobs = []
    for i in range(instants * per_instant):
        release = float(i % instants)
        workload = rng.uniform(0.5, 3.0)
        jobs.append(
            Job(
                jid=i,
                release=release,
                workload=workload,
                deadline=release + workload + rng.uniform(0.0, 12.0),
                value=rng.uniform(1.0, 10.0) * workload,
            )
        )
    return jobs


def feasible_burst_instance(
    seed: int = 29, instants: int = 150, per_instant: int = 16
):
    """Underloaded bursts: tiny workloads and generous deadlines, so every
    burst passes AdmissionEDF's feasibility chain as a whole."""
    rng = random.Random(seed)
    jobs = []
    for i in range(instants * per_instant):
        release = float(i % instants)
        workload = rng.uniform(0.02, 0.08)
        jobs.append(
            Job(
                jid=i,
                release=release,
                workload=workload,
                deadline=release + 20.0 + rng.uniform(0.0, 20.0),
                value=rng.uniform(1.0, 10.0) * workload,
            )
        )
    return jobs


def deadline_grid_instance(seed: int = 7, n: int = 160) -> List[Job]:
    """Integer releases *and* integer deadlines: overloaded, with many
    waiting jobs expiring at one instant (same-instant deadline groups,
    both with and without the running job among them)."""
    rng = random.Random(seed)
    jobs = []
    for i in range(n):
        release = float(rng.randrange(0, 20))
        workload = rng.uniform(0.5, 3.0)
        jobs.append(
            Job(
                jid=i,
                release=release,
                workload=workload,
                deadline=release + float(rng.randrange(1, 5)),
                value=rng.uniform(1.0, 10.0) * workload,
            )
        )
    return jobs


def decimal_grid_instance(seed: int = 286, n: int = 80) -> List[Job]:
    """Releases, workloads and slack on a 0.1 grid at unit capacity: float
    sums such as 0.1 + 0.2 land a predicted completion one ulp past a
    release, so a preempted job keeps (near-)zero remaining work and the
    kernel's gather latch (``_batch_unsafe``) trips mid-run.  On this seed
    the latch is load-bearing: gathering past it changes EDF's run."""
    rng = random.Random(seed)
    jobs = []
    for i in range(n):
        release = rng.randrange(0, 40) / 10
        workload = rng.randrange(1, 5) / 10
        jobs.append(
            Job(
                jid=i,
                release=release,
                workload=workload,
                deadline=release + workload + rng.randrange(0, 8) / 10,
                value=rng.uniform(1.0, 10.0) * workload,
            )
        )
    return jobs


def small_capacity():
    return TwoStateMarkovCapacity(1.0, 4.0, mean_sojourn=5.0, rng=11)


#: family -> (jobs thunk, capacity thunk) for the group edge cases.
GROUP_EDGE_INSTANCES = {
    "deadline_grid": (deadline_grid_instance, small_capacity),
    "latch": (decimal_grid_instance, lambda: ConstantCapacity(1.0)),
}


_FIGURE1_HORIZON = 2000.0 / 6.0

#: name -> (jobs thunk, capacity thunk), as in BENCH_policyproto.json.
BENCH_INSTANCES = {
    "figure1_poisson": (
        lambda: PoissonWorkload(lam=6.0, horizon=_FIGURE1_HORIZON).generate(7),
        lambda: TwoStateMarkovCapacity(
            1.0, 35.0, mean_sojourn=_FIGURE1_HORIZON / 4, rng=3
        ),
    ),
    "bursty_quantized": (
        bursty_instance,
        lambda: TwoStateMarkovCapacity(1.0, 35.0, mean_sojourn=20.0, rng=3),
    ),
    "feasible_burst": (
        feasible_burst_instance,
        lambda: TwoStateMarkovCapacity(1.0, 2.0, mean_sojourn=20.0, rng=3),
    ),
}


# ----------------------------------------------------------------------
# Digests
# ----------------------------------------------------------------------
def _digest(obj) -> str:
    """Stable digest of a value built from ints, floats, strings, tuples,
    lists and dicts (``repr`` of a float round-trips exactly)."""
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:24]


def _segments(trace) -> list:
    return [(s.start, s.end, s.jid, s.work) for s in trace.segments]


def _outcomes(trace) -> tuple:
    return (
        sorted((jid, st.name) for jid, st in trace.outcomes.items()),
        sorted(trace.completion_times.items()),
        list(trace.value_points),
        sorted(trace.lost_work.items()),
    )


def _journal(journal: EventJournal) -> list:
    return [json.dumps(r.to_dict(), sort_keys=True) for r in journal.records]


# ----------------------------------------------------------------------
# Case runners
# ----------------------------------------------------------------------
def run_journaled(
    jobs, capacity, scheduler, *, crash: bool = False, traced: bool = True,
) -> dict:
    """Journaled (and, with ``traced``, traced) run."""
    journal = EventJournal()
    kw = dict(journal=journal)
    if crash:
        kw.update(
            faults=[EngineCrashPlan(at_event=CRASH_AT_EVENT)],
            snapshot_every=16,
            recover=True,
        )
    if traced:
        with tempfile.TemporaryDirectory() as tmp, obs.session() as octx:
            result = simulate(jobs, capacity, scheduler, **kw)
            path = Path(tmp) / "trace.jsonl"
            octx.sink.export_jsonl(path, replay_only=True)
            blob = path.read_bytes()
    else:
        result = simulate(jobs, capacity, scheduler, **kw)
    if crash and result.recoveries < 1:
        raise AssertionError(f"crash case {scheduler.name} never crashed")
    out = {
        "value": result.value,
        "dispatches": len(journal.records),
        "segments": _digest(_segments(result.trace)),
        "outcomes": _digest(_outcomes(result.trace)),
        "journal": _digest(_journal(journal)),
    }
    if traced:
        out["trace"] = hashlib.sha256(blob).hexdigest()[:24]
    return out


def run_bare(jobs, capacity, scheduler) -> dict:
    """Uninstrumented run: nothing attached to the kernel."""
    engine = SimulationEngine(jobs, capacity, scheduler)
    result = engine.run()
    return {
        "value": result.value,
        "dispatches": engine.dispatch_count,
        "segments": _digest(_segments(result.trace)),
        "outcomes": _digest(_outcomes(result.trace)),
    }


def _partitioned():
    return PartitionedScheduler(
        LeastWorkDispatcher(), lambda: VDoverScheduler(k=7.0)
    )


def _partitioned_caps():
    return [
        TwoStateMarkovCapacity(1.0, 4.0, mean_sojourn=5.0, rng=11 + p)
        for p in range(4)
    ]


def _run_partitioned(journaled: bool) -> dict:
    jobs = tie_heavy_instance(n=160)
    if journaled:
        journal = EventJournal()
        result = simulate(
            jobs, _partitioned_caps(), _partitioned(), journal=journal
        )
        dispatches = len(journal.records)
    else:
        engine = SimulationEngine(jobs, _partitioned_caps(), _partitioned())
        result = engine.run()
        dispatches = engine.dispatch_count
    out = {
        "value": result.value,
        "dispatches": dispatches,
        "segments": _digest([_segments(t) for t in result.proc_traces]),
        "outcomes": _digest(_outcomes(result.trace)),
    }
    if journaled:
        out["journal"] = _digest(_journal(journal))
    return out


def case_names() -> List[str]:
    names = []
    for policy in POLICIES:
        for mode in ("plain", "crash"):
            names.append(f"tie/{policy}/heap/{mode}")
    for instance in ("zero_laxity", "slack"):
        for policy in POLICIES:
            names.append(f"uninstrumented/{instance}/{policy}")
    for instance in BENCH_INSTANCES:
        for policy in BENCH_POLICIES:
            names.append(f"bench/{instance}/{policy}")
    for family in GROUP_EDGE_INSTANCES:
        for policy in POLICIES:
            for mode in ("plain", "uninstrumented"):
                names.append(f"{family}/{policy}/{mode}")
    names += ["partitioned_m4/plain", "partitioned_m4/journaled"]
    return names


def run_case(name: str, *, traced: bool = True) -> dict:
    """Recompute one case's record.  ``traced=False`` runs a journaled +
    traced case journaled only, so its record has no ``trace`` digest."""
    parts = name.split("/")
    family = parts[0]
    if family == "tie":
        _, policy, _queue, mode = parts
        return run_journaled(
            tie_heavy_instance(), small_capacity(), POLICIES[policy](),
            crash=mode == "crash", traced=traced,
        )
    if family in GROUP_EDGE_INSTANCES:
        _, policy, mode = parts
        make_jobs, make_cap = GROUP_EDGE_INSTANCES[family]
        if mode == "uninstrumented":
            return run_bare(make_jobs(), make_cap(), POLICIES[policy]())
        return run_journaled(
            make_jobs(), make_cap(), POLICIES[policy](), traced=traced
        )
    if family == "uninstrumented":
        _, instance, policy = parts
        jobs = (
            tie_heavy_instance(n=160)
            if instance == "zero_laxity"
            else slack_instance()
        )
        return run_bare(jobs, small_capacity(), POLICIES[policy]())
    if family == "bench":
        _, instance, policy = parts
        make_jobs, make_cap = BENCH_INSTANCES[instance]
        return run_bare(make_jobs(), make_cap(), POLICIES[policy]())
    if family == "partitioned_m4":
        return _run_partitioned(parts[1] == "journaled")
    raise KeyError(f"unknown corpus case {name!r}")


def compute_corpus() -> Dict[str, dict]:
    return {name: run_case(name) for name in case_names()}


def load_corpus() -> Dict[str, dict]:
    cases = {}
    for line in CORPUS_PATH.read_text().splitlines():
        record = json.loads(line)
        cases[record.pop("case")] = record
    return cases


def write_corpus(cases: Dict[str, dict]) -> None:
    CORPUS_PATH.write_text(
        "".join(
            json.dumps(dict(case=name, **cases[name]), sort_keys=True) + "\n"
            for name in sorted(cases)
        )
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--write",
        action="store_true",
        help="record the corpus (default: compare against the recorded one)",
    )
    args = parser.parse_args(argv)
    cases = compute_corpus()
    if args.write:
        write_corpus(cases)
        print(f"wrote {len(cases)} cases to {CORPUS_PATH}")
        return 0
    stored = load_corpus()
    bad = sorted(
        name
        for name in set(stored) | set(cases)
        if stored.get(name) != cases.get(name)
    )
    for name in bad:
        print(f"MISMATCH {name}: stored {stored.get(name)} != live {cases.get(name)}")
    print(f"{len(cases) - len(bad)}/{len(cases)} cases match")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
