"""Experiment E16: value retention under execution faults + crash recovery.

Two questions about the *executed* world (as opposed to E15's corrupted
*observed* world):

1. **Graceful degradation** — when the running secondary job can be killed
   mid-flight (spot-instance revocations, primary preemption), how much of
   the generated value do EDF, Dover and V-Dover still capture?  The sweep
   replays the paper's Figure-1 configuration (λ = 6, c ∈ {1, 35}, k = 7)
   while a :class:`~repro.faults.JobKillFault` or
   :class:`~repro.faults.RevocationBurst` of increasing rate is armed on
   every run.  The headline expectation: value retention falls *smoothly*
   with the fault rate — no cliff — and V-Dover's advantage over plain EDF
   persists under fire.

2. **Crash-resume equivalence** — :func:`crash_resume_equivalence` arms an
   :class:`~repro.faults.EngineCrashPlan`, lets the engine die mid-run,
   resumes a fresh engine from the crash's snapshot with the write-ahead
   journal attached, and verifies the recovered
   :class:`~repro.sim.metrics.SimulationResult` is **bit-identical** to an
   uncrashed run of the same instance (:func:`~repro.sim.journal.
   results_bit_identical`).  This is the repository's end-to-end proof that
   "last snapshot + journal replay" loses nothing.

Both paths run through the crash-isolated Monte-Carlo harness
(:class:`~repro.experiments.runner.MonteCarloRunner`), persist to the
schema-v2 store (:func:`~repro.experiments.store.save_sweep`) and resume
from ``--checkpoint`` files like every other experiment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.analysis.stats import summarize
from repro.core.dover import DoverScheduler
from repro.core.edf import EDFScheduler
from repro.core.vdover import VDoverScheduler
from repro.errors import ExperimentError
from repro.faults.execution import EngineCrashPlan, ExecutionFaultSpec
from repro.sim.engine import simulate
from repro.sim.journal import EventJournal, results_bit_identical
from repro.experiments.runner import (
    MonteCarloRunner,
    PaperInstanceFactory,
    SchedulerSpec,
)
from repro.experiments.sweeps import SweepResult
from repro.workload.poisson import PoissonWorkload

__all__ = [
    "RecoveryInstanceFactory",
    "default_recovery_rates",
    "run_recovery_sweep",
    "crash_resume_equivalence",
    "crash_resume_report",
]

#: Fault-rate grids per execution-fault kind (0 = fault-free anchor).
_DEFAULT_RATES: Mapping[str, tuple[float, ...]] = {
    "kill": (0.0, 0.05, 0.1, 0.2, 0.5),  # kill attempts per unit time
    "revocation": (0.0, 0.02, 0.05, 0.1, 0.2),  # revocation onsets per unit time
}


def default_recovery_rates(kind: str) -> tuple[float, ...]:
    """The default fault-rate grid swept for ``kind``."""
    try:
        return _DEFAULT_RATES[kind]
    except KeyError:
        raise ExperimentError(
            f"unknown execution-fault kind {kind!r} for the recovery sweep; "
            f"expected one of {tuple(_DEFAULT_RATES)}"
        ) from None


@dataclass(frozen=True)
class RecoveryInstanceFactory:
    """Wrap an instance factory so every run carries an execution fault.

    Exposes the ``make_with_faults`` protocol the Monte-Carlo worker
    understands: ``(jobs, capacity, faults)``.  The fault seed is drawn
    *after* the instance, so for a fixed replication seed the (jobs,
    true-capacity) pair is identical across fault rates — the sweep is a
    paired comparison.  Revocation faults additionally *transform* the
    capacity (their windows change the physics, not just the event stream);
    the transform uses the same horizon rule as the engine default
    (``max deadline + 1``) so armed evictions line up with the rewritten
    trajectory.
    """

    inner: PaperInstanceFactory
    spec: ExecutionFaultSpec

    def make_with_faults(self, rng: np.random.Generator):
        jobs, capacity = self.inner.make(rng)
        fault_seed = int(rng.integers(0, 2**31 - 1))
        fault = self.spec.build(seed=fault_seed)
        if fault is None:
            return jobs, capacity, ()
        horizon = max((j.deadline for j in jobs), default=0.0) + 1.0
        if isinstance(capacity, (list, tuple)):
            # Multiprocessor inner factory: transform only the fault's
            # target trajectory (repro.faults.apply_fault_transforms).
            from repro.faults import apply_fault_transforms

            capacity = apply_fault_transforms(
                list(capacity), (fault,), horizon
            )
        else:
            capacity = fault.transform(capacity, horizon)
        return jobs, capacity, (fault,)

    def make(self, rng: np.random.Generator):
        """Fault-free view (kept for fingerprinting/back-compat tools)."""
        jobs, capacity, _faults = self.make_with_faults(rng)
        return jobs, capacity


def _figure1_factory(
    lam: float, k: float, expected_jobs: float
) -> PaperInstanceFactory:
    horizon = expected_jobs / lam
    return PaperInstanceFactory(
        workload=PoissonWorkload(
            lam=lam,
            horizon=horizon,
            density_range=(1.0, k),
            c_lower=1.0,
        ),
        low=1.0,
        high=35.0,
        sojourn=horizon / 4.0,
    )


def _recovery_specs(k: float) -> list[SchedulerSpec]:
    return [
        SchedulerSpec("EDF", EDFScheduler, {}),
        SchedulerSpec("Dover(c=1)", DoverScheduler, {"k": k, "c_hat": 1.0}),
        SchedulerSpec("V-Dover", VDoverScheduler, {"k": k}),
    ]


def run_recovery_sweep(
    kind: str,
    rates: Sequence[float] | None = None,
    *,
    lam: float = 6.0,
    k: float = 7.0,
    n_runs: int = 30,
    seed: int = 31,
    workers: int | None = None,
    expected_jobs: float = 500.0,
    retain: float = 0.0,
    mean_down: float = 1.0,
    timeout: float | None = None,
    max_retries: int = 0,
    backoff: float = 0.0,
    checkpoint: str | None = None,
) -> SweepResult:
    """Sweep one execution-fault ``kind`` over a rate grid (Figure-1 setup).

    ``checkpoint`` names a *base* path; each rate cell appends to its own
    checkpoint directory (``<base>.cell<i>``) so an interrupted sweep
    resumes mid-grid.  Failure records (crashes that exhausted their
    snapshot-resume budget, timeouts) land in ``SweepResult.failures``
    keyed by the fault rate.
    """
    if rates is None:
        rates = default_recovery_rates(kind)
    else:
        default_recovery_rates(kind)  # validate the kind eagerly
    base = _figure1_factory(lam, k, expected_jobs)
    specs = _recovery_specs(k)
    result = SweepResult(sweep_name=f"{kind} rate")
    for cell, rate in enumerate(rates):
        options = (
            {"retain": float(retain)}
            if kind == "kill"
            else {"mean_down": float(mean_down)}
        )
        factory = RecoveryInstanceFactory(
            inner=base,
            spec=ExecutionFaultSpec(
                kind=kind, severity=float(rate), options=options
            ),
        )
        runner = MonteCarloRunner(factory, specs)
        report = runner.run_report(
            n_runs,
            seed=seed,
            workers=workers,
            timeout=timeout,
            max_retries=max_retries,
            backoff=backoff,
            checkpoint=None if checkpoint is None else f"{checkpoint}.cell{cell}",
        )
        for failure in report.failure_records():
            result.failures.append((float(rate), failure))
        outcomes = report.survivors
        if not outcomes:
            raise ExperimentError(
                f"recovery sweep {kind!r} rate={rate:g}: every replication "
                f"failed ({report.failure_records()[0]})"
            )
        result.swept_values.append(float(rate))
        for spec in specs:
            result.percents.setdefault(spec.name, []).append(
                summarize([100.0 * o.normalized(spec.name) for o in outcomes])
            )
    return result


def crash_resume_equivalence(
    *,
    lam: float = 6.0,
    k: float = 7.0,
    seed: int = 31,
    expected_jobs: float = 120.0,
    crash_at_event: int = 40,
    snapshot_every: int = 16,
) -> dict[str, dict]:
    """Crash one run of each scheduler mid-flight and prove the resumed run
    is bit-identical to an uncrashed one.

    For each of EDF / Dover(c=1) / V-Dover on the *same* instance:

    1. run to completion fault-free → the reference result;
    2. run again with an :class:`~repro.faults.EngineCrashPlan` at event
       ``crash_at_event``, periodic snapshots every ``snapshot_every``
       events and a write-ahead :class:`~repro.sim.journal.EventJournal`;
       the crash is survived by restoring the last snapshot into a fresh
       engine (which re-verifies its dispatches against the journal);
    3. compare with :func:`~repro.sim.journal.results_bit_identical`.

    Returns ``{scheduler: {"identical": bool, "recoveries": int,
    "value": float}}``; ``identical`` must be True for every scheduler.
    """
    factory = _figure1_factory(lam, k, expected_jobs)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    jobs, capacity = factory.make(rng)
    return crash_resume_report(
        jobs,
        capacity,
        _recovery_specs(k),
        crash_at_event=crash_at_event,
        snapshot_every=snapshot_every,
    )


def crash_resume_report(
    jobs,
    capacity,
    specs,
    *,
    crash_at_event: int,
    snapshot_every: int,
) -> dict[str, dict]:
    """Steps 1–3 of :func:`crash_resume_equivalence` for each spec on one
    instance (``capacity`` is one trajectory or a list of them)."""
    report: dict[str, dict] = {}
    for spec in specs:
        reference = simulate(jobs, capacity, spec.build())

        journal = EventJournal()  # in-memory write-ahead journal
        recovered = simulate(
            jobs,
            capacity,
            spec.build(),
            faults=[EngineCrashPlan(at_event=crash_at_event)],
            journal=journal,
            snapshot_every=snapshot_every,
            recover=True,
        )
        report[spec.name] = {
            "identical": results_bit_identical(reference, recovered),
            "recoveries": recovered.recoveries,
            "value": recovered.value,
            "events_journaled": len(journal),
        }
    return report
