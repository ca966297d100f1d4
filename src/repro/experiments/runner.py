"""Seeded, optionally parallel, crash-isolated Monte-Carlo harness.

Design rules (per the HPC guides and for statistical hygiene):

* every replication derives its RNG from ``SeedSequence(seed).spawn(n)``,
  so results do not depend on worker scheduling, on how many workers run,
  on retries, or on whether the run was resumed from a checkpoint;
* all schedulers inside one replication run on the *same* instance (same
  jobs, same realized capacity path), so cross-algorithm comparisons are
  paired — exactly how the paper compares V-Dover with Dover's four ĉ
  settings;
* worker payloads are plain picklable dataclasses (no lambdas), so the
  harness runs unchanged under ``multiprocessing`` with either the
  ``fork`` or ``spawn`` start method.

Resilience (docs/ROBUSTNESS.md): a replication that raises is returned to
the parent as a structured :class:`FailedReplication` instead of killing
the whole pool; each replication gets an optional wall-clock budget
enforced *inside* the worker (``SIGALRM``, where available) so a hung
replication cannot stall the sweep; transient failures (timeouts, OS
errors) are retried with linear backoff; and long sweeps checkpoint every
finished replication incrementally (:mod:`repro.experiments.checkpoint`)
so an interrupted run resumes from completed seeds with bit-identical
results.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
import time
import traceback as traceback_module
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator, Mapping, Sequence

import numpy as np

from repro import obs as _obs
from repro.capacity.base import CapacityFunction
from repro.capacity.markov import TwoStateMarkovCapacity
from repro.errors import ExperimentError, ReplicationTimeout, ReproError
from repro.sim.engine import simulate
from repro.sim.job import Job, total_value
from repro.sim.scheduler import Scheduler
from repro.workload.base import WorkloadGenerator

__all__ = [
    "SchedulerSpec",
    "PaperInstanceFactory",
    "MultiInstanceFactory",
    "ReplicationOutcome",
    "FailedReplication",
    "MonteCarloReport",
    "MonteCarloRunner",
    "default_mc_runs",
    "TRANSIENT_EXCEPTIONS",
    "TimeoutEnforcementWarning",
]

#: Exception families the runner treats as *transient* (worth retrying):
#: per-replication wall-clock timeouts and operating-system hiccups.
#: Deterministic model errors (a scheduler driven outside its contract,
#: an invalid instance) would fail identically on every retry and are
#: recorded as failures immediately.
TRANSIENT_EXCEPTIONS = (ReplicationTimeout, OSError)


def default_mc_runs(fallback: int) -> int:
    """Monte-Carlo run count: ``REPRO_MC_RUNS`` env override, else fallback.

    The paper averages over 800 runs; the shipped benchmarks default to a
    laptop-friendly count and scale up via the environment variable."""
    raw = os.environ.get("REPRO_MC_RUNS")
    if raw is None:
        return fallback
    try:
        runs = int(raw)
    except ValueError as exc:
        raise ReproError(
            f"REPRO_MC_RUNS must be an integer (e.g. REPRO_MC_RUNS=800), "
            f"got {raw!r}"
        ) from exc
    if runs < 1:
        raise ReproError(f"REPRO_MC_RUNS must be >= 1, got {runs}")
    return runs


@dataclass(frozen=True)
class SchedulerSpec:
    """Picklable recipe for a scheduler instance."""

    name: str
    cls: type
    kwargs: Mapping = field(default_factory=dict)

    def build(self) -> Scheduler:
        scheduler = self.cls(**self.kwargs)
        scheduler.name = self.name  # stable label independent of defaults
        return scheduler


@dataclass(frozen=True)
class PaperInstanceFactory:
    """The paper's Section-IV instance distribution.

    Jobs from a workload generator; capacity an independent two-state CTMC
    (``low``/``high`` with mean sojourn ``sojourn``).  One factory call
    consumes two child RNGs — one for jobs, one for the capacity path — so
    the two processes are independent, as in the paper.
    """

    workload: WorkloadGenerator
    low: float = 1.0
    high: float = 35.0
    sojourn: float = 1.0

    def make(self, rng: np.random.Generator) -> tuple[list[Job], CapacityFunction]:
        job_seed, cap_seed = rng.spawn(2)
        jobs = self.workload.generate(job_seed)
        capacity = TwoStateMarkovCapacity(
            self.low, self.high, mean_sojourn=self.sojourn, rng=cap_seed
        )
        return jobs, capacity


@dataclass(frozen=True)
class MultiInstanceFactory:
    """Multiprocessor instance distribution: one cluster-wide job stream,
    ``n_procs`` independent two-state CTMC capacity paths.

    :func:`_run_one` hands the list to :func:`~repro.sim.engine.simulate`
    as it is, so every scheduler spec runs on ``n_procs`` processors —
    crash resume, fault arming and paired comparisons all work identically.
    Per-processor bands may be heterogeneous via ``lows`` / ``highs``
    (sequences of length ``n_procs``, overriding the scalar defaults).
    """

    workload: WorkloadGenerator
    n_procs: int = 2
    low: float = 1.0
    high: float = 35.0
    sojourn: float = 1.0
    lows: Sequence[float] | None = None
    highs: Sequence[float] | None = None

    def make(
        self, rng: np.random.Generator
    ) -> tuple[list[Job], list[CapacityFunction]]:
        if self.n_procs < 1:
            raise ExperimentError(f"n_procs must be >= 1, got {self.n_procs}")
        for name, seq in (("lows", self.lows), ("highs", self.highs)):
            if seq is not None and len(seq) != self.n_procs:
                raise ExperimentError(
                    f"{name} must have one entry per processor "
                    f"({self.n_procs}), got {len(seq)}"
                )
        seeds = rng.spawn(1 + self.n_procs)
        jobs = self.workload.generate(seeds[0])
        capacities: list[CapacityFunction] = []
        for p in range(self.n_procs):
            lo = self.lows[p] if self.lows is not None else self.low
            hi = self.highs[p] if self.highs is not None else self.high
            capacities.append(
                TwoStateMarkovCapacity(
                    lo, hi, mean_sojourn=self.sojourn, rng=seeds[1 + p]
                )
            )
        return jobs, capacities


@dataclass
class ReplicationOutcome:
    """Per-replication metrics for every scheduler (paired by instance)."""

    generated_value: float
    n_jobs: int
    #: scheduler name -> accrued value
    values: dict[str, float]
    #: scheduler name -> completed-job count
    completed: dict[str, int]
    #: simulated engine crashes survived via snapshot resume while
    #: producing this outcome (0 for fault-free runs)
    recovered: int = 0
    #: worker-side observability metrics snapshot (``None`` unless the
    #: replication ran inside an obs session — see
    #: :meth:`MonteCarloReport.merged_metrics`)
    metrics: "dict | None" = None

    def normalized(self, name: str) -> float:
        return self.values[name] / self.generated_value if self.generated_value else 0.0


@dataclass(frozen=True)
class FailedReplication:
    """Structured record of a replication that raised or timed out.

    Returned by workers instead of the exception itself, so one bad
    replication cannot kill ``pool.map`` and lose every sibling's work.
    """

    index: int
    error_type: str  #: qualified exception class name
    message: str
    attempts: int  #: total attempts, including retries
    traceback: str = ""
    #: the last N trace events preceding the failure (JSON-ready dicts)
    #: when the replication ran inside an obs session — what turned
    #: "replication #317 raised" into a diagnosable record
    trace_tail: tuple = ()

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"replication #{self.index} failed after {self.attempts} "
            f"attempt(s): {self.error_type}: {self.message}"
        )


@dataclass
class MonteCarloReport:
    """Everything a resilient run produced: survivors, failures, resume
    accounting.

    ``outcomes`` is keyed by replication index, so paired analyses can
    align survivors across independent runs even when different subsets
    failed."""

    n_runs: int
    outcomes: dict[int, ReplicationOutcome] = field(default_factory=dict)
    failures: dict[int, FailedReplication] = field(default_factory=dict)
    #: replications loaded from a checkpoint instead of being executed
    resumed: int = 0

    @property
    def survivors(self) -> list[ReplicationOutcome]:
        """Completed outcomes in replication-index order."""
        return [self.outcomes[i] for i in sorted(self.outcomes)]

    @property
    def ok(self) -> bool:
        return not self.failures

    def failure_records(self) -> list[FailedReplication]:
        return [self.failures[i] for i in sorted(self.failures)]

    def raise_on_failure(self) -> None:
        """Raise :class:`ExperimentError` summarizing failures, if any."""
        if self.ok:
            return
        records = self.failure_records()
        head = records[0]
        detail = f"\nfirst failure traceback:\n{head.traceback}" if head.traceback else ""
        raise ExperimentError(
            f"{len(records)} of {self.n_runs} Monte-Carlo replications "
            f"failed (first: {head}){detail}"
        )

    def merged_metrics(self) -> "dict | None":
        """Sweep-wide observability metrics: the per-worker registry
        snapshots of every surviving replication, merged (counters add,
        gauges keep the high-water mark, histograms pool their moments —
        see :func:`repro.obs.merge_snapshots`).

        ``None`` when no survivor carries a snapshot, i.e. the sweep ran
        with observability disabled."""
        snaps = [o.metrics for o in self.survivors if o.metrics is not None]
        if not snaps:
            return None
        return _obs.merge_snapshots(snaps)


# ----------------------------------------------------------------------
# Worker-side machinery
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _RetryPolicy:
    """Picklable per-replication resilience knobs."""

    timeout: float | None = None  #: wall-clock budget per attempt (seconds)
    max_retries: int = 0  #: extra attempts for transient failures
    backoff: float = 0.0  #: sleep ``backoff * attempt`` between attempts


class TimeoutEnforcementWarning(RuntimeWarning):
    """The replication timeout cannot pre-empt (no main-thread SIGALRM);
    it is checked *after* the replication finishes instead."""


@contextmanager
def _replication_deadline(seconds: float | None) -> Iterator[None]:
    """Enforce a wall-clock budget (best effort, never silently dropped).

    Where POSIX interval timers exist and we are on the main thread of
    the process — which covers fork/spawn pool workers and the serial
    path — the budget pre-empts via ``SIGALRM``.  Anywhere else
    (non-main threads, platforms without ``SIGALRM``) the historical
    behaviour was to *silently* skip enforcement; now the fallback is a
    soft deadline: a :class:`TimeoutEnforcementWarning` states up front
    that pre-emption is unavailable, the replication runs unpreempted,
    and a post-hoc elapsed check raises the same transient
    :class:`~repro.errors.ReplicationTimeout` when the budget was
    exceeded — so retry accounting stays uniform across contexts."""
    if not seconds:
        yield
        return
    if (
        hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    ):
        def _on_alarm(signum, frame):  # pragma: no cover - exercised via raise
            raise ReplicationTimeout(
                f"replication exceeded its {seconds:g}s wall-clock budget"
            )

        previous = signal.signal(signal.SIGALRM, _on_alarm)
        signal.setitimer(signal.ITIMER_REAL, float(seconds))
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
        return

    reason = (
        "no SIGALRM on this platform"
        if not hasattr(signal, "SIGALRM")
        else f"not on the main thread ({threading.current_thread().name})"
    )
    warnings.warn(
        f"replication timeout of {seconds:g}s cannot pre-empt ({reason}); "
        "falling back to a post-hoc soft deadline check",
        TimeoutEnforcementWarning,
        stacklevel=3,
    )
    started = time.perf_counter()
    yield
    elapsed = time.perf_counter() - started
    if elapsed > seconds:
        raise ReplicationTimeout(
            f"replication exceeded its {seconds:g}s wall-clock budget "
            f"(soft deadline: took {elapsed:.3f}s, detected post-hoc "
            f"because {reason})"
        )


def _fresh_seed(seed_seq: np.random.SeedSequence) -> np.random.SeedSequence:
    """A pristine copy of ``seed_seq`` (zero children spawned).

    ``Generator.spawn`` advances the *shared* SeedSequence spawn counter,
    so re-running a replication with the original object would silently
    derive different child streams.  Rebuilding from ``entropy`` +
    ``spawn_key`` makes every attempt — first run, retry, or resume —
    bit-identical."""
    return np.random.SeedSequence(
        entropy=seed_seq.entropy, spawn_key=seed_seq.spawn_key
    )


def _run_one(args: tuple) -> ReplicationOutcome:
    """Worker: one replication — one instance, all schedulers (paired).

    Instance factories may expose ``make_with_faults(rng) -> (jobs,
    capacity, faults)`` to arm execution faults (:mod:`repro.faults.
    execution`) on every scheduler's run; plain factories keep the
    fault-free ``make(rng)`` contract.  Each run survives a
    :class:`~repro.errors.SimulatedCrash` by restoring the crash's
    snapshot (``simulate(..., recover=True)``); the outcome counts the
    crashes survived."""
    factory, specs, seed_seq = args
    rng = np.random.default_rng(_fresh_seed(seed_seq))
    make_with_faults = getattr(factory, "make_with_faults", None)
    if make_with_faults is not None:
        jobs, capacity, faults = make_with_faults(rng)
    else:
        jobs, capacity = factory.make(rng)
        faults = ()
    values: dict[str, float] = {}
    completed: dict[str, int] = {}
    recovered = 0
    for spec in specs:
        # Crash plans keep a ``fired`` latch; clear it so every scheduler
        # in the paired comparison sees the same fault.
        for fault in faults:
            if getattr(fault, "is_crash_plan", False):
                fault.fired = False
        # 16 recoveries bound a crash plan that somehow re-fires forever.
        result = simulate(
            jobs, capacity, spec.build(), faults=faults, recover=True,
            max_recoveries=16,
        )
        values[spec.name] = result.value
        completed[spec.name] = result.n_completed
        recovered += result.recoveries
    return ReplicationOutcome(
        generated_value=total_value(jobs),
        n_jobs=len(jobs),
        values=values,
        completed=completed,
        recovered=recovered,
    )


def _trace_tail(octx: "_obs.ObsContext | None", n: int) -> tuple:
    """The last ``n`` trace events of the worker session (diagnostics for
    :class:`FailedReplication`); empty when tracing is off."""
    if octx is None or octx.sink is None:
        return ()
    return tuple(octx.sink.tail(n))


def _run_one_safe(
    payload: tuple,
) -> tuple[int, ReplicationOutcome | FailedReplication]:
    """Crash-isolated worker: never raises (except ``KeyboardInterrupt``).

    Applies the per-attempt deadline, retries transient failures with
    linear backoff, and downgrades terminal exceptions to a structured
    :class:`FailedReplication` so the pool — and every sibling
    replication — survives.

    When the payload carries an :class:`~repro.obs.ObsSpec` the worker
    opens its *own* observability session around the replication (sessions
    stack, so an ambient parent session is untouched).  One session spans
    all snapshot resumes of a replication — its metrics describe the whole
    replication, crashes included — while a *transient* retry reopens a
    fresh session so the retried attempt's trace is not polluted by the
    abandoned one.  Successful outcomes carry the registry snapshot (plus
    a ``mc.replication_wall_s`` wall-time observation); failures carry the
    trailing trace events."""
    index, factory, specs, seed_seq, policy, obs_spec = payload
    attempts = 0
    octx: "_obs.ObsContext | None" = None
    if obs_spec is not None:
        octx = _obs.enable(ring=obs_spec.ring, profile=obs_spec.profile)
    wall_start = time.perf_counter()
    try:
        while True:
            attempts += 1
            try:
                with _replication_deadline(policy.timeout):
                    outcome = _run_one((factory, specs, seed_seq))
                if octx is not None:
                    octx.metrics.histogram("mc.replication_wall_s").observe(
                        time.perf_counter() - wall_start
                    )
                    outcome.metrics = octx.snapshot_metrics()
                return index, outcome
            except KeyboardInterrupt:  # pragma: no cover - user interrupt
                raise
            except Exception as exc:
                transient = isinstance(exc, TRANSIENT_EXCEPTIONS)
                if transient and attempts <= policy.max_retries:
                    if policy.backoff > 0.0:
                        time.sleep(policy.backoff * attempts)
                    if octx is not None:
                        # Fresh session: the retried attempt is bit-identical
                        # to a first-try success, so its trace/metrics must
                        # not carry the abandoned attempt's events.
                        _obs.disable()
                        octx = _obs.enable(
                            ring=obs_spec.ring, profile=obs_spec.profile
                        )
                        wall_start = time.perf_counter()
                    continue
                return index, FailedReplication(
                    index=index,
                    error_type=type(exc).__qualname__,
                    message=str(exc),
                    attempts=attempts,
                    traceback=traceback_module.format_exc(),
                    trace_tail=_trace_tail(octx, obs_spec.tail if obs_spec else 0),
                )
    finally:
        if octx is not None:
            _obs.disable()


def _mp_context(start_method: str | None = None):
    """The multiprocessing context: an explicit method if requested, else
    ``fork`` where available with a ``spawn`` fallback (macOS/Windows —
    ``fork`` either does not exist or is unsafe there)."""
    if start_method is not None:
        return multiprocessing.get_context(start_method)
    try:
        return multiprocessing.get_context("fork")
    except ValueError:
        return multiprocessing.get_context("spawn")


class MonteCarloRunner:
    """Replicate (instance → all schedulers) ``n_runs`` times.

    Parameters
    ----------
    factory:
        Instance factory (e.g. :class:`PaperInstanceFactory`).
    specs:
        Scheduler recipes, all evaluated on every instance.
    """

    def __init__(self, factory, specs: Sequence[SchedulerSpec]) -> None:
        names = [s.name for s in specs]
        if len(set(names)) != len(names):
            raise ReproError(f"duplicate scheduler names: {names}")
        self.factory = factory
        self.specs = list(specs)

    # ------------------------------------------------------------------
    def run(
        self,
        n_runs: int,
        seed: int = 0,
        *,
        workers: int | None = None,
        timeout: float | None = None,
        max_retries: int = 0,
        backoff: float = 0.0,
        checkpoint: "str | os.PathLike | None" = None,
        mp_start_method: str | None = None,
        obs_spec: "_obs.ObsSpec | None" = None,
    ) -> list[ReplicationOutcome]:
        """Execute the replications and return the outcomes in order.

        Strict wrapper over :meth:`run_report`: any replication failure
        (after retries) raises :class:`~repro.errors.ExperimentError`.
        ``workers=0``/``1`` forces serial; ``workers=None`` auto-sizes to
        the CPU count (capped at 8) when the job is big enough to amortise
        process startup.
        """
        report = self.run_report(
            n_runs,
            seed,
            workers=workers,
            timeout=timeout,
            max_retries=max_retries,
            backoff=backoff,
            checkpoint=checkpoint,
            mp_start_method=mp_start_method,
            obs_spec=obs_spec,
        )
        report.raise_on_failure()
        return report.survivors

    def run_report(
        self,
        n_runs: int,
        seed: int = 0,
        *,
        workers: int | None = None,
        timeout: float | None = None,
        max_retries: int = 0,
        backoff: float = 0.0,
        checkpoint: "str | os.PathLike | None" = None,
        mp_start_method: str | None = None,
        obs_spec: "_obs.ObsSpec | None" = None,
    ) -> MonteCarloReport:
        """Crash-isolated execution with full failure accounting.

        Parameters
        ----------
        workers:
            Parallelism (see :meth:`run`).
        timeout:
            Per-replication wall-clock budget in seconds, enforced inside
            the worker via ``SIGALRM`` where available (POSIX main thread);
            elsewhere the budget is best-effort.  Timeouts are transient:
            they consume the retry budget before being recorded as
            failures.
        max_retries, backoff:
            Bounded retry for transient failures (:data:`
            TRANSIENT_EXCEPTIONS`): up to ``max_retries`` extra attempts,
            sleeping ``backoff * attempt`` seconds in between.  Retries
            re-derive the replication's RNG from scratch, so a retried
            replication is bit-identical to one that succeeded first try.
        checkpoint:
            Directory of an incremental checkpoint (schema v2, see
            :mod:`repro.experiments.checkpoint`).  Completed replications
            found there are loaded instead of re-executed; newly finished
            replications (and failure metadata) are appended as they
            complete, so an interrupted sweep resumes where it stopped.
        mp_start_method:
            Explicit multiprocessing start method (``"fork"``/``"spawn"``/
            ``"forkserver"``); default picks ``fork`` where available and
            falls back to ``spawn``.
        obs_spec:
            Per-worker observability recipe (:class:`repro.obs.ObsSpec`).
            Each worker opens its own session per replication; surviving
            outcomes carry a metrics snapshot (merged sweep-wide via
            :meth:`MonteCarloReport.merged_metrics`) and failures carry
            the last ``obs_spec.tail`` trace events.  When ``None`` and an
            observability session is active in the calling process, a
            default spec (inheriting the ambient profiling flag) is
            derived automatically, so ``with obs.session(): runner.run(...)``
            just works; pass a spec explicitly to control ring/tail sizes
            or to force observability regardless of ambient state.
        """
        if n_runs < 1:
            raise ReproError(f"n_runs must be >= 1, got {n_runs}")
        if max_retries < 0:
            raise ReproError(f"max_retries must be >= 0, got {max_retries}")
        if timeout is not None and timeout <= 0.0:
            raise ReproError(f"timeout must be positive, got {timeout}")
        policy = _RetryPolicy(
            timeout=timeout, max_retries=int(max_retries), backoff=float(backoff)
        )
        if obs_spec is None:
            ambient = _obs.current()
            if ambient is not None:
                obs_spec = _obs.ObsSpec(profile=ambient.profile)
        seeds = np.random.SeedSequence(seed).spawn(n_runs)
        report = MonteCarloReport(n_runs=n_runs)

        store = None
        pending = list(range(n_runs))
        if checkpoint is not None:
            from repro.experiments.checkpoint import CheckpointStore, run_fingerprint

            store = CheckpointStore(
                checkpoint,
                seed=seed,
                n_runs=n_runs,
                fingerprint=run_fingerprint(self.factory, self.specs, seed, n_runs),
            )
            report.outcomes.update(store.completed)
            report.resumed = len(store.completed)
            pending = store.pending()

        payloads = [
            (i, self.factory, self.specs, seeds[i], policy, obs_spec)
            for i in pending
        ]

        def _absorb(index: int, result) -> None:
            if store is not None:
                store.record(index, result)
            if isinstance(result, FailedReplication):
                report.failures[index] = result
            else:
                report.outcomes[index] = result

        try:
            if not payloads:
                return report
            n_pending = len(payloads)
            if workers is None:
                workers = min(os.cpu_count() or 1, 8) if n_pending >= 8 else 1
            if workers <= 1:
                for payload in payloads:
                    index, result = _run_one_safe(payload)
                    _absorb(index, result)
                return report

            ctx = _mp_context(mp_start_method)
            # Stream with chunksize 1 when checkpointing so every finished
            # replication hits disk promptly; otherwise amortise IPC.
            chunksize = (
                1 if store is not None else max(1, n_pending // (4 * workers))
            )
            with ctx.Pool(processes=workers) as pool:
                for index, result in pool.imap_unordered(
                    _run_one_safe, payloads, chunksize=chunksize
                ):
                    _absorb(index, result)
            return report
        finally:
            if store is not None:
                store.close()
