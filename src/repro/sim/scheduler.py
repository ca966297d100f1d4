"""Scheduler abstraction and the online information interface.

The engine is clairvoyant (it owns the full capacity trajectory so it can
compute exact completion instants); schedulers are *myopic* and interact
with the world only through :class:`SchedulerContext`, which exposes exactly
the information the paper grants an online algorithm:

* the current time;
* job parameters at release (handlers receive the :class:`Job`);
* the remaining workload of any released job — legitimate online knowledge,
  since the scheduler observed when each job ran and the past capacity
  ``c(τ), τ <= now``;
* the instantaneous capacity ``c(now)`` and the declared bounds
  ``(c̲, c̄)`` of the input set.

Nothing about the *future* trajectory is reachable through the context, so
the online model is enforced at the API level.

Handlers correspond to the paper's three interrupt types (Section III-D):
job release, job completion-or-failure, and zero-conservative-laxity alarms
(generalised to arbitrary per-job alarms so Dover's ĉ-laxity and LLF's
tie-crossing timers reuse the same mechanism).  Each handler returns the
job that should occupy the processor once the interrupt is handled
(``None`` for idle); the engine performs the actual switch, completion
prediction and trace accounting.
"""

from __future__ import annotations

import abc
import math
from typing import Optional, Tuple

from repro.errors import CapacityReadError, EstimateError, RecoveryError
from repro.sim.job import Job

__all__ = ["SchedulerContext", "Scheduler"]


class SchedulerContext(abc.ABC):
    """What an online scheduler is allowed to see and do.

    Implemented by the engine; schedulers receive an instance via
    :meth:`Scheduler.bind` at the start of every run.
    """

    #: The active observability context (:class:`repro.obs.ObsContext`) or
    #: ``None`` when tracing is disabled — the default.  Engine-built
    #: contexts overwrite this with the context captured at kernel
    #: construction; schedulers guard every emission with a single
    #: ``if obs is not None`` so the disabled hot path pays one attribute
    #: check and nothing else.
    obs = None

    # -- observation ----------------------------------------------------
    @abc.abstractmethod
    def now(self) -> float:
        """Current simulation time."""

    @abc.abstractmethod
    def remaining(self, job: Job) -> float:
        """Remaining workload ``p_r(T)`` of a released, unfinished job."""

    @abc.abstractmethod
    def capacity_now(self) -> float:
        """The instantaneous capacity ``c(now)`` (observable per Sec. II-A)."""

    @property
    @abc.abstractmethod
    def bounds(self) -> Tuple[float, float]:
        """The declared capacity bounds ``(c̲, c̄)``."""

    @abc.abstractmethod
    def current_job(self) -> Optional[Job]:
        """The job currently on the processor (``None`` when idle)."""

    # -- alarms ----------------------------------------------------------
    @abc.abstractmethod
    def set_alarm(self, job: Job, time: float, tag: str = "claxity") -> None:
        """Arm (or re-arm) the single alarm slot of ``job`` to fire at
        ``time`` (clamped to ``now`` if in the past).  Firing calls
        :meth:`Scheduler.on_alarm`; alarms on completed/failed/running jobs
        are dropped silently."""

    @abc.abstractmethod
    def cancel_alarm(self, job: Job) -> None:
        """Disarm ``job``'s alarm if armed."""

    @abc.abstractmethod
    def set_timer(self, time: float, tag: str) -> None:
        """Arm a job-independent timer firing :meth:`Scheduler.on_timer`."""

    # -- derived conveniences ---------------------------------------------
    def conservative_remaining_time(self, job: Job, rate: float | None = None) -> float:
        """The paper's ``t_c(T, c̲)``: remaining processing time under the
        conservative (or supplied) rate estimate."""
        if rate is None:
            rate = self.bounds[0]
        return self.remaining(job) / rate

    def claxity(self, job: Job, rate: float | None = None) -> float:
        """Conservative laxity (Definition 5) of ``job`` right now; pass
        ``rate=ĉ`` for Dover's estimated laxity instead."""
        if rate is None:
            rate = self.bounds[0]
        return job.deadline - self.now() - self.remaining(job) / rate


class Scheduler(abc.ABC):
    """Base class for online scheduling policies.

    Subclasses implement the interrupt handlers.  A scheduler instance may
    be reused across runs: :meth:`bind` is called once per run and must
    reset all per-run state (subclasses override :meth:`reset`).
    """

    #: Human-readable policy name (used in results and tables).
    name: str = "scheduler"

    #: Batch-contract capability flags (see :mod:`repro.sim.batchproto`).
    #: The base class has no ``plan``: the kernel gathers same-instant
    #: groups only for ``batch_capable`` schedulers and dispatches every
    #: other one event by event, so policies without a batch handler never
    #: see a ``plan`` call.
    batch_capable: bool = False
    #: Whether ``on_job_end`` for a waiting job is a pure queue purge;
    #: only consulted when ``batch_capable`` is true.
    batch_pure_completions: bool = True

    def __init__(self) -> None:
        self.ctx: SchedulerContext = None  # type: ignore[assignment]
        self._sensor_last_good: float | None = None
        self._sensor_health = {"reads": 0, "dropouts": 0, "clamped": 0}

    def bind(self, ctx: SchedulerContext) -> None:
        """Attach to an engine run and reset per-run state."""
        self.ctx = ctx
        self._sensor_last_good = None
        self._sensor_health = {"reads": 0, "dropouts": 0, "clamped": 0}
        self.reset()

    def reset(self) -> None:
        """Reinitialise per-run state.  Default: nothing."""

    # ------------------------------------------------------------------
    # Robust capacity sensing (docs/ROBUSTNESS.md)
    # ------------------------------------------------------------------
    @property
    def sensor_health(self) -> dict:
        """Counters of the degradation ladder taken by
        :meth:`sense_capacity` during the current run (copy on access):
        total ``reads``, ``dropouts`` (reading unavailable or garbage) and
        ``clamped`` (out-of-band readings snapped into the declared
        band)."""
        return dict(self._sensor_health)

    def sense_capacity(self) -> float:
        """Read ``ctx.capacity_now()`` with graceful degradation.

        Under fault injection (:mod:`repro.faults`) the sensor may report
        rates outside the declared band, return garbage, or raise
        :class:`~repro.errors.CapacityReadError` during a dropout.  Rather
        than silently mis-scheduling on a corrupt estimate, this helper
        applies the degradation ladder:

        1. out-of-band readings are **clamped** into the declared
           ``[c̲, c̄]`` (the band is the only contract the scheduler has);
        2. unavailable or non-finite/non-positive readings fall back to the
           **last-known-good** (clamped) reading;
        3. with no last-known-good value yet, fall back to the conservative
           bound ``c̲``;
        4. if even the declared band is unusable (non-finite or
           non-positive), raise :class:`~repro.errors.EstimateError`.
        """
        lo, hi = self.ctx.bounds
        if not (math.isfinite(lo) and math.isfinite(hi) and 0.0 < lo <= hi):
            raise EstimateError(
                f"declared capacity band ({lo!r}, {hi!r}) is unusable; "
                "no graceful fallback exists"
            )
        self._sensor_health["reads"] += 1
        try:
            reading = self.ctx.capacity_now()
        except CapacityReadError:
            reading = None
        if reading is None or not math.isfinite(reading) or reading <= 0.0:
            self._sensor_health["dropouts"] += 1
            fallback = (
                self._sensor_last_good
                if self._sensor_last_good is not None
                else lo
            )
            obs = getattr(self.ctx, "obs", None)
            if obs is not None:
                # Sensor-health transition: reading unavailable/garbage,
                # degradation ladder falls back (docs/ROBUSTNESS.md).
                obs.metrics.counter("scheduler.sensor.dropouts").inc()
                obs.emit(
                    "sensor.dropout",
                    self.ctx.now(),
                    {"policy": self.name, "fallback": fallback},
                )
            return fallback
        if reading < lo or reading > hi:
            self._sensor_health["clamped"] += 1
            obs = getattr(self.ctx, "obs", None)
            if obs is not None:
                obs.metrics.counter("scheduler.sensor.clamped").inc()
                obs.emit(
                    "sensor.clamped",
                    self.ctx.now(),
                    {"policy": self.name, "raw": reading},
                )
            reading = min(max(reading, lo), hi)
        self._sensor_last_good = reading
        return reading

    # ------------------------------------------------------------------
    # Interrupt handlers: each returns the job that should run next
    # (None = leave the processor idle).
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def on_release(self, job: Job) -> Optional[Job]:
        """A new job arrived (the paper's job-release interrupt)."""

    @abc.abstractmethod
    def on_job_end(self, job: Job, completed: bool) -> Optional[Job]:
        """A job left the system: ``completed=True`` for successful
        termination, ``False`` for a deadline failure.  Called both when the
        departing job was running and when it expired while waiting (the
        scheduler must purge it from its queues in the latter case)."""

    def on_alarm(self, job: Job, tag: str) -> Optional[Job]:
        """A per-job alarm fired (e.g. zero conservative laxity).  Default:
        keep the current assignment."""
        return self.ctx.current_job()

    def on_timer(self, tag: str) -> Optional[Job]:
        """A job-independent timer fired.  Default: keep current."""
        return self.ctx.current_job()

    def on_eviction(self, job: Job) -> Optional[Job]:
        """``job`` was forcibly evicted from the processor by an execution
        fault (VM revocation, job kill with retained progress).  The engine
        has already closed the running segment and returned the job to
        READY; the scheduler must requeue it and pick a successor.

        Default: treat the evicted job like a fresh arrival — correct for
        stateless ready-queue policies whose release handler just inserts
        and re-evaluates.  Policies with admission side effects override
        this."""
        return self.on_release(job)

    # ------------------------------------------------------------------
    # Snapshot / restore (crash recovery — docs/ROBUSTNESS.md)
    # ------------------------------------------------------------------
    def get_state(self) -> dict:
        """Capture the scheduler's per-run state for an engine snapshot.

        Returns a picklable dict: sensing counters from the base class plus
        the subclass's :meth:`_policy_state`.  Job references are always
        stored as jids so the restoring side can re-bind them to its own
        :class:`Job` objects."""
        return {
            "scheduler": type(self).__name__,
            "sensor_last_good": self._sensor_last_good,
            "sensor_health": dict(self._sensor_health),
            "policy": self._policy_state(),
        }

    def set_state(self, state: dict, jobs_by_id: "dict[int, Job]") -> None:
        """Restore per-run state captured by :meth:`get_state`.

        Must be called after :meth:`bind` (so queues exist, freshly reset).
        ``jobs_by_id`` maps jid to the restoring engine's job objects."""
        if state.get("scheduler") != type(self).__name__:
            raise RecoveryError(
                f"snapshot was taken from {state.get('scheduler')!r}, "
                f"cannot restore into {type(self).__name__}"
            )
        self._sensor_last_good = state["sensor_last_good"]
        self._sensor_health = dict(state["sensor_health"])
        self._restore_policy_state(state["policy"], jobs_by_id)

    def drain(self, finished: "set[int]") -> list:
        """Hand over closed per-run history and forget the ``finished``
        jids (service tenants, at each snapshot; closed-horizon runs never
        call it).  Returns picklable records; policies that keep no
        history return ``[]``."""
        return []

    def _policy_state(self) -> dict:
        """Subclass hook: capture policy-specific per-run state (queues,
        rate estimates, accumulators) as a picklable, jid-keyed dict."""
        raise RecoveryError(
            f"{type(self).__name__} does not support snapshot/restore"
        )

    def _restore_policy_state(
        self, state: dict, jobs_by_id: "dict[int, Job]"
    ) -> None:
        """Subclass hook: inverse of :meth:`_policy_state`."""
        raise RecoveryError(
            f"{type(self).__name__} does not support snapshot/restore"
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"
