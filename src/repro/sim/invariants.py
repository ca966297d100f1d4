"""Runtime invariant watchdog: independent monitors over the live engine.

The trace validator (:meth:`~repro.sim.trace.ScheduleTrace.validate`)
re-checks a *finished* schedule; the watchdog checks the run *while it
happens*, one observation after every dispatched event.  That catches
violations the post-hoc validator can mask (e.g. a transiently negative
remaining workload that later self-corrects) and localizes a failure to
the first event that broke the property.

Monitors are strictly **observation-only**: they read the engine through
its public read-only accessors and never mutate schedulers, jobs, the
event queue or the trace.  Capacity queries are safe too — the stochastic
models materialize their path lazily but order-independently, so a
watchdog peeking at ``capacity.value(t)`` cannot perturb the run (the
determinism-audit test pins this down byte-for-byte).

Shipped monitors
----------------
================================  ==============================================
:class:`MonotoneTimeMonitor`      event timestamps never decrease
:class:`DeadlineMonitor`          no run segment extends past its job's deadline
:class:`WorkConservationMonitor`  per-segment work equals the true capacity
                                  integral (no job runs faster than ``c(t)``)
:class:`ValueAccountingMonitor`   accrued value is exactly the sum of completed
                                  jobs' values, and only grows
:class:`CapacityBandMonitor`      the *true* capacity stays inside its declared
                                  band ``[c̲, c̄]`` at every event instant
:class:`AdmissibilityMonitor`     every released job is individually admissible
                                  (V-Dover's Definition 4 precondition) —
                                  **opt-in**, because adversary instances are
                                  inadmissible on purpose
================================  ==============================================

In default mode violations are *counted* (``watchdog.violations``,
``watchdog.counts``) and the run proceeds; in ``paranoid`` mode the first
violation raises :class:`~repro.errors.InvariantViolationError`.

Monitors read the engine's per-processor trace and capacity lists
(``engine.proc_traces`` / ``engine.capacities``) on any number of
processors, and its combined outcome record (``engine.trace``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import islice
from typing import Dict, List, Optional, Sequence

from repro.errors import InvariantViolationError
from repro.faults.base import unwrap_faults
from repro.sim.events import Event, EventKind
from repro.sim.job import JobStatus

__all__ = [
    "InvariantViolation",
    "InvariantMonitor",
    "MonotoneTimeMonitor",
    "DeadlineMonitor",
    "WorkConservationMonitor",
    "ValueAccountingMonitor",
    "CapacityBandMonitor",
    "AdmissibilityMonitor",
    "InvariantWatchdog",
    "default_monitors",
]

_REL_TOL = 1e-6


@dataclass(frozen=True)
class InvariantViolation:
    """One observed breach of a runtime invariant."""

    monitor: str
    time: float
    message: str
    jid: Optional[int] = None

    def __str__(self) -> str:
        where = f" (job {self.jid})" if self.jid is not None else ""
        return f"[{self.monitor}] t={self.time:g}{where}: {self.message}"


class InvariantMonitor:
    """Base class: three observation hooks, all optional.

    ``start(engine)`` fires once per (re)start — including after a
    snapshot restore; ``after_event(engine, event)`` fires after every
    dispatched event's effects are applied; ``after_run(engine, result)``
    fires once when the run reaches its horizon.  Each hook returns a list
    of violations (empty when the invariant holds).
    """

    #: short name used in violation records and the watchdog's counters
    name: str = "monitor"

    def start(self, engine) -> List[InvariantViolation]:
        return []

    def after_event(self, engine, event: Event) -> List[InvariantViolation]:
        return []

    def after_run(self, engine, result) -> List[InvariantViolation]:
        return []


class MonotoneTimeMonitor(InvariantMonitor):
    """Dispatched event timestamps must never decrease."""

    name = "monotone-time"

    def start(self, engine) -> List[InvariantViolation]:
        self._last = engine.now
        return []

    def after_event(self, engine, event: Event) -> List[InvariantViolation]:
        if event.time < self._last - 1e-9:
            bad = [
                InvariantViolation(
                    self.name,
                    event.time,
                    f"event at t={event.time:g} after t={self._last:g}",
                )
            ]
        else:
            bad = []
        self._last = max(self._last, event.time)
        return bad


class DeadlineMonitor(InvariantMonitor):
    """No recorded run segment may extend past its job's deadline.

    Re-checks from one segment before the last seen index because the
    trace *merges* contiguous same-job segments in place — the most recent
    entry can still grow.
    """

    name = "deadline"

    def start(self, engine) -> List[InvariantViolation]:
        self._seen: Dict[int, int] = {}
        return []

    def _check(self, engine) -> List[InvariantViolation]:
        bad: List[InvariantViolation] = []
        jobs = engine.jobs_by_id
        for proc, trace in enumerate(engine.proc_traces):
            segments = trace.segments
            seen = self._seen.get(proc, 0)
            for i in range(max(0, seen - 1), len(segments)):
                seg = segments[i]
                job = jobs.get(seg.jid)
                if job is None:
                    bad.append(
                        InvariantViolation(
                            self.name, seg.end, "segment for unknown job", seg.jid
                        )
                    )
                    continue
                if seg.end > job.deadline + _REL_TOL * max(
                    1.0, abs(job.deadline)
                ):
                    bad.append(
                        InvariantViolation(
                            self.name,
                            seg.end,
                            f"ran until {seg.end:g} past deadline "
                            f"{job.deadline:g}",
                            seg.jid,
                        )
                    )
                if seg.start < job.release - _REL_TOL * max(
                    1.0, abs(job.release)
                ):
                    bad.append(
                        InvariantViolation(
                            self.name,
                            seg.start,
                            f"ran at {seg.start:g} before release "
                            f"{job.release:g}",
                            seg.jid,
                        )
                    )
            self._seen[proc] = len(segments)
        return bad

    def after_event(self, engine, event: Event) -> List[InvariantViolation]:
        return self._check(engine)

    def after_run(self, engine, result) -> List[InvariantViolation]:
        self._seen = {}  # wind-down closed the final segment: re-check all
        return self._check(engine)


class WorkConservationMonitor(InvariantMonitor):
    """Per-segment work must equal the *true* capacity integral.

    Uses :func:`~repro.faults.base.unwrap_faults` so sensing faults do not
    fool the monitor — physics is judged against the pristine model.
    """

    name = "work-conservation"

    def start(self, engine) -> List[InvariantViolation]:
        self._seen: Dict[int, int] = {}
        return []

    def _check(self, engine) -> List[InvariantViolation]:
        bad: List[InvariantViolation] = []
        capacities = engine.capacities
        for proc, trace in enumerate(engine.proc_traces):
            segments = trace.segments
            capacity = unwrap_faults(capacities[proc])
            seen = self._seen.get(proc, 0)
            for i in range(max(0, seen - 1), len(segments)):
                seg = segments[i]
                expected = capacity.integrate(seg.start, seg.end)
                if abs(expected - seg.work) > _REL_TOL * max(
                    1.0, abs(expected)
                ):
                    bad.append(
                        InvariantViolation(
                            self.name,
                            seg.end,
                            f"segment [{seg.start:g}, {seg.end:g}] recorded "
                            f"{seg.work:g} work, capacity integral "
                            f"{expected:g}",
                            seg.jid,
                        )
                    )
            self._seen[proc] = len(segments)
        return bad

    def after_event(self, engine, event: Event) -> List[InvariantViolation]:
        return self._check(engine)

    def after_run(self, engine, result) -> List[InvariantViolation]:
        self._seen = {}
        return self._check(engine)


class ValueAccountingMonitor(InvariantMonitor):
    """Accrued value must equal the sum of completed jobs' values and be
    non-decreasing over time.

    Incremental: each check adds only the outcomes recorded since the last
    one to a running sum, and checks monotonicity only over new value
    points, so a watched run stays linear in its events.  The sums
    re-base on the trace's carried total (``value_base``) whenever the
    record is replaced or shrinks: a new run, a restore, or a drain that
    moved the terminal history out of the live trace."""

    name = "value-accounting"

    def __init__(self) -> None:
        self._outcomes: Optional[dict] = None  # the record being summed
        self._points: Optional[list] = None
        self._n_outcomes = 0
        self._n_points = 0
        self._expected = 0.0
        self._prev = 0.0

    def start(self, engine) -> List[InvariantViolation]:
        self._outcomes = None  # re-base at the next check
        return []

    def _check(self, engine) -> List[InvariantViolation]:
        bad: List[InvariantViolation] = []
        trace = engine.trace
        outcomes = trace.outcomes
        points = trace.value_points
        if (
            outcomes is not self._outcomes
            or points is not self._points
            or len(outcomes) < self._n_outcomes
            or len(points) < self._n_points
        ):
            self._outcomes = outcomes
            self._points = points
            self._n_outcomes = self._n_points = 0
            self._expected = self._prev = trace.value_base
        fresh = len(outcomes) - self._n_outcomes
        if fresh:
            jobs = engine.jobs_by_id
            completed = JobStatus.COMPLETED
            expected = self._expected
            # The newest `fresh` outcomes, summed in recording order.
            for jid, st in reversed(
                list(islice(reversed(outcomes.items()), fresh))
            ):
                if st is completed and jid in jobs:
                    expected += jobs[jid].value
            self._expected = expected
            self._n_outcomes = len(outcomes)
        expected = self._expected
        accrued = points[-1][1] if points else trace.value_base
        if abs(accrued - expected) > 1e-9 * max(1.0, abs(expected)):
            bad.append(
                InvariantViolation(
                    self.name,
                    engine.now,
                    f"accrued value {accrued:g} != sum of completed values "
                    f"{expected:g}",
                )
            )
        prev = self._prev
        for t, cum in islice(points, self._n_points, None):
            if cum < prev - 1e-12:
                bad.append(
                    InvariantViolation(
                        self.name, t, f"value decreased: {cum:g} < {prev:g}"
                    )
                )
            prev = cum
        self._prev = prev
        self._n_points = len(points)
        return bad

    def after_event(self, engine, event: Event) -> List[InvariantViolation]:
        if event.kind in (EventKind.COMPLETION, EventKind.DEADLINE):
            return self._check(engine)
        return []

    def after_run(self, engine, result) -> List[InvariantViolation]:
        return self._check(engine)


class CapacityBandMonitor(InvariantMonitor):
    """The *true* capacity must stay inside its declared band.

    Sensing faults may mis-declare the band on purpose; the monitor
    unwraps them and holds the pristine model to its own contract
    ``c̲ ≤ c(t) ≤ c̄``, sampled at every event instant.
    """

    name = "capacity-band"

    def _check_at(self, engine, t: float) -> List[InvariantViolation]:
        bad: List[InvariantViolation] = []
        for proc, wrapped in enumerate(engine.capacities):
            capacity = unwrap_faults(wrapped)
            value = capacity.value(t)
            lo, hi = capacity.lower, capacity.upper
            tol = _REL_TOL * max(1.0, abs(hi))
            if not math.isfinite(value) or value < lo - tol or value > hi + tol:
                bad.append(
                    InvariantViolation(
                        self.name,
                        t,
                        f"capacity {value!r} on processor {proc} outside "
                        f"declared band [{lo:g}, {hi:g}]",
                    )
                )
        return bad

    def start(self, engine) -> List[InvariantViolation]:
        return self._check_at(engine, engine.now)

    def after_event(self, engine, event: Event) -> List[InvariantViolation]:
        return self._check_at(engine, event.time)


class AdmissibilityMonitor(InvariantMonitor):
    """Every released job must be individually admissible (Definition 4):
    ``workload ≤ c̲ · (deadline − release)``.

    V-Dover's competitive guarantee is *conditioned* on this property; the
    monitor flags instances that void the guarantee.  It is excluded from
    :func:`default_monitors` because the adversary experiments violate it
    deliberately (that is the whole point of Theorem 3(3)).
    """

    name = "admissibility"

    def after_event(self, engine, event: Event) -> List[InvariantViolation]:
        if event.kind is not EventKind.RELEASE:
            return []
        job = event.payload
        # Multiprocessor reading of Definition 4: a job is admissible when
        # *some* processor can guarantee it alone, i.e. against the best
        # single-machine floor c* = max_p c̲_p (matches Global-V-Dover).
        lower = max(
            unwrap_faults(c).lower for c in engine.capacities
        )
        if not job.is_individually_admissible(lower):
            return [
                InvariantViolation(
                    self.name,
                    event.time,
                    f"job not individually admissible: workload "
                    f"{job.workload:g} > {lower:g} * "
                    f"({job.deadline:g} - {job.release:g})",
                    job.jid,
                )
            ]
        return []


def default_monitors(*, admissibility: bool = False) -> List[InvariantMonitor]:
    """The standard battery.  ``admissibility=True`` adds the (opt-in)
    Definition-4 precondition check."""
    monitors: List[InvariantMonitor] = [
        MonotoneTimeMonitor(),
        DeadlineMonitor(),
        WorkConservationMonitor(),
        ValueAccountingMonitor(),
        CapacityBandMonitor(),
    ]
    if admissibility:
        monitors.append(AdmissibilityMonitor())
    return monitors


class InvariantWatchdog:
    """Drives a battery of monitors from the engine's observation hooks.

    Parameters
    ----------
    monitors:
        The monitors to run; defaults to :func:`default_monitors`.
    paranoid:
        When true, the first violation raises
        :class:`~repro.errors.InvariantViolationError`; otherwise
        violations accumulate in :attr:`violations` / :attr:`counts` and
        the run continues.
    """

    def __init__(
        self,
        monitors: Optional[Sequence[InvariantMonitor]] = None,
        *,
        paranoid: bool = False,
    ) -> None:
        self._monitors = (
            list(monitors) if monitors is not None else default_monitors()
        )
        self._paranoid = bool(paranoid)
        self.violations: List[InvariantViolation] = []
        self.counts: Dict[str, int] = {}

    @property
    def monitors(self) -> List[InvariantMonitor]:
        return list(self._monitors)

    @property
    def total_violations(self) -> int:
        return len(self.violations)

    def _report(self, found: List[InvariantViolation]) -> None:
        for violation in found:
            self.violations.append(violation)
            self.counts[violation.monitor] = (
                self.counts.get(violation.monitor, 0) + 1
            )
            if self._paranoid:
                raise InvariantViolationError(str(violation))

    # -- engine hooks --------------------------------------------------
    def start(self, engine) -> None:
        for monitor in self._monitors:
            self._report(monitor.start(engine))

    def after_event(self, engine, event: Event) -> None:
        for monitor in self._monitors:
            self._report(monitor.after_event(engine, event))

    def after_run(self, engine, result) -> None:
        for monitor in self._monitors:
            self._report(monitor.after_run(engine, result))

    def summary(self) -> Dict[str, int]:
        """Violation counts by monitor (empty dict == clean run)."""
        return dict(self.counts)
