"""Execution-layer fault injection: kills, revocations, scheduled crashes.

PR 2's sensing faults (:mod:`repro.faults.models`) corrupt what schedulers
*observe*; the models here corrupt what actually *happens*.  Secondary jobs
live on residual capacity — the spot/preemptible regime where machines
disappear under you — so the executed world must be allowed to misbehave:

* :class:`JobKillFault` — the running secondary job is aborted mid-run at
  Poisson instants; a configurable fraction of its progress survives the
  kill (``retain=0`` restarts from scratch, ``retain=1`` is a pure
  preemption).
* :class:`RevocationBurst` — primary-preemption/VM-revocation spikes: for
  the duration of each (renewal-sampled or explicitly given) revocation
  window the residual capacity is forced down to the guaranteed floor
  ``c̲`` and the running job is evicted at the window start.  Windows can
  be derived from :class:`~repro.cloud.spotmarket.SpotPriceProcess` price
  spikes via :meth:`RevocationBurst.from_price_spikes` (a price above the
  threshold = the primary outbids the secondary).
* :class:`EngineCrashPlan` — a deterministic, scheduled crash of the
  simulation *process* itself at a given time or event index, raising
  :class:`~repro.errors.SimulatedCrash` with the engine's last periodic
  snapshot attached; the recovery machinery (snapshot + write-ahead
  journal, :mod:`repro.sim.journal`) then resumes the run bit-identically.

All models are plain picklable objects, seeded explicitly like the sensing
faults, and are *armed* on an engine before the run starts: arming pushes
``FAULT`` events (and, for event-indexed crashes, registers a pre-dispatch
check).  :class:`ExecutionFaultSpec` is the picklable recipe the
Monte-Carlo harness ships to workers, mirroring
:class:`~repro.faults.spec.FaultSpec`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.capacity.base import CapacityFunction
from repro.capacity.piecewise import PiecewiseConstantCapacity
from repro.errors import FaultConfigError

__all__ = [
    "ExecutionFault",
    "JobKillFault",
    "RecordedFaultLog",
    "RevocationBurst",
    "EngineCrashPlan",
    "ExecutionFaultSpec",
    "EXECUTION_FAULT_KINDS",
    "apply_fault_transforms",
]

#: The supported execution-fault families, in presentation order.
EXECUTION_FAULT_KINDS = ("kill", "revocation", "crash")


class ExecutionFault:
    """Base class: a picklable, seeded event-level fault model.

    Lifecycle: construct (pure data) → optionally :meth:`transform` the
    instance's capacity (revocations reshape the physics) → :meth:`arm` on
    the engine right before the run (pushes FAULT events).  A restored
    engine calls :meth:`rearm` instead — queued FAULT events travel inside
    the snapshot, so ``rearm`` must only re-register out-of-band hooks.

    Per-processor targeting: faults carry a ``proc`` attribute (default 0,
    the whole world on a single-processor engine).  On a multiprocessor
    engine a fault strikes only its target machine — the modelled reality
    of a heterogeneous fleet, where one VM is revoked while its siblings
    keep running.  Use :func:`apply_fault_transforms` to apply physics
    transforms to the right trajectory of a capacity list.
    """

    #: target processor (0 on single-processor engines)
    proc: int = 0

    def transform(
        self, capacity: CapacityFunction, horizon: float
    ) -> CapacityFunction:
        """Reshape the *physics* of the run (default: identity)."""
        return capacity

    def arm(self, engine, index: int) -> None:
        """Queue this fault's events on a fresh engine.  ``index`` is the
        fault's position in the engine's fault list (used in payloads)."""
        raise NotImplementedError

    def rearm(self, engine, index: int) -> None:
        """Re-register out-of-band hooks on a snapshot-restored engine.
        Default: nothing (event-queue faults travel in the snapshot)."""

    def _check_proc(self, engine) -> None:
        """Refuse to arm on an engine with fewer processors than targeted."""
        n = engine.n_procs
        if not 0 <= self.proc < n:
            raise FaultConfigError(
                f"{type(self).__name__} targets processor {self.proc}, "
                f"engine has {n}"
            )


def apply_fault_transforms(
    capacities: Sequence[CapacityFunction],
    faults: Sequence[ExecutionFault],
    horizon: float,
) -> List[CapacityFunction]:
    """Apply each fault's physics transform to its *target* processor.

    The single-processor call sites apply ``fault.transform`` to the one
    capacity directly; this is the multiprocessor equivalent — fault ``f``
    reshapes ``capacities[f.proc]`` only, the rest pass through untouched.
    """
    out = list(capacities)
    for fault in faults:
        proc = int(getattr(fault, "proc", 0))
        if not 0 <= proc < len(out):
            raise FaultConfigError(
                f"{type(fault).__name__} targets processor {proc}, "
                f"cluster has {len(out)}"
            )
        out[proc] = fault.transform(out[proc], horizon)
    return out


class JobKillFault(ExecutionFault):
    """Abort the running job at Poisson instants, destroying progress.

    Parameters
    ----------
    rate:
        Poisson rate of kill attempts per unit time (an attempt that lands
        on an idle processor is a miss).
    retain:
        Fraction of the victim's already-performed progress that survives
        the kill, in [0, 1].  ``0`` (default) models a full restart —
        workload progress lost; ``1`` models a pure eviction.
    seed:
        Seed of the kill-time sampler (kill times are drawn once, at arm
        time, so a run's kill schedule is deterministic data).
    proc:
        Target processor (default 0).  On a multiprocessor engine the
        kills strike only this machine's running job.
    """

    def __init__(
        self,
        rate: float,
        *,
        retain: float = 0.0,
        seed: int = 0,
        proc: int = 0,
    ) -> None:
        if not rate >= 0.0:
            raise FaultConfigError(f"kill rate must be >= 0, got {rate!r}")
        if not 0.0 <= retain <= 1.0:
            raise FaultConfigError(f"retain must be in [0, 1], got {retain!r}")
        if proc < 0:
            raise FaultConfigError(f"proc must be >= 0, got {proc!r}")
        self.rate = float(rate)
        self.retain = float(retain)
        self.seed = int(seed)
        self.proc = int(proc)

    def kill_times(self, horizon: float) -> List[float]:
        """The deterministic kill schedule over ``[0, horizon]``."""
        if self.rate == 0.0 or horizon <= 0.0:
            return []
        rng = np.random.default_rng(self.seed)
        times: List[float] = []
        t = 0.0
        while True:
            t += float(rng.exponential(1.0 / self.rate))
            if t >= horizon:
                return times
            times.append(t)

    def arm(self, engine, index: int) -> None:
        self._check_proc(engine)
        # proc 0 keeps the historical 3-tuple payload so single-processor
        # journals (and their keys) stay bit-identical across versions.
        suffix = () if self.proc == 0 else (self.proc,)
        for t in self.kill_times(engine.horizon):
            engine.push_fault_event(t, ("kill", index, self.retain) + suffix)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        where = f", proc={self.proc}" if self.proc else ""
        return (
            f"JobKillFault(rate={self.rate:g}, retain={self.retain:g}, "
            f"seed={self.seed}{where})"
        )


class RevocationBurst(ExecutionFault):
    """VM-revocation spikes: capacity pinned to ``c̲``, running job evicted.

    During each revocation window the primary workload claims everything
    above the guaranteed floor: :meth:`transform` rewrites the capacity
    trajectory to ``c̲`` inside the windows (physics — both channels), and
    :meth:`arm` queues an eviction at each window start.

    Parameters
    ----------
    rate:
        Rate of revocation onsets per unit time (alternating renewal: up
        durations ~ Exp(mean ``1/rate``), down durations ~ Exp(mean
        ``mean_down``)).  Ignored when explicit ``windows`` are given.
    mean_down:
        Mean revocation window length.
    seed:
        Seed of the renewal sampler.
    windows:
        Explicit ``(start, end)`` revocation windows, overriding sampling —
        e.g. from :meth:`from_price_spikes`.
    proc:
        Target processor (default 0).  On a multiprocessor engine only
        this machine's capacity is pinned to its floor and only its
        running job is evicted — one VM of the fleet is revoked, the
        siblings keep running.
    """

    def __init__(
        self,
        rate: float = 0.0,
        *,
        mean_down: float = 1.0,
        seed: int = 0,
        windows: "Sequence[Tuple[float, float]] | None" = None,
        proc: int = 0,
    ) -> None:
        if not rate >= 0.0:
            raise FaultConfigError(f"revocation rate must be >= 0, got {rate!r}")
        if not mean_down > 0.0:
            raise FaultConfigError(f"mean_down must be > 0, got {mean_down!r}")
        if proc < 0:
            raise FaultConfigError(f"proc must be >= 0, got {proc!r}")
        self.rate = float(rate)
        self.mean_down = float(mean_down)
        self.seed = int(seed)
        self.proc = int(proc)
        self._explicit_windows = None
        if windows is not None:
            cleaned = []
            for start, end in windows:
                start, end = float(start), float(end)
                if not (math.isfinite(start) and math.isfinite(end)) or end <= start:
                    raise FaultConfigError(
                        f"bad revocation window ({start!r}, {end!r})"
                    )
                cleaned.append((start, end))
            cleaned.sort()
            for (s0, e0), (s1, e1) in zip(cleaned, cleaned[1:]):
                if s1 < e0:
                    raise FaultConfigError(
                        f"revocation windows overlap: ({s0}, {e0}) and "
                        f"({s1}, {e1})"
                    )
            self._explicit_windows = tuple(cleaned)

    @classmethod
    def from_price_spikes(
        cls,
        times: "np.ndarray | Sequence[float]",
        prices: "np.ndarray | Sequence[float]",
        threshold: float,
    ) -> "RevocationBurst":
        """Windows = maximal grid intervals where the spot price exceeds
        ``threshold`` (the primary outbids the secondary — exactly the
        :class:`~repro.cloud.spotmarket.SpotPriceProcess` output format)."""
        times = np.asarray(times, dtype=float)
        prices = np.asarray(prices, dtype=float)
        if times.shape != prices.shape or times.ndim != 1:
            raise FaultConfigError(
                "times and prices must be 1-D arrays of equal length"
            )
        windows: List[Tuple[float, float]] = []
        open_start: Optional[float] = None
        for i, price in enumerate(prices):
            above = price > threshold
            if above and open_start is None:
                open_start = float(times[i])
            elif not above and open_start is not None:
                windows.append((open_start, float(times[i])))
                open_start = None
        if open_start is not None:
            # Spike still open at the end of the grid: one grid step wide.
            step = float(times[1] - times[0]) if len(times) > 1 else 1.0
            windows.append((open_start, float(times[-1]) + step))
        return cls(windows=windows)

    def windows(self, horizon: float) -> Tuple[Tuple[float, float], ...]:
        """The (clipped) revocation windows over ``[0, horizon]``."""
        if self._explicit_windows is not None:
            return tuple(
                (s, min(e, horizon))
                for s, e in self._explicit_windows
                if s < horizon
            )
        if self.rate == 0.0 or horizon <= 0.0:
            return ()
        rng = np.random.default_rng(self.seed)
        out: List[Tuple[float, float]] = []
        t = 0.0
        while True:
            t += float(rng.exponential(1.0 / self.rate))  # up period
            if t >= horizon:
                return tuple(out)
            down = float(rng.exponential(self.mean_down))
            out.append((t, min(t + down, horizon)))
            t += down
            if t >= horizon:
                return tuple(out)

    def transform(
        self, capacity: CapacityFunction, horizon: float
    ) -> CapacityFunction:
        """Pin the trajectory to ``c̲`` inside each revocation window.

        Materialises the (possibly stochastic) trajectory over
        ``[0, horizon]`` and returns an equivalent
        :class:`~repro.capacity.piecewise.PiecewiseConstantCapacity` with
        the windows overlaid — same declared band, so scheduler contracts
        are unchanged.
        """
        windows = self.windows(horizon)
        if not windows:
            return capacity
        floor = capacity.lower
        # Cut points: capacity pieces × window edges.
        cuts = {0.0, float(horizon)}
        for start, end, _rate in capacity.pieces(0.0, horizon):
            cuts.add(float(start))
            cuts.add(float(end))
        for s, e in windows:
            cuts.add(float(s))
            cuts.add(float(e))
        grid = sorted(c for c in cuts if 0.0 <= c <= horizon)

        def revoked(t: float) -> bool:
            return any(s <= t < e for s, e in windows)

        breakpoints: List[float] = []
        rates: List[float] = []
        for left, right in zip(grid, grid[1:]):
            if right <= left:
                continue
            mid = 0.5 * (left + right)
            rate = floor if revoked(mid) else capacity.value(mid)
            if breakpoints and rates[-1] == rate:
                continue  # merge equal-rate neighbours
            breakpoints.append(left)
            rates.append(rate)
        if not breakpoints:  # pragma: no cover - defensive
            return capacity
        if breakpoints[0] != 0.0:
            breakpoints.insert(0, 0.0)
            rates.insert(0, rates[0])
        return PiecewiseConstantCapacity(
            breakpoints, rates, lower=capacity.lower, upper=capacity.upper
        )

    def arm(self, engine, index: int) -> None:
        self._check_proc(engine)
        # proc 0 keeps the historical 2-tuple payload so single-processor
        # journals (and their keys) stay bit-identical across versions.
        suffix = () if self.proc == 0 else (self.proc,)
        for start, _end in self.windows(engine.horizon):
            engine.push_fault_event(start, ("evict", index) + suffix)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        where = f", proc={self.proc}" if self.proc else ""
        if self._explicit_windows is not None:
            return f"RevocationBurst(windows={len(self._explicit_windows)}{where})"
        return (
            f"RevocationBurst(rate={self.rate:g}, mean_down={self.mean_down:g}, "
            f"seed={self.seed}{where})"
        )


class RecordedFaultLog(ExecutionFault):
    """Replay a *recorded* sequence of injected fault events verbatim.

    The live service (:mod:`repro.service`) lets operators push kill and
    evict events mid-run through the ingress; those injections are not a
    sampled model, they are observed history.  The shard records each
    push as an exact ``(time, payload)`` pair, and the closed-horizon
    replay arms this log so the re-run sees byte-for-byte the same FAULT
    events — including their journal keys — as the live run did.

    Payloads carrying the sentinel fault index ``-1`` (the service's
    injected kills/evicts) never consult the engine's fault list, so the
    log can sit at any position in the replay engine's ``faults``.
    """

    def __init__(
        self, events: Sequence[Tuple[float, Tuple]]
    ) -> None:
        cleaned: List[Tuple[float, Tuple]] = []
        for time, payload in events:
            time = float(time)
            payload = tuple(payload)
            if not payload or payload[0] not in ("kill", "evict"):
                raise FaultConfigError(
                    f"RecordedFaultLog only replays kill/evict payloads, "
                    f"got {payload!r}"
                )
            cleaned.append((time, payload))
        self.events: Tuple[Tuple[float, Tuple], ...] = tuple(cleaned)

    def arm(self, engine, index: int) -> None:
        for time, payload in self.events:
            engine.push_fault_event(time, payload)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RecordedFaultLog(n={len(self.events)})"


class EngineCrashPlan(ExecutionFault):
    """A deterministic, scheduled crash of the simulation process.

    Exactly one of ``at_time`` / ``at_event`` must be given: the plan
    raises :class:`~repro.errors.SimulatedCrash` when simulation time
    reaches ``at_time`` (as a lowest-priority FAULT event) or just before
    the ``at_event``-th event dispatch.  ``fired`` flips to True at crash
    time and travels with engine snapshots, so a resumed run sails past the
    crash point.
    """

    #: engines use this marker to default-enable periodic snapshotting
    is_crash_plan = True

    def __init__(
        self,
        at_time: float | None = None,
        at_event: int | None = None,
    ) -> None:
        if (at_time is None) == (at_event is None):
            raise FaultConfigError(
                "exactly one of at_time / at_event must be given"
            )
        if at_time is not None and not (math.isfinite(at_time) and at_time >= 0.0):
            raise FaultConfigError(f"bad crash time {at_time!r}")
        if at_event is not None and at_event < 0:
            raise FaultConfigError(f"bad crash event index {at_event!r}")
        self.at_time = None if at_time is None else float(at_time)
        self.at_event = None if at_event is None else int(at_event)
        self.fired = False

    def arm(self, engine, index: int) -> None:
        if self.at_time is not None:
            engine.push_fault_event(self.at_time, ("crash", index))
        else:
            engine.register_event_crash(index, self.at_event)

    def rearm(self, engine, index: int) -> None:
        # Time-based crash events travel inside the snapshot's event heap;
        # only the event-indexed pre-dispatch check lives outside it.
        if self.at_event is not None:
            engine.register_event_crash(index, self.at_event)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        where = (
            f"at_time={self.at_time:g}"
            if self.at_time is not None
            else f"at_event={self.at_event}"
        )
        return f"EngineCrashPlan({where}, fired={self.fired})"


@dataclass(frozen=True)
class ExecutionFaultSpec:
    """A picklable recipe for one execution fault (worker-shippable).

    Severity conventions (``severity = 0`` builds no fault):

    * ``kill`` — Poisson kill rate per unit time; option ``retain`` (default
      0.0) is the surviving-progress fraction;
    * ``revocation`` — revocation-onset rate; option ``mean_down`` (default
      1.0) is the mean window length;
    * ``crash`` — severity ignored; options ``at_time`` *or* ``at_event``
      place the crash.

    Kill and revocation specs accept a ``proc`` option (default 0) to
    target one machine of a multiprocessor engine.
    """

    kind: str
    severity: float = 0.0
    options: Mapping = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in EXECUTION_FAULT_KINDS and self.kind != "none":
            raise FaultConfigError(
                f"unknown execution-fault kind {self.kind!r}; expected one "
                f"of {('none',) + EXECUTION_FAULT_KINDS}"
            )
        if not self.severity >= 0.0:
            raise FaultConfigError(
                f"severity must be >= 0, got {self.severity!r}"
            )
        if self.kind == "crash" and not (
            "at_time" in self.options or "at_event" in self.options
        ):
            raise FaultConfigError(
                "crash spec needs an at_time or at_event option"
            )

    @property
    def label(self) -> str:
        if self.kind == "none" or (self.kind != "crash" and self.severity == 0.0):
            return "no-fault"
        if self.kind == "crash":
            return "crash"
        return f"{self.kind}={self.severity:g}"

    def build(self, seed: int = 0) -> Optional[ExecutionFault]:
        """Materialise the fault (``None`` when the spec is the identity)."""
        if self.kind == "none":
            return None
        if self.kind == "kill":
            if self.severity == 0.0:
                return None
            return JobKillFault(
                self.severity,
                retain=float(self.options.get("retain", 0.0)),
                seed=seed,
                proc=int(self.options.get("proc", 0)),
            )
        if self.kind == "revocation":
            if self.severity == 0.0:
                return None
            return RevocationBurst(
                self.severity,
                mean_down=float(self.options.get("mean_down", 1.0)),
                seed=seed,
                proc=int(self.options.get("proc", 0)),
            )
        if self.kind == "crash":
            return EngineCrashPlan(
                at_time=self.options.get("at_time"),
                at_event=self.options.get("at_event"),
            )
        raise FaultConfigError(  # pragma: no cover - __post_init__ guards
            f"unknown execution-fault kind {self.kind!r}"
        )
