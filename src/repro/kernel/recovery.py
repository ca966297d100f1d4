"""Generic crash→restore→resume loop behind ``simulate(..., recover=True)``.

The resilience contract (docs/ROBUSTNESS.md §7) is the same on any
number of processors: a :class:`SimulatedCrash` raised mid-run carries
the last *periodic* snapshot; recovery rebuilds a fresh engine, restores
that snapshot (which re-verifies the write-ahead journal tail), and
re-enters the event loop.  :func:`repro.sim.engine.simulate` drives it
for every run, and Monte-Carlo replications run through it as their one
crash-resume loop.

Livelock detection (docs/ROBUSTNESS.md §10): a crash that recurs at the
*same position with no dispatch progress* will recur forever — the
restore is deterministic, so replaying the identical prefix reaches the
identical crash.  :class:`CrashLoopDetector` recognises that signature
after the *second* identical crash and raises
:class:`~repro.errors.RecoveryError` immediately with the stuck
position, instead of burning the remaining ``max_recoveries`` budget on
recoveries that cannot succeed.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

from repro.errors import RecoveryError, SimulatedCrash

__all__ = ["CrashLoopDetector", "run_with_recovery"]


class CrashLoopDetector:
    """Detects a recovery livelock: consecutive crashes at one position.

    A crash's *position* is ``(time, at_event, fault_index,
    snapshot.dispatch_count)``: where the run died and how far the
    recovery anchor had advanced.  If two consecutive crashes share a
    position, the restore→replay cycle made no progress — the third,
    fourth, … attempts are guaranteed to die at the same spot (the
    engine is deterministic), so :meth:`observe` raises
    :class:`~repro.errors.RecoveryError` naming the stuck position.  Any
    crash at a new position (later time, later event index, or a fresher
    snapshot) resets the detector.
    """

    __slots__ = ("_last",)

    def __init__(self) -> None:
        self._last: Optional[Tuple[object, ...]] = None

    def reset(self) -> None:
        self._last = None

    def observe(self, crash: SimulatedCrash) -> None:
        """Record one crash; raise on the second consecutive identical one."""
        snapshot = crash.snapshot
        position = (
            crash.time,
            crash.at_event,
            crash.fault_index,
            None if snapshot is None else snapshot.dispatch_count,
        )
        if position == self._last:
            raise RecoveryError(
                "recovery livelock: two consecutive crashes at "
                f"t={crash.time:g} (at_event={crash.at_event}, "
                f"fault_index={crash.fault_index}) with the recovery "
                "anchor stuck at dispatch "
                f"#{position[3]}; further recoveries cannot make progress"
            ) from crash
        self._last = position


def run_with_recovery(
    build: Callable[[], "object"],
    *,
    recover: bool = False,
    max_recoveries: int = 8,
):
    """Run ``build()``'s engine to completion, restarting after crashes.

    ``build`` must return a fresh, un-started engine exposing ``run()``
    and ``restore(snapshot)``.  When ``recover`` is false a
    :class:`SimulatedCrash` propagates to the caller unchanged (the
    caller owns the snapshot).  When true, each crash rebuilds the
    engine via ``build()`` and restores the snapshot the crash carried;
    after ``max_recoveries`` unsuccessful rounds a
    :class:`~repro.errors.RecoveryError` is raised so a crash loop
    cannot spin forever — and a *livelocked* loop (two consecutive
    crashes at the same position without progress) is cut short
    immediately by :class:`CrashLoopDetector` without waiting for the
    budget to drain.

    Returns ``(result, recoveries)`` — the completed run's result object
    and the number of crash→restore cycles it took to get there.
    """
    if max_recoveries < 0:
        raise ValueError(f"max_recoveries must be >= 0, got {max_recoveries}")

    engine = build()
    recoveries = 0
    detector = CrashLoopDetector()
    while True:
        try:
            result = engine.run()
            return result, recoveries
        except SimulatedCrash as crash:
            if not recover:
                raise
            snapshot = crash.snapshot
            if snapshot is None:
                raise RecoveryError(
                    "engine crashed before the first snapshot; nothing to "
                    "restore from (snapshot_every too large?)"
                ) from crash
            detector.observe(crash)
            recoveries += 1
            if recoveries > max_recoveries:
                raise RecoveryError(
                    f"engine crashed {recoveries} times; giving up after "
                    f"max_recoveries={max_recoveries}"
                ) from crash
            engine = build()
            engine.restore(snapshot)
