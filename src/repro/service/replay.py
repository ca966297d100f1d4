"""Replay-equivalence verification for service-mode tenants.

The service's core promise: running a tenant *live* — incremental
admissions, ingress-injected faults, crashes, recoveries and shed
decisions — produces exactly what a closed-horizon batch run over the
surviving inputs would have produced.  Concretely, for a closed
:class:`~repro.service.shard.TenantReport` we rebuild the world from the
spec (same seeds → same capacity trajectory, same sensor wrappers, same
start faults), append a
:class:`~repro.faults.execution.RecordedFaultLog` carrying the exact
ingress fault payloads, and re-run the accepted jobs (in admission
order) through :func:`repro.sim.engine.simulate` with a fresh journal.
The check passes iff:

* :func:`~repro.sim.journal.results_bit_identical` on the two
  :class:`~repro.sim.metrics.SimulationResult`\\ s (float ``==``, no
  tolerance);
* the replay journal's ``(count, digest)`` equals the service
  journal's: the same number of dispatches, and the same chained digest
  over them — the same dispatch sequence, event by event, even across
  cold starts that kept no records (re-run both sides under
  ``repro obs diff`` to find where two sequences part);
* shed accounting balances: ``submitted == accepted + shed``, no shed
  jid appears in the outcomes, and no accepted job is lost.

The replay takes no periodic snapshots: it cannot crash (start faults
refuse crash plans, and the recorded log holds only kills and evicts),
and an image every ``snapshot_every`` dispatches of a closed-horizon run
costs O(jobs) each — quadratic over a long tenant.

The :class:`RecordedFaultLog` must be armed **last**: live ingress
pushes happen after the start faults armed their own events, so putting
the log last reproduces the FAULT-event seq order exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.errors import ServiceError
from repro.faults.execution import RecordedFaultLog, apply_fault_transforms
from repro.service.shard import TenantReport
from repro.sim.engine import simulate
from repro.sim.journal import EventJournal, results_bit_identical
from repro.sim.metrics import SimulationResult

__all__ = ["ReplayCheck", "replay_tenant"]


@dataclass(frozen=True)
class ReplayCheck:
    """Outcome of one tenant's replay-equivalence verification."""

    tenant: str
    ok: bool
    results_identical: bool
    journals_identical: bool
    accounting_ok: bool
    live_records: int
    accepted: int
    shed: int
    submitted: int
    lost_jids: Tuple[int, ...]
    replay_result: Optional[SimulationResult]
    failures: Tuple[str, ...]
    #: every record of the replay (``repro obs trace`` reads its
    #: dispatch stage here)
    replay_journal: Optional[EventJournal] = None

    def summary(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        return (
            f"[{status}] tenant={self.tenant} accepted={self.accepted} "
            f"shed={self.shed} records={self.live_records} "
            + ("" if self.ok else "; ".join(self.failures))
        )


def replay_tenant(report: TenantReport) -> ReplayCheck:
    """Re-run one closed tenant's surviving inputs and compare."""
    if report.result is None:
        raise ServiceError(
            f"tenant {report.tenant!r} has no result; replay needs a "
            "closed (or breaker-finalised) tenant"
        )

    failures: List[str] = []
    spec = report.spec

    # Rebuild the world exactly as the shard did at construction.
    capacity = spec.build_capacity()
    faults = spec.build_start_faults()
    if report.injected:
        # Last, so replayed FAULT pushes land after the start faults'
        # arm-time pushes — matching the live seq order.
        faults.append(RecordedFaultLog(report.injected))
    caps = apply_fault_transforms([capacity], faults, spec.horizon)

    replay_journal = EventJournal()
    replay_result = simulate(
        list(report.accepted),
        spec.wrap_sensors(caps[0]),
        spec.build_scheduler(),
        horizon=spec.horizon,
        faults=faults,
        journal=replay_journal,
        event_queue="heap",
    )

    results_identical = results_bit_identical(report.result, replay_result)
    if not results_identical:
        failures.append("results differ bit-wise")

    journals_identical = True
    live_records = -1
    if report.journal is not None:
        live = report.journal
        live_records = len(live)
        journals_identical = (live_records, live.digest) == (
            len(replay_journal),
            replay_journal.digest,
        )
        if not journals_identical:
            failures.append(
                f"journals differ: live {live_records} dispatches, digest "
                f"{live.digest.hex()}; replay {len(replay_journal)}, "
                f"{replay_journal.digest.hex()}"
            )

    # Shed accounting: every submission is accounted for exactly once,
    # no shed job snuck into the outcomes, no accepted job vanished.
    accounting_ok = True
    if report.submitted != len(report.accepted) + len(report.shed):
        accounting_ok = False
        failures.append(
            f"accounting: submitted={report.submitted} != "
            f"accepted={len(report.accepted)} + shed={len(report.shed)}"
        )
    outcomes = report.result.trace.outcomes
    shed_in_outcomes = sorted(
        {r.jid for r in report.shed} & set(outcomes)
        - {job.jid for job in report.accepted}
    )
    if shed_in_outcomes:
        accounting_ok = False
        failures.append(f"shed jobs appear in outcomes: {shed_in_outcomes}")
    lost = report.lost_jids
    if lost:
        accounting_ok = False
        failures.append(f"accepted-then-lost jobs: {sorted(lost)}")

    return ReplayCheck(
        tenant=report.tenant,
        ok=not failures,
        results_identical=results_identical,
        journals_identical=journals_identical,
        accounting_ok=accounting_ok,
        live_records=live_records,
        accepted=len(report.accepted),
        shed=len(report.shed),
        submitted=report.submitted,
        lost_jids=tuple(lost),
        replay_result=replay_result,
        failures=tuple(failures),
        replay_journal=replay_journal,
    )
