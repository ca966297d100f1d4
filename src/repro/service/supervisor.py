"""Supervision: restart ladder, circuit breaker, per-tenant workers.

The :class:`ScheduleService` owns one :class:`~repro.service.shard.TenantShard`
per tenant, each driven by its own asyncio worker task consuming a
per-tenant FIFO queue — tenants are isolated failure domains that crash,
recover and backpressure independently.

The restart ladder (docs/ROBUSTNESS.md §10): a
:class:`~repro.errors.SimulatedCrash` (or any unhandled kernel
exception) triggers ``shard.recover`` — restore the last periodic
snapshot, re-apply the op log while the journal verifies the re-run —
then the failed message is retried after a capped exponential backoff
(``base · factor^k``, clamped to ``cap``).  A
:class:`~repro.kernel.recovery.CrashLoopDetector` cuts livelocks short
(two consecutive crashes at the same position), and once a single
message exhausts ``max_restarts`` — or recovery itself fails — the
tenant's **circuit breaker** trips: the shard stops restarting, pending
and future submissions are shed with reason ``circuit_open``, and other
tenants keep running.

Durability (docs/ROBUSTNESS.md §12): give the service a ``store_dir``
and every shard writes through a :class:`~repro.store.tenant.TenantStore`
under ``<store_dir>/<tenant>/``.  :meth:`ScheduleService.cold_start`
rebuilds a whole service from such a directory after a ``SIGKILL``, and
:meth:`ScheduleService.drain` is the graceful half: refuse new work
(``draining`` acks), flush every tenant's snapshot + op log, and
leave a store a cold start recovers from with zero accepted-job loss.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro import obs as _obs
from repro.errors import (
    CircuitOpenError,
    DrainingError,
    MessageError,
    RecoveryError,
    ServiceError,
    SimulatedCrash,
)
from repro.kernel.recovery import CrashLoopDetector
from repro.service.messages import (
    Close,
    HealthQuery,
    InjectFault,
    Message,
    MetricsQuery,
    Stat,
    Submit,
)
from repro.service.shard import (
    TenantReport,
    TenantShard,
    TenantSpec,
    tenant_spec_from_dict,
)
from repro.store.tenant import SPEC_FILE, TenantStore

__all__ = ["RestartPolicy", "TenantSupervisor", "ScheduleService"]


@dataclass(frozen=True)
class RestartPolicy:
    """Capped exponential restart backoff + circuit-breaker threshold."""

    backoff_base: float = 0.01  #: delay before restart 1 (seconds)
    backoff_factor: float = 2.0  #: growth per consecutive restart
    backoff_cap: float = 0.5  #: hard ceiling on any single delay
    max_restarts: int = 8  #: per-message budget before the breaker trips

    def delay(self, attempt: int) -> float:
        """Backoff before restart ``attempt`` (1-based), capped."""
        return min(
            self.backoff_base * (self.backoff_factor ** (attempt - 1)),
            self.backoff_cap,
        )


class TenantSupervisor:
    """One tenant's restartable unit: shard + ladder + breaker state."""

    def __init__(
        self, shard: TenantShard, policy: Optional[RestartPolicy] = None
    ) -> None:
        self.shard = shard
        self.policy = policy or RestartPolicy()
        self.restarts = 0
        self.backoffs: List[float] = []
        self.breaker_open = False
        self.breaker_reason: Optional[str] = None
        #: True while a crash is mid-ladder (between the catch and the
        #: successful retry) — the telemetry plane reports the tenant as
        #: ``restarting`` instead of letting it vanish from a scrape.
        self.restarting = False
        self._detector = CrashLoopDetector()

    @property
    def tenant(self) -> str:
        return self.shard.tenant

    def health_state(self) -> str:
        """The tenant's health ladder state (one of
        :data:`repro.obs.telemetry.HEALTH_STATES`)."""
        if self.breaker_open:
            return "circuit_open"
        if self.restarting:
            return "restarting"
        if self.restarts > 0 or self.shard.shed_count > 0:
            return "degraded"
        return "ok"

    def _trip_breaker(
        self, reason: str, message: Message
    ) -> Optional[TenantReport]:
        """Open the breaker; a ``Close`` still gets the tenant report."""
        self.restarting = False
        self.breaker_open = True
        self.breaker_reason = reason
        self.shard.shed_all_pending("circuit_open")
        octx = _obs.current()
        if octx is not None:
            octx.metrics.counter("service.breaker_tripped").inc()
            octx.emit(
                "service.breaker",
                self.shard.kernel.now,
                {"tenant": self.tenant, "reason": reason},
                replay=False,
            )
        return self.shard.report() if isinstance(message, Close) else None

    async def handle(
        self, message: Message
    ) -> "TenantReport | Dict[str, Any] | None":
        """Process one message through the restart ladder.

        Returns the tenant report for ``Close`` messages, the shard's
        extra ack fields (stats, duplicate notices) for messages that
        produce them, else ``None``.  Raises
        :class:`~repro.errors.MessageError` for rejected messages (the
        ingress counts them); everything fatal trips the breaker instead
        of propagating."""
        if self.breaker_open:
            if isinstance(message, Stat):
                return self.shard.stats()
            if isinstance(message, Submit):
                # Degraded shard: deterministic shed, service keeps going.
                return self.shard.shed_one(
                    message.job, "circuit_open", rid=message.rid
                )
            if isinstance(message, Close):
                return self.shard.report()
            raise CircuitOpenError(
                f"tenant {self.tenant!r} breaker is open "
                f"({self.breaker_reason}); message dropped"
            )

        attempts = 0
        while True:
            try:
                result = self.shard.handle(message)
                self.restarting = False
                return result
            except MessageError:
                raise  # a bad message is the sender's problem, not a crash
            except SimulatedCrash as crash:
                forced = crash.fault_index == -1 and crash.at_event is None
                self.restarting = True
                attempts += 1
                if attempts > self.policy.max_restarts:
                    return self._trip_breaker(
                        f"restart budget exhausted ({self.policy.max_restarts})",
                        message,
                    )
                try:
                    if not forced:
                        # Forced (ingress-injected) crashes are operator
                        # actions, not livelocks — two of them may land at
                        # the same position legitimately.
                        self._detector.observe(crash)
                    self.shard.recover(crash)
                except RecoveryError as exc:
                    return self._trip_breaker(str(exc), message)
                self.restarts += 1
                delay = self.policy.delay(attempts)
                self.backoffs.append(delay)
                self._count_restart(delay)
                if delay > 0.0:
                    await asyncio.sleep(delay)
                if forced:
                    # The ingress-forced crash *was* the message's effect;
                    # retrying it would crash forever.
                    self.restarting = False
                    return None
                # Deterministic retry: recovery left the message unapplied.
            except (RecoveryError, ServiceError) as exc:
                return self._trip_breaker(str(exc), message)

    def _count_restart(self, delay: float) -> None:
        octx = _obs.current()
        if octx is not None:
            octx.metrics.counter("service.restarts").inc()
            octx.metrics.histogram("service.restart_backoff_s").observe(delay)

    def final_report(self) -> TenantReport:
        shard = self.shard
        report = shard.report() if self.breaker_open else shard.close()
        report.restarts = self.restarts
        report.backoffs = tuple(self.backoffs)
        return report


class ScheduleService:
    """The always-on front: per-tenant queues, workers and supervisors."""

    def __init__(
        self,
        specs: "list[TenantSpec] | tuple[TenantSpec, ...]",
        *,
        policy: Optional[RestartPolicy] = None,
        queue_size: int = 1024,
        store_dir: "str | Path | None" = None,
        resume: bool = False,
        store_fsync: bool = True,
    ) -> None:
        if not specs:
            raise ServiceError("a service needs at least one tenant spec")
        names = [spec.tenant for spec in specs]
        if len(set(names)) != len(names):
            raise ServiceError(f"duplicate tenant names in {names}")
        self._specs = tuple(specs)
        self._policy = policy or RestartPolicy()
        self._queue_size = int(queue_size)
        self._store_dir = None if store_dir is None else Path(store_dir)
        self._resume = bool(resume)
        self._store_fsync = bool(store_fsync)
        self._supervisors: Dict[str, TenantSupervisor] = {}
        self._queues: Dict[str, asyncio.Queue] = {}
        self._workers: List[asyncio.Task] = []
        self._started = False
        self._draining = False

    @classmethod
    def cold_start(
        cls,
        store_dir: "str | Path",
        *,
        policy: Optional[RestartPolicy] = None,
        queue_size: int = 1024,
        store_fsync: bool = True,
    ) -> "ScheduleService":
        """A service rebuilt purely from a store directory: every tenant
        subdirectory with a valid spec is resumed from its snapshot +
        op log.  ``await start()`` performs the actual recovery."""
        root = Path(store_dir)
        specs: List[TenantSpec] = []
        if root.is_dir():
            for sub in sorted(p for p in root.iterdir() if p.is_dir()):
                if not (sub / SPEC_FILE).exists():
                    continue
                store = TenantStore(sub, fsync=store_fsync)
                try:
                    doc = store.load_spec()
                finally:
                    store.close()
                if doc is not None:
                    specs.append(tenant_spec_from_dict(doc))
        if not specs:
            raise ServiceError(
                f"no recoverable tenant state under {str(root)!r}"
            )
        return cls(
            specs,
            policy=policy,
            queue_size=queue_size,
            store_dir=root,
            resume=True,
            store_fsync=store_fsync,
        )

    # ------------------------------------------------------------------
    @property
    def tenants(self) -> Tuple[str, ...]:
        return tuple(spec.tenant for spec in self._specs)

    @property
    def draining(self) -> bool:
        return self._draining

    def supervisor(self, tenant: str) -> TenantSupervisor:
        return self._supervisors[tenant]

    async def start(self) -> None:
        """Build every shard and launch its worker task."""
        if self._started:
            return
        for spec in self._specs:
            store = None
            if self._store_dir is not None:
                store = TenantStore(
                    self._store_dir / spec.tenant, fsync=self._store_fsync
                )
            shard = TenantShard(spec, store=store, resume=self._resume)
            self._supervisors[spec.tenant] = TenantSupervisor(
                shard, self._policy
            )
            queue: asyncio.Queue = asyncio.Queue(maxsize=self._queue_size)
            self._queues[spec.tenant] = queue
            self._workers.append(
                asyncio.create_task(
                    self._worker(spec.tenant, queue),
                    name=f"shard-{spec.tenant}",
                )
            )
        self._started = True

    async def _worker(self, tenant: str, queue: asyncio.Queue) -> None:
        supervisor = self._supervisors[tenant]
        while True:
            item = await queue.get()
            if item is None:
                queue.task_done()
                return
            try:
                await self._serve(supervisor, *item)
            finally:
                # The worker idles in queue.get() holding its locals: a
                # closed tenant's report (its whole decoded history) must
                # not outlive the ack.
                item = None
                queue.task_done()

    @staticmethod
    async def _serve(
        supervisor: TenantSupervisor, message: Message, future: asyncio.Future
    ) -> None:
        try:
            result = await supervisor.handle(message)
            if not future.done():
                future.set_result(result)
        except Exception as exc:  # noqa: BLE001 - routed to the sender
            if not future.done():
                future.set_exception(exc)

    async def dispatch(self, message: Message):
        """Route one message to its tenant's worker and await the outcome.

        Raises :class:`~repro.errors.MessageError` for unknown tenants or
        rejected messages — the ingress converts those into error acks."""
        if not self._started:
            raise ServiceError("service not started")
        if isinstance(message, (MetricsQuery, HealthQuery)):
            # Telemetry reads bypass the per-tenant queues entirely: a
            # scrape must answer synchronously even while the tenant is
            # mid restart ladder (its worker blocked in a backoff sleep)
            # or the service is draining.
            target = None if message.tenant == "*" else message.tenant
            if target is not None and target not in self._supervisors:
                raise MessageError(f"unknown tenant {message.tenant!r}")
            if isinstance(message, MetricsQuery):
                fleet = self.scrape(target)
                if target is None:
                    return {"tenants": fleet}
                return dict(fleet[target], tenant=target)
            states = self.health(target)
            if target is None:
                return {"health": states}
            return {"tenant": target, "health": states[target]}
        if self._draining and isinstance(message, (Submit, InjectFault)):
            raise DrainingError(
                f"service is draining; resubmit to the restarted service "
                f"(tenant {message.tenant!r})"
            )
        queue = self._queues.get(message.tenant)
        if queue is None:
            raise MessageError(f"unknown tenant {message.tenant!r}")
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        await queue.put((message, future))
        return await future

    def scrape(
        self, tenant: Optional[str] = None
    ) -> Dict[str, Dict[str, Any]]:
        """One fleet telemetry scrape: tenant → ``{"health", "restarts",
        "stats", "slo"}`` (the tenant metrics snapshot rides in
        ``stats["metrics"]``, the kernel-derived facts in
        ``slo["live"]``).  Never raises per tenant — a shard that cannot
        answer mid-recovery reports an ``error`` field and its health
        state instead of breaking the whole scrape."""
        out: Dict[str, Dict[str, Any]] = {}
        for name, supervisor in self._supervisors.items():
            if tenant is not None and name != tenant:
                continue
            entry: Dict[str, Any] = {
                "health": supervisor.health_state(),
                "restarts": supervisor.restarts,
            }
            try:
                entry["stats"] = supervisor.shard.stats()
                entry["slo"] = supervisor.shard.slo_view()
            except Exception as exc:  # noqa: BLE001 - scrape must survive
                entry["error"] = str(exc)
            out[name] = entry
        return out

    def health(self, tenant: Optional[str] = None) -> Dict[str, str]:
        """Tenant → health state (the cheap half of :meth:`scrape`)."""
        return {
            name: supervisor.health_state()
            for name, supervisor in self._supervisors.items()
            if tenant is None or name == tenant
        }

    async def drain(self) -> Dict[str, Dict[str, Any]]:
        """Graceful SIGTERM path: refuse new submits/faults, finish the
        queued backlog, then flush every tenant's snapshot + op log to
        its store.  Returns per-tenant stats recorded *after* the
        flush — the zero-loss baseline a cold start must reproduce."""
        if not self._started:
            raise ServiceError("service not started")
        self._draining = True
        self._count_drain()
        for queue in self._queues.values():
            await queue.join()
        stats: Dict[str, Dict[str, Any]] = {}
        for tenant, supervisor in self._supervisors.items():
            supervisor.shard.persist_now()
            stats[tenant] = supervisor.shard.stats()
        return stats

    @staticmethod
    def _count_drain() -> None:
        octx = _obs.current()
        if octx is not None:
            octx.metrics.counter("service.drains").inc()

    async def close(self) -> Dict[str, TenantReport]:
        """Close every tenant (if not already closed) and stop workers.

        Reports are built here, from the closed shards: a report decodes
        its tenant's history, so none is kept between a Close and this."""
        for tenant in self.tenants:
            supervisor = self._supervisors[tenant]
            if not supervisor.shard.closed:
                try:
                    await self.dispatch(Close(tenant=tenant))
                except (MessageError, CircuitOpenError):
                    pass
        for tenant, queue in self._queues.items():
            await queue.put(None)
        await asyncio.gather(*self._workers, return_exceptions=True)
        return {
            tenant: self._supervisors[tenant].final_report()
            for tenant in self.tenants
        }
