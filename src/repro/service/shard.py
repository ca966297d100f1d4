"""Tenant shards: one live, restartable scheduling kernel per tenant.

A :class:`TenantShard` is the synchronous, deterministic heart of the
service — the asyncio layers (:mod:`repro.service.supervisor`,
:mod:`repro.service.ingress`) only route messages to it.  Each shard
wraps a :class:`~repro.sim.engine.SimulationEngine` driven
*incrementally* through the kernel's service-mode API
(``start``/``admit_job``/``run_until``) instead of a closed-horizon
``run()``:

* **submissions** buffer into contention groups (one release instant per
  group); when a group flushes, the kernel first dispatches everything
  strictly before the release, then the
  :class:`~repro.service.admission.AdmissionController` decides the
  group against the live backlog, and survivors are admitted in
  submission order;
* **fault injections** push recorded ``kill``/``evict`` events (exact
  payloads kept for the replay), and ``crash`` raises a genuine
  :class:`~repro.errors.SimulatedCrash` carrying the last periodic
  snapshot — the supervisor's restart ladder takes it from there;
* **recovery** rebuilds a fresh engine with exactly the jobs the
  snapshot knows, restores it (which re-verifies the WAL tail), and
  re-applies the shard's op log — admissions and fault pushes recorded
  with the dispatch count at which they were applied; ops at or past the
  snapshot's dispatch count are exactly the ones the snapshot cannot
  know about.

Replay equivalence is the design invariant: the accepted jobs (in
admission order), the spec-built world, and the recorded fault pushes,
re-run through the closed-horizon engine, must reproduce the service
journal and result bit-identically (:mod:`repro.service.replay`).

With a :class:`~repro.store.tenant.TenantStore` attached the shard is
also *durable*: every admission/shed/push decision is fsynced into the
store's op log **before** the kernel sees it (write-ahead), the kernel
journals every dispatch into the store's WAL, periodic kernel snapshots
are committed as manifest-anchored state images, and
``TenantShard(spec, store=..., resume=True)`` rebuilds the exact live
state from disk after a ``SIGKILL`` — the cold-start half of
:meth:`repro.service.supervisor.ScheduleService.cold_start`.  Client
``request_id`` strings ride along into the op log, so a traffic log
replayed against a cold-started shard acks duplicates instead of
double-admitting.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro import obs as _obs
from repro.obs.metrics import WindowRing
from repro.obs.telemetry import SloTracker, payload_metrics
from repro.capacity.base import CapacityFunction
from repro.capacity.markov import TwoStateMarkovCapacity
from repro.capacity.piecewise import PiecewiseConstantCapacity
from repro.errors import (
    MessageError,
    RecoveryError,
    ServiceError,
    SimulatedCrash,
)
from repro.faults.execution import (
    ExecutionFault,
    ExecutionFaultSpec,
    apply_fault_transforms,
)
from repro.faults.spec import FaultSpec
from repro.service.admission import AdmissionController, ShedRecord
from repro.service.messages import (
    Advance,
    Close,
    InjectFault,
    Message,
    Stat,
    Submit,
)
from repro.sim.engine import SimulationEngine
from repro.sim.job import Job, JobStatus
from repro.sim.journal import EngineSnapshot, EventJournal
from repro.sim.metrics import SimulationResult
from repro.store.tenant import TenantStore

__all__ = [
    "CapacitySpec",
    "TenantSpec",
    "TenantReport",
    "TenantShard",
    "make_scheduler",
    "tenant_spec_to_dict",
    "tenant_spec_from_dict",
    "SCHEDULER_FACTORIES",
]

_EPS = 1e-9


def _scheduler_factories() -> Dict[str, Any]:
    from repro.core import (
        AdmissionEDFScheduler,
        DoverScheduler,
        EDFScheduler,
        FCFSScheduler,
        GreedyDensityScheduler,
        LLFScheduler,
        VDoverScheduler,
    )

    return {
        "vdover": VDoverScheduler,
        "dover": DoverScheduler,
        "edf": EDFScheduler,
        "edf-ac": AdmissionEDFScheduler,
        "llf": LLFScheduler,
        "greedy": GreedyDensityScheduler,
        "fcfs": FCFSScheduler,
    }


#: Name → scheduler class (the CLI's policy names).
SCHEDULER_FACTORIES = _scheduler_factories


def make_scheduler(name: str, **kwargs: Any):
    """Build a fresh scheduler by CLI name (used twice per tenant: live
    shard and closed-horizon replay — both sides must construct
    identically)."""
    factories = _scheduler_factories()
    if name not in factories:
        raise ServiceError(
            f"unknown scheduler {name!r}; expected one of "
            f"{tuple(sorted(factories))}"
        )
    if name in ("vdover", "dover"):
        kwargs.setdefault("k", 7.0)  # the CLI's importance-ratio default
    if name == "dover":
        kwargs.setdefault("c_hat", 1.0)
    return factories[name](**kwargs)


@dataclass(frozen=True)
class CapacitySpec:
    """A rebuildable recipe for a tenant's capacity trajectory.

    The service must be able to construct the *same* stochastic world
    twice — once for the live shard and once for the closed-horizon
    replay — so tenants declare capacity as data, not as an object:

    * ``markov2`` — :class:`~repro.capacity.markov.TwoStateMarkovCapacity`
      with params ``low``, ``high``, ``mean_sojourn`` and the spec's seed;
    * ``constant`` — a flat :class:`PiecewiseConstantCapacity` at
      ``rate`` (optional declared ``lower``/``upper`` band);
    * ``piecewise`` — explicit ``breakpoints``/``rates`` lists.
    """

    kind: str
    params: Mapping[str, Any] = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in ("markov2", "constant", "piecewise"):
            raise ServiceError(
                f"unknown capacity kind {self.kind!r}; expected "
                "markov2 | constant | piecewise"
            )

    def build(self) -> CapacityFunction:
        p = dict(self.params)
        if self.kind == "markov2":
            return TwoStateMarkovCapacity(
                low=float(p.get("low", 1.0)),
                high=float(p.get("high", 35.0)),
                mean_sojourn=float(p.get("mean_sojourn", 1.0)),
                rng=np.random.default_rng(self.seed),
            )
        if self.kind == "constant":
            rate = float(p.get("rate", 1.0))
            return PiecewiseConstantCapacity(
                [0.0],
                [rate],
                lower=p.get("lower"),
                upper=p.get("upper"),
            )
        return PiecewiseConstantCapacity(
            list(p["breakpoints"]),
            list(p["rates"]),
            lower=p.get("lower"),
            upper=p.get("upper"),
        )


@dataclass(frozen=True)
class TenantSpec:
    """Everything needed to build one tenant's world — twice, identically.

    ``sensor_faults`` wrap what the tenant's scheduler observes
    (:class:`~repro.faults.spec.FaultSpec`, seeded ``fault_seed + i``);
    ``start_faults`` are execution faults armed at start
    (:class:`~repro.faults.execution.ExecutionFaultSpec` — kills and
    revocations; ``crash`` plans are refused here, forced crashes arrive
    through the ingress instead).
    """

    tenant: str
    horizon: float
    scheduler: str = "vdover"
    scheduler_kwargs: Mapping[str, Any] = field(default_factory=dict)
    capacity: CapacitySpec = field(
        default_factory=lambda: CapacitySpec("constant", {"rate": 1.0})
    )
    sensor_faults: Tuple[FaultSpec, ...] = ()
    start_faults: Tuple[ExecutionFaultSpec, ...] = ()
    fault_seed: int = 0
    queue_budget: int = 256
    snapshot_every: int = 32

    def __post_init__(self) -> None:
        # The name is the tenant's store directory: one path component.
        name = self.tenant
        if (
            not isinstance(name, str)
            or name in ("", ".", "..")
            or any(c in name for c in "/\\\0")
        ):
            raise ServiceError(
                f"tenant name {name!r} must be one directory name: "
                "non-empty, not '.' or '..', no '/', '\\' or NUL"
            )
        if not self.horizon > 0.0:
            raise ServiceError(f"horizon must be > 0, got {self.horizon!r}")
        for spec in self.start_faults:
            if spec.kind == "crash":
                raise ServiceError(
                    "crash plans cannot be start faults; inject forced "
                    "crashes through the ingress (fault op 'crash')"
                )

    # -- world construction (shared by live shard and replay) ----------
    def build_scheduler(self):
        return make_scheduler(self.scheduler, **dict(self.scheduler_kwargs))

    def build_capacity(self) -> CapacityFunction:
        """Fresh raw physics (execution-fault transforms apply to this;
        sensor wrappers go on top afterwards — see :meth:`wrap_sensors`)."""
        return self.capacity.build()

    def wrap_sensors(self, capacity: CapacityFunction) -> CapacityFunction:
        """Corrupt the sensing channel, deterministic per-fault seeds.

        Applied *after* execution-fault transforms: revocations change
        the physics, the sensors observe the changed physics."""
        for i, fault in enumerate(self.sensor_faults):
            capacity = fault.apply(capacity, seed=self.fault_seed + i)
        return capacity

    def build_start_faults(self) -> List[ExecutionFault]:
        faults: List[ExecutionFault] = []
        for i, spec in enumerate(self.start_faults):
            fault = spec.build(seed=self.fault_seed + 101 * (i + 1))
            if fault is not None:
                faults.append(fault)
        return faults


def _job_to_dict(job: Job) -> Dict[str, Any]:
    return {
        "jid": job.jid,
        "release": job.release,
        "workload": job.workload,
        "deadline": job.deadline,
        "value": job.value,
    }


def tenant_spec_to_dict(spec: TenantSpec) -> Dict[str, Any]:
    """JSON-safe image of a :class:`TenantSpec`.

    Floats survive a JSON round trip exactly (shortest-repr encoding),
    so a spec rebuilt from this document constructs a bit-identical
    world — the property :meth:`TenantStore.ensure_spec` relies on when
    it compares the stored spec against the running one."""
    return {
        "tenant": spec.tenant,
        "horizon": spec.horizon,
        "scheduler": spec.scheduler,
        "scheduler_kwargs": dict(spec.scheduler_kwargs),
        "capacity": {
            "kind": spec.capacity.kind,
            "params": dict(spec.capacity.params),
            "seed": spec.capacity.seed,
        },
        "sensor_faults": [
            {"kind": f.kind, "severity": f.severity, "options": dict(f.options)}
            for f in spec.sensor_faults
        ],
        "start_faults": [
            {"kind": f.kind, "severity": f.severity, "options": dict(f.options)}
            for f in spec.start_faults
        ],
        "fault_seed": spec.fault_seed,
        "queue_budget": spec.queue_budget,
        "snapshot_every": spec.snapshot_every,
    }


def tenant_spec_from_dict(doc: Mapping[str, Any]) -> TenantSpec:
    """Inverse of :func:`tenant_spec_to_dict` (cold-start path)."""
    try:
        cap = doc["capacity"]
        return TenantSpec(
            tenant=str(doc["tenant"]),
            horizon=float(doc["horizon"]),
            scheduler=str(doc.get("scheduler", "vdover")),
            scheduler_kwargs=dict(doc.get("scheduler_kwargs", {})),
            capacity=CapacitySpec(
                kind=str(cap["kind"]),
                params=dict(cap.get("params", {})),
                seed=int(cap.get("seed", 0)),
            ),
            sensor_faults=tuple(
                FaultSpec(
                    kind=str(f["kind"]),
                    severity=float(f.get("severity", 0.0)),
                    options=dict(f.get("options", {})),
                )
                for f in doc.get("sensor_faults", ())
            ),
            start_faults=tuple(
                ExecutionFaultSpec(
                    kind=str(f["kind"]),
                    severity=float(f.get("severity", 0.0)),
                    options=dict(f.get("options", {})),
                )
                for f in doc.get("start_faults", ())
            ),
            fault_seed=int(doc.get("fault_seed", 0)),
            queue_budget=int(doc.get("queue_budget", 256)),
            snapshot_every=int(doc.get("snapshot_every", 32)),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ServiceError(f"invalid tenant spec document: {exc}") from exc


@dataclass
class TenantReport:
    """What one closed tenant hands back (input to the replay check)."""

    tenant: str
    spec: TenantSpec
    result: Optional[SimulationResult]
    accepted: Tuple[Job, ...]
    shed: Tuple[ShedRecord, ...]
    injected: Tuple[Tuple[float, tuple], ...]
    submitted: int
    recoveries: int
    forced_crashes: int
    journal: Optional[EventJournal]
    restarts: int = 0
    backoffs: Tuple[float, ...] = ()

    @property
    def lost_jids(self) -> Tuple[int, ...]:
        """Accepted jobs with no recorded outcome — must be empty for a
        healthy close (the zero-accepted-then-lost criterion)."""
        if self.result is None:
            return tuple(job.jid for job in self.accepted)
        outcomes = self.result.trace.outcomes
        return tuple(
            job.jid for job in self.accepted if job.jid not in outcomes
        )


class TenantShard:
    """One tenant's live kernel plus its admission and op-log state."""

    def __init__(
        self,
        spec: TenantSpec,
        *,
        store: Optional[TenantStore] = None,
        resume: bool = False,
    ) -> None:
        self.spec = spec
        self._store = store
        # The tenant's metrics (docs/OBSERVABILITY.md §live service
        # telemetry): each service decision increments one instrument.
        self.metrics = SloTracker(spec.horizon)
        # request id -> decided jid (admission correlation index; rides
        # the snapshot payload so `repro obs trace` survives op-log
        # compaction and kill -9).
        self._rid_jid: Dict[str, int] = {}
        if store is not None:
            # Round-tripping the stored doc fills in spec fields added
            # after the store was written (at their defaults), so old
            # tenant directories keep resuming across upgrades.
            store.ensure_spec(
                tenant_spec_to_dict(spec),
                normalize=lambda doc: tenant_spec_to_dict(
                    tenant_spec_from_dict(doc)
                ),
            )

        self._built_faults = spec.build_start_faults()
        capacity = spec.build_capacity()
        self._admission = AdmissionController(
            spec.tenant,
            queue_budget=spec.queue_budget,
            c_lower=capacity.lower,
        )

        self._accepted: List[Job] = []
        self._accepted_jids: set = set()
        self._shed: List[ShedRecord] = []
        self._injected: List[Tuple[float, tuple]] = []
        # Op log: (dispatch_count at application, kind, data).  Recovery
        # re-applies every op at or past the restored snapshot's count.
        self._ops: List[Tuple[int, str, Any]] = []
        self._pending: List[Job] = []
        self._submitted = 0
        self._result: Optional[SimulationResult] = None
        self._closed = False
        # Idempotency: decided request ids -> outcome ("accepted" |
        # "shed" | "injected" | "crash"); in-flight ids sit in
        # _pending_rids until the contention group is decided.
        self._dedup: Dict[str, str] = {}
        self._pending_rids: Dict[str, int] = {}
        self._rid_queue: Dict[int, List[str]] = {}
        # Dispatch count of the newest durably persisted snapshot.
        self._persist_anchor = -1

        if resume and store is not None and store.has_state():
            self._resume_from_store()
        else:
            self._journal = self._fresh_journal()
            self._engine = self._build_engine([], capacity)
            self._engine.kernel.start()
        if store is not None:
            # The store's durability points (op-log fsyncs, WAL syncs)
            # feed the fsync histogram — wall clock, never in the replay
            # or parity domain.
            store.sync_observer = self.metrics.histogram(
                "service.fsync_s"
            ).observe

    # ------------------------------------------------------------------
    def _fresh_journal(self) -> EventJournal:
        """The journal of a kernel starting at dispatch 0.  A store's WAL
        starts over: the run it described is regenerated identically."""
        if self._store is None:
            return EventJournal()
        self._store.wal.reset()
        return EventJournal(self._store.wal)

    def _build_engine(
        self,
        jobs: Sequence[Job],
        capacity: Optional[CapacityFunction] = None,
    ) -> SimulationEngine:
        if capacity is None:
            # Recovery path: restore() replaces the capacity object from
            # the snapshot pickle, so a fresh spec-built one is only a
            # structurally-correct placeholder.
            capacity = self.spec.build_capacity()
        caps = apply_fault_transforms(
            [capacity], self._built_faults, self.spec.horizon
        )
        return SimulationEngine(
            jobs,
            self.spec.wrap_sensors(caps[0]),
            self.spec.build_scheduler(),
            horizon=self.spec.horizon,
            faults=self._built_faults,
            journal=self._journal,
            snapshot_every=self.spec.snapshot_every,
            event_queue="heap",
        )

    # -- accessors ------------------------------------------------------
    @property
    def kernel(self):
        return self._engine.kernel

    @property
    def tenant(self) -> str:
        return self.spec.tenant

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def depth(self) -> int:
        """Live backlog: accepted jobs without a recorded outcome."""
        return len(self._accepted) - len(self.kernel.trace.outcomes)

    @property
    def accepted_count(self) -> int:
        return len(self._accepted)

    @property
    def shed_count(self) -> int:
        return len(self._shed)

    # -- decision bookkeeping -------------------------------------------
    def _note_request(
        self,
        rid: "str | None",
        jid: Optional[int],
        outcome: str,
        time: float,
    ) -> None:
        """Record a request id's decision: dedup outcome, rid → jid
        correlation index, and a lifecycle (never replay) trace event."""
        if rid is None:
            return
        self._dedup[rid] = outcome
        if jid is not None:
            self._rid_jid[rid] = int(jid)
        octx = _obs.current()
        if octx is not None:
            data: Dict[str, Any] = {
                "rid": rid,
                "tenant": self.tenant,
                "outcome": outcome,
            }
            if jid is not None:
                data["jid"] = int(jid)
            octx.emit("service.request", float(time), data, replay=False)

    def _journal_shed(self, records: Sequence[ShedRecord]) -> None:
        if not records:
            return
        self._shed.extend(records)
        for record in records:
            self._observe_shed(record)
        octx = _obs.current()
        if octx is not None:
            for record in records:
                octx.emit(
                    "service.shed",
                    record.time,
                    record.to_dict(),
                    replay=False,
                )

    def _observe_shed(self, record: ShedRecord) -> None:
        self.metrics.observe(record.time, "service.shed")
        self.metrics.observe(record.time, "service.shed." + record.reason)

    # ------------------------------------------------------------------
    # Message handling (synchronous, deterministic; may raise
    # SimulatedCrash — the supervisor owns recovery and retry)
    # ------------------------------------------------------------------
    def handle(self, message: Message) -> Optional[Dict[str, Any]]:
        """Dispatch one message; returns extra ack fields (or None).

        ``stat`` works even on a closed shard — it is how the kill -9
        soak audits counters across restart boundaries."""
        if isinstance(message, Stat):
            return self.stats()
        if self._closed:
            raise ServiceError(
                f"tenant {self.tenant!r} is closed; no further messages"
            )
        result: Optional[Dict[str, Any]] = None
        if isinstance(message, Submit):
            result = self.submit(message.job, rid=message.rid)
        elif isinstance(message, InjectFault):
            result = self.inject(
                message.op,
                message.time,
                retain=message.retain,
                rid=message.rid,
            )
        elif isinstance(message, Advance):
            self.advance(message.time)
        elif isinstance(message, Close):
            self.close()
        else:  # pragma: no cover - defensive
            raise MessageError(f"unhandled message {message!r}")
        self.maybe_persist()
        return result

    # -- idempotency ----------------------------------------------------
    def dedup_outcome(self, rid: "str | None") -> Optional[str]:
        """The recorded outcome for a request id, if already decided
        (``"pending"`` while its contention group is still buffered)."""
        if rid is None:
            return None
        if rid in self._dedup:
            return self._dedup[rid]
        if rid in self._pending_rids:
            return "pending"
        return None

    def _duplicate_ack(self, rid: "str | None") -> Optional[Dict[str, Any]]:
        outcome = self.dedup_outcome(rid)
        if outcome is None:
            return None
        self.metrics.counter("service.duplicates").inc()
        return {"duplicate": True, "outcome": outcome}

    def _take_rid(self, jid: int) -> Optional[str]:
        """Consume the oldest pending request id for a jid (decision
        time: the group member is about to be admitted or shed)."""
        queue = self._rid_queue.get(jid)
        if not queue:
            return None
        rid = queue.pop(0)
        if not queue:
            self._rid_queue.pop(jid, None)
        self._pending_rids.pop(rid, None)
        return rid

    def submit(
        self, job: Job, rid: "str | None" = None
    ) -> Optional[Dict[str, Any]]:
        """Buffer one submission into the current contention group.

        Groups are keyed by release instant: a submission at a new
        release flushes the previous group first, so shedding decisions
        always see the whole group that competes for the same slots.
        A redelivered ``rid`` (client retry, or a traffic log replayed
        after a restart) acks its recorded outcome without re-buffering."""
        dup = self._duplicate_ack(rid)
        if dup is not None:
            return dup
        self._submitted += 1
        if self._pending and self._pending[0].release != job.release:
            self._flush_pending()
        self._pending.append(job)
        if rid is not None:
            self._pending_rids[rid] = job.jid
            self._rid_queue.setdefault(job.jid, []).append(rid)
        return None

    def advance(self, time: float) -> None:
        """Flush the open group, then dispatch strictly before ``time``."""
        self._flush_pending()
        self.kernel.run_until(float(time))

    def inject(
        self,
        op: str,
        time: float,
        *,
        retain: float = 0.0,
        rid: "str | None" = None,
    ) -> Optional[Dict[str, Any]]:
        """Inject one execution fault at virtual ``time``.

        ``kill``/``evict`` push a FAULT event with the service's sentinel
        fault index (−1: the kernel's kill/evict handlers never consult
        the fault list) and record the exact payload for the replay.
        ``crash`` advances to ``time`` and dies for real — a
        :class:`~repro.errors.SimulatedCrash` carrying the last periodic
        snapshot propagates to the supervisor.  With a store attached,
        the push record is fsynced before the kernel mutates (and a
        crash leaves a durable mark, so a redelivered crash request is
        acked, not re-crashed)."""
        dup = self._duplicate_ack(rid)
        if dup is not None:
            return dup
        self._flush_pending()
        time = float(time)
        kernel = self.kernel
        if op == "crash":
            kernel.run_until(time)
            self.metrics.observe(time, "service.injected.crash")
            if self._store is not None:
                self._store.append_ops(
                    [{"op": "crash_mark", "time": time, "rid": rid}]
                )
            self._note_request(rid, None, "crash", time)
            raise SimulatedCrash(
                time=kernel.now,
                at_event=None,
                fault_index=-1,
                snapshot=kernel.last_snapshot,
            )
        if time < kernel.now - _EPS:
            raise MessageError(
                f"fault time {time:g} is behind the dispatch frontier "
                f"({kernel.now:g})"
            )
        if not 0.0 <= time <= self.spec.horizon:
            raise MessageError(
                f"fault time {time:g} outside [0, {self.spec.horizon:g}]"
            )
        if op == "kill":
            payload: tuple = ("kill", -1, float(retain))
        elif op == "evict":
            payload = ("evict", -1)
        else:  # pragma: no cover - parse_message guards
            raise MessageError(f"unknown fault op {op!r}")
        dc = kernel.dispatch_count
        if self._store is not None:
            self._store.append_ops(
                [
                    {
                        "op": "push",
                        "dc": dc,
                        "time": time,
                        "payload": list(payload),
                        "rid": rid,
                    }
                ]
            )
        kernel.push_fault_event(time, payload)
        self._injected.append((time, payload))
        self._ops.append((dc, "push", (time, payload)))
        self.metrics.observe(time, "service.injected." + op)
        self._note_request(rid, None, "injected", time)
        return None

    def close(self) -> TenantReport:
        """Finish the tenant: run to the horizon and build the report."""
        self._flush_pending()
        self._result = self._engine.run()
        self._closed = True
        return self.report()

    def report(self) -> TenantReport:
        count = self.metrics.counter_value
        return TenantReport(
            tenant=self.tenant,
            spec=self.spec,
            result=self._result,
            accepted=tuple(self._accepted),
            shed=tuple(self._shed),
            injected=tuple(self._injected),
            submitted=self._submitted,
            recoveries=count("service.recoveries"),
            forced_crashes=count("service.injected.crash"),
            journal=self._journal,
        )

    # ------------------------------------------------------------------
    def _flush_pending(self) -> None:
        """Decide and admit the open contention group.

        With a store attached, the whole group's decisions (admits and
        sheds alike) are fsynced into the op log *before* the kernel
        mutates — SIGKILL between the fsync and the admit loop replays
        the same decisions from disk on cold start."""
        if not self._pending:
            return
        release = self._pending[0].release
        kernel = self.kernel
        # Resolve everything strictly before the group's release so the
        # backlog the admission decision sees is current.  A crash in
        # here leaves the group buffered — the supervisor's retry
        # re-runs the flush idempotently after recovery.
        kernel.run_until(release)
        batch = self._pending
        admit, shed = self._admission.plan(
            batch,
            depth=self.depth,
            frontier=kernel.now,
            horizon=self.spec.horizon,
            known_jids=self._accepted_jids,
        )
        self._pending = []
        admit_rids = [self._take_rid(job.jid) for job in admit]
        shed_rids = [self._take_rid(rec.jid) for rec in shed]
        dc = kernel.dispatch_count
        if self._store is not None:
            docs = [
                {"op": "admit", "dc": dc, "job": _job_to_dict(job), "rid": rid}
                for job, rid in zip(admit, admit_rids)
            ] + [
                {"op": "shed", "rec": rec.to_dict(), "rid": rid}
                for rec, rid in zip(shed, shed_rids)
            ]
            if docs:
                self._store.append_ops(docs)
        self._journal_shed(shed)
        for rec, rid in zip(shed, shed_rids):
            self._note_request(rid, rec.jid, "shed", rec.time)
        for job, rid in zip(admit, admit_rids):
            self._ops.append((dc, "admit", job))
            kernel.admit_job(job)
            self._accepted.append(job)
            self._accepted_jids.add(job.jid)
            self.metrics.observe(job.release, "service.admitted")
            self._note_request(rid, job.jid, "accepted", release)
        self.metrics.gauge("service.depth").set(self.depth)

    def _log_shed_ops(
        self,
        records: Sequence[ShedRecord],
        rids: Sequence[Optional[str]],
    ) -> None:
        if self._store is None or not records:
            return
        self._store.append_ops(
            [
                {"op": "shed", "rec": rec.to_dict(), "rid": rid}
                for rec, rid in zip(records, rids)
            ]
        )

    def shed_all_pending(self, reason: str) -> None:
        """Shed the open group without admitting (degraded shard)."""
        if self._pending:
            batch, self._pending = self._pending, []
            records = self._admission.shed_all(batch, reason, self.kernel.now)
            rids = [self._take_rid(rec.jid) for rec in records]
            self._log_shed_ops(records, rids)
            self._journal_shed(records)
            for rec, rid in zip(records, rids):
                self._note_request(rid, rec.jid, "shed", rec.time)

    def shed_one(
        self, job: Job, reason: str, rid: "str | None" = None
    ) -> Optional[Dict[str, Any]]:
        """Record one out-of-band shed decision (circuit-open path)."""
        dup = self._duplicate_ack(rid)
        if dup is not None:
            return dup
        self._submitted += 1
        records = self._admission.shed_all([job], reason, self.kernel.now)
        self._log_shed_ops(records, [rid])
        self._journal_shed(records)
        for rec in records:
            self._note_request(rid, rec.jid, "shed", rec.time)
        return None

    def stats(self) -> Dict[str, Any]:
        """Read-only counters (the ``stat`` message; no persist, no
        mutation).  ``accepted_crc`` fingerprints the accepted jid
        sequence so restart-boundary audits compare one integer;
        ``metrics`` is the tenant's registry snapshot."""
        blob = ",".join(str(job.jid) for job in self._accepted)
        count = self.metrics.counter_value
        return {
            "tenant": self.tenant,
            "submitted": self._submitted,
            "accepted": len(self._accepted),
            "shed": len(self._shed),
            "pending": len(self._pending),
            "accepted_crc": zlib.crc32(blob.encode()) & 0xFFFFFFFF,
            "recoveries": count("service.recoveries"),
            "forced_crashes": count("service.injected.crash"),
            "frontier": self.kernel.now,
            "closed": self._closed,
            "metrics": self.metrics.snapshot(),
        }

    def slo_view(self) -> Dict[str, Any]:
        """The scrape-time SLO document: a ``"live"`` block of
        kernel-derived facts (completions, deadline misses, attained
        value per executed work, and their decision-window buckets).  It
        is a pure function of the kernel trace — computed here on
        demand, so a snapshot restore can never double-count it."""
        trace = self.kernel.trace
        completions = 0
        misses = 0
        for status in trace.outcomes.values():
            if status is JobStatus.COMPLETED:
                completions += 1
            elif status in (JobStatus.FAILED, JobStatus.ABANDONED):
                misses += 1
        decided = completions + misses
        attained = trace.value_points[-1][1] if trace.value_points else 0.0
        executed = trace.total_work()
        # Windowed kernel outcomes over the decision window's geometry
        # (recomputed per scrape — deterministic in virtual time).
        ring = self.metrics.decisions
        win = WindowRing(ring.width, ring.slots)
        for t in trace.completion_times.values():
            win.observe(t, "completions")
        by_jid = {job.jid: job for job in self._accepted}
        for jid, status in trace.outcomes.items():
            if status in (JobStatus.FAILED, JobStatus.ABANDONED):
                job = by_jid.get(jid)
                if job is not None:
                    win.observe(job.deadline, "deadline_misses")
        return {
            "live": {
                "completions": completions,
                "deadline_misses": misses,
                "miss_rate": misses / decided if decided else 0.0,
                "attained_value": attained,
                "executed_work": executed,
                "value_per_capacity": (
                    attained / executed if executed > 0 else 0.0
                ),
                "depth": self.depth,
                "frontier": self.kernel.now,
                "window": win.snapshot(),
            }
        }

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    def recover(self, crash: BaseException) -> None:
        """Restore the last periodic snapshot and re-apply the op log.

        The fresh engine gets exactly the accepted jobs the snapshot
        knows about (in admission order); restoring re-verifies the WAL
        tail.  Ops recorded at or past the snapshot's dispatch count are
        the ones applied after it was taken — admissions and fault
        pushes the snapshot cannot contain — and are re-applied in
        order.  Everything else (events between the snapshot and the
        crash) re-materialises lazily on the next ``run_until``,
        verified record-by-record against the journal."""
        snapshot = getattr(crash, "snapshot", None)
        if snapshot is None:
            snapshot = self.kernel.last_snapshot
        if snapshot is None:
            raise RecoveryError(
                f"tenant {self.tenant!r} crashed before the first "
                "snapshot; nothing to restore from"
            ) from crash
        jobs = [
            job for job in self._accepted if job.jid in snapshot.status
        ]
        engine = self._build_engine(jobs)
        engine.restore(snapshot)
        kernel = engine.kernel
        base = snapshot.dispatch_count
        for dc, kind, data in self._ops:
            if dc < base:
                continue
            if kind == "admit":
                kernel.admit_job(data)
            else:  # "push"
                kernel.push_fault_event(*data)
        self._engine = engine
        self.metrics.counter("service.recoveries").inc()
        octx = _obs.current()
        if octx is not None:
            octx.emit(
                "service.recover",
                kernel.now,
                {
                    "tenant": self.tenant,
                    "snapshot_dispatch": base,
                    "ops_reapplied": sum(
                        1 for dc, _, _ in self._ops if dc >= base
                    ),
                },
                replay=False,
            )

    # ------------------------------------------------------------------
    # Durable persistence (store-backed shards only)
    # ------------------------------------------------------------------
    def maybe_persist(self) -> None:
        """Commit the kernel's newest periodic snapshot to the store.

        Called after every handled message; a no-op until the kernel has
        cut a snapshot newer than the last durable anchor, so persist
        frequency tracks ``snapshot_every`` dispatches, not messages."""
        if self._store is None or self._closed:
            return
        snap = self.kernel.last_snapshot
        if snap is None or snap.dispatch_count <= self._persist_anchor:
            return
        self._persist(snap)

    def persist_now(self) -> None:
        """Drain path: decide the open group, cut a snapshot at the
        current dispatch boundary, and make everything durable — after
        this returns, SIGKILL loses nothing."""
        if self._store is None or self._closed:
            return
        self._flush_pending()
        snap = self._engine.snapshot()
        # This snapshot is cut *after* every logged op took effect, so
        # same-dispatch-count ops are already inside it: anchor past the
        # whole op log and persist no re-apply tail.
        self._persist(snap, include_tail=False)

    def _persist(self, snap: EngineSnapshot, *, include_tail: bool = True) -> None:
        base = snap.dispatch_count
        tail: List[List[Any]] = []
        if include_tail:
            for dc, kind, data in self._ops:
                if dc < base:
                    continue
                if kind == "admit":
                    tail.append([dc, "admit", _job_to_dict(data)])
                else:  # "push"
                    tail.append([dc, "push", [data[0], list(data[1])]])
        payload = {
            "version": 2,
            "engine": snap,
            "accepted": [_job_to_dict(job) for job in self._accepted],
            "injected": [[t, list(p)] for t, p in self._injected],
            "shed": [rec.to_dict() for rec in self._shed],
            "dedup": dict(self._dedup),
            "ops_tail": tail,
            # The metrics snapshot is anchored at the same op_seq as the
            # rest, so the cold-start refold of post-anchor ops is exact;
            # the rid → jid correlation index (absent from pre-telemetry
            # payloads, read back via .get) rides along.
            "metrics": self.metrics.snapshot(),
            "rid_jids": dict(self._rid_jid),
        }
        self._store.write_snapshot(payload, op_seq=self._store.op_seq)
        self._persist_anchor = base

    def _resume_from_store(self) -> None:
        """Cold start: rebuild the live shard from disk alone.

        The snapshot payload carries everything decided up to its op-log
        anchor; op records at or past the anchor are folded back in.
        The engine restores from the pickled kernel image and re-applies
        the post-snapshot op tail — exactly the in-process
        :meth:`recover` dance, with the disk as the only witness."""
        store = self._store
        assert store is not None
        loaded = store.load_snapshot()
        snap: Optional[EngineSnapshot] = None
        tail: List[Tuple[int, str, Any]] = []
        anchor_seq = 0
        if loaded is not None:
            payload, anchor_seq = loaded
            if not isinstance(payload, dict) or payload.get("version") not in (1, 2):
                raise RecoveryError(
                    f"tenant {self.tenant!r}: unrecognised snapshot "
                    "payload (schema drift?)"
                )
            self._accepted = [Job(**d) for d in payload["accepted"]]
            self._accepted_jids = {job.jid for job in self._accepted}
            self._injected = [
                (float(t), tuple(p)) for t, p in payload["injected"]
            ]
            self._shed = [ShedRecord(**r) for r in payload["shed"]]
            self._dedup = dict(payload["dedup"])
            self._rid_jid = {
                str(k): int(v)
                for k, v in (payload.get("rid_jids") or {}).items()
            }
            # Merging into the fresh registry restores it exactly.
            self.metrics.merge(payload_metrics(payload))
            snap = payload["engine"]
            by_jid = {job.jid: job for job in self._accepted}
            for dc, kind, data in payload["ops_tail"]:
                if kind == "admit":
                    # Re-bind to the accepted-list Job so identity is
                    # shared between the admission record and the op.
                    tail.append((int(dc), "admit", by_jid[int(data["jid"])]))
                else:
                    tail.append(
                        (int(dc), "push", (float(data[0]), tuple(data[1])))
                    )

        outcome_by_op = {
            "admit": "accepted",
            "push": "injected",
            "shed": "shed",
            "crash_mark": "crash",
        }
        for seq, doc in store.ops():
            if seq < anchor_seq:
                continue
            op = str(doc.get("op"))
            jid: Optional[int] = None
            if op == "admit":
                job = Job(**doc["job"])
                jid = job.jid
                self._accepted.append(job)
                self._accepted_jids.add(job.jid)
                tail.append((int(doc["dc"]), "admit", job))
                self.metrics.observe(job.release, "service.admitted")
            elif op == "push":
                entry = (float(doc["time"]), tuple(doc["payload"]))
                self._injected.append(entry)
                tail.append((int(doc["dc"]), "push", entry))
                self.metrics.observe(
                    entry[0], "service.injected." + str(entry[1][0])
                )
            elif op == "shed":
                rec = ShedRecord(**doc["rec"])
                jid = rec.jid
                self._shed.append(rec)
                self._observe_shed(rec)
            elif op == "crash_mark":
                when = doc.get("time")
                if when is None:  # pre-telemetry op docs carry no time
                    self.metrics.counter("service.injected.crash").inc()
                else:
                    self.metrics.observe(float(when), "service.injected.crash")
            else:
                raise RecoveryError(
                    f"tenant {self.tenant!r}: unknown op record {op!r} "
                    "in the op log"
                )
            rid = doc.get("rid")
            if rid:
                self._dedup[str(rid)] = outcome_by_op[op]
                if jid is not None:
                    self._rid_jid[str(rid)] = int(jid)

        # Undecided buffering (pending groups) is never durable, so
        # every reconstructed submission is a decided one.
        self._submitted = len(self._accepted) + len(self._shed)
        self._ops = list(tail)

        if snap is None:
            # Never persisted a snapshot: replay the whole op log onto a
            # fresh world (the WAL starts over with it).
            self._journal = self._fresh_journal()
            engine = self._build_engine([])
            engine.kernel.start()
            for _dc, kind, data in tail:
                if kind == "admit":
                    engine.kernel.admit_job(data)
                else:
                    engine.kernel.push_fault_event(*data)
        else:
            self._journal = EventJournal(store.wal)
            if len(self._journal) < snap.dispatch_count:
                raise RecoveryError(
                    f"tenant {self.tenant!r}: WAL holds "
                    f"{len(self._journal)} records but the snapshot was "
                    f"cut at dispatch {snap.dispatch_count} — the journal "
                    "tail was lost (power loss under --no-fsync?)"
                )
            jobs = [
                job for job in self._accepted if job.jid in snap.status
            ]
            engine = self._build_engine(jobs)
            engine.restore(snap)
            base = snap.dispatch_count
            for dc, kind, data in tail:
                if dc < base:
                    continue
                if kind == "admit":
                    engine.kernel.admit_job(data)
                else:
                    engine.kernel.push_fault_event(*data)

        self._engine = engine
        self._persist_anchor = -1 if snap is None else snap.dispatch_count
        # The depth gauge is deliberately *not* refreshed here: the
        # restored values are the persisted ones, so drain → cold start
        # round-trips the parity view bit-identically.
        self.metrics.counter("service.recoveries").inc()
        self.metrics.counter("service.cold_starts").inc()
        octx = _obs.current()
        if octx is not None:
            octx.emit(
                "service.cold_start",
                engine.kernel.now,
                {
                    "tenant": self.tenant,
                    "accepted": len(self._accepted),
                    "shed": len(self._shed),
                    "ops_reapplied": len(tail),
                    "had_snapshot": snap is not None,
                },
                replay=False,
            )
