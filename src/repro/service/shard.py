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
  snapshot knows, restores it, and re-applies the shard's op log —
  admissions and fault pushes recorded with the dispatch count (and
  journal digest) at which they were applied; ops at or past the
  snapshot's dispatch count are exactly the ones the snapshot cannot
  know about, each re-applied once the restored kernel re-reaches its
  count with the same digest.

Replay equivalence is the design invariant: the accepted jobs (in
admission order), the spec-built world, and the recorded fault pushes,
re-run through the closed-horizon engine, must reproduce the service
journal and result bit-identically (:mod:`repro.service.replay`).

With a :class:`~repro.store.tenant.TenantStore` attached the shard is
also *durable*: every admission/shed/push decision is fsynced into the
store's op log **before** the kernel sees it (write-ahead) — the one
durable stream per decision — periodic kernel snapshots are committed
as manifest-anchored state images, and
``TenantShard(spec, store=..., resume=True)`` rebuilds the exact live
state from disk after a ``SIGKILL`` — the cold-start half of
:meth:`repro.service.supervisor.ScheduleService.cold_start`.  Client
``request_id`` strings ride along into the op log, so a traffic log
replayed against a cold-started shard acks duplicates instead of
double-admitting.

Journal records and op entries the newest kernel snapshot supersedes
are dropped as soon as it is cut, so memory tracks recent dispatches.
The kernel drains its terminal history at every periodic snapshot, so
the images a shard commits hold live state only; each commit first
hands what drained, with the decisions since the previous commit, to
history (:mod:`repro.service.history`) — written once, read back only
by a cold start, ``close()``/``report()`` and ``repro obs trace``.
"""

from __future__ import annotations

import math
import sys
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
from repro.service.history import HistoryRecord, fold_history
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


#: CPython 3.12+ sums floats with Neumaier compensation; :class:`_WorkSum`
#: carries the compensation term so a running total stays equal to one
#: ``sum()`` over every segment.
_COMPENSATED_SUM = sys.version_info >= (3, 12)


class _WorkSum:
    """``sum()`` of segment work, kept running across drains: equal to
    one ``sum()`` over every segment added so far, on this interpreter."""

    __slots__ = ("total", "comp")

    def __init__(self, total: float = 0, comp: float = 0.0) -> None:
        self.total = total  # int 0 until the first segment, as in sum()
        self.comp = comp

    def add(self, x: float) -> None:
        total = self.total
        if isinstance(total, int):
            self.total = total + x
            return
        s = total + x
        if _COMPENSATED_SUM:
            if abs(total) >= abs(x):
                self.comp += (total - s) + x
            else:
                self.comp += (x - s) + total
        self.total = s

    def value(self, more: Sequence[float] = ()) -> float:
        """The sum so far, continued over ``more``."""
        acc = _WorkSum(self.total, self.comp)
        for x in more:
            acc.add(x)
        if _COMPENSATED_SUM and acc.comp and math.isfinite(acc.comp):
            return acc.total + acc.comp
        return acc.total


class _Drained:
    """Kernel-derived counters over a tenant's drained history.

    ``depth`` and :meth:`TenantShard.slo_view` add the live trace's share
    at read time, so they read the same as over the whole trace.  The
    scrape window's observations are kept as runs of ``[bucket index,
    count]`` in observation order (completion order, then deadline
    order), which a fresh ring replays exactly
    (:meth:`~repro.obs.metrics.WindowRing.observe_count`)."""

    def __init__(self, doc: Optional[Mapping[str, Any]] = None) -> None:
        doc = doc or {}
        self.outcomes = int(doc.get("outcomes", 0))
        self.completions = int(doc.get("completions", 0))
        self.misses = int(doc.get("misses", 0))
        self.work = _WorkSum(*doc.get("work", (0, 0.0)))
        windows = doc.get("windows") or {}
        self.windows: Dict[str, List[List[int]]] = {
            name: [list(run) for run in windows.get(name, ())]
            for name in ("completions", "deadline_misses")
        }

    def doc(self) -> Dict[str, Any]:
        return {
            "outcomes": self.outcomes,
            "completions": self.completions,
            "misses": self.misses,
            "work": (self.work.total, self.work.comp),
            "windows": self.windows,
        }

    def _observe(self, name: str, index: int) -> None:
        runs = self.windows[name]
        if runs and runs[-1][0] == index:
            runs[-1][1] += 1
        else:
            runs.append([index, 1])

    def add(self, delta: dict, ring: WindowRing) -> None:
        for (_jid, name), job in zip(delta["outcomes"], delta["finished"]):
            self.outcomes += 1
            if name == "COMPLETED":
                self.completions += 1
            elif name in ("FAILED", "ABANDONED"):
                self.misses += 1
                self._observe("deadline_misses", ring.bucket_of(job.deadline))
        for _jid, t in delta["completion_times"]:
            self._observe("completions", ring.bucket_of(t))
        for seg in delta["segments"][0]:
            self.work.add(seg[3])


class TenantShard:
    """One tenant's live kernel plus its admission and op-log state.

    Live state only stays resident: per finished job a tenant keeps its
    dedup entry and its jid in the duplicate set.  The
    decisions and terminal kernel history behind them go to history at
    each snapshot commit (:mod:`repro.service.history`) — the store's
    ``history/`` log, or the encoded records in memory without a store.
    """

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

        # Decision counters; the decisions themselves wait in _record for
        # the next commit.  accepted_crc runs over the accepted jids.
        self._accepted_jids: set = set()
        self._n_accepted = 0
        self._accepted_crc = 0
        self._n_shed = 0
        self._record = HistoryRecord()
        # Committed history: its length, and (store-less) its records.
        self._history_len = 0
        self._history_bytes: List[bytes] = []
        self._drained = _Drained()
        # Op log: (dispatch_count at application, kind, data, hex journal
        # digest there).  Recovery re-applies every op at or past the
        # restored snapshot's count; older ones are dropped.
        self._ops: List[Tuple[int, str, Any, Optional[str]]] = []
        self._journal = EventJournal()
        self._pending: List[Job] = []
        self._submitted = 0
        self._closed = False
        # Idempotency: decided request ids -> outcome ("accepted" |
        # "shed" | "injected" | "crash"); in-flight ids sit in
        # _pending_rids until the contention group is decided.
        self._dedup: Dict[str, str] = {}
        self._pending_rids: Dict[str, int] = {}
        self._rid_queue: Dict[int, List[str]] = {}
        # Dispatch count of the newest kernel snapshot committed and
        # trimmed behind.
        self._persist_anchor = -1

        if resume and store is not None and store.has_state():
            self._resume_from_store()
        else:
            self._engine = self._build_engine([], capacity)
            self._engine.kernel.start()
        if store is not None:
            # The store's op-log fsyncs feed the fsync histogram — wall
            # clock, never in the replay or parity domain.
            store.sync_observer = self.metrics.histogram(
                "service.fsync_s"
            ).observe

    # ------------------------------------------------------------------
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
        engine = SimulationEngine(
            jobs,
            self.spec.wrap_sensors(caps[0]),
            self.spec.build_scheduler(),
            horizon=self.spec.horizon,
            faults=self._built_faults,
            journal=self._journal,
            snapshot_every=self.spec.snapshot_every,
        )
        engine.kernel.history_sink = self._on_drain
        return engine

    def _on_drain(self, delta: dict) -> None:
        """The kernel drained at a periodic snapshot: the delta waits in
        the record for the commit that persists that snapshot."""
        self._record.add_delta(delta)
        self._drained.add(delta, self.metrics.decisions)

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
        return (
            self._n_accepted
            - self._drained.outcomes
            - len(self.kernel.trace.outcomes)
        )

    @property
    def shed_count(self) -> int:
        return self._n_shed

    # -- decision bookkeeping -------------------------------------------
    def _note_request(
        self,
        rid: "str | None",
        jid: Optional[int],
        outcome: str,
        time: float,
    ) -> None:
        """Record a request id's decision: dedup outcome, the history's
        rid → jid entry, and a lifecycle (never replay) trace event."""
        if rid is None:
            return
        self._dedup[rid] = outcome
        self._record.requests.append(
            (rid, outcome, None if jid is None else int(jid))
        )
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

    def _count_accepted(self, jid: int) -> None:
        """Count one accepted jid: the CRC continues over the same
        comma-joined jid text a whole-list CRC would read."""
        text = str(jid) if self._n_accepted == 0 else "," + str(jid)
        self._accepted_crc = zlib.crc32(text.encode(), self._accepted_crc)
        self._n_accepted += 1
        self._accepted_jids.add(jid)

    def _journal_shed(
        self, records: Sequence[ShedRecord], rids: Sequence[Optional[str]]
    ) -> None:
        self._record.shed.extend(records)
        self._n_shed += len(records)
        octx = _obs.current()
        for record, rid in zip(records, rids):
            self._observe_shed(record)
            if octx is not None:
                octx.emit(
                    "service.shed", record.time, record.to_dict(), replay=False
                )
            self._note_request(rid, record.jid, "shed", record.time)

    def _observe_shed(self, record: ShedRecord) -> None:
        self.metrics.observe(record.time, "service.shed")
        self.metrics.observe(record.time, "service.shed." + record.reason)

    # ------------------------------------------------------------------
    # Message handling (synchronous, deterministic; may raise
    # SimulatedCrash — the supervisor owns recovery and retry)
    # ------------------------------------------------------------------
    def handle(self, message: Message) -> Any:
        """Dispatch one message; returns extra ack fields, the report
        for ``close``, or None.

        ``stat`` works even on a closed shard — it is how the kill -9
        soak audits counters across restart boundaries."""
        if isinstance(message, Stat):
            return self.stats()
        if self._closed and not isinstance(message, Close):
            raise MessageError(
                f"tenant {self.tenant!r} is closed; no further messages"
            )
        result: Any = None
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
            result = self.close()
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
        dc, digest = kernel.dispatch_count, self._journal.digest.hex()
        if self._store is not None:
            self._store.append_ops(
                [
                    {
                        "op": "push",
                        "dc": dc,
                        "digest": digest,
                        "time": time,
                        "payload": list(payload),
                        "rid": rid,
                    }
                ]
            )
        kernel.push_fault_event(time, payload)
        self._record.injected.append((time, payload))
        self._ops.append((dc, "push", (time, payload), digest))
        self.metrics.observe(time, "service.injected." + op)
        self._note_request(rid, None, "injected", time)
        return None

    def close(self) -> TenantReport:
        """Finish the tenant: run to the horizon and build the report
        (a closed tenant just reports again)."""
        if not self._closed:
            self._flush_pending()
            self._engine.run()
            self._closed = True
        return self.report()

    def report(self) -> TenantReport:
        """The tenant's whole run: its history, record by record, then
        the live state (kept nowhere — each call decodes it again)."""
        accepted, shed, injected, trace = fold_history(
            self._history_records(), self.kernel.trace
        )
        result = None
        if self._closed:
            result = SimulationResult(
                scheduler_name=self.kernel.scheduler.name,
                jobs=accepted,
                horizon=self.kernel.horizon,
                trace=trace,
            )
        count = self.metrics.counter_value
        return TenantReport(
            tenant=self.tenant,
            spec=self.spec,
            result=result,
            accepted=tuple(accepted),
            shed=tuple(shed),
            injected=tuple(injected),
            submitted=self._submitted,
            recoveries=count("service.recoveries"),
            forced_crashes=count("service.injected.crash"),
            journal=self._journal,
        )

    def _history_records(self):
        """Committed history records, decoded one at a time, then the
        record still waiting for the next commit."""
        if self._store is None:
            encoded = self._history_bytes
        else:
            encoded = self._store.history_records(self._history_len)
        for data in encoded:
            yield HistoryRecord.decode(data)
        yield self._record

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
        dc, digest = kernel.dispatch_count, self._journal.digest.hex()
        if self._store is not None:
            docs = [
                {
                    "op": "admit",
                    "dc": dc,
                    "digest": digest,
                    "job": _job_to_dict(job),
                    "rid": rid,
                }
                for job, rid in zip(admit, admit_rids)
            ] + [
                {"op": "shed", "rec": rec.to_dict(), "rid": rid}
                for rec, rid in zip(shed, shed_rids)
            ]
            if docs:
                self._store.append_ops(docs)
        self._journal_shed(shed, shed_rids)
        for job, rid in zip(admit, admit_rids):
            self._ops.append((dc, "admit", job, digest))
            kernel.admit_job(job)
            self._record.accepted.append(job)
            self._count_accepted(job.jid)
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
            self._journal_shed(records, rids)

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
        self._journal_shed(records, [rid])
        return None

    def stats(self) -> Dict[str, Any]:
        """Read-only counters (the ``stat`` message; no persist, no
        mutation).  ``accepted_crc`` fingerprints the accepted jid
        sequence so restart-boundary audits compare one integer;
        ``metrics`` is the tenant's registry snapshot."""
        count = self.metrics.counter_value
        return {
            "tenant": self.tenant,
            "submitted": self._submitted,
            "accepted": self._n_accepted,
            "shed": self._n_shed,
            "pending": len(self._pending),
            "accepted_crc": self._accepted_crc,
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
        is a pure function of the kernel trace — the counters drained
        with its history plus the live trace's share, computed here on
        demand, so a snapshot restore can never double-count it."""
        trace = self.kernel.trace
        drained = self._drained
        completions = drained.completions
        misses = drained.misses
        for status in trace.outcomes.values():
            if status is JobStatus.COMPLETED:
                completions += 1
            elif status in (JobStatus.FAILED, JobStatus.ABANDONED):
                misses += 1
        decided = completions + misses
        attained = (
            trace.value_points[-1][1] if trace.value_points else trace.value_base
        )
        executed = drained.work.value([seg.work for seg in trace.segments])
        # Windowed kernel outcomes over the decision window's geometry
        # (recomputed per scrape — deterministic in virtual time): every
        # completion, then every deadline miss, in the order they were
        # recorded.
        ring = self.metrics.decisions
        win = WindowRing(ring.width, ring.slots)
        for index, count in drained.windows["completions"]:
            win.observe_count(index, "completions", count)
        for t in trace.completion_times.values():
            win.observe(t, "completions")
        for index, count in drained.windows["deadline_misses"]:
            win.observe_count(index, "deadline_misses", count)
        if misses > drained.misses:
            by_jid = self.kernel.jobs_by_id
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
        """Restore the last periodic snapshot and re-apply the op log
        (:meth:`_restore`); the journal verifies the re-run record by
        record from the snapshot on.  Drains happen only at periodic
        snapshots, so the history handed over so far is exactly what
        that snapshot leaves out."""
        snapshot = getattr(crash, "snapshot", None) or (
            self.kernel.last_snapshot
        )
        if snapshot is None:
            raise RecoveryError(
                f"tenant {self.tenant!r} crashed before the first "
                "snapshot; nothing to restore from"
            ) from crash
        self._restore(snapshot, self._ops)
        self.metrics.counter("service.recoveries").inc()
        octx = _obs.current()
        if octx is not None:
            octx.emit(
                "service.recover",
                self.kernel.now,
                {
                    "tenant": self.tenant,
                    "snapshot_dispatch": snapshot.dispatch_count,
                    "ops_reapplied": len(self._ops),
                },
                replay=False,
            )

    def _restore(
        self,
        snapshot: Optional[EngineSnapshot],
        ops: Sequence[Tuple[int, str, Any, Optional[str]]],
    ) -> None:
        """Rebuild the engine from a snapshot (or a fresh world) and
        re-apply the ops at or past its dispatch count, each at the count
        it was first applied at: ops only ever apply between instants,
        so whole instants dispatch until the kernel re-reaches it.  A
        re-run that skips the count or meets it with another journal
        digest diverged from the logged run."""
        if snapshot is None:
            engine = self._build_engine([])
            engine.kernel.start()
            base = 0
        else:
            engine = self._build_engine([Job(*p) for p in snapshot.jobs])
            engine.restore(snapshot)
            base = snapshot.dispatch_count
        kernel = engine.kernel
        self._ops = [op for op in ops if op[0] >= base]
        for dc, kind, data, digest in self._ops:
            while kernel.dispatch_count < dc and not kernel.ended:
                # The queue holds the END event until the kernel ends.
                t = kernel.next_event_time
                kernel.run_until(math.nextafter(t, math.inf))
            if kernel.dispatch_count != dc or digest not in (
                None,
                self._journal.digest.hex(),
            ):
                raise RecoveryError(
                    f"tenant {self.tenant!r}: the re-run diverged from the "
                    f"op log at the op applied at dispatch {dc} (the re-run "
                    f"is at dispatch {kernel.dispatch_count})"
                )
            if kind == "admit":
                kernel.admit_job(data)
            else:  # "push"
                kernel.push_fault_event(*data)
        self._engine = engine

    # ------------------------------------------------------------------
    # Commits: history record, then (with a store) the live image
    # ------------------------------------------------------------------
    def maybe_persist(self) -> None:
        """Commit the kernel's newest periodic snapshot (with its
        history record), then drop the journal records and op entries it
        supersedes — recovery restores it or a newer one.

        Called after every handled message; a no-op until the kernel has
        cut a snapshot newer than the last anchor, so this tracks
        ``snapshot_every`` dispatches, not messages.  A store-less shard
        commits too: it keeps the encoded record."""
        snap = self.kernel.last_snapshot
        if (
            self._closed
            or snap is None
            or snap.dispatch_count <= self._persist_anchor
        ):
            return
        self._commit(snap)

    def persist_now(self) -> None:
        """Drain path: decide the open group, cut a snapshot at the
        current dispatch boundary, and make everything durable — after
        this returns, SIGKILL loses nothing."""
        if self._store is None or self._closed:
            return
        self._flush_pending()
        # The kernel's last snapshot from here on, so an in-process
        # recovery never re-runs (and re-drains) what this commit holds.
        snap = self.kernel.checkpoint()
        # This snapshot is cut *after* every logged op took effect, so
        # same-dispatch-count ops are already inside it: anchor past the
        # whole op log and persist no re-apply tail.
        self._ops = []
        self._commit(snap)

    def _commit(self, snap: EngineSnapshot) -> None:
        """Append the waiting history record, then (with a store) commit
        the image that leaves it out — history first, so an image never
        names a record the disk lacks — and drop the journal records and
        op entries the image supersedes."""
        record = self._record
        record.cursor = snap.history_cursor
        data = record.encode()
        if self._store is None:
            self._history_bytes.append(data)
        else:
            self._store.append_history(data, seq=self._history_len)
            self._write_image(snap)
        self._history_len += 1
        self._record = HistoryRecord()
        self._persist_anchor = base = snap.dispatch_count
        self._journal.trim(base)
        self._ops = [op for op in self._ops if op[0] >= base]

    def _write_image(self, snap: EngineSnapshot) -> None:
        base = snap.dispatch_count
        tail: List[List[Any]] = []
        for dc, kind, data, digest in self._ops:
            if dc < base:
                continue
            if kind == "admit":
                data = _job_to_dict(data)
            else:  # "push"
                data = [data[0], list(data[1])]
            tail.append([dc, kind, data, digest])
        payload = {
            "version": 3,
            "engine": snap,
            "ops_tail": tail,
            # The metrics snapshot is anchored at the same op_seq as the
            # rest, so the cold-start refold of post-anchor ops is exact.
            "metrics": self.metrics.snapshot(),
            # History records this image leaves out (with this commit's).
            "history": self._history_len + 1,
            "drained": self._drained.doc(),
        }
        self._store.write_snapshot(payload, op_seq=self._store.op_seq)

    def _fold_decisions(self, record: HistoryRecord) -> None:
        """Count a record's decisions and index its request ids."""
        for job in record.accepted:
            self._count_accepted(job.jid)
        self._n_shed += len(record.shed)
        for rid, outcome, _jid in record.requests:
            self._dedup[rid] = outcome

    def _resume_from_store(self) -> None:
        """Cold start: rebuild the live shard from disk alone.

        The newest image names how many history records it leaves out;
        their decisions rebuild the dedup index and the counters, one
        record at a time.  Op records at or past the
        image's op-log anchor are folded back in as decisions the next
        commit will write, and the cold start refuses if any of them was
        lost.  The engine restores from the live kernel image — which
        seeds the journal with the image's digest — and re-applies the
        post-snapshot op tail exactly as the in-process :meth:`recover`
        does, with the logged digests as the only witness.

        A version 1 or 2 payload (from before history) converts
        read-only as "nothing drained yet": its decisions wait for the
        first commit, which writes them as history record 0.  An image
        from before digests takes its digest, and its tail's
        record-by-record check, from the store's retired WAL."""
        store = self._store
        assert store is not None
        loaded = store.load_snapshot()
        snap: Optional[EngineSnapshot] = None
        tail: List[Tuple[int, str, Any, Optional[str]]] = []
        anchor_seq = 0
        if loaded is not None:
            payload, anchor_seq = loaded
            version = payload.get("version") if isinstance(payload, dict) else None
            if version not in (1, 2, 3):
                raise RecoveryError(
                    f"tenant {self.tenant!r}: unrecognised snapshot "
                    "payload (schema drift?)"
                )
            # Merging into the fresh registry restores it exactly.
            self.metrics.merge(payload_metrics(payload))
            snap = payload["engine"]
            if version == 3:
                self._resume_history(payload, snap)
            else:
                self._convert_payload(payload, snap)
            for dc, kind, data, *digest in payload["ops_tail"]:
                if kind == "admit":
                    data = Job(**data)
                else:
                    data = (float(data[0]), tuple(data[1]))
                tail.append((int(dc), kind, data, (digest or [None])[0]))
        # Rot that quarantined an acked op, or a fallback to an older
        # image whose ops were compacted, must not cold-start without them.
        oplog = store.oplog
        if oplog.base_seq > anchor_seq or oplog.quarantine_reaches(anchor_seq):
            raise RecoveryError(
                f"tenant {self.tenant!r}: op records at or past the snapshot "
                f"anchor (op {anchor_seq}) are missing or quarantined as "
                "corrupt; refusing to cold start (see oplog/*.quarantine)"
            )

        outcome_by_op = {
            "admit": "accepted",
            "push": "injected",
            "shed": "shed",
            "crash_mark": "crash",
        }
        record = self._record
        for seq, doc in store.ops():
            if seq < anchor_seq:
                continue
            op = str(doc.get("op"))
            jid: Optional[int] = None
            if op == "admit":
                job = Job(**doc["job"])
                jid = job.jid
                record.accepted.append(job)
                self._count_accepted(job.jid)
                tail.append((int(doc["dc"]), "admit", job, doc.get("digest")))
                self.metrics.observe(job.release, "service.admitted")
            elif op == "push":
                entry = (float(doc["time"]), tuple(doc["payload"]))
                record.injected.append(entry)
                tail.append((int(doc["dc"]), "push", entry, doc.get("digest")))
                self.metrics.observe(
                    entry[0], "service.injected." + str(entry[1][0])
                )
            elif op == "shed":
                rec = ShedRecord(**doc["rec"])
                jid = rec.jid
                record.shed.append(rec)
                self._n_shed += 1
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
                rid = str(rid)
                self._dedup[rid] = outcome_by_op[op]
                record.requests.append((rid, outcome_by_op[op], jid))

        # Undecided buffering (pending groups) is never durable, so
        # every reconstructed submission is a decided one.
        self._submitted = self._n_accepted + self._n_shed
        if snap is not None and snap.journal_digest is None:
            self._journal = EventJournal(store.legacy_wal() or ())
        self._restore(snap, tail)
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
                self.kernel.now,
                {
                    "tenant": self.tenant,
                    "accepted": self._n_accepted,
                    "shed": self._n_shed,
                    "ops_reapplied": len(self._ops),
                    "had_snapshot": snap is not None,
                },
                replay=False,
            )

    def _resume_history(
        self, payload: Mapping[str, Any], snap: EngineSnapshot
    ) -> None:
        """Fold the history records a version 3 image leaves out."""
        self._history_len = int(payload["history"])
        self._drained = _Drained(payload["drained"])
        cursor = 0
        for data in self._store.history_records(self._history_len):
            record = HistoryRecord.decode(data)
            self._fold_decisions(record)
            cursor = record.cursor
        if cursor != snap.history_cursor:
            raise RecoveryError(
                f"tenant {self.tenant!r}: the history log ends at drain "
                f"{cursor} but the snapshot image follows drain "
                f"{snap.history_cursor}"
            )

    def _convert_payload(
        self, payload: Mapping[str, Any], snap: EngineSnapshot
    ) -> None:
        """Read a version 1/2 payload as "nothing drained yet": its
        decisions become the waiting record, and the image (not written
        back) gains the parameters of the jobs it holds."""
        accepted = [Job(**d) for d in payload["accepted"]]
        rid_jids = payload.get("rid_jids") or {}
        self._record = HistoryRecord(
            accepted=accepted,
            shed=[ShedRecord(**r) for r in payload["shed"]],
            injected=[(float(t), tuple(p)) for t, p in payload["injected"]],
            requests=[
                (
                    str(rid),
                    str(outcome),
                    None if rid_jids.get(rid) is None else int(rid_jids[rid]),
                )
                for rid, outcome in payload["dedup"].items()
            ],
        )
        self._fold_decisions(self._record)
        snap.jobs = [
            (j.jid, j.release, j.workload, j.deadline, j.value)
            for j in accepted
            if j.jid in snap.status
        ]
