"""Per-layer cost ledger for the traced benchmark run.

The ledger times each layer's public entry points from outside the
program: :func:`install_closed` and :func:`install_service` replace
methods on the program's classes with thin wrappers (class-level, so
objects built afterwards pick them up), and :meth:`Ledger.uninstall`
puts the originals back.  Nothing under ``src/`` is edited.

Accounting rules:

* every wrapped call opens a span on one stack; a span's *self* time is
  its duration minus the time covered by its child spans, and is booked
  to the span's layer (``<layer>.self_s``);
* ``<layer>.calls`` counts only *outermost* entries into a layer, so a
  method that calls a sibling method of the same layer counts once;
* the wrappers only ever wrap synchronous functions, so the single stack
  stays correct inside the daemon's asyncio loop (no span crosses an
  ``await``);
* spans (id, parent, name, start, end, request id) are kept in memory up
  to a cap and written out when the run ends.

Forked pool workers (the Monte-Carlo runner forks on Linux) reset their
inherited ledger after the fork and fold their counters into a shared
array whenever their stack empties, so the parent can read the workers'
totals after ``run_report`` returns without touching the runner.
"""

from __future__ import annotations

import json
import mmap
import os
import time
from typing import Any, Callable, Dict, List, Optional

perf = time.perf_counter

#: Every accumulator the ledger keeps.  A fixed list so forked workers can
#: fold into a shared array by index.
KEYS = (
    "capacity.calls", "capacity.self_s",
    "events.push", "events.pop", "events.self_s",
    "events.queue_heap", "events.queue_calendar",
    "kernel.dispatches", "kernel.self_s",
    "policy.calls", "policy.instants", "policy.self_s",
    "workload.self_s",
    "runner.busy_s",
    "ingress.lines", "ingress.parse_s",
    "supervisor.queue_wait_s",
    "shard.self_s",
    "admission.plan_calls", "admission.shed", "admission.self_s",
    "store.oplog_appends", "store.op_records",
    "store.fsyncs", "store.fsync_s", "store.snapshot_commits",
    "store.snapshot_bytes", "store.snapshot_s", "store.self_s",
    "journal.records", "journal.bytes", "journal.fsyncs", "journal.self_s",
    "telemetry.calls", "telemetry.self_s",
    "loop.idle_s",
)

#: Layers whose self time adds up to the traced total (``trace.coverage``).
LAYERS = (
    "capacity", "events", "kernel", "policy", "workload", "shard",
    "admission", "store", "journal", "telemetry",
)
#: Layers whose self-time key is not ``<layer>.self_s``.
_SELF_KEY = {"ingress": "ingress.parse_s"}
SELF_KEYS = tuple(f"{layer}.self_s" for layer in LAYERS) + ("ingress.parse_s",)


class Ledger:
    """Counters, the open-span stack and the in-memory span buffer."""

    def __init__(self, span_cap: int = 50_000) -> None:
        self.c: Dict[str, float] = dict.fromkeys(KEYS, 0.0)
        self.stack: List[list] = []
        self.spans: List[tuple] = []
        self.span_budget = span_cap
        #: span budget each forked worker starts with
        self.worker_span_cap = span_cap // 5
        self.next_id = 0
        #: request id stamped on spans (the daemon's current message)
        self.rid: Optional[str] = None
        #: true in forked pool workers, which fold into the shared array
        self.folding = False
        self.span_path: Optional[str] = None
        self._restore: List[Callable[[], None]] = []
        self._last_instant: Dict[int, float] = {}
        self._journal_size: Dict[int, int] = {}

    # -- counters -------------------------------------------------------
    def snapshot(self) -> Dict[str, float]:
        return dict(self.c)

    def reset(self) -> None:
        self.c = dict.fromkeys(KEYS, 0.0)
        self.stack.clear()
        self.spans.clear()
        self._last_instant.clear()

    # -- spans ----------------------------------------------------------
    def wrap(
        self,
        owner: Any,
        attr: str,
        layer: str,
        name: str,
        after: Optional[Callable] = None,
        count: bool = True,
    ) -> None:
        """Replace ``owner.attr`` (a class or module) with a span wrapper.

        ``after(ledger, args, result, duration)`` runs once the span has
        closed, for layer-specific counts.  Only attributes the owner
        defines itself are wrapped, so inherited methods are timed once,
        on the class that defines them."""
        original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if original is None:
            return
        if isinstance(original, (staticmethod, classmethod)) or getattr(
            original, "__isabstractmethod__", False
        ):
            return
        self_key = _SELF_KEY.get(layer, f"{layer}.self_s")
        calls_key = f"{layer}.calls" if count and f"{layer}.calls" in self.c else None
        ledger = self

        def wrapper(*args, **kwargs):
            stack = ledger.stack
            c = ledger.c
            parent = stack[-1] if stack else None
            if calls_key is not None and (parent is None or parent[0] != layer):
                c[calls_key] += 1
            sid = ledger.next_id
            ledger.next_id = sid + 1
            frame = [layer, perf(), 0.0, sid]
            stack.append(frame)
            try:
                result = original(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                duration = end - frame[1]
                c[self_key] += duration - frame[2]
                if stack:
                    stack[-1][2] += duration
                if ledger.span_budget > 0:
                    ledger.span_budget -= 1
                    ledger.spans.append(
                        (sid, -1 if parent is None else parent[3], name,
                         frame[1], end, ledger.rid)
                    )
            if after is not None:
                after(ledger, args, result, duration)
            if not stack:
                c["runner.busy_s"] += duration
                if ledger.folding:
                    ledger.fold()
            return result

        wrapper.__wrapped__ = original
        setattr(owner, attr, wrapper)
        self._restore.append(lambda: setattr(owner, attr, original))

    def patch(self, owner: Any, attr: str, replacement: Callable) -> None:
        """Install a hand-written wrapper (restored by :meth:`uninstall`)."""
        original = getattr(owner, attr)
        setattr(owner, attr, replacement)
        self._restore.append(lambda: setattr(owner, attr, original))

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()

    # -- forked workers -------------------------------------------------
    def share(self, ctx) -> None:
        """Allocate the shared fold target before the pool forks:
        anonymous shared memory, which every forked worker inherits."""
        self._shared_array = memoryview(mmap.mmap(-1, 8 * len(KEYS))).cast("d")
        self._shared_lock = ctx.Lock()
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self) -> None:
        self.reset()
        self.span_budget = self.worker_span_cap
        self.folding = True
        if self.span_path is not None:
            self.span_path = f"{self.span_path}.{os.getpid()}"

    def fold(self) -> None:
        """Worker side: add local counters into the shared array, zero
        them, and append buffered spans to this worker's span file."""
        array = self._shared_array
        c = self.c
        with self._shared_lock:
            for i, key in enumerate(KEYS):
                value = c[key]
                if value:
                    array[i] += value
                    c[key] = 0.0
        if self.span_path is not None and self.spans:
            self.write_spans(self.span_path, mode="a")
            self.spans.clear()

    def collect_shared(self) -> Dict[str, float]:
        """Parent side: read and zero the workers' folded totals."""
        array = self._shared_array
        with self._shared_lock:
            out = {key: array[i] for i, key in enumerate(KEYS)}
            for i in range(len(KEYS)):
                array[i] = 0.0
        return out

    def write_spans(self, path: str, mode: str = "w") -> None:
        with open(path, mode, encoding="utf-8") as fh:
            for sid, parent, name, start, end, rid in self.spans:
                doc = {"id": sid, "parent": parent, "name": name,
                       "start": start, "end": end}
                if rid is not None:
                    doc["request_id"] = rid
                fh.write(json.dumps(doc) + "\n")


# ----------------------------------------------------------------------
# Layer hooks
# ----------------------------------------------------------------------
def _install_events(ledger: Ledger) -> None:
    from repro.sim import events

    for cls in (events.EventQueue, events.CalendarEventQueue):
        d = cls.__dict__
        # Span first, then the counter outside it, so the counter sees
        # the caller's frame: a push made by push_many counts once.
        if "push" in d:
            ledger.wrap(cls, "push", "events", "events.push", count=False)
            spanned_push = cls.__dict__["push"]

            def push(self, event, _inner=spanned_push):
                stack = ledger.stack
                if not stack or stack[-1][0] != "events":
                    ledger.c["events.push"] += 1
                return _inner(self, event)

            ledger.patch(cls, "push", push)
        if "push_many" in d:
            ledger.wrap(cls, "push_many", "events", "events.push_many", count=False)
            spanned_many = cls.__dict__["push_many"]

            def push_many(self, evs, _inner=spanned_many):
                evs = list(evs)
                ledger.c["events.push"] += len(evs)
                return _inner(self, evs)

            ledger.patch(cls, "push_many", push_many)
        if "pop" in d:
            ledger.wrap(
                cls, "pop", "events", "events.pop", count=False,
                after=lambda lg, a, r, t: lg.c.__setitem__(
                    "events.pop", lg.c["events.pop"] + 1),
            )
        if "pop_group" in d:
            ledger.wrap(
                cls, "pop_group", "events", "events.pop_group", count=False,
                after=lambda lg, a, r, t: lg.c.__setitem__(
                    "events.pop", lg.c["events.pop"] + len(r)),
            )
        for attr in ("peek_time", "peek_key", "compact"):
            if attr in d:
                ledger.wrap(cls, attr, "events", f"events.{attr}", count=False)

    original_init = events.EventQueue.__dict__["__init__"]

    def init(self, *args, **kwargs):
        key = (
            "events.queue_calendar"
            if isinstance(self, events.CalendarEventQueue)
            else "events.queue_heap"
        )
        ledger.c[key] += 1
        return original_init(self, *args, **kwargs)

    ledger.patch(events.EventQueue, "__init__", init)


def _install_capacity(ledger: Ledger) -> None:
    import repro.capacity  # noqa: F401  (registers every model)
    import repro.faults  # noqa: F401  (sensor/execution wrappers)
    from repro.capacity.base import CapacityFunction

    seen = set()
    todo = [CapacityFunction]
    while todo:
        cls = todo.pop()
        if cls in seen:
            continue
        seen.add(cls)
        todo.extend(cls.__subclasses__())
        for attr in ("integrate", "advance", "advance_from", "cumulative", "value"):
            if attr in cls.__dict__:
                ledger.wrap(cls, attr, "capacity", f"capacity.{attr}")


_POLICY_METHODS = (
    "on_release", "on_job_end", "on_alarm", "on_timer", "on_eviction",
    "plan", "on_releases", "on_releases_fast", "on_completions",
)


def _install_policy(ledger: Ledger) -> None:
    import repro.core  # noqa: F401
    from repro.sim.scheduler import Scheduler

    def note_instant(lg, args, result, duration):
        # Group width: outermost handler calls per distinct (scheduler,
        # simulated instant) -- same-instant calls form one group.
        stack = lg.stack
        if stack and stack[-1][0] == "policy":
            return
        sched = args[0]
        ctx = getattr(sched, "ctx", None)
        if ctx is None:
            return
        now = ctx.now()
        key = id(sched)
        if lg._last_instant.get(key) != now:
            lg._last_instant[key] = now
            lg.c["policy.instants"] += 1

    seen = set()
    todo = [Scheduler]
    while todo:
        cls = todo.pop()
        if cls in seen:
            continue
        seen.add(cls)
        todo.extend(cls.__subclasses__())
        for attr in _POLICY_METHODS:
            if attr in cls.__dict__:
                ledger.wrap(cls, attr, "policy", f"policy.{attr}", after=note_instant)


def _install_kernel(ledger: Ledger) -> None:
    from repro.kernel.core import SchedulingKernel
    from repro.sim.engine import SimulationEngine

    def run_wrapper(method):
        original = SchedulingKernel.__dict__[method]

        def run(self, *args, **kwargs):
            before = self.dispatch_count
            try:
                return original(self, *args, **kwargs)
            finally:
                ledger.c["kernel.dispatches"] += self.dispatch_count - before

        return run

    for method in ("run_loop", "run_until"):
        ledger.patch(SchedulingKernel, method, run_wrapper(method))
        ledger.wrap(SchedulingKernel, method, "kernel", f"kernel.{method}", count=False)
    for method in ("admit_job", "start", "restore", "snapshot"):
        ledger.wrap(SchedulingKernel, method, "kernel", f"kernel.{method}", count=False)
    ledger.wrap(SimulationEngine, "__init__", "kernel", "kernel.build", count=False)


def _install_workload(ledger: Ledger) -> None:
    from repro.experiments.runner import PaperInstanceFactory

    ledger.wrap(PaperInstanceFactory, "make", "workload", "workload.make", count=False)


def install_closed(ledger: Ledger) -> None:
    """Wrappers for the closed-horizon workloads (Table I, bursts)."""
    _install_capacity(ledger)
    _install_events(ledger)
    _install_policy(ledger)
    _install_kernel(ledger)
    _install_workload(ledger)


def install_service(ledger: Ledger) -> None:
    """Wrappers for the daemon (run inside the benchmark's launcher)."""
    import selectors

    from repro.obs.telemetry import SloTracker
    from repro.service import shard, supervisor
    from repro.service.admission import AdmissionController
    from repro.service.ingress import ServiceIngress
    from repro.sim.journal import EventJournal
    from repro.store.snapshots import SnapshotStore
    from repro.store.tenant import TenantStore

    install_closed(ledger)
    c = ledger.c

    # ingress: every wire line, and the parse/validate step
    original_handle_line = ServiceIngress.__dict__["handle_line"]

    async def handle_line(self, line):
        c["ingress.lines"] += 1
        return await original_handle_line(self, line)

    ledger.patch(ServiceIngress, "handle_line", handle_line)
    # The ingress module imported parse_message by name: wrap that binding.
    import repro.service.ingress as ingress_module

    ledger.wrap(ingress_module, "parse_message", "ingress", "ingress.parse", count=False)

    # supervisor: queue wait from the enqueue in dispatch to handle()
    enqueued: Dict[int, float] = {}
    original_dispatch = supervisor.ScheduleService.__dict__["dispatch"]
    original_handle = supervisor.TenantSupervisor.__dict__["handle"]

    async def dispatch(self, message):
        enqueued[id(message)] = perf()
        try:
            return await original_dispatch(self, message)
        finally:
            enqueued.pop(id(message), None)

    async def handle(self, message):
        start = enqueued.get(id(message))
        if start is not None:
            c["supervisor.queue_wait_s"] += perf() - start
        ledger.rid = getattr(message, "rid", None)
        try:
            return await original_handle(self, message)
        finally:
            ledger.rid = None

    ledger.patch(supervisor.ScheduleService, "dispatch", dispatch)
    ledger.patch(supervisor.TenantSupervisor, "handle", handle)

    # shard: the tenant's synchronous message handling
    for attr in ("handle", "close", "persist_now", "__init__", "recover", "stats"):
        ledger.wrap(shard.TenantShard, attr, "shard", f"shard.{attr}")

    # admission
    def after_plan(lg, args, result, duration):
        lg.c["admission.plan_calls"] += 1
        lg.c["admission.shed"] += len(result[1])

    ledger.wrap(AdmissionController, "plan", "admission", "admission.plan",
                count=False, after=after_plan)
    ledger.wrap(AdmissionController, "shed_all", "admission", "admission.shed_all",
                count=False,
                after=lambda lg, a, r, t: lg.c.__setitem__(
                    "admission.shed", lg.c["admission.shed"] + len(r)))

    # store: op-log appends, snapshot commits, and every os.fsync
    def after_append(lg, args, result, duration):
        lg.c["store.oplog_appends"] += 1
        lg.c["store.op_records"] += len(args[1])

    ledger.wrap(TenantStore, "append_ops", "store", "store.append_ops", after=after_append)
    for attr in ("write_snapshot", "load_snapshot", "ensure_spec", "ops", "has_state"):
        ledger.wrap(TenantStore, attr, "store", f"store.{attr}")

    def after_snapshot(lg, args, result, duration):
        lg.c["store.snapshot_commits"] += 1
        lg.c["store.snapshot_bytes"] += len(args[1])
        lg.c["store.snapshot_s"] += duration

    ledger.wrap(SnapshotStore, "write", "store", "store.snapshot_write",
                count=False, after=after_snapshot)

    original_fsync = os.fsync

    def fsync(fd):
        stack = ledger.stack
        layer = "journal" if stack and stack[-1][0] == "journal" else "store"
        sid = ledger.next_id
        ledger.next_id = sid + 1
        start = perf()
        try:
            return original_fsync(fd)
        finally:
            end = perf()
            duration = end - start
            c[f"{layer}.fsyncs"] += 1
            c[f"{layer}.self_s"] += duration
            if layer == "store":
                c["store.fsync_s"] += duration
            if stack:
                stack[-1][2] += duration
            if ledger.span_budget > 0:
                ledger.span_budget -= 1
                ledger.spans.append(
                    (sid, stack[-1][3] if stack else -1, f"{layer}.fsync",
                     start, end, ledger.rid)
                )

    ledger.patch(os, "fsync", fsync)

    # journal (the kernel WAL)
    ledger.wrap(EventJournal, "append", "journal", "journal.append", count=False,
                after=lambda lg, a, r, t: lg.c.__setitem__(
                    "journal.records", lg.c["journal.records"] + 1))

    def after_flush(lg, args, result, duration):
        journal = args[0]
        fh = getattr(journal, "_fh", None)
        if fh is None:
            return
        size = os.fstat(fh.fileno()).st_size
        key = id(journal)
        lg.c["journal.bytes"] += size - lg._journal_size.get(key, 0)
        lg._journal_size[key] = size

    ledger.wrap(EventJournal, "flush", "journal", "journal.flush", count=False,
                after=after_flush)

    # telemetry
    for attr in ("count", "observe", "set_depth", "observe_fsync", "snapshot",
                 "restore", "merge"):
        if attr in SloTracker.__dict__:
            ledger.wrap(SloTracker, attr, "telemetry", f"telemetry.{attr}")

    # event-loop idle time: time spent waiting in the selector
    selector_cls = selectors.DefaultSelector
    original_select = selector_cls.select

    def select(self, timeout=None):
        start = perf()
        try:
            return original_select(self, timeout)
        finally:
            c["loop.idle_s"] += perf() - start

    ledger.patch(selector_cls, "select", select)
