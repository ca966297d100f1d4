"""Batch scheduler contract: whole-interrupt-group policy decisions.

The paper's online model delivers one stream of interrupts; a same-instant
group is several of them at one ``t`` (e.g. a burst of releases).  When no
observability session is open, the kernel
(:class:`~repro.kernel.SchedulingKernel`) gathers such groups and, when the
scheduler supports it, hands each one over in a single call instead of one
handler call per interrupt.  Traced, metrics-only and profiled runs
dispatch one event at a time, so a trace records the interrupt stream
itself.  This module defines the batch side of the scheduler contract:

* :class:`BatchView` — one same-``(time, kind)`` interrupt group, exposed as
  the :class:`Job` views plus their table rows so handlers can read whole
  columns (laxities, deadlines, remaining) in one vectorized expression.
  The ready-set scan is computed at most once per group and cached
  (:attr:`BatchView.ready_rows`).
* :class:`BatchScheduler` — mixin implementing ``plan(view)`` for release
  groups: it returns the list of desired assignments, ``desired[i]`` being
  the job that should occupy the processor once interrupt ``i`` of the
  group is handled.  Policies implement ``_on_release_from(cur, job)`` —
  their release handler factored to take the (hypothetical) current job
  explicitly — and get the group fold for free; policies with a cheaper
  whole-group formulation (AdmissionEDF's single feasibility chain)
  override ``on_releases`` outright.  With a journal, watchdog, snapshots
  or crash plans attached the kernel applies the list per event, so
  segments and journals are byte-identical to per-event dispatch.

A scheduler without ``plan()`` keeps one handler call per interrupt.

Equivalence contract (pinned by the golden decision corpus in
``tests/golden/``, checked by ``tests/properties/test_property_batchproto.py``):
gathering produces bit-identical results and byte-identical journals
versus one handler call per interrupt — including under crash-resume.

Two class flags gate what the kernel may gather:

``batch_capable``
    The scheduler implements ``plan``; ``False`` (the base default) keeps
    the kernel on per-event dispatch.
``batch_pure_completions``
    ``on_job_end`` for a *waiting* job is a pure queue purge (no
    emissions, no election, no alarms), so a same-instant deadline sweep
    may be folded into one ``on_completions`` call.  ``False`` for LLF,
    which re-elects on every job end.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.errors import SchedulingError
from repro.sim.events import EventKind
from repro.sim.job import Job

__all__ = ["BatchView", "BatchScheduler"]


class BatchView:
    """One same-``(time, kind)`` interrupt group over the job table.

    ``jobs`` and ``rows`` are aligned: ``rows[i]`` is the
    :class:`~repro.sim.jobtable.JobTable` row of ``jobs[i]``, in kernel
    dispatch order (event-queue order, which for releases is bootstrap
    seeding order).  ``table`` grants read access to the parameter columns
    so handlers can vectorize whole-group expressions.
    """

    __slots__ = ("time", "kind", "jobs", "rows", "table", "_ready_rows")

    def __init__(
        self,
        time: float,
        kind: EventKind,
        jobs: Sequence[Job],
        rows: Sequence[int],
        table,
    ) -> None:
        self.time = time
        self.kind = kind
        self.jobs = list(jobs)
        self.rows = list(rows)
        self.table = table
        self._ready_rows = None

    def __len__(self) -> int:
        return len(self.jobs)

    @property
    def ready_rows(self):
        """Rows currently READY, scanned at most once per batch.

        Per-event handlers re-derive the ready set on every interrupt;
        batch handlers that need it share a single cached
        :meth:`~repro.sim.jobtable.JobTable.rows_ready` scan (pinned by the
        scan-count regression test)."""
        if self._ready_rows is None:
            self._ready_rows = self.table.rows_ready()
        return self._ready_rows

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"BatchView(t={self.time!r}, kind={self.kind!r}, "
            f"n={len(self.jobs)})"
        )


class BatchScheduler:
    """Mixin providing the batch contract on top of a per-event policy.

    Subclasses implement :meth:`_on_release_from` (and usually
    :meth:`on_completions`); the generic :meth:`on_releases` folds the
    release logic over the group while tracking the hypothetical current
    job, producing decisions bit-identical to dispatching the events one
    at a time."""

    #: See the module docstring for the two-flag gating contract.
    batch_capable = True
    batch_pure_completions = True

    def plan(self, view: BatchView) -> List[Optional[Job]]:
        """Decide a whole release group in one call: the desired
        assignment after each of its interrupts."""
        if view.kind != EventKind.RELEASE:
            raise SchedulingError(
                f"{type(self).__name__} has no batch handler for {view.kind!r}"
            )
        return self.on_releases(view)

    def on_releases(self, view: BatchView) -> List[Optional[Job]]:
        """Fold the factored release handler over the group."""
        cur = self.ctx.current_job()
        fold = self._on_release_from
        desired: List[Optional[Job]] = []
        for job in view.jobs:
            cur = fold(cur, job)
            desired.append(cur)
        return desired

    def on_completions(self, view: BatchView) -> None:
        """Purge a same-instant sweep of departed *waiting* jobs.

        Only called when :attr:`batch_pure_completions` is true and none of
        the departing jobs is the running one, so the per-event equivalent
        is a silent queue removal per job."""
        raise NotImplementedError(
            f"{type(self).__name__} does not implement on_completions"
        )

    def _on_release_from(self, cur: Optional[Job], job: Job) -> Optional[Job]:
        """Release logic with the current job passed explicitly.

        Must behave exactly like ``on_release`` would if ``cur`` were on
        the processor, decision record included (emitted only when an
        observability session is open, so never inside a gathered
        group)."""
        raise NotImplementedError(
            f"{type(self).__name__} does not implement _on_release_from"
        )
