"""Cached prefix-sum capacity index: O(log n) ``integrate``/``advance``.

Every paper artifact funnels through :meth:`CapacityFunction.advance` /
:meth:`~CapacityFunction.integrate` — the engine calls them on *every*
dispatch to predict completion instants exactly.  The naive base-class
implementations rescan the piecewise-constant trajectory linearly, which
makes a paper-scale run (~2000 jobs × a long Markov capacity path)
quadratic-ish.  This module supplies the shared index that makes both
queries logarithmic:

* each trajectory materialises a cumulative-work array
  ``W[i] = ∫₀^{bp[i]} c(τ) dτ`` alongside its breakpoint array ``bp``;
* ``integrate(a, b)`` becomes two :func:`bisect.bisect_right` lookups plus
  linear interpolation: ``cumulative(b) − cumulative(a)``;
* ``advance(t, w)`` becomes a :func:`bisect.bisect_left` (searchsorted) on
  ``W`` for the target cumulative work, then one division.

Incremental-extension contract
------------------------------
Stochastic generators (e.g. :class:`repro.capacity.markov.
MarkovModulatedCapacity`) extend their realized path lazily.  Such models
keep a ``_frontier`` — the instant up to which the arrays are valid — and
override :meth:`PrefixIndexedCapacity._materialize`, which must guarantee,
on return, that ``bp``/``W``/``rates`` cover time ``t`` and that
``_frontier`` lies past ``t``.  The indexed queries compare against the
frontier in place and call the hook only at or past it; fully built paths
leave ``_frontier`` at ``inf`` and never call it.  The arrays are
**append-only**: entries, once observed, never change — this is what
makes repeated queries consistent within a run and results reproducible
across query orders.

Exactness contract
------------------
The index performs *the same arithmetic* as the historical linear
implementations of the shipped piecewise models (identical prefix sums,
identical ``target − 1e-15`` slack when locating the completion piece,
identical ``max(t0, ·)`` one-ulp guard), so simulation results are
bit-identical to the pre-index code.  ``docs/PERFORMANCE.md`` records the
invariants consumers rely on; :func:`crosscheck_index` verifies
indexed-vs-naive agreement at runtime and is exercised by the
``perf_smoke`` tier-1 marker.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from typing import List, Sequence

from repro.capacity.base import CapacityFunction, ensure_band
from repro.errors import CapacityError

__all__ = [
    "PrefixIndexedCapacity",
    "build_prefix",
    "naive_integrate",
    "naive_advance",
    "crosscheck_index",
]

#: Slack used when locating the piece in which a target cumulative work is
#: reached.  Matches the historical linear implementations exactly — do
#: not change without re-baselining bit-identity (docs/PERFORMANCE.md).
ADVANCE_SLACK = 1e-15


def build_prefix(breakpoints: Sequence[float], rates: Sequence[float]) -> List[float]:
    """Return the cumulative-work array ``W[i] = ∫₀^{bp[i]} c`` for a
    piecewise-constant trajectory (``rates[i]`` holds on
    ``[bp[i], bp[i+1])``).  ``W[0]`` is always ``0.0``."""
    cum = [0.0]
    for i in range(1, len(breakpoints)):
        cum.append(cum[-1] + (breakpoints[i] - breakpoints[i - 1]) * rates[i - 1])
    return cum


class PrefixIndexedCapacity(CapacityFunction):
    """Mixin base for piecewise-backed models sharing the prefix-sum index.

    Subclass contract
    -----------------
    * ``self._bp`` — sorted breakpoints, ``_bp[0] == 0.0``;
    * ``self._cum`` — same length, ``_cum[i] = ∫₀^{bp[i]} c`` (use
      :func:`build_prefix`, or append increments for lazy paths);
    * ``self._rates`` — same length, the constant rate on
      ``[bp[i], bp[i+1])`` (and past ``bp[-1]`` for the last entry,
      within the materialized window);
    * ``self._frontier`` — the first instant the arrays do not cover
      (default ``inf``: a fully built path);
    * :meth:`_materialize` — extend the arrays (and the frontier) past
      time ``t``; called only for ``t >= _frontier`` (default: no-op).

    Given that, :meth:`cumulative`, :meth:`integrate`, :meth:`advance`,
    :meth:`advance_from` and :meth:`next_change` are all O(log n): each
    is one or two bisects in place, plus one frontier comparison.
    """

    supports_prefix_index = True

    _bp: List[float]
    _cum: List[float]
    _rates: List[float]
    #: Fully built paths cover every instant.
    _frontier: float = math.inf

    # ------------------------------------------------------------------
    # Subclass hook
    # ------------------------------------------------------------------
    def _materialize(self, t: float) -> None:
        """Extend the index past time ``t`` (append-only extension).

        No-op by default; lazy stochastic models override (see module
        docstring for the incremental-extension contract)."""

    # ------------------------------------------------------------------
    # Indexed queries
    # ------------------------------------------------------------------
    def segment_index(self, t: float) -> int:
        """Index of the segment containing ``t`` (segments close on the
        left), materializing the path as needed."""
        if t >= self._frontier:
            self._materialize(t)
        return max(0, bisect_right(self._bp, t) - 1)

    def cumulative(self, t: float) -> float:
        """Exact prefix integral ``∫₀^t c`` from the index: one bisect plus
        linear interpolation inside the containing segment."""
        if t < 0.0:
            raise CapacityError(f"capacity undefined for t < 0: {t!r}")
        if t >= self._frontier:
            self._materialize(t)
        bp = self._bp
        # bp[0] == 0.0 <= t, so the bisect is at least 1.
        i = bisect_right(bp, t) - 1
        return self._cum[i] + (t - bp[i]) * self._rates[i]

    def integrate(self, t0: float, t1: float) -> float:
        if t1 < t0:
            raise CapacityError(f"reversed interval: [{t0}, {t1}]")
        return self.cumulative(t1) - self.cumulative(t0)

    def advance(self, t0: float, work: float, horizon: float = math.inf) -> float:
        if work < 0.0:
            raise CapacityError(f"negative workload: {work!r}")
        if work == 0.0:
            return t0
        # c >= lower > 0 bounds the completion instant, so lazy models can
        # materialize exactly as far as the search can reach.
        limit = t0 + work / self._lower
        if horizon < limit:
            limit = horizon
        if t0 > limit:
            limit = t0
        if t0 < 0.0:
            raise CapacityError(f"capacity undefined for t < 0: {t0!r}")
        if limit >= self._frontier:
            self._materialize(limit)
        bp = self._bp
        cum = self._cum
        rates = self._rates
        lo = bisect_right(bp, t0)
        # cumulative(t0) + work, on the segment the search starts from.
        target = cum[lo - 1] + (t0 - bp[lo - 1]) * rates[lo - 1] + work
        # searchsorted on W: first segment whose *start* cumulative work
        # reaches the target (with the historical slack), minus one.
        i = bisect_left(cum, target - ADVANCE_SLACK, lo) - 1
        t = bp[i] + (target - cum[i]) / rates[i]
        # One-ulp guard against drift below t0 when `work` is tiny
        # relative to the prefix integral (division rounding): the
        # comparison max(t0, t) makes.
        if not t > t0:
            t = t0
        return t if t <= horizon else math.inf

    def advance_from(
        self, t0: float, cum0: float, work: float, horizon: float = math.inf
    ) -> float:
        """:meth:`advance` with a caller-supplied anchor ``cum0``.

        ``cum0`` must be exactly ``self.cumulative(t0)`` — the kernel
        already holds that value for the running segment's start, so
        passing it here skips recomputing the prefix integral.  Apart from
        reusing the anchor, the arithmetic is identical to
        :meth:`advance`, hence bit-identical results (the index is
        append-only, so a ``cumulative(t0)`` computed earlier never goes
        stale)."""
        if work < 0.0:
            raise CapacityError(f"negative workload: {work!r}")
        if work == 0.0:
            return t0
        limit = t0 + work / self._lower
        if horizon < limit:
            limit = horizon
        if limit >= self._frontier:
            self._materialize(limit)
        bp = self._bp
        cum = self._cum
        target = cum0 + work
        i = bisect_left(cum, target - ADVANCE_SLACK, bisect_right(bp, t0) or 1) - 1
        t = bp[i] + (target - cum[i]) / self._rates[i]
        if not t > t0:
            t = t0
        return t if t <= horizon else math.inf

    def next_change(self, t: float, horizon: float) -> float:
        reach = horizon if math.isfinite(horizon) else t
        if reach >= self._frontier:
            self._materialize(reach)
        i = bisect_right(self._bp, t)
        if i < len(self._bp) and self._bp[i] < horizon:
            return self._bp[i]
        return horizon

    # ------------------------------------------------------------------
    # Invariants
    # ------------------------------------------------------------------
    def check_index_invariants(self) -> None:
        """Validate the index structure; raises :class:`CapacityError` on
        violation.  Cheap enough for tests; the engine relies on exactly
        these properties (see docs/PERFORMANCE.md):

        * ``bp``/``cum`` have equal length, ``bp`` strictly increasing
          from ``0.0``, ``cum[0] == 0.0``;
        * ``cum`` increments are *exactly* ``(bp[i+1] − bp[i]) ·
          rates[i]`` (the same arithmetic the naive scan performs);
        * every segment rate lies in the declared band (tolerantly);
        * the frontier lies past the last breakpoint.
        """
        bp, cum, rates = self._bp, self._cum, self._rates
        if not len(bp) == len(cum) == len(rates):
            raise CapacityError(
                f"index arrays out of sync: {len(bp)} breakpoints, "
                f"{len(cum)} prefix sums, {len(rates)} rates"
            )
        if not self._frontier > bp[-1]:
            raise CapacityError(
                f"frontier {self._frontier!r} not past the last breakpoint "
                f"{bp[-1]!r}"
            )
        if not bp or bp[0] != 0.0 or cum[0] != 0.0:
            raise CapacityError("index must start at (bp=0.0, W=0.0)")
        for i in range(len(bp) - 1):
            if bp[i + 1] <= bp[i]:
                raise CapacityError(
                    f"breakpoints not strictly increasing at {i}: "
                    f"{bp[i]} -> {bp[i + 1]}"
                )
            expected = cum[i] + (bp[i + 1] - bp[i]) * rates[i]
            if cum[i + 1] != expected:
                raise CapacityError(
                    f"prefix sum mismatch at {i}: {cum[i + 1]!r} != {expected!r}"
                )
        ensure_band(
            self._lower, self._upper, min(rates), max(rates),
            what="indexed segment rates",
        )


# ----------------------------------------------------------------------
# Naive reference implementations (linear scans over `pieces`)
# ----------------------------------------------------------------------
def naive_integrate(capacity: CapacityFunction, t0: float, t1: float) -> float:
    """The pre-index linear-scan ``integrate`` — the reference semantics
    every indexed implementation is cross-checked against."""
    return CapacityFunction.integrate(capacity, t0, t1)


def naive_advance(
    capacity: CapacityFunction, t0: float, work: float, horizon: float = math.inf
) -> float:
    """The pre-index linear-scan ``advance`` (reference semantics)."""
    return CapacityFunction.advance(capacity, t0, work, horizon)


def crosscheck_index(
    capacity: CapacityFunction,
    t0: float,
    t1: float,
    *,
    n_queries: int = 64,
    rel_tol: float = 1e-9,
) -> int:
    """Verify indexed ``integrate``/``advance`` against the naive linear
    scans on a grid of sub-intervals of ``[t0, t1]``.

    Returns the number of (integrate, advance) query pairs checked; raises
    :class:`CapacityError` on the first disagreement beyond ``rel_tol``
    (relative, with a matching absolute floor).  Used by the ``perf_smoke``
    tier-1 check and the property suite.
    """
    if not (0.0 <= t0 < t1):
        raise CapacityError(f"need 0 <= t0 < t1, got [{t0}, {t1}]")
    span = t1 - t0
    checked = 0
    for k in range(n_queries):
        a = t0 + span * k / n_queries
        b = t0 + span * (k + 1) / n_queries
        fast = capacity.integrate(a, b)
        slow = naive_integrate(capacity, a, b)
        if not math.isclose(fast, slow, rel_tol=rel_tol, abs_tol=rel_tol):
            raise CapacityError(
                f"indexed integrate([{a}, {b}]) = {fast!r} disagrees with "
                f"naive scan {slow!r}"
            )
        if slow > 0.0:
            fast_t = capacity.advance(a, slow)
            slow_t = naive_advance(capacity, a, slow)
            if not math.isclose(fast_t, slow_t, rel_tol=rel_tol, abs_tol=rel_tol):
                raise CapacityError(
                    f"indexed advance({a}, {slow}) = {fast_t!r} disagrees "
                    f"with naive scan {slow_t!r}"
                )
        checked += 1
    return checked
