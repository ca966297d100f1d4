"""Markov-modulated capacity — the stochastic model of the paper's Section IV.

The paper drives its simulation with a two-state continuous-time Markov
process: ``c(t)`` alternates between ``1.0`` and ``35.0`` with exponentially
distributed sojourn times of mean ``H/4``.  :class:`TwoStateMarkovCapacity`
implements exactly that; :class:`MarkovModulatedCapacity` generalises it to
any finite state space with a transition kernel.

Trajectories are sampled lazily and memoized: the realized path is extended
(with the owned :class:`numpy.random.Generator`) only as far as queries
require, so repeated queries are consistent within a run and two runs with
the same seed see the same path regardless of query order along increasing
time.  The path doubles as the shared prefix-sum capacity index
(:class:`repro.capacity.prefix.PrefixIndexedCapacity`): the cumulative-work
array ``W`` grows append-only with the breakpoints, so ``integrate`` and
``advance`` stay ``O(log n)`` however long the realized path gets — this is
the incremental-extension side of the index contract (docs/PERFORMANCE.md).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import Iterator, Sequence

import numpy as np

from repro.capacity.base import Piece, ensure_band
from repro.capacity.prefix import PrefixIndexedCapacity
from repro.errors import CapacityError

__all__ = ["MarkovModulatedCapacity", "TwoStateMarkovCapacity"]


class MarkovModulatedCapacity(PrefixIndexedCapacity):
    """Capacity following a continuous-time Markov chain over finite rates.

    Parameters
    ----------
    rates:
        Capacity value of each state (all positive).
    mean_sojourns:
        Mean of the exponential sojourn time in each state.
    transitions:
        Row-stochastic jump matrix with zero diagonal: ``transitions[i][j]``
        is the probability that the chain jumps to state ``j`` when it
        leaves state ``i``.  Defaults to the uniform kernel over the other
        states (which for two states is deterministic alternation).
    initial_state:
        Index of the state occupied at ``t = 0``.
    rng:
        Seed or :class:`numpy.random.Generator` driving the sample path.
    lower, upper:
        Optional declared bounds of the capacity input set (default: the
        min/max state rate).  May be wider than the state rates; must
        contain them up to the shared 1e-12 relative tolerance for
        derived-float drift (see :mod:`repro.capacity.base`).
    """

    def __init__(
        self,
        rates: Sequence[float],
        mean_sojourns: Sequence[float],
        *,
        transitions: Sequence[Sequence[float]] | None = None,
        initial_state: int = 0,
        rng: np.random.Generator | int | None = None,
        lower: float | None = None,
        upper: float | None = None,
    ) -> None:
        if len(rates) < 2:
            raise CapacityError("a Markov capacity needs at least two states")
        if len(mean_sojourns) != len(rates):
            raise CapacityError(
                f"{len(rates)} rates but {len(mean_sojourns)} sojourn means"
            )
        state_rates = [float(r) for r in rates]
        for r in state_rates:
            if r <= 0.0:
                raise CapacityError(f"non-positive state rate: {r!r}")
        sojourns = [float(s) for s in mean_sojourns]
        for s in sojourns:
            if s <= 0.0:
                raise CapacityError(f"non-positive mean sojourn: {s!r}")
        n = len(state_rates)
        if transitions is None:
            kernel = np.full((n, n), 1.0 / (n - 1))
            np.fill_diagonal(kernel, 0.0)
        else:
            kernel = np.asarray(transitions, dtype=float)
            if kernel.shape != (n, n):
                raise CapacityError(
                    f"transition kernel must be {n}x{n}, got {kernel.shape}"
                )
            if np.any(np.diag(kernel) != 0.0):
                raise CapacityError("transition kernel must have zero diagonal")
            if np.any(kernel < 0.0) or not np.allclose(kernel.sum(axis=1), 1.0):
                raise CapacityError("transition kernel rows must sum to 1")
        if not 0 <= initial_state < n:
            raise CapacityError(f"initial_state {initial_state} out of range")

        lo = min(state_rates) if lower is None else float(lower)
        hi = max(state_rates) if upper is None else float(upper)
        ensure_band(lo, hi, min(state_rates), max(state_rates),
                    what="state rates")
        super().__init__(lo, hi)
        self._state_rates = state_rates
        self._sojourns = sojourns
        self._kernel = kernel
        self._rng = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)

        # Materialized sample path == prefix-sum index (grown lazily,
        # append-only; see PrefixIndexedCapacity's extension contract).
        self._bp: list[float] = [0.0]
        self._states: list[int] = [initial_state]
        self._rates: list[float] = [state_rates[initial_state]]
        self._cum: list[float] = [0.0]
        # Time at which the *current* final segment ends (exclusive); the
        # final segment's rate is valid on [bp[-1], _frontier).
        self._frontier = 0.0
        self._sample_next_sojourn()

    def __setstate__(self, state: dict) -> None:
        # Paths pickled before the index kept a rate column carry only
        # their states.
        self.__dict__.update(state)
        if "_rates" not in state:
            self._rates = [self._state_rates[s] for s in self._states]

    # ------------------------------------------------------------------
    # Path materialization
    # ------------------------------------------------------------------
    def _sample_next_sojourn(self) -> None:
        """Extend the frontier by one exponential sojourn in the last state."""
        state = self._states[-1]
        self._frontier = self._bp[-1] + self._rng.exponential(self._sojourns[state])

    def _materialize(self, t: float) -> None:
        """Materialize the path (and its index) past ``t``: the index hook
        (see PrefixIndexedCapacity's extension contract)."""
        while self._frontier <= t:
            state = self._states[-1]
            start = self._bp[-1]
            end = self._frontier
            nxt = int(self._rng.choice(len(self._state_rates), p=self._kernel[state]))
            self._cum.append(self._cum[-1] + (end - start) * self._state_rates[state])
            self._bp.append(end)
            self._states.append(nxt)
            self._rates.append(self._state_rates[nxt])
            self._sample_next_sojourn()

    # ------------------------------------------------------------------
    # CapacityFunction interface
    # ------------------------------------------------------------------
    def value(self, t: float) -> float:
        if t < 0.0:
            raise CapacityError(f"capacity undefined for t < 0: {t!r}")
        return self._rates[self.segment_index(t)]

    def pieces(self, t0: float, t1: float) -> Iterator[Piece]:
        if t1 <= t0:
            return
        if t0 < 0.0:
            raise CapacityError(f"capacity undefined for t < 0: {t0!r}")
        if not math.isfinite(t1):
            raise CapacityError("cannot enumerate pieces to an infinite horizon")
        self._materialize(t1)
        i = max(0, bisect_right(self._bp, t0) - 1)
        start = t0
        while start < t1:
            end = self._bp[i + 1] if i + 1 < len(self._bp) else self._frontier
            if end > t1:
                end = t1
            yield (start, end, self._rates[i])
            start = end
            i += 1

    # integrate / advance / cumulative / next_change: O(log n) via the
    # shared prefix-sum index (PrefixIndexedCapacity), which calls the
    # _materialize hook above only at or past the frontier.

    @property
    def breakpoints_materialized(self) -> tuple[float, ...]:
        """Breakpoints of the realized path materialized so far.

        Append-only: indices of previously observed entries never change
        (the prefix-sum index's incremental-extension contract)."""
        return tuple(self._bp)

    # ------------------------------------------------------------------
    def realized_path(self, horizon: float) -> list[Piece]:
        """Return the realized trajectory on ``[0, horizon)`` as pieces.

        Useful for plotting and for handing the *exact* same path to an
        offline algorithm as a :class:`~repro.capacity.piecewise.
        PiecewiseConstantCapacity`.
        """
        return list(self.pieces(0.0, horizon))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(states={self._state_rates}, "
            f"sojourns={self._sojourns})"
        )


class TwoStateMarkovCapacity(MarkovModulatedCapacity):
    """The paper's Section-IV capacity process.

    ``c(t)`` alternates between ``low`` (default 1.0) and ``high`` (default
    35.0) with exponential sojourns of mean ``mean_sojourn`` (the paper uses
    ``H / 4`` where ``H`` is the simulation horizon).
    """

    def __init__(
        self,
        low: float = 1.0,
        high: float = 35.0,
        mean_sojourn: float = 1.0,
        *,
        start_high: bool = False,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        if low >= high:
            raise CapacityError(f"need low < high, got {low!r} >= {high!r}")
        super().__init__(
            rates=[low, high],
            mean_sojourns=[mean_sojourn, mean_sojourn],
            transitions=[[0.0, 1.0], [1.0, 0.0]],
            initial_state=1 if start_high else 0,
            rng=rng,
        )
