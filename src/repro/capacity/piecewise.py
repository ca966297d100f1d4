"""Piecewise-constant capacity defined by explicit breakpoints.

This is the workhorse representation: the CTMC model of the paper's
Section IV, trace-driven models, and the residual capacity left by primary
cloud jobs all reduce to a sorted list of ``(breakpoint, rate)`` pairs.
All queries go through the shared prefix-sum index
(:class:`repro.capacity.prefix.PrefixIndexedCapacity`): ``integrate`` and
``advance`` are ``O(log n)`` bisections on the cumulative-work array and
iteration over ``pieces`` is ``O(k)`` in the number of pieces returned.

Bound validation is tolerance-aware (relative ε ≈ 1e-12, via
:func:`repro.capacity.base.ensure_band`): declared bounds are routinely
*derived* floats that can drift ~1 ulp from the realized rates, and such
drift must not reject a legitimate instance.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import Iterator, Sequence, Tuple

from repro.capacity.base import Piece, ensure_band
from repro.capacity.prefix import PrefixIndexedCapacity, build_prefix
from repro.errors import CapacityError

__all__ = ["PiecewiseConstantCapacity"]


class PiecewiseConstantCapacity(PrefixIndexedCapacity):
    """Capacity that is constant between sorted breakpoints.

    Parameters
    ----------
    breakpoints:
        Strictly increasing times ``b_0 < b_1 < ...`` with ``b_0 == 0.0``.
        The rate on ``[b_i, b_{i+1})`` is ``rates[i]``; past the last
        breakpoint the rate is ``rates[-1]`` forever.
    rates:
        One rate per breakpoint; all must be positive.
    lower, upper:
        Declared bounds of the capacity input set.  Default to the min/max
        of ``rates``.  The declared bounds may be wider than the realized
        trajectory (the scheduler only ever learns the declaration) but must
        contain every rate — up to the shared 1e-12 relative tolerance for
        derived-float drift (see :mod:`repro.capacity.base`).
    """

    def __init__(
        self,
        breakpoints: Sequence[float],
        rates: Sequence[float],
        *,
        lower: float | None = None,
        upper: float | None = None,
    ) -> None:
        if len(breakpoints) != len(rates):
            raise CapacityError(
                f"{len(breakpoints)} breakpoints but {len(rates)} rates"
            )
        if not breakpoints:
            raise CapacityError("at least one (breakpoint, rate) pair required")
        if breakpoints[0] != 0.0:
            raise CapacityError(
                f"first breakpoint must be 0.0, got {breakpoints[0]!r}"
            )
        bp = [float(b) for b in breakpoints]
        for a, b in zip(bp, bp[1:]):
            if b <= a:
                raise CapacityError(f"breakpoints not strictly increasing: {a} -> {b}")
        rt = [float(r) for r in rates]
        for r in rt:
            if r <= 0.0:
                raise CapacityError(f"non-positive rate: {r!r}")
        lo = min(rt) if lower is None else float(lower)
        hi = max(rt) if upper is None else float(upper)
        ensure_band(lo, hi, min(rt), max(rt))
        super().__init__(lo, hi)
        self._bp = bp
        self._rates = rt
        # Prefix-sum index: cum[i] = ∫_0^{bp[i]} c (see capacity/prefix.py).
        self._cum = build_prefix(bp, rt)

    # ------------------------------------------------------------------
    @property
    def breakpoints(self) -> Tuple[float, ...]:
        return tuple(self._bp)

    @property
    def rates(self) -> Tuple[float, ...]:
        return tuple(self._rates)

    def _index(self, t: float) -> int:
        """Index of the piece containing ``t`` (pieces close on the left)."""
        return max(0, bisect_right(self._bp, t) - 1)

    # ------------------------------------------------------------------
    def value(self, t: float) -> float:
        if t < 0.0:
            raise CapacityError(f"capacity undefined for t < 0: {t!r}")
        return self._rates[self._index(t)]

    def pieces(self, t0: float, t1: float) -> Iterator[Piece]:
        if t1 <= t0:
            return
        if t0 < 0.0:
            raise CapacityError(f"capacity undefined for t < 0: {t0!r}")
        i = self._index(t0)
        start = t0
        n = len(self._bp)
        while start < t1:
            end = self._bp[i + 1] if i + 1 < n else math.inf
            if end > t1:
                end = t1
            yield (start, end, self._rates[i])
            start = end
            i += 1

    # integrate / advance / cumulative / next_change: O(log n) via the
    # shared prefix-sum index (PrefixIndexedCapacity).

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PiecewiseConstantCapacity(n_pieces={len(self._bp)}, "
            f"lower={self.lower:g}, upper={self.upper:g})"
        )
