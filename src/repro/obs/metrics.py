"""Metrics registry: counters, gauges, histograms and virtual-time
windows with snapshot/merge.

Design goals, in order:

1. **Cheap when hot** — instruments are plain ``__slots__`` objects;
   ``registry.counter(name)`` memoises, so steady-state cost is one dict
   hit plus an integer add.  (The *disabled* path never reaches here at
   all — see :mod:`repro.obs.core`.)
2. **Mergeable** — :meth:`MetricsRegistry.snapshot` produces a plain
   JSON-able dict (strict JSON: an empty histogram or an unset gauge
   reports ``None``, never ±Infinity) and :func:`merge_snapshots` folds
   many of them into one (counters add, gauges keep the high-water mark,
   histograms pool their moments, windows add bucket-wise).  This is how
   the Monte-Carlo runner aggregates per-worker registries into a
   sweep-level view, how checkpoints persist them, and — merged into an
   empty registry — how a service tenant restores its own.
3. **Deterministic where the simulation is** — counts derived from the
   event stream are reproducible; wall-clock histograms (dispatch latency,
   replication wall time) are not, which is why metrics are kept out of
   the byte-identical trace export by default.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Iterable, List, Mapping, Tuple

from repro.errors import ObservabilityError

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "WindowRing",
    "merge_snapshots",
]


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("n",)

    def __init__(self) -> None:
        self.n = 0

    def inc(self, k: int = 1) -> None:
        self.n += k


class Gauge:
    """Last-observed value plus its high-water mark."""

    __slots__ = ("last", "hwm")

    def __init__(self) -> None:
        self.last = 0.0
        self.hwm = -math.inf

    def set(self, value: float) -> None:
        self.last = value
        if value > self.hwm:
            self.hwm = value


class Histogram:
    """Streaming summary (count / sum / min / max) of observations.

    Deliberately bucket-free: the quantities the reports need (count,
    total, mean, extremes) merge exactly across workers; fixed buckets
    would add hot-path branches for little analytical gain here.
    """

    __slots__ = ("count", "total", "min", "max")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0


class WindowRing:
    """Fixed-size windowed counters over *virtual* time.

    Observations at time ``t`` land in bucket ``floor(t / width)``; only
    the newest ``slots`` buckets are kept (older ones are pruned and
    counted in :attr:`dropped_buckets`).  Virtual time makes the ring
    deterministic: the same decision stream produces the same ring,
    whichever process (or incarnation) counted it.
    """

    __slots__ = ("width", "slots", "dropped_buckets", "_buckets")

    def __init__(self, width: float, slots: int = 16) -> None:
        if not width > 0.0:
            raise ObservabilityError(f"ring width must be > 0, got {width!r}")
        if slots < 1:
            raise ObservabilityError(f"ring slots must be >= 1, got {slots!r}")
        self.width = float(width)
        self.slots = int(slots)
        self.dropped_buckets = 0
        self._buckets: Dict[int, Dict[str, float]] = {}

    def bucket_of(self, t: float) -> int:
        """The bucket index an observation at time ``t`` lands in."""
        return int(math.floor(float(t) / self.width))

    def observe(self, t: float, name: str, value: float = 1.0) -> None:
        index = self.bucket_of(t)
        bucket = self._buckets.get(index)
        if bucket is None:
            bucket = self._buckets[index] = {}
            self._prune()
        bucket[name] = bucket.get(name, 0.0) + float(value)

    def observe_count(self, index: int, name: str, count: int) -> None:
        """``count`` unit observations landing in bucket ``index``, at the
        cost of one: the same ring as ``count`` :meth:`observe` calls
        there (a bucket pruned as it is created is pruned again by each
        of them)."""
        bucket = self._buckets.get(index)
        if bucket is None:
            bucket = self._buckets[index] = {}
            self._prune()
            if index not in self._buckets:
                self.dropped_buckets += count - 1
                return
        bucket[name] = bucket.get(name, 0.0) + float(count)

    def _prune(self) -> None:
        while len(self._buckets) > self.slots:
            del self._buckets[min(self._buckets)]
            self.dropped_buckets += 1

    def buckets(self) -> List[Tuple[int, Dict[str, float]]]:
        """Retained buckets, oldest first, as ``(index, {name: value})``."""
        return [(i, dict(self._buckets[i])) for i in sorted(self._buckets)]

    def total(self, name: str) -> float:
        """Sum of ``name`` over the retained window."""
        return sum(b.get(name, 0.0) for b in self._buckets.values())

    def rate(self, hits: str, denominator: str) -> float:
        """Windowed ratio ``hits / denominator`` (0 when empty)."""
        denom = self.total(denominator)
        return self.total(hits) / denom if denom > 0.0 else 0.0

    def snapshot(self) -> Dict[str, Any]:
        return {
            "width": self.width,
            "slots": self.slots,
            "dropped_buckets": self.dropped_buckets,
            "buckets": [[i, dict(sorted(b.items()))] for i, b in self.buckets()],
        }

    def merge(self, doc: Mapping[str, Any]) -> None:
        """Fold a :meth:`snapshot` in exactly (same geometry required):
        bucket values add, then the union is pruned to the newest
        ``slots``.

        Exactness covers the *retained buckets*: a stream counted whole
        and the same stream counted in two halves then merged agree on
        every retained bucket.  ``dropped_buckets`` is diagnostic only —
        a bucket pruned in both halves is counted twice (the halves
        cannot know they overlapped)."""
        width, slots = float(doc["width"]), int(doc["slots"])
        if (self.width, self.slots) != (width, slots):
            raise ObservabilityError(
                "cannot merge rings with different geometry: "
                f"({self.width}, {self.slots}) vs ({width}, {slots})"
            )
        for index, values in doc.get("buckets", ()):
            bucket = self._buckets.setdefault(int(index), {})
            for name, value in values.items():
                bucket[name] = bucket.get(name, 0.0) + float(value)
        self.dropped_buckets += int(doc.get("dropped_buckets", 0))
        self._prune()


def _number(value: Any, default: float) -> float:
    return default if value is None else float(value)


class MetricsRegistry:
    """Named instruments, created on first use.

    A name is bound to exactly one instrument type for the registry's
    lifetime; asking for the same name with a different type raises
    :class:`~repro.errors.ObservabilityError` (silent type confusion would
    corrupt merges)."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._windows: Dict[str, WindowRing] = {}

    # ------------------------------------------------------------------
    def _check_unique(self, name: str, kind: str) -> None:
        owners = {
            "counter": self._counters,
            "gauge": self._gauges,
            "histogram": self._histograms,
            "window": self._windows,
        }
        for other_kind, table in owners.items():
            if other_kind != kind and name in table:
                raise ObservabilityError(
                    f"metric {name!r} already registered as a {other_kind}"
                )

    def counter(self, name: str) -> Counter:
        c = self._counters.get(name)
        if c is None:
            self._check_unique(name, "counter")
            c = self._counters[name] = Counter()
        return c

    def gauge(self, name: str) -> Gauge:
        g = self._gauges.get(name)
        if g is None:
            self._check_unique(name, "gauge")
            g = self._gauges[name] = Gauge()
        return g

    def histogram(self, name: str) -> Histogram:
        h = self._histograms.get(name)
        if h is None:
            self._check_unique(name, "histogram")
            h = self._histograms[name] = Histogram()
        return h

    def window(self, name: str, width: float, slots: int = 16) -> WindowRing:
        """The named :class:`WindowRing`; its geometry is fixed by the
        first call."""
        w = self._windows.get(name)
        if w is None:
            self._check_unique(name, "window")
            w = self._windows[name] = WindowRing(width, slots)
        elif (w.width, w.slots) != (float(width), int(slots)):
            raise ObservabilityError(
                f"window {name!r} already has geometry ({w.width}, {w.slots})"
            )
        return w

    def counter_value(self, name: str) -> int:
        """A counter's value without creating it (0 if never counted)."""
        c = self._counters.get(name)
        return 0 if c is None else c.n

    # ------------------------------------------------------------------
    # Snapshot / merge
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """A plain JSON-able image of every instrument (``windows`` only
        when a window exists)."""
        snap: Dict[str, Any] = {
            "counters": {k: c.n for k, c in sorted(self._counters.items())},
            "gauges": {
                k: {"last": g.last, "hwm": g.hwm if g.hwm > -math.inf else None}
                for k, g in sorted(self._gauges.items())
            },
            "histograms": {
                k: {
                    "count": h.count,
                    "sum": h.total,
                    "min": h.min if h.count else None,
                    "max": h.max if h.count else None,
                }
                for k, h in sorted(self._histograms.items())
            },
        }
        if self._windows:
            snap["windows"] = {
                k: w.snapshot() for k, w in sorted(self._windows.items())
            }
        return snap

    def merge(self, snap: Mapping[str, Any]) -> None:
        """Fold a :meth:`snapshot` dict into this registry's live state."""
        for name, n in snap.get("counters", {}).items():
            self.counter(name).inc(int(n))
        for name, doc in snap.get("gauges", {}).items():
            g = self.gauge(name)
            hwm = _number(doc.get("hwm"), -math.inf)
            if hwm > g.hwm:
                g.hwm = hwm
                g.last = float(doc.get("last", hwm))
        for name, doc in snap.get("histograms", {}).items():
            h = self.histogram(name)
            h.count += int(doc.get("count", 0))
            h.total += float(doc.get("sum", 0.0))
            h.min = min(h.min, _number(doc.get("min"), math.inf))
            h.max = max(h.max, _number(doc.get("max"), -math.inf))
        for name, doc in snap.get("windows", {}).items():
            self.window(name, doc["width"], doc["slots"]).merge(doc)


def merge_snapshots(snaps: Iterable[Mapping[str, Any]]) -> Dict[str, Any]:
    """Merge many snapshot dicts into one (the MC aggregation primitive).

    Counters add; gauges keep the maximal high-water mark (the ``last``
    value of the snapshot that owned it); histograms pool count/sum and
    take the global extremes; windows add bucket-wise."""
    acc = MetricsRegistry()
    for snap in snaps:
        acc.merge(snap)
    return acc.snapshot()
