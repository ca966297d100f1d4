"""Unit tests for the metrics registry: instruments, snapshots, merging."""

from __future__ import annotations

import json

import pytest

from repro.errors import ObservabilityError
from repro.obs import MetricsRegistry, merge_snapshots


class TestInstruments:
    def test_counter(self):
        reg = MetricsRegistry()
        c = reg.counter("kernel.events")
        c.inc()
        c.inc(3)
        assert reg.counter("kernel.events") is c  # memoized
        assert reg.snapshot()["counters"]["kernel.events"] == 4

    def test_gauge_tracks_high_water_mark(self):
        reg = MetricsRegistry()
        g = reg.gauge("kernel.heap_size")
        g.set(3)
        g.set(7)
        g.set(2)
        snap = reg.snapshot()["gauges"]["kernel.heap_size"]
        assert snap["last"] == 2
        assert snap["hwm"] == 7

    def test_histogram_moments(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat")
        for x in (1.0, 3.0, 2.0):
            h.observe(x)
        doc = reg.snapshot()["histograms"]["lat"]
        assert doc["count"] == 3
        assert doc["sum"] == pytest.approx(6.0)
        assert doc["min"] == 1.0
        assert doc["max"] == 3.0

    def test_name_collision_across_types(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ObservabilityError):
            reg.gauge("x")
        with pytest.raises(ObservabilityError):
            reg.histogram("x")


class TestMerge:
    def _reg(self, n):
        reg = MetricsRegistry()
        reg.counter("events").inc(n)
        reg.gauge("heap").set(n)
        reg.histogram("wall").observe(float(n))
        return reg

    def test_merge_snapshots(self):
        snaps = [self._reg(n).snapshot() for n in (2, 5, 3)]
        merged = merge_snapshots(snaps)
        assert merged["counters"]["events"] == 10
        assert merged["gauges"]["heap"]["hwm"] == 5
        wall = merged["histograms"]["wall"]
        assert wall["count"] == 3
        assert wall["sum"] == pytest.approx(10.0)
        assert wall["min"] == 2.0 and wall["max"] == 5.0

    def test_merge_disjoint_names(self):
        a = MetricsRegistry()
        a.counter("only.a").inc()
        b = MetricsRegistry()
        b.counter("only.b").inc(2)
        merged = merge_snapshots([a.snapshot(), b.snapshot()])
        assert merged["counters"] == {"only.a": 1, "only.b": 2}

    def test_merge_empty(self):
        assert merge_snapshots([]) == {
            "counters": {},
            "gauges": {},
            "histograms": {},
        }


class TestWindows:
    def test_window_is_an_instrument(self):
        reg = MetricsRegistry()
        w = reg.window("decisions", 2.0, 4)
        w.observe(0.5, "hit")
        assert reg.window("decisions", 2.0, 4) is w  # memoized
        with pytest.raises(ObservabilityError):
            reg.window("decisions", 1.0, 4)  # geometry is fixed
        with pytest.raises(ObservabilityError):
            reg.counter("decisions")
        doc = reg.snapshot()["windows"]["decisions"]
        assert doc["buckets"] == [[0, {"hit": 1.0}]]

    def test_windows_key_only_when_a_window_exists(self):
        reg = MetricsRegistry()
        reg.counter("x").inc()
        assert "windows" not in reg.snapshot()

    def test_merge_adds_windows_bucket_wise(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.window("w", 1.0, 3).observe(0.0, "x")
        b.window("w", 1.0, 3).observe(0.5, "x")
        b.window("w", 1.0, 3).observe(4.0, "x")
        merged = merge_snapshots([a.snapshot(), b.snapshot()])
        assert merged["windows"]["w"]["buckets"] == [
            [0, {"x": 2.0}],
            [4, {"x": 1.0}],
        ]

    def test_empty_instruments_are_strict_json(self):
        # An unobserved histogram and an unset gauge report None, never
        # ±Infinity, and merge back without inventing extremes.
        reg = MetricsRegistry()
        reg.histogram("h")
        reg.gauge("g")
        snap = reg.snapshot()
        json.dumps(snap, allow_nan=False)
        assert snap["histograms"]["h"] == {
            "count": 0, "sum": 0.0, "min": None, "max": None,
        }
        assert snap["gauges"]["g"] == {"last": 0.0, "hwm": None}
        back = MetricsRegistry()
        back.merge(snap)
        assert back.snapshot() == snap
