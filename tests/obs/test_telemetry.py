"""SLO telemetry primitives: window rings, trackers, parity, exposition."""

from __future__ import annotations

import json

import pytest

from repro.errors import ObservabilityError
from repro.obs.metrics import WindowRing
from repro.obs.telemetry import (
    HEALTH_STATES,
    SloTracker,
    lint_prometheus,
    render_prometheus,
    render_top,
    slo_parity_view,
)


def _restored(doc):
    """A ring rebuilt from a snapshot: merged into an empty ring."""
    ring = WindowRing(doc["width"], doc["slots"])
    ring.merge(doc)
    return ring


class TestWindowRing:
    def test_observations_land_in_width_buckets(self):
        ring = WindowRing(width=2.0, slots=4)
        ring.observe(0.5, "hit")
        ring.observe(1.9, "hit")
        ring.observe(2.0, "hit")
        assert ring.buckets() == [(0, {"hit": 2.0}), (1, {"hit": 1.0})]
        assert ring.total("hit") == 3.0
        assert ring.total("missing") == 0.0

    def test_retention_prunes_oldest_buckets(self):
        ring = WindowRing(width=1.0, slots=3)
        for t in range(6):
            ring.observe(float(t), "x")
        assert [i for i, _ in ring.buckets()] == [3, 4, 5]
        assert ring.dropped_buckets == 3

    def test_rate_is_windowed_ratio(self):
        ring = WindowRing(width=1.0, slots=8)
        ring.observe(0.0, "miss")
        ring.observe(0.0, "done")
        ring.observe(1.0, "done")
        ring.observe(2.0, "done")
        assert ring.rate("miss", "done") == pytest.approx(1.0 / 3.0)
        assert WindowRing(1.0).rate("miss", "done") == 0.0

    def test_snapshot_round_trips_through_json(self):
        ring = WindowRing(width=2.5, slots=4)
        for t, name in [(0.1, "a"), (3.3, "b"), (9.9, "a"), (11.0, "a")]:
            ring.observe(t, name)
        doc = json.loads(json.dumps(ring.snapshot()))
        back = _restored(doc)
        assert back.snapshot() == ring.snapshot()

    def test_merge_is_exact_on_retained_buckets(self):
        # One stream counted whole vs split at an arbitrary point must
        # agree on every retained bucket — the crash-resume guarantee
        # (dropped_buckets is diagnostic only and may double-count).
        stream = [(0.2, "a"), (1.7, "b"), (2.1, "a"), (5.5, "a"), (7.0, "b")]
        whole = WindowRing(width=2.0, slots=3)
        for t, name in stream:
            whole.observe(t, name)
        for cut in range(len(stream) + 1):
            left = WindowRing(width=2.0, slots=3)
            right = WindowRing(width=2.0, slots=3)
            for t, name in stream[:cut]:
                left.observe(t, name)
            for t, name in stream[cut:]:
                right.observe(t, name)
            left.merge(right.snapshot())
            assert left.buckets() == whole.buckets(), f"cut={cut}"

    def test_restore_then_continue_matches_uninterrupted(self):
        # The boundary the service actually crosses: snapshot mid-stream,
        # restore, keep observing — must be bit-identical to never
        # having stopped (including dropped_buckets).
        stream = [(0.2, "a"), (1.7, "b"), (2.1, "a"), (5.5, "a"), (7.0, "b")]
        whole = WindowRing(width=2.0, slots=3)
        for t, name in stream:
            whole.observe(t, name)
        for cut in range(len(stream) + 1):
            head = WindowRing(width=2.0, slots=3)
            for t, name in stream[:cut]:
                head.observe(t, name)
            resumed = _restored(json.loads(json.dumps(head.snapshot())))
            for t, name in stream[cut:]:
                resumed.observe(t, name)
            assert resumed.snapshot() == whole.snapshot(), f"cut={cut}"

    def test_merge_rejects_different_geometry(self):
        with pytest.raises(ObservabilityError):
            WindowRing(1.0, 4).merge(WindowRing(2.0, 4).snapshot())
        with pytest.raises(ObservabilityError):
            WindowRing(1.0, 4).merge(WindowRing(1.0, 8).snapshot())

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ObservabilityError):
            WindowRing(0.0)
        with pytest.raises(ObservabilityError):
            WindowRing(1.0, slots=0)


class TestSloTracker:
    def _tracker(self):
        slo = SloTracker(horizon=16.0, slots=8)
        slo.observe(1.0, "service.admitted")
        slo.observe(2.0, "service.admitted")
        slo.observe(2.5, "service.shed")
        slo.observe(2.5, "service.shed.queue_budget")
        slo.counter("service.recoveries").inc()
        slo.gauge("service.depth").set(3)
        slo.gauge("service.depth").set(1)
        slo.histogram("service.fsync_s").observe(0.004)
        slo.histogram("service.fsync_s").observe(0.002)
        return slo

    def test_counters_ring_and_gauges(self):
        slo = self._tracker()
        snap = slo.snapshot()
        assert snap["counters"]["service.admitted"] == 2
        assert snap["counters"]["service.shed.queue_budget"] == 1
        assert snap["counters"]["service.recoveries"] == 1
        assert slo.decisions.total("service.admitted") == 2.0
        assert slo.decisions.total("service.recoveries") == 0.0  # not windowed
        assert snap["gauges"]["service.depth"] == {"last": 1, "hwm": 3}
        fsync = snap["histograms"]["service.fsync_s"]
        assert fsync["count"] == 2
        assert fsync["min"] == pytest.approx(0.002)
        assert fsync["max"] == pytest.approx(0.004)
        assert list(snap["windows"]) == [SloTracker.WINDOW]

    def test_snapshot_restore_round_trip(self):
        # A restore is a merge into a fresh tracker.
        slo = self._tracker()
        back = SloTracker(horizon=16.0, slots=8)
        back.merge(json.loads(json.dumps(slo.snapshot(), allow_nan=False)))
        assert back.snapshot() == slo.snapshot()

    def test_merge_pools_everything(self):
        a, b = self._tracker(), self._tracker()
        b.observe(9.0, "service.admitted")
        b.gauge("service.depth").set(7)
        a.merge(b.snapshot())
        snap = a.snapshot()
        assert snap["counters"]["service.admitted"] == 5
        assert snap["gauges"]["service.depth"] == {"last": 7, "hwm": 7}
        assert snap["histograms"]["service.fsync_s"]["count"] == 4
        assert a.decisions.total("service.admitted") == 5.0

    def test_parity_view_strips_restart_and_wall_clock_fields(self):
        slo = self._tracker()
        view = slo_parity_view(slo.snapshot())
        assert "histograms" not in view
        assert "service.recoveries" not in view["counters"]
        assert "service.cold_starts" not in view["counters"]
        assert view["counters"]["service.admitted"] == 2
        # A cold start bumps recoveries/cold_starts and sees different
        # fsync wall-clock latencies — parity must still hold.
        other = SloTracker(horizon=16.0, slots=8)
        other.merge(slo.snapshot())
        other.counter("service.recoveries").inc()
        other.counter("service.cold_starts").inc()
        other.histogram("service.fsync_s").observe(1.23)
        assert slo_parity_view(other.snapshot()) == view
        # ...but a real counter divergence must not.
        other.observe(3.0, "service.admitted")
        assert slo_parity_view(other.snapshot()) != view


def _fleet():
    slo = SloTracker(horizon=10.0, slots=5)
    slo.observe(1.0, "service.admitted")
    slo.observe(2.0, "service.shed")
    slo.observe(2.0, "service.shed.queue_budget")
    slo.histogram("service.fsync_s").observe(0.001)
    return {
        "t0": {
            "health": "degraded",
            "restarts": 1,
            "stats": {
                "tenant": "t0",
                "submitted": 6,
                "accepted": 5,
                "shed": 1,
                "recoveries": 1,
                "forced_crashes": 0,
                "frontier": 8.0,
                "metrics": slo.snapshot(),
            },
            "slo": {
                "live": {
                    "completions": 4,
                    "deadline_misses": 1,
                    "miss_rate": 0.2,
                    "attained_value": 12.5,
                    "executed_work": 10.0,
                    "value_per_capacity": 1.25,
                    "depth": 2,
                    "frontier": 8.0,
                }
            },
        },
        "t1": {"health": "restarting", "restarts": 2, "stats": {}, "slo": {}},
    }


class TestPrometheus:
    def test_render_passes_strict_lint(self):
        text = render_prometheus(_fleet())
        assert lint_prometheus(text) == []

    def test_health_series_cover_every_state(self):
        text = render_prometheus(_fleet())
        for state in HEALTH_STATES:
            assert f'repro_tenant_health{{tenant="t0",state="{state}"}}' in text
        assert (
            'repro_tenant_health{tenant="t1",state="restarting"} 1' in text
        )
        assert 'repro_tenant_health{tenant="t1",state="ok"} 0' in text

    def test_samples_reflect_the_scrape(self):
        text = render_prometheus(_fleet())
        assert 'repro_submitted_total{tenant="t0"} 6.0' in text
        assert 'repro_deadline_misses_total{tenant="t0"} 1.0' in text
        assert (
            'repro_shed_reason_total{tenant="t0",reason="queue_budget"} 1.0'
            in text
        )
        assert 'repro_fsync_latency_seconds_count{tenant="t0"} 1.0' in text

    def test_lint_catches_real_format_errors(self):
        assert lint_prometheus("repro_x 1\n")  # no TYPE
        assert lint_prometheus("# TYPE repro_x rainbow\nrepro_x 1\n")
        assert lint_prometheus(
            "# TYPE repro_x counter\nrepro_x 1\n"
        )  # counter without _total
        assert lint_prometheus(
            "# TYPE repro_x_total counter\n"
            "repro_x_total{tenant=t0} 1\n"  # unquoted label value
        )
        assert lint_prometheus(
            "# TYPE repro_x gauge\nrepro_x abc\n"
        )  # non-numeric value
        assert lint_prometheus(
            "# TYPE repro_x gauge\nrepro_x 1\nrepro_x 2\n"
        )  # duplicate series
        # and the good shapes pass
        assert (
            lint_prometheus(
                "# HELP repro_x_total help.\n"
                "# TYPE repro_x_total counter\n"
                'repro_x_total{tenant="a b"} 1\n'
                'repro_x_total{tenant="c"} +Inf\n'
            )
            == []
        )

    def test_bare_comment_lines_allowed(self):
        assert lint_prometheus("#\n# free-form comment\n") == []

    def test_label_values_with_commas_and_braces(self):
        # Legal text format: a quoted value may hold ',' and '}'.
        head = "# TYPE repro_x_total counter\n"
        assert lint_prometheus(head + 'repro_x_total{tenant="a,b"} 1\n') == []
        assert lint_prometheus(head + 'repro_x_total{tenant="x}y"} 1\n') == []
        assert (
            lint_prometheus(
                head + 'repro_x_total{tenant="a,b",reason="x}y",} 1\n'
            )
            == []
        )
        # ...and the renderer's own output for such names lints clean.
        fleet = _fleet()
        fleet["a,b"] = fleet.pop("t0")
        fleet["x}y"] = fleet.pop("t1")
        text = render_prometheus(fleet)
        assert 'repro_submitted_total{tenant="a,b"} 6.0' in text
        assert lint_prometheus(text) == []
        # Still strict: missing comma, unterminated quote, bad name.
        assert lint_prometheus(head + 'repro_x_total{a="1" b="2"} 1\n')
        assert lint_prometheus(head + 'repro_x_total{a="1} 1\n')
        assert lint_prometheus(head + 'repro_x_total{1a="1"} 1\n')


class TestTop:
    def test_screen_contains_tenants_and_totals(self):
        screen = render_top(_fleet(), title="repro top — demo")
        assert screen.startswith("repro top — demo")
        assert "TENANT" in screen and "MISS%" in screen
        lines = screen.splitlines()
        t0 = next(line for line in lines if line.startswith("t0"))
        assert "degraded" in t0
        assert "20.0" in t0  # miss_rate 0.2 -> 20.0%
        t1 = next(line for line in lines if line.startswith("t1"))
        assert "restarting" in t1
        assert lines[-1].startswith("fleet: 2 tenant(s)")
        assert "submitted=6" in lines[-1]
