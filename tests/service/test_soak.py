"""Service ↔ replay parity under chaos — the soak_smoke CI gate.

A miniature (seconds, not minutes) chaos soak through the *real* stack:
3 tenants of Poisson wire traffic via the ingress, sensor noise, kill
and revocation start faults, ingress-injected kills/evictions and ≥ 5
forced kernel crashes.  The assertions are the service's acceptance
criteria verbatim: zero accepted-then-lost jobs, restarts within the
backoff cap, and every tenant's surviving journal replaying
bit-identically through the closed-horizon engine — shed accounting
included.  Per-tenant stores (op log, snapshots) are written under
``test-results/soak/`` so a CI failure ships the evidence as artifacts.
"""

from __future__ import annotations

import shutil
from pathlib import Path

import pytest

from repro.experiments.soak import SoakConfig, run_soak
from repro.service import RestartPolicy

ARTIFACT_DIR = Path(__file__).resolve().parents[2] / "test-results" / "soak"


@pytest.mark.soak_smoke
class TestSoakSmoke:
    def test_chaos_soak_replays_bit_identically(self):
        # A previous run's stores are this run's artifacts only.
        shutil.rmtree(ARTIFACT_DIR, ignore_errors=True)
        config = SoakConfig(
            tenants=3,
            lam=2.0,
            horizon=24.0,
            seed=2011,
            forced_crashes=5,
            ingress_faults_per_tenant=2,
            kill_rate=0.05,
            revocation_rate=0.02,
            sensor_noise=0.1,
            snapshot_every=8,
            policy=RestartPolicy(backoff_base=0.001, backoff_cap=0.004),
            store_dir=str(ARTIFACT_DIR),
        )
        report = run_soak(config)

        # The acceptance gate, itemised so a failure names the criterion.
        assert report.forced_crashes >= 5
        assert report.recoveries >= report.forced_crashes
        assert report.malformed_rejected, "a malformed line was accepted"
        for tenant, outcome in sorted(report.outcomes.items()):
            assert outcome.report.lost_jids == (), (
                f"{tenant}: accepted-then-lost jobs "
                f"{outcome.report.lost_jids}"
            )
            assert outcome.backoffs_within_cap, (
                f"{tenant}: backoffs {outcome.report.backoffs} exceed "
                f"cap {config.policy.backoff_cap}"
            )
            assert outcome.check.ok, (
                f"{tenant}: replay parity failed: {outcome.check.failures}"
            )
            # One durable stream per decision: the op log (plus spec,
            # live snapshots and the history they leave out) is all a
            # tenant's store holds.
            store = ARTIFACT_DIR / tenant
            assert sorted(p.name for p in store.iterdir()) == [
                "history", "oplog", "snaps", "spec.json",
            ]
            assert any(p.suffix == ".seg" for p in (store / "oplog").iterdir())
        assert report.ok
        assert report.failures() == []

    def test_soak_exercises_shedding_parity(self):
        """A starved budget forces queue_budget sheds mid-soak; the shed
        accounting must still balance and the replay must still agree."""
        shutil.rmtree(ARTIFACT_DIR / "starved", ignore_errors=True)
        config = SoakConfig(
            tenants=3,
            lam=4.0,
            horizon=16.0,
            seed=7,
            forced_crashes=3,
            queue_budget=3,
            snapshot_every=8,
            policy=RestartPolicy(backoff_base=0.001, backoff_cap=0.004),
            store_dir=str(ARTIFACT_DIR / "starved"),
        )
        report = run_soak(config)
        assert report.shed > 0, "the starved soak never shed — not a test"
        assert report.submitted == report.accepted + report.shed
        assert report.ok, report.failures()

    def test_soak_emits_health_timeline(self, tmp_path):
        """With ``--timeline`` the soak writes a machine-readable JSONL
        health timeline: per-chunk fleet scrapes with health states and
        SLO snapshots while crashes are landing."""
        import json

        timeline = tmp_path / "timeline.jsonl"
        config = SoakConfig(
            tenants=2,
            lam=2.0,
            horizon=12.0,
            seed=2011,
            forced_crashes=2,
            ingress_faults_per_tenant=1,
            policy=RestartPolicy(backoff_base=0.001, backoff_cap=0.004),
            timeline_path=str(timeline),
        )
        report = run_soak(config)
        assert report.ok, report.failures()
        assert report.timeline_path == str(timeline)
        assert any(
            "health timeline" in line for line in report.summary_lines()
        )
        rows = [
            json.loads(line)
            for line in timeline.read_text().splitlines()
            if line.strip()
        ]
        assert rows, "timeline is empty"
        last = rows[-1]
        assert set(last["health"]) == {"t0", "t1"}
        for tenant, entry in last["fleet"].items():
            assert entry["health"] in ("ok", "degraded", "restarting")
            assert entry["stats"]["tenant"] == tenant
            assert "metrics" in entry["stats"]
            assert "live" in entry["slo"]
        # lines_sent is monotone: the scrapes straddle the whole stream
        sent = [row["lines_sent"] for row in rows]
        assert sent == sorted(sent) and sent[-1] > 0


@pytest.mark.kill_soak_smoke
class TestKill9Smoke:
    """The durability acceptance gate: SIGKILL a real child service
    mid-traffic, cold-start from disk, resend the whole stream, and
    prove bit-identical replay parity plus zero accepted-job loss.

    Runs as its own CI step (``-m kill_soak_smoke``); the store
    directory lands under ``test-results/kill9/`` so a failure ships
    the op log and snapshots as artifacts."""

    def test_kill9_soak_passes(self):
        from repro.experiments.soak import Kill9Config, run_kill9

        store_dir = ARTIFACT_DIR.parent / "kill9"
        # A previous run's store would be cold-started instead of a fresh
        # one; the directory is this run's failure artifact only.
        shutil.rmtree(store_dir, ignore_errors=True)
        config = Kill9Config(
            tenants=2,
            lam=2.0,
            horizon=20.0,
            seed=2011,
            kills=3,
            forced_crashes=2,
            ingress_faults_per_tenant=2,
            snapshot_every=8,
            store_dir=str(store_dir),
        )
        report = run_kill9(config)

        assert report.kills_delivered == 3
        assert report.incarnations >= 5  # kills + final traffic + audit
        assert report.drain_exit_code == 0
        # Resending the full stream after each cold start must hit the
        # dedup journal, not re-admit: a healthy run sees many of them.
        assert report.duplicate_acks > 0
        for k, per_tenant in sorted(report.parity_per_kill.items()):
            for tenant, ok in sorted(per_tenant.items()):
                assert ok, f"kill {k}: {tenant} lost replay parity"
        # Drain-boundary bit-identity: the audited cold start reports
        # the same counters the drained service last printed — and the
        # same SLO snapshot (modulo the restart-legitimate fields).
        from repro.obs.telemetry import slo_parity_view

        for tenant, drained in sorted(report.drain_stats.items()):
            cold = report.cold_stats[tenant]
            for key in ("submitted", "accepted", "shed", "accepted_crc"):
                assert drained[key] == cold[key], (tenant, key)
            assert drained["accepted"] + drained["shed"] == drained["submitted"]
            assert slo_parity_view(drained["metrics"]) == slo_parity_view(
                cold["metrics"]
            ), f"{tenant}: metrics diverged across the drain boundary"
        for tenant, ack in sorted(report.close_acks.items()):
            assert ack.get("parity") is True, (tenant, ack)
            assert ack.get("lost") == [], (tenant, ack)
        assert report.ok, report.failures()

        # The machine-readable health timeline straddles every SIGKILL:
        # one fleet scrape per incarnation, every tenant present.
        import json

        assert report.timeline_path
        rows = [
            json.loads(line)
            for line in Path(report.timeline_path).read_text().splitlines()
            if line.strip()
        ]
        events = [row["event"] for row in rows]
        assert events.count("pre_kill") == 3
        assert "pre_drain" in events and "post_cold_start" in events
        for row in rows:
            assert set(row["fleet"]) == {"t0", "t1"}, row
