"""Live-daemon telemetry smoke — the telemetry_smoke CI gate.

Spawns a real ``python -m repro serve`` child, drives wire traffic at
it, scrapes the HTTP exposition under load, lints the Prometheus text,
exercises ``repro top`` and ``repro obs trace`` against the live daemon
and its store, then SIGTERM-drains.  Exposition samples are written
under ``test-results/telemetry/`` so CI ships them as artifacts."""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import urllib.request
from pathlib import Path

import pytest

from repro.obs.telemetry import lint_prometheus

pytestmark = pytest.mark.telemetry_smoke

REPO = Path(__file__).resolve().parents[2]
ARTIFACT_DIR = REPO / "test-results" / "telemetry"


def _specs_doc():
    return {
        "tenants": [
            {
                "tenant": tenant,
                "horizon": 30.0,
                "scheduler": "edf",
                "capacity": {"kind": "constant", "params": {"rate": 1.0}},
                "queue_budget": 8,
                "snapshot_every": 4,
                "flush_every": 2,
            }
            for tenant in ("t0", "t1")
        ]
    }


def _spawn(store_dir, specs_file, *extra):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get(
        "PYTHONPATH", ""
    )
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--store",
            str(store_dir),
            "--specs",
            str(specs_file),
            "--no-fsync",
            *extra,
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
        text=True,
    )
    hello = json.loads(proc.stdout.readline())
    assert hello["event"] == "serving"
    return proc, hello


def _send(port, lines):
    acks = []
    with socket.create_connection(("127.0.0.1", port), timeout=60.0) as sock:
        fh = sock.makefile("rw", encoding="utf-8", newline="\n")
        for line in lines:
            fh.write(line + "\n")
            fh.flush()
            acks.append(json.loads(fh.readline()))
    return acks


def _http(port, path):
    with urllib.request.urlopen(
        f"http://127.0.0.1:{port}{path}", timeout=10
    ) as resp:
        return resp.status, resp.headers, resp.read().decode("utf-8")


def _submit(tenant, jid, release, rid=None):
    doc = {
        "type": "submit",
        "tenant": tenant,
        "job": {
            "jid": jid,
            "release": release,
            "workload": 1.0,
            "deadline": release + 5.0,
            "value": 1.0 + jid,
        },
    }
    if rid:
        doc["request_id"] = rid
    return json.dumps(doc)


class TestTelemetrySmoke:
    def test_live_daemon_scrape_top_and_trace(self, tmp_path):
        ARTIFACT_DIR.mkdir(parents=True, exist_ok=True)
        store = tmp_path / "store"
        specs = tmp_path / "specs.json"
        specs.write_text(json.dumps(_specs_doc()))
        proc, hello = _spawn(store, specs)
        try:
            port = hello["port"]
            tport = hello["telemetry_port"]
            assert tport, "daemon hello did not announce a telemetry port"

            lines = [
                _submit("t0", jid, 1.0 + 0.5 * jid, rid=f"smoke-{jid}")
                for jid in range(6)
            ]
            lines += [_submit("t1", jid, 1.0 + 0.5 * jid) for jid in range(4)]
            lines.append(
                json.dumps(
                    {"type": "fault", "tenant": "t0", "op": "crash",
                     "time": 2.0, "request_id": "smoke-crash"}
                )
            )
            acks = _send(port, lines)
            assert all(a["ok"] for a in acks), acks
            # ingress minted ids for the rid-less t1 submits
            minted = [a["request_id"] for a in acks[6:10]]
            assert all(r.startswith("ing-") for r in minted)

            # --- HTTP exposition under live traffic -----------------
            status, headers, prom = _http(tport, "/metrics")
            assert status == 200
            assert "version=0.0.4" in headers["Content-Type"]
            problems = lint_prometheus(prom)
            assert problems == [], problems
            assert 'repro_submitted_total{tenant="t0"} 6.0' in prom
            (ARTIFACT_DIR / "metrics.prom").write_text(prom)

            status, _, body = _http(tport, "/metrics.json")
            assert status == 200
            fleet = json.loads(body)["tenants"]
            assert set(fleet) == {"t0", "t1"}
            assert fleet["t0"]["stats"]["forced_crashes"] == 1
            counters = fleet["t0"]["stats"]["metrics"]["counters"]
            assert counters["service.injected.crash"] == 1
            (ARTIFACT_DIR / "metrics.json").write_text(body)

            status, _, body = _http(tport, "/health")
            assert status == 200
            health = json.loads(body)["health"]
            assert health["t0"] == "degraded"  # it crashed and recovered
            assert health["t1"] == "ok"
            (ARTIFACT_DIR / "health.json").write_text(body)

            # --- metrics/health wire messages ------------------------
            ack = _send(
                port, [json.dumps({"type": "metrics", "tenant": "*"})]
            )[0]
            assert ack["ok"] and set(ack["tenants"]) == {"t0", "t1"}

            # --- `repro top` one-shot against the live exposition ----
            top = subprocess.run(
                [
                    sys.executable, "-m", "repro", "top",
                    "--port", str(tport), "--iterations", "1", "--no-clear",
                ],
                capture_output=True,
                text=True,
                timeout=60,
                env=dict(
                    os.environ,
                    PYTHONPATH=str(REPO / "src")
                    + os.pathsep
                    + os.environ.get("PYTHONPATH", ""),
                ),
            )
            assert top.returncode == 0, top.stderr
            assert "TENANT" in top.stdout and "t0" in top.stdout
            (ARTIFACT_DIR / "top.txt").write_text(top.stdout)
        finally:
            proc.send_signal(signal.SIGTERM)
            out, err = proc.communicate(timeout=60)
        assert proc.returncode == 0, err
        drained = next(
            json.loads(line)
            for line in out.splitlines()
            if json.loads(line).get("event") == "drained"
        )
        counters = drained["stats"]["t0"]["metrics"]["counters"]
        assert counters["service.injected.crash"] == 1

        # --- `repro obs trace` across the daemon's exit ---------------
        trace = subprocess.run(
            [
                sys.executable, "-m", "repro", "obs", "trace", "smoke-0",
                "--store", str(store),
            ],
            capture_output=True,
            text=True,
            timeout=60,
            env=dict(
                os.environ,
                PYTHONPATH=str(REPO / "src")
                + os.pathsep
                + os.environ.get("PYTHONPATH", ""),
            ),
        )
        assert trace.returncode == 0, trace.stderr
        assert "request 'smoke-0'" in trace.stdout
        assert "outcome=accepted" in trace.stdout
        (ARTIFACT_DIR / "trace.txt").write_text(trace.stdout)
