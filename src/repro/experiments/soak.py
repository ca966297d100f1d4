"""Experiment E17: the chaos soak — an always-on service under fire.

Every robustness mechanism in this repository gets exercised somewhere;
the soak exercises them all *at once*, through the real service stack:
N tenants of Poisson traffic are encoded as JSON wire lines and driven
through :class:`~repro.service.ingress.ServiceIngress` into a live
:class:`~repro.service.supervisor.ScheduleService` while

* **sensor faults** corrupt what each tenant's scheduler observes
  (capacity noise wrappers from :mod:`repro.faults.spec`),
* **job kills** and **revocation bursts** mutate the executed world
  (start faults from :mod:`repro.faults.execution`),
* **ingress fault injections** push extra recorded kills/evictions, and
* **forced kernel crashes** (≥ 5 across the fleet by default) drive the
  supervisor's snapshot-restore → journal-verified op-log replay ladder,
* plus a sprinkle of deliberately malformed lines that must bounce off
  the ingress without hurting anybody.

The soak *passes* iff, for every tenant: zero accepted-then-lost jobs,
every restart backoff within the policy cap, and the per-tenant replay
check (:func:`repro.service.replay.replay_tenant`) proves the surviving
journal re-runs **bit-identically** through the closed-horizon engine —
shed accounting included.  See docs/EXPERIMENTS.md §E17.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ExperimentError
from repro.faults.execution import ExecutionFaultSpec
from repro.obs.telemetry import slo_parity_view
from repro.faults.spec import FaultSpec
from repro.service.ingress import ServiceIngress
from repro.service.messages import InjectFault, Submit, encode_message
from repro.service.replay import ReplayCheck, replay_tenant
from repro.service.shard import CapacitySpec, TenantReport, TenantSpec
from repro.service.supervisor import RestartPolicy, ScheduleService
from repro.workload.poisson import PoissonWorkload

__all__ = [
    "SoakConfig",
    "SoakReport",
    "TenantSoakOutcome",
    "run_soak",
    "Kill9Config",
    "Kill9Report",
    "run_kill9",
]

#: Garbage lines fed alongside real traffic — all must ack ``ok: false``.
_MALFORMED_LINES = (
    "not json at all",
    '{"type": "submit"}',
    '{"type": "warp", "tenant": "t0"}',
    '{"type": "submit", "tenant": "t0", "job": {"jid": 1}}',
    '{"type": "fault", "tenant": "t0", "op": "kill", "time": "soon"}',
)


@dataclass(frozen=True)
class SoakConfig:
    """Knobs for one soak run (defaults: the full acceptance soak)."""

    tenants: int = 3  #: number of tenant shards (>= 3 for the full soak)
    lam: float = 3.0  #: per-tenant Poisson arrival rate
    horizon: float = 40.0  #: per-tenant virtual horizon
    seed: int = 2011
    forced_crashes: int = 5  #: ingress-forced kernel crashes, fleet-wide
    ingress_faults_per_tenant: int = 2  #: extra recorded kills/evictions
    kill_rate: float = 0.05  #: start-fault Poisson kill rate
    revocation_rate: float = 0.02  #: start-fault revocation-onset rate
    sensor_noise: float = 0.1  #: capacity-sensor noise severity
    queue_budget: int = 64
    snapshot_every: int = 16
    policy: RestartPolicy = field(default_factory=RestartPolicy)
    #: durable tenant stores (op log, snapshots) under this directory
    store_dir: Optional[str] = None
    #: JSON-lines health timeline (one fleet scrape row per traffic
    #: chunk) — the machine-readable artifact CI uploads.
    timeline_path: Optional[str] = None

    def __post_init__(self) -> None:
        if self.tenants < 1:
            raise ExperimentError(f"need >= 1 tenant, got {self.tenants}")
        if self.forced_crashes < 0:
            raise ExperimentError("forced_crashes must be >= 0")


@dataclass
class TenantSoakOutcome:
    """One tenant's soak verdict: the report plus its replay check."""

    report: TenantReport
    check: ReplayCheck
    backoffs_within_cap: bool

    @property
    def ok(self) -> bool:
        return (
            self.check.ok
            and not self.report.lost_jids
            and self.backoffs_within_cap
        )


@dataclass
class SoakReport:
    """Fleet-wide soak outcome (what the CLI prints and CI gates on)."""

    config: SoakConfig
    outcomes: Dict[str, TenantSoakOutcome]
    submitted: int
    accepted: int
    shed: int
    recoveries: int
    forced_crashes: int
    rejected_lines: int
    malformed_rejected: bool
    timeline_path: Optional[str] = None  #: health timeline JSONL, if written

    @property
    def ok(self) -> bool:
        return self.malformed_rejected and all(
            o.ok for o in self.outcomes.values()
        )

    def failures(self) -> List[str]:
        out: List[str] = []
        if not self.malformed_rejected:
            out.append("a malformed line was not rejected by the ingress")
        for tenant, o in sorted(self.outcomes.items()):
            if o.report.lost_jids:
                out.append(
                    f"{tenant}: accepted-then-lost jobs "
                    f"{sorted(o.report.lost_jids)}"
                )
            if not o.backoffs_within_cap:
                out.append(f"{tenant}: a restart backoff exceeded the cap")
            out.extend(f"{tenant}: {f}" for f in o.check.failures)
        return out

    def summary_lines(self) -> List[str]:
        lines = [
            f"soak: {len(self.outcomes)} tenants, "
            f"{self.submitted} submitted, {self.accepted} accepted, "
            f"{self.shed} shed, {self.forced_crashes} forced crashes, "
            f"{self.recoveries} recoveries, "
            f"{self.rejected_lines} lines rejected",
        ]
        if self.timeline_path:
            lines.append(f"  health timeline: {self.timeline_path}")
        for tenant, o in sorted(self.outcomes.items()):
            lines.append(
                "  " + o.check.summary()
                + f" restarts={o.report.restarts}"
                + ("" if o.ok else " [TENANT FAIL]")
            )
        lines.append("soak verdict: " + ("PASS" if self.ok else "FAIL"))
        return lines


def _tenant_specs(config: SoakConfig) -> List[TenantSpec]:
    """Deterministic per-tenant worlds — varied schedulers and physics."""
    schedulers = ("vdover", "edf", "dover", "llf", "greedy")
    specs: List[TenantSpec] = []
    for i in range(config.tenants):
        start_faults: Tuple[ExecutionFaultSpec, ...] = tuple(
            spec
            for spec in (
                ExecutionFaultSpec(
                    "kill", config.kill_rate, {"retain": 0.25}
                )
                if config.kill_rate > 0.0
                else None,
                ExecutionFaultSpec(
                    "revocation", config.revocation_rate, {"mean_down": 1.0}
                )
                if config.revocation_rate > 0.0
                else None,
            )
            if spec is not None
        )
        sensor: Tuple[FaultSpec, ...] = (
            (FaultSpec("noise", config.sensor_noise),)
            if config.sensor_noise > 0.0
            else ()
        )
        specs.append(
            TenantSpec(
                tenant=f"t{i}",
                horizon=config.horizon,
                scheduler=schedulers[i % len(schedulers)],
                capacity=CapacitySpec(
                    "markov2",
                    {"low": 1.0, "high": 8.0, "mean_sojourn": 4.0},
                    seed=config.seed + 7 * i,
                ),
                sensor_faults=sensor,
                start_faults=start_faults,
                fault_seed=config.seed + 1000 * i,
                queue_budget=config.queue_budget,
                snapshot_every=config.snapshot_every,
            )
        )
    return specs


def _tenant_timeline(
    spec: TenantSpec,
    config: SoakConfig,
    crash_times: Sequence[float],
    rng: np.random.Generator,
    *,
    with_rids: bool = False,
) -> List[Tuple[float, str]]:
    """One tenant's (time, wire line) stream, time-ordered.

    Submissions arrive at their release instants; fault injections are
    interleaved at their own times.  Fault times land on the midpoints
    between neighbouring distinct releases so the stream stays
    time-coherent no matter how the kernel's frontier advances.  With
    ``with_rids`` every message carries a deterministic ``request_id``
    so the whole stream can be resent verbatim after a restart — the
    kill -9 soak's idempotency exercise."""
    tenant = spec.tenant
    workload = PoissonWorkload(
        lam=config.lam,
        horizon=config.horizon,
        density_range=(1.0, 7.0),
        c_lower=1.0,
        deadline_slack=1.5,
    )
    jobs = workload.generate(rng)
    # jids are per-tenant namespaces: each shard checks duplicates only
    # against its own accepted set, so overlap across tenants is fine.
    entries: List[Tuple[float, str]] = [
        (
            job.release,
            encode_message(
                Submit(
                    tenant,
                    job,
                    rid=f"{tenant}/s{job.jid}" if with_rids else None,
                )
            ),
        )
        for job in jobs
    ]
    for c, t in enumerate(crash_times):
        entries.append(
            (
                float(t),
                encode_message(
                    InjectFault(
                        tenant,
                        "crash",
                        float(t),
                        rid=f"{tenant}/c{c}" if with_rids else None,
                    )
                ),
            )
        )
    ops = ("kill", "evict")
    for j in range(config.ingress_faults_per_tenant):
        t = config.horizon * (j + 1) / (config.ingress_faults_per_tenant + 1)
        op = ops[j % len(ops)]
        entries.append(
            (
                float(t),
                encode_message(
                    InjectFault(
                        tenant,
                        op,
                        float(t),
                        retain=0.5 if op == "kill" else 0.0,
                        rid=f"{tenant}/f{j}" if with_rids else None,
                    )
                ),
            )
        )
    entries.sort(key=lambda e: e[0])
    return entries


def _build_lines(config: SoakConfig, *, with_rids: bool = False) -> List[str]:
    """The full fleet's wire stream: per-tenant timelines merged in time
    order, with malformed lines sprinkled deterministically."""
    specs = _tenant_specs(config)
    # Spread the forced crashes round-robin over tenants, at staggered
    # fractions of the horizon.
    crash_times: Dict[str, List[float]] = {spec.tenant: [] for spec in specs}
    for c in range(config.forced_crashes):
        spec = specs[c % len(specs)]
        frac = (c + 1) / (config.forced_crashes + 1)
        crash_times[spec.tenant].append(config.horizon * frac)
    merged: List[Tuple[float, int, str]] = []
    for i, spec in enumerate(specs):
        rng = np.random.default_rng(config.seed + 31 * i)
        for order, (t, line) in enumerate(
            _tenant_timeline(
                spec,
                config,
                crash_times[spec.tenant],
                rng,
                with_rids=with_rids,
            )
        ):
            merged.append((t, order, line))
    merged.sort(key=lambda e: (e[0], e[1]))
    lines = [line for _, _, line in merged]
    # Malformed traffic lands at deterministic positions mid-stream.
    step = max(1, len(lines) // (len(_MALFORMED_LINES) + 1))
    for j, bad in enumerate(_MALFORMED_LINES):
        lines.insert(min(len(lines), (j + 1) * step + j), bad)
    return lines


async def _soak(config: SoakConfig) -> SoakReport:
    specs = _tenant_specs(config)
    service = ScheduleService(
        specs,
        policy=config.policy,
        store_dir=config.store_dir,
    )
    await service.start()
    ingress = ServiceIngress(service)
    lines = _build_lines(config)
    acks: List[Dict] = []
    if config.timeline_path is None:
        acks = await ingress.run_lines(lines)
    else:
        # Health timeline: the stream is driven in chunks and the fleet
        # is scraped between them — one JSONL row per chunk, so the
        # timeline shows SLOs and health states *while* crashes and
        # restarts happen, not just the postmortem.
        timeline = Path(config.timeline_path)
        timeline.parent.mkdir(parents=True, exist_ok=True)
        chunk = max(1, len(lines) // 16)
        with timeline.open("w", encoding="utf-8") as fh:
            for i in range(0, len(lines), chunk):
                acks.extend(await ingress.run_lines(lines[i : i + chunk]))
                row = {
                    "event": "scrape",
                    "lines_sent": min(i + chunk, len(lines)),
                    "health": service.health(),
                    "fleet": service.scrape(),
                }
                fh.write(json.dumps(row) + "\n")
    reports = await service.close()

    bad_acks = [
        ack
        for line, ack in zip(lines, acks)
        if line in _MALFORMED_LINES and ack.get("ok")
    ]
    outcomes: Dict[str, TenantSoakOutcome] = {}
    for tenant, report in reports.items():
        check = replay_tenant(report)
        within = all(
            b <= config.policy.backoff_cap + 1e-12 for b in report.backoffs
        )
        outcomes[tenant] = TenantSoakOutcome(
            report=report, check=check, backoffs_within_cap=within
        )
    return SoakReport(
        config=config,
        outcomes=outcomes,
        submitted=sum(r.submitted for r in reports.values()),
        accepted=sum(len(r.accepted) for r in reports.values()),
        shed=sum(len(r.shed) for r in reports.values()),
        recoveries=sum(r.recoveries for r in reports.values()),
        forced_crashes=sum(r.forced_crashes for r in reports.values()),
        rejected_lines=ingress.rejected_lines,
        malformed_rejected=not bad_acks,
        timeline_path=config.timeline_path,
    )


def run_soak(config: Optional[SoakConfig] = None) -> SoakReport:
    """Run one chaos soak to completion and verify every invariant."""
    return asyncio.run(_soak(config or SoakConfig()))


# ---------------------------------------------------------------------------
# kill -9 soak: a real child service process, SIGKILLed mid-traffic
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Kill9Config:
    """Knobs for the kill -9 soak (``repro soak --kill9``).

    Each kill SIGKILLs a real ``python -m repro serve`` child process
    mid-traffic; the next incarnation cold-starts from the store and the
    *entire* stream is resent verbatim (same ``request_id``s), so every
    already-decided line must come back as a duplicate ack.  After the
    traffic completes, a SIGTERM drain must exit 0 and a final cold
    start must report bit-identical counters and replay parity."""

    tenants: int = 2
    lam: float = 2.0
    horizon: float = 30.0
    seed: int = 2011
    kills: int = 3  #: SIGKILLs delivered mid-traffic
    forced_crashes: int = 2  #: in-process kernel crashes, on top of kills
    ingress_faults_per_tenant: int = 2
    kill_rate: float = 0.05
    revocation_rate: float = 0.02
    sensor_noise: float = 0.1
    queue_budget: int = 64
    snapshot_every: int = 8
    store_dir: Optional[str] = None  #: default: a fresh temp directory
    store_fsync: bool = True
    spawn_timeout: float = 60.0  #: seconds to wait for hello / exit
    #: health timeline JSONL (default: <store_dir>/health_timeline.jsonl)
    timeline_path: Optional[str] = None

    def __post_init__(self) -> None:
        if self.kills < 1:
            raise ExperimentError(f"need >= 1 kill, got {self.kills}")
        if self.tenants < 1:
            raise ExperimentError(f"need >= 1 tenant, got {self.tenants}")

    def soak_config(self) -> SoakConfig:
        """The equivalent in-process soak knobs (spec/timeline reuse)."""
        return SoakConfig(
            tenants=self.tenants,
            lam=self.lam,
            horizon=self.horizon,
            seed=self.seed,
            forced_crashes=self.forced_crashes,
            ingress_faults_per_tenant=self.ingress_faults_per_tenant,
            kill_rate=self.kill_rate,
            revocation_rate=self.revocation_rate,
            sensor_noise=self.sensor_noise,
            queue_budget=self.queue_budget,
            snapshot_every=self.snapshot_every,
        )


@dataclass
class Kill9Report:
    """What the kill -9 soak proves (or fails to)."""

    config: Kill9Config
    store_dir: str
    kills_delivered: int
    incarnations: int
    duplicate_acks: int
    parity_per_kill: Dict[int, Dict[str, bool]]  #: kill index -> tenant -> ok
    drain_stats: Dict[str, Dict]
    cold_stats: Dict[str, Dict]
    close_acks: Dict[str, Dict]
    drain_exit_code: Optional[int]
    problems: List[str] = field(default_factory=list)
    timeline_path: Optional[str] = None  #: health timeline JSONL

    @property
    def ok(self) -> bool:
        return not self.failures()

    def failures(self) -> List[str]:
        out = list(self.problems)
        if self.kills_delivered < self.config.kills:
            out.append(
                f"only {self.kills_delivered}/{self.config.kills} kills "
                "were delivered"
            )
        if self.drain_exit_code != 0:
            out.append(
                f"drain (SIGTERM) exited {self.drain_exit_code}, expected 0"
            )
        for k, per_tenant in sorted(self.parity_per_kill.items()):
            for tenant, ok in sorted(per_tenant.items()):
                if not ok:
                    out.append(
                        f"kill {k}: {tenant} failed replay parity after "
                        "cold start"
                    )
        for tenant in sorted(self.drain_stats):
            a, b = self.drain_stats[tenant], self.cold_stats.get(tenant)
            if b is None:
                out.append(f"{tenant}: missing after the post-drain cold start")
                continue
            for key in ("submitted", "accepted", "shed", "accepted_crc"):
                if a.get(key) != b.get(key):
                    out.append(
                        f"{tenant}: {key} diverged across the drain "
                        f"boundary ({a.get(key)} -> {b.get(key)})"
                    )
            # Metrics parity: the tenant registry must round-trip the
            # drain → kill -9 → cold-start boundary exactly (modulo the
            # counters a cold start legitimately bumps and wall-clock
            # fsync latencies — slo_parity_view strips those).
            if slo_parity_view(a.get("metrics") or {}) != slo_parity_view(
                b.get("metrics") or {}
            ):
                out.append(
                    f"{tenant}: tenant metrics diverged across the "
                    "drain/cold-start boundary"
                )
        for tenant, ack in sorted(self.close_acks.items()):
            if not ack.get("ok"):
                out.append(f"{tenant}: close failed ({ack.get('error')})")
                continue
            if not ack.get("parity"):
                out.append(
                    f"{tenant}: final replay parity failed "
                    f"({ack.get('parity_failures')})"
                )
            if ack.get("lost"):
                out.append(f"{tenant}: accepted-then-lost jobs {ack['lost']}")
            if ack.get("submitted") != ack.get("accepted", 0) + ack.get(
                "shed", 0
            ):
                out.append(
                    f"{tenant}: shed accounting broken "
                    f"(submitted {ack.get('submitted')} != accepted "
                    f"{ack.get('accepted')} + shed {ack.get('shed')})"
                )
        return out

    def summary_lines(self) -> List[str]:
        lines = [
            f"kill9 soak: {self.config.tenants} tenants, "
            f"{self.kills_delivered} SIGKILLs, {self.incarnations} "
            f"incarnations, {self.duplicate_acks} duplicate acks, "
            f"store {self.store_dir}",
        ]
        if self.timeline_path:
            lines.append(f"  health timeline: {self.timeline_path}")
        for tenant, ack in sorted(self.close_acks.items()):
            lines.append(
                f"  {tenant}: submitted={ack.get('submitted')} "
                f"accepted={ack.get('accepted')} shed={ack.get('shed')} "
                f"recoveries={ack.get('recoveries')} "
                f"parity={'PASS' if ack.get('parity') else 'FAIL'}"
            )
        lines.append(
            "kill9 verdict: " + ("PASS" if self.ok else "FAIL")
        )
        return lines


def _spawn_service(config: Kill9Config, store_dir, specs_file):
    """Launch one ``repro serve`` child; returns (proc, hello dict)."""
    import os
    import subprocess
    import sys as _sys

    src_root = str(Path(__file__).resolve().parents[2])
    env = dict(os.environ)
    env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
    cmd = [
        _sys.executable,
        "-m",
        "repro",
        "serve",
        "--store",
        str(store_dir),
        "--specs",
        str(specs_file),
    ]
    if not config.store_fsync:
        cmd.append("--no-fsync")
    stderr_path = Path(store_dir) / "serve.stderr.log"
    proc = subprocess.Popen(
        cmd,
        stdout=subprocess.PIPE,
        stderr=stderr_path.open("a", encoding="utf-8"),
        env=env,
        text=True,
    )
    line = proc.stdout.readline()
    if not line:
        proc.wait(timeout=config.spawn_timeout)
        raise ExperimentError(
            f"service child died before hello (exit {proc.returncode}); "
            f"see {stderr_path}"
        )
    hello = json.loads(line)
    if hello.get("event") != "serving":
        raise ExperimentError(f"unexpected hello line: {hello!r}")
    return proc, hello


def _send_lines(port: int, lines: Sequence[str]) -> List[Dict]:
    """Blocking JSON-line client: one ack awaited per line sent."""
    import socket

    acks: List[Dict] = []
    with socket.create_connection(("127.0.0.1", port), timeout=120.0) as sock:
        fh = sock.makefile("rw", encoding="utf-8", newline="\n")
        for line in lines:
            fh.write(line.rstrip("\n") + "\n")
            fh.flush()
            raw = fh.readline()
            if not raw:
                raise ExperimentError(
                    "service connection closed mid-traffic (no ack)"
                )
            acks.append(json.loads(raw))
    return acks


def _offline_parity(
    config: Kill9Config, store_dir, specs: Sequence[TenantSpec]
) -> Dict[str, bool]:
    """Prove bit-identical replay parity of the on-disk state *right
    now*: cold-start every tenant from a copy of the store (the copy
    keeps the real store untouched — closing a shard runs its kernel to
    the horizon), close it, and replay-check the result."""
    import shutil
    import tempfile

    from repro.service.shard import TenantShard
    from repro.store.tenant import TenantStore

    verdicts: Dict[str, bool] = {}
    with tempfile.TemporaryDirectory(prefix="kill9-parity-") as scratch:
        copy = Path(scratch) / "store"
        shutil.copytree(store_dir, copy)
        for spec in specs:
            store = TenantStore(
                copy / spec.tenant, fsync=config.store_fsync
            )
            try:
                shard = TenantShard(spec, store=store, resume=True)
                report = shard.close()
                verdicts[spec.tenant] = bool(
                    replay_tenant(report).ok and not report.lost_jids
                )
            except Exception:  # noqa: BLE001 - a verdict, not a crash
                verdicts[spec.tenant] = False
            finally:
                store.close()
    return verdicts


def run_kill9(config: Optional[Kill9Config] = None) -> Kill9Report:
    """Run the kill -9 soak: SIGKILL a live service child N times
    mid-traffic, prove disk-state replay parity after every kill, then
    SIGTERM-drain, cold-start and audit zero accepted-job loss."""
    import signal as _signal
    import tempfile

    config = config or Kill9Config()
    soak_cfg = config.soak_config()
    specs = _tenant_specs(soak_cfg)
    store_dir = Path(
        config.store_dir or tempfile.mkdtemp(prefix="repro-kill9-")
    )
    store_dir.mkdir(parents=True, exist_ok=True)
    from repro.service.shard import tenant_spec_to_dict

    specs_file = store_dir / "specs.json"
    specs_file.write_text(
        json.dumps(
            {"tenants": [tenant_spec_to_dict(spec) for spec in specs]},
            indent=2,
        ),
        encoding="utf-8",
    )

    lines = _build_lines(soak_cfg, with_rids=True)
    kill_points = [
        max(1, (k + 1) * len(lines) // (config.kills + 1))
        for k in range(config.kills)
    ]

    problems: List[str] = []
    parity_per_kill: Dict[int, Dict[str, bool]] = {}
    duplicate_acks = 0
    kills_delivered = 0
    incarnations = 0

    # Machine-readable health timeline: one fleet scrape (the ``metrics``
    # wire message, tenant ``*``) per incarnation, after its traffic and
    # before the SIGKILL lands — so the JSONL shows per-tenant SLO
    # snapshots and health states straddling every crash boundary.
    timeline_file = Path(
        config.timeline_path
        if config.timeline_path
        else store_dir / "health_timeline.jsonl"
    )
    timeline_file.parent.mkdir(parents=True, exist_ok=True)
    timeline_fh = timeline_file.open("w", encoding="utf-8")

    def _scrape(port: int, incarnation: int, event: str) -> None:
        row: Dict = {"incarnation": incarnation, "event": event}
        try:
            ack = _send_lines(
                port, [json.dumps({"type": "metrics", "tenant": "*"})]
            )[0]
        except Exception as exc:  # noqa: BLE001 - timeline is best-effort
            row["error"] = str(exc)
        else:
            if ack.get("ok"):
                row["fleet"] = ack.get("tenants", {})
            else:
                row["error"] = ack.get("error", "metrics query failed")
        timeline_fh.write(json.dumps(row, sort_keys=True) + "\n")
        timeline_fh.flush()

    # --- kill incarnations: partial traffic, then SIGKILL ---------------
    for k, point in enumerate(kill_points):
        proc, hello = _spawn_service(config, store_dir, specs_file)
        incarnations += 1
        if k > 0 and not hello.get("cold_start"):
            problems.append(
                f"incarnation {k} did not cold-start from the store"
            )
        try:
            acks = _send_lines(hello["port"], lines[:point])
            duplicate_acks += sum(1 for a in acks if a.get("duplicate"))
            _scrape(hello["port"], incarnations, "pre_kill")
        finally:
            proc.kill()  # SIGKILL — no drain, no flush, no mercy
            proc.wait(timeout=config.spawn_timeout)
        kills_delivered += 1
        parity_per_kill[k] = _offline_parity(config, store_dir, specs)

    # --- final traffic incarnation: full stream, then SIGTERM drain -----
    proc, hello = _spawn_service(config, store_dir, specs_file)
    incarnations += 1
    if not hello.get("cold_start"):
        problems.append("final traffic incarnation did not cold-start")
    acks = _send_lines(hello["port"], lines)
    duplicate_acks += sum(1 for a in acks if a.get("duplicate"))
    _scrape(hello["port"], incarnations, "pre_drain")
    proc.send_signal(_signal.SIGTERM)
    drained: Dict = {}
    for raw in proc.stdout:
        try:
            event = json.loads(raw)
        except ValueError:
            continue
        if event.get("event") == "drained":
            drained = event
            break
    drain_exit = proc.wait(timeout=config.spawn_timeout)
    drain_stats = dict(drained.get("stats", {}))
    if not drain_stats:
        problems.append("no drained event (stats) from the SIGTERM exit")

    # --- audit incarnation: cold start, stat, close (parity acks) -------
    proc, hello = _spawn_service(config, store_dir, specs_file)
    incarnations += 1
    if not hello.get("cold_start"):
        problems.append("audit incarnation did not cold-start")
    _scrape(hello["port"], incarnations, "post_cold_start")
    stat_lines = [
        json.dumps({"type": "stat", "tenant": spec.tenant})
        for spec in specs
    ]
    close_lines = [
        json.dumps({"type": "close", "tenant": spec.tenant})
        for spec in specs
    ]
    audit_acks = _send_lines(hello["port"], stat_lines + close_lines)
    cold_stats = {
        ack["tenant"]: ack
        for ack in audit_acks[: len(specs)]
        if ack.get("ok") and "tenant" in ack
    }
    close_acks = {
        spec.tenant: ack
        for spec, ack in zip(specs, audit_acks[len(specs):])
    }
    proc.send_signal(_signal.SIGTERM)
    proc.wait(timeout=config.spawn_timeout)
    timeline_fh.close()

    return Kill9Report(
        config=config,
        store_dir=str(store_dir),
        kills_delivered=kills_delivered,
        incarnations=incarnations,
        duplicate_acks=duplicate_acks,
        parity_per_kill=parity_per_kill,
        drain_stats=drain_stats,
        cold_stats=cold_stats,
        close_acks=close_acks,
        drain_exit_code=drain_exit,
        problems=problems,
        timeline_path=str(timeline_file),
    )
