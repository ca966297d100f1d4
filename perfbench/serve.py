"""The ``serve_disk`` workload: a real ``repro serve`` daemon on disk.

Four tenants (``edf``, ``vdover``, ``edf-ac``, ``llf``), each on constant
capacity, run in a child daemon with its defaults (store fsync on,
telemetry on).  One client in this process drives two TCP connections in
a closed loop -- each sends its next line only after the previous ack --
with two tenants per connection.

Each tenant's traffic is the soak's tenant timeline
(``repro.experiments.soak``), made endless: chunk ``k`` is a fresh
``PoissonWorkload`` draw over ``CHUNK_H`` units of virtual time, shifted
by ``k * CHUNK_H``, with the soak's two ingress faults per chunk (a kill
keeping half the progress at 1/3 of the chunk, an evict at 2/3).  Every
submit and fault carries a request id; an ``advance`` follows every tenth
submit.  The queue budget sheds part of the offered load.

After the timed window the client reads every tenant's ``stat``, drains
the daemon with SIGTERM, re-spawns it on the populated store (the cold
start), closes every tenant and checks the replay-parity verdicts.  An
exception in any of these steps is one failed operation; the workload
then stops and reports what it measured.

With tracing on, an untraced daemon first runs half the window for the
overhead baseline; then the daemon runs under ``launcher.py`` for the
other half.  Its counters are dumped (SIGUSR1) at the start of the
window, after a fixed prefix of lines per connection (the count
fingerprint, read with every tenant's ``stat``) and at the end.
"""

from __future__ import annotations

import itertools
import json
import os
import select
import shutil
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

from common import (
    Tally,
    diff,
    fingerprint_counts,
    layer_metrics,
    median,
    peak_rss_mb,
    quantile,
)

perf = time.perf_counter
HERE = Path(__file__).resolve().parent

TENANTS = ("edf", "vdover", "edf-ac", "llf")
#: Tenants per connection: each tenant stays on one connection.
CONNECTIONS = (("edf", "vdover"), ("edf-ac", "llf"))
#: Soak tenant timeline (SoakConfig defaults): arrival rate per unit of
#: virtual time and horizon of one chunk; PoissonWorkload with density
#: U[1, 7], c_lower 1 and deadline slack 1.5.
LAM = 3.0
CHUNK_H = 40.0
DEADLINE_SLACK = 1.5
#: Constant capacity: the mean of the soak's two-state {1, 8} chain.
#: Offered load LAM * E[workload] / CAPACITY = 0.67.
CAPACITY = 4.5
#: Pending jobs a tenant holds before admission sheds (the soak's starved
#: variant).
QUEUE_BUDGET = 3
ADVANCE_EVERY = 10
#: Lines per connection in the fingerprint prefix (traced run).
PREFIX_LINES = 300
SPAWN_TIMEOUT = 60.0
ACK_TIMEOUT = 30.0
#: Fresh-store daemons spawned per run to time set-up (median reported).
SETUP_SPAWNS = 7
#: Traffic is summarised per slice of this many wall seconds.
SLICE_S = 1.0


def tenant_specs() -> List[dict]:
    return [
        {
            "tenant": name,
            "horizon": 1.0e9,
            "scheduler": name,
            "capacity": {"kind": "constant", "params": {"rate": CAPACITY}, "seed": 0},
            "queue_budget": QUEUE_BUDGET,
        }
        for name in TENANTS
    ]


def tenant_stream(seed: int, index: int, tenant: str) -> Iterator[Tuple[str, str]]:
    """One tenant's endless (kind, wire line) stream."""
    import numpy as np

    from repro.service.messages import Advance, InjectFault, Submit, encode_message
    from repro.sim import Job
    from repro.workload.poisson import PoissonWorkload

    workload = PoissonWorkload(lam=LAM, horizon=CHUNK_H, density_range=(1.0, 7.0),
                               c_lower=1.0, deadline_slack=DEADLINE_SLACK)
    jid = 0
    for chunk in itertools.count():
        off = chunk * CHUNK_H
        entries: List[Tuple[float, int, str, object]] = []
        for job in workload.generate(np.random.default_rng([seed, index, chunk])):
            entries.append((off + job.release, len(entries), "submit", job))
        for j, op in enumerate(("kill", "evict")):
            t = off + CHUNK_H * (j + 1) / 3
            entries.append((t, len(entries), "fault", InjectFault(
                tenant, op, t, retain=0.5 if op == "kill" else 0.0,
                rid=f"{tenant}/f{chunk}.{j}")))
        entries.sort(key=lambda e: (e[0], e[1]))
        for t, _, kind, item in entries:
            if kind == "fault":
                yield kind, encode_message(item)
                continue
            job = Job(jid=jid, release=t, workload=item.workload,
                      deadline=off + item.deadline, value=item.value)
            yield kind, encode_message(Submit(tenant, job, rid=f"{tenant}/s{jid}"))
            jid += 1
            if jid % ADVANCE_EVERY == 0:
                yield "advance", encode_message(Advance(tenant, t))


def connection_stream(seed: int, tenants: Tuple[str, ...]) -> Iterator[Tuple[str, str]]:
    """Round-robin interleave of the connection's tenant streams."""
    streams = [tenant_stream(seed, TENANTS.index(name), name) for name in tenants]
    while True:
        for stream in streams:
            yield next(stream)


class Conn:
    """One closed-loop client connection."""

    def __init__(self, port: int, lines: Iterator[Tuple[str, str]]) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=ACK_TIMEOUT)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.lines = lines
        self.buf = b""
        self.sent = 0
        self.kind: Optional[str] = None
        self.t_send = 0.0

    def send(self, kind: str, line: str) -> None:
        self.kind = kind
        self.t_send = perf()
        self.sock.sendall(line.encode() + b"\n")
        self.sent += 1

    def read_ack(self) -> Optional[dict]:
        """Return the ack if a whole line is buffered after one recv."""
        chunk = self.sock.recv(65536)
        if not chunk:
            raise ConnectionError("daemon closed the connection")
        self.buf += chunk
        return self.pop_ack()

    def pop_ack(self) -> Optional[dict]:
        if b"\n" not in self.buf:
            return None
        raw, self.buf = self.buf.split(b"\n", 1)
        return json.loads(raw)

    def request(self, line: str) -> dict:
        """A synchronous request outside the timed traffic."""
        self.sock.sendall(line.encode() + b"\n")
        while True:
            ack = self.pop_ack()
            if ack is not None:
                return ack
            chunk = self.sock.recv(65536)
            if not chunk:
                raise ConnectionError("daemon closed the connection")
            self.buf += chunk

    def close(self) -> None:
        self.sock.close()


class Traffic:
    """Closed-loop traffic state shared across the window's segments."""

    def __init__(self, conns: List[Conn], tally: Tally) -> None:
        self.conns = conns
        self.tally = tally
        #: send-to-ack seconds of each ack: a float for a submit, else None
        self.acks: List[Optional[float]] = []
        self.submits = 0
        #: (wall seconds, first ack, end ack) per slice
        self.slices: List[Tuple[float, int, int]] = []

    @property
    def acked(self) -> int:
        return len(self.acks)

    def figures(self) -> Dict[str, float]:
        """Rates and submit latency percentiles, each the median over
        slices: a short stall moves one slice, not the run's figure."""
        per: Dict[str, List[float]] = {"jobs": [], "ops": [], "p50": [], "p99": []}
        for wall, first, end in self.slices:
            lat = [x for x in self.acks[first:end] if x is not None]
            if not lat:
                continue
            per["jobs"].append(len(lat) / wall)
            per["ops"].append((end - first) / wall)
            per["p50"].append(1e3 * quantile(lat, 0.5))
            per["p99"].append(1e3 * quantile(lat, 0.99))
        if not per["ops"]:
            return {}
        return {"jobs_per_s": median(per["jobs"]), "ops_per_s": median(per["ops"]),
                "call_p50_ms": median(per["p50"]), "call_p99_ms": median(per["p99"])}

    def drive(self, deadline: float, limit: Optional[int] = None) -> None:
        """Run in slices of ``SLICE_S`` until ``deadline``, or until every
        connection has sent ``limit`` lines."""
        while perf() < deadline:
            if limit is not None and all(c.sent >= limit for c in self.conns):
                return
            first = len(self.acks)
            t0 = perf()
            self._slice(min(deadline, t0 + SLICE_S), limit)
            self.slices.append((perf() - t0, first, len(self.acks)))

    def _slice(self, deadline: float, limit: Optional[int]) -> None:
        active = []
        for conn in self.conns:
            if limit is None or conn.sent < limit:
                conn.send(*next(conn.lines))
                active.append(conn)
        by_fd = {conn.sock.fileno(): conn for conn in active}
        while by_fd:
            ready, _, _ = select.select(list(by_fd), [], [], ACK_TIMEOUT)
            if not ready:
                raise TimeoutError(f"no ack within {ACK_TIMEOUT:g} s")
            for fd in ready:
                conn = by_fd[fd]
                ack = conn.read_ack()
                if ack is None:
                    continue
                now = perf()
                self.tally.check(ack.get("ok") is True, f"{conn.kind} ack {ack}")
                if conn.kind == "submit":
                    self.submits += 1
                    self.acks.append(now - conn.t_send)
                else:
                    self.acks.append(None)
                if now >= deadline or (limit is not None and conn.sent >= limit):
                    del by_fd[fd]
                else:
                    conn.send(*next(conn.lines))


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(HERE.parent / "src")
    return env


def spawn(cmd: List[str], stderr_path: Path) -> Tuple[subprocess.Popen, dict, float]:
    """Start a daemon; return (process, hello line, spawn-to-hello seconds)."""
    t0 = perf()
    with stderr_path.open("ab") as err:
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, env=_env())
    try:
        ready, _, _ = select.select([proc.stdout], [], [], SPAWN_TIMEOUT)
        line = proc.stdout.readline() if ready else b""
        elapsed = perf() - t0
        if not line:
            raise RuntimeError(f"daemon gave no hello line; see {stderr_path}")
        hello = json.loads(line)
        if hello.get("event") != "serving":
            raise RuntimeError(f"unexpected hello line {hello!r}")
        return proc, hello, elapsed
    except BaseException:
        stop(proc)
        raise


def stop(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()
    if proc.stdout is not None:
        proc.stdout.close()


def drain(proc: subprocess.Popen) -> Tuple[int, Optional[dict]]:
    """SIGTERM drain; returns (exit code, drained event or None)."""
    proc.send_signal(signal.SIGTERM)
    try:
        out, _ = proc.communicate(timeout=SPAWN_TIMEOUT)
    except subprocess.TimeoutExpired:
        stop(proc)
        return -1, None
    drained = None
    for raw in out.splitlines():
        doc = json.loads(raw)
        if doc.get("event") == "drained":
            drained = doc
    return proc.returncode, drained


def serve_cmd(store: Path, specs: Optional[Path], ledger_dir: Optional[Path]) -> List[str]:
    args = ["--store", str(store)]
    if specs is not None:
        args += ["--specs", str(specs)]
    if ledger_dir is None:
        return [sys.executable, "-m", "repro", "serve"] + args
    return [sys.executable, str(HERE / "launcher.py"), "--ledger-dir", str(ledger_dir),
            "--"] + args


def read_wchar(pid: int) -> int:
    with open(f"/proc/{pid}/io", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("wchar:"):
                return int(line.split()[1])
    return 0


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def request_dump(proc: subprocess.Popen, ledger_dir: Path, n: int) -> dict:
    proc.send_signal(signal.SIGUSR1)
    path = ledger_dir / f"dump-{n}.json"
    deadline = perf() + 30.0
    while not path.exists():
        if perf() > deadline or proc.poll() is not None:
            raise RuntimeError("daemon wrote no ledger dump")
        time.sleep(0.002)
    return json.loads(path.read_text(encoding="utf-8"))


def stats(conns: List[Conn], tally: Tally) -> Dict[str, dict]:
    out = {}
    for conn, tenants in zip(conns, CONNECTIONS):
        for name in tenants:
            ack = conn.request(json.dumps({"type": "stat", "tenant": name}))
            tally.check(ack.get("ok") is True, f"stat {name}: {ack}")
            out[name] = ack
    return out


def incarnation(seed: int, seconds: float, work: Path, tally: Tally,
                ledger_dir: Optional[Path], lifecycle: bool) -> Dict:
    """One daemon incarnation's timed window, plus (with ``lifecycle``)
    the drain, cold start, close and parity audit.  ``aborted`` is set
    when a step raised."""
    store = work / "store"
    specs_file = work / "specs.json"
    specs_file.write_text(json.dumps(tenant_specs()), encoding="utf-8")
    err = work / "serve.stderr.log"
    out: Dict = {"aborted": False}
    procs: List[subprocess.Popen] = []
    conns: List[Conn] = []
    traffic: Optional[Traffic] = None
    start = 0.0
    step = "spawn"
    try:
        proc, hello, _ = spawn(serve_cmd(store, specs_file, ledger_dir), err)
        procs.append(proc)
        conns = [Conn(hello["port"], connection_stream(seed, tenants))
                 for tenants in CONNECTIONS]
        traffic = Traffic(conns, tally)
        dumps = []
        if ledger_dir is not None:
            dumps.append(request_dump(proc, ledger_dir, 0))
        wchar0 = read_wchar(proc.pid)
        step = "traffic"
        start = perf()
        deadline = start + seconds
        if ledger_dir is not None:
            traffic.drive(deadline, limit=PREFIX_LINES)
            out["prefix_complete"] = all(c.sent >= PREFIX_LINES for c in conns)
            dumps.append(request_dump(proc, ledger_dir, 1))
            out["prefix_stats"] = stats(conns, tally)
        traffic.drive(deadline)
        out["elapsed"] = perf() - start
        step = "stat"
        if ledger_dir is not None:
            dumps.append(request_dump(proc, ledger_dir, 2))
        out.update(dumps=dumps, wchar=read_wchar(proc.pid) - wchar0)
        final = stats(conns, tally)
        out["stats"] = final
        for conn in conns:
            conn.close()
        conns = []
        step = "drain"
        code, drained = drain(proc)
        tally.check(code == 0 and drained is not None, f"drain exit {code}")
        # The drain decides each tenant's open contention group, so every
        # submission counted by the last stat is now accepted or shed.
        decided = {name: {"accepted": 0, "shed": 0} for name in TENANTS}
        if drained is not None:
            for name in TENANTS:
                got = drained["stats"].get(name, {})
                decided[name] = {"accepted": got.get("accepted"), "shed": got.get("shed")}
                tally.check(
                    got.get("accepted", 0) + got.get("shed", 0)
                    == final[name]["submitted"],
                    f"{name}: drained {got} does not decide all "
                    f"{final[name]['submitted']} submissions",
                )
        out["submitted"] = sum(final[name]["submitted"] for name in TENANTS)
        out["accepted"] = sum(d["accepted"] or 0 for d in decided.values())
        out["shed"] = sum(d["shed"] or 0 for d in decided.values())
        if not lifecycle:
            return out
        out["store_bytes"] = dir_bytes(store)

        step = "cold start"
        proc, hello, cold = spawn(serve_cmd(store, None, None), err)
        procs.append(proc)
        out["cold_start_s"] = cold
        tally.check(hello.get("cold_start") is True, f"cold start hello {hello}")
        step = "close"
        conn = Conn(hello["port"], iter(()))
        conns = [conn]
        for name in TENANTS:
            ack = conn.request(json.dumps({"type": "close", "tenant": name}))
            ok = (
                ack.get("ok") is True
                and ack.get("parity") is True
                and ack.get("lost") == []
                and ack.get("submitted") == ack.get("accepted", 0) + ack.get("shed", 0)
                and ack.get("accepted") == decided[name]["accepted"]
                and ack.get("shed") == decided[name]["shed"]
            )
            tally.check(ok, f"close {name}: {ack}")
        conn.close()
        conns = []
        step = "final drain"
        code, _ = drain(proc)
        tally.check(code == 0, f"post-close drain exit {code}")
        return out
    except Exception as exc:  # noqa: BLE001 - a failed op, not a crash
        tally.check(False, f"serve {step}: {exc!r}")
        out["aborted"] = True
        if step == "traffic":
            out["elapsed"] = perf() - start
        return out
    finally:
        if traffic is not None:
            out.update(acked=traffic.acked, submits=traffic.submits,
                       figures=traffic.figures())
        for conn in conns:
            conn.close()
        for proc in procs:
            stop(proc)


def setup_spawns(work: Path, n: int) -> float:
    """Median spawn-to-hello seconds over ``n`` fresh-store daemons."""
    times = []
    specs_file = work / "specs.json"
    specs_file.write_text(json.dumps(tenant_specs()), encoding="utf-8")
    for i in range(n):
        store = work / f"setup-{i}"
        proc, _, elapsed = spawn(serve_cmd(store, specs_file, None), work / "setup.stderr.log")
        try:
            times.append(elapsed)
        finally:
            drain(proc)
            stop(proc)
        shutil.rmtree(store, ignore_errors=True)
    return median(times)


def run_serve(seed: int, seconds: float, trace: bool, out_dir: Path, tally: Tally) -> Dict:
    out_dir = out_dir / "serve"
    out_dir.mkdir(parents=True)
    if not trace:
        metrics = {"setup_s": setup_spawns(out_dir, SETUP_SPAWNS)}
        work = out_dir / "run"
        work.mkdir()
        res = incarnation(seed, seconds, work, tally, None, lifecycle=True)
        metrics.update(res.get("figures", {}))
        metrics["peak_rss_mb"] = peak_rss_mb()
        submitted = max(res.get("submitted", 0), 1)
        accepted = max(res.get("accepted", 0), 1)
        detail = {
            "ack_samples": res.get("submits"),
            "acked_lines": res.get("acked"),
            "submitted": res.get("submitted"),
            "accepted_share": res.get("accepted", 0) / submitted,
            "shed_share": res.get("shed", 0) / submitted,
            "offered_load": LAM / CAPACITY,
            "cold_start_s": res.get("cold_start_s"),
            "store_bytes_per_accepted": res.get("store_bytes", 0) / accepted,
            "wchar_per_accepted": res.get("wchar", 0) / accepted,
        }
        return {"metrics": metrics, "detail": detail}

    base_dir = out_dir / "untraced"
    base_dir.mkdir()
    base = incarnation(seed, seconds / 2, base_dir, tally, None, lifecycle=False)
    if base["aborted"]:
        return {"metrics": {}}
    work = out_dir / "traced"
    work.mkdir()
    ledger_dir = work / "ledger"
    res = incarnation(seed, seconds / 2, work, tally, ledger_dir, lifecycle=True)
    if res["aborted"]:
        return {"metrics": {}}
    start, prefix, end = (d["counts"] for d in res["dumps"])
    window = diff(end, start)
    ops = max(res["acked"], 1)
    busy = res["elapsed"] - window["loop.idle_s"]
    accepted = max(res["accepted"], 1)
    overhead = (res["elapsed"] / ops) / (base["elapsed"] / max(base["acked"], 1))
    extra = {
        "store.wchar_per_accepted":
            (res["dumps"][2]["wchar"] - res["dumps"][0]["wchar"]) / accepted,
        "store.cold_start_s": res["cold_start_s"],
        "store.bytes_per_accepted": res["store_bytes"] / accepted,
    }
    layers = layer_metrics(window, ops, busy, overhead, extra)
    fingerprint = fingerprint_counts(diff(prefix, start))
    fingerprint["prefix_lines_per_connection"] = PREFIX_LINES
    fingerprint["prefix_complete"] = res["prefix_complete"]
    fingerprint["tenants"] = {
        name: {key: doc[key] for key in ("submitted", "accepted", "shed", "accepted_crc")}
        for name, doc in res["prefix_stats"].items()
    }
    detail = {"traced_acked": res["acked"], "untraced_acked": base["acked"],
              "busy_s": busy}
    return {"metrics": layers, "fingerprint": fingerprint, "detail": detail}
