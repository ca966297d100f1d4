"""Command-line interface: regenerate the paper's artifacts from a shell.

Usage::

    repro-sched table1  [--runs N] [--seed S] [--workers W] [--lambdas ...]
                        [--checkpoint DIR] [--timeout T] [--retries R]
    repro-sched figure1 [--lam L] [--seed S]
    repro-sched sweep   {policy,supplement,beta,delta,k-misest,slack} [--runs N]
    repro-sched faults  {noise,staleness,dropout,bias} [--severities ...]
    repro-sched recovery {kill,revocation,crash-demo} [--rates ...]
    repro-sched multi   {run,crash-demo} [--m M] [--lam L] [--runs N]
    repro-sched theory  [--k K] [--delta D]
    repro-sched adversary [--n N]
    repro-sched simulate INSTANCE.json [--scheduler ...] [--gantt]
                        [--trace FILE] [--profile]
    repro-sched obs     {report,tail,diff} TRACE...

(also ``python -m repro ...``).
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.analysis.tables import render_table
from repro.analysis.theory import (
    asymptotic_optimality_gap,
    f_overload,
    optimal_beta,
    varying_capacity_upper_bound,
    vdover_competitive_ratio,
)

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-sched",
        description=(
            "Reproduce 'Secondary Job Scheduling in the Cloud with "
            "Deadlines' (IPPS 2011): V-Dover vs Dover under time-varying "
            "capacity."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("table1", help="reproduce Table I (value %% vs lambda)")
    p.add_argument("--runs", type=int, default=50, help="Monte-Carlo runs per row")
    p.add_argument("--seed", type=int, default=2011)
    p.add_argument("--workers", type=int, default=None)
    p.add_argument(
        "--lambdas",
        type=float,
        nargs="+",
        default=None,
        help="override the swept arrival rates",
    )
    p.add_argument(
        "--jobs",
        type=float,
        default=2000.0,
        help="expected jobs per run (the paper uses 2000)",
    )
    p.add_argument(
        "--checkpoint",
        default=None,
        metavar="DIR",
        help=(
            "checkpoint each finished replication under DIR; rerunning with "
            "the same arguments resumes from where it stopped"
        ),
    )
    p.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="per-replication wall-clock budget in seconds",
    )
    p.add_argument(
        "--retries",
        type=int,
        default=0,
        help="retry a replication this many times on transient failure",
    )
    p.add_argument(
        "--allow-failures",
        action="store_true",
        help=(
            "exit 0 even when some replications failed (default: failed "
            "replications make the command exit non-zero)"
        ),
    )

    p = sub.add_parser("figure1", help="reproduce Figure 1 (value vs time)")
    p.add_argument("--lam", type=float, default=6.0)
    p.add_argument("--seed", type=int, default=1106)
    p.add_argument("--jobs", type=float, default=2000.0)
    p.add_argument(
        "--trace",
        default=None,
        metavar="FILE",
        help=(
            "record a structured trace of all panels and export it as "
            "JSON lines to FILE (inspect with 'obs report FILE')"
        ),
    )
    p.add_argument(
        "--profile",
        action="store_true",
        help=(
            "sample per-event dispatch latency into the trace's metrics "
            "footer (implies observability on)"
        ),
    )

    p = sub.add_parser("sweep", help="ablation sweeps")
    p.add_argument(
        "kind", choices=["policy", "supplement", "beta", "delta", "k-misest", "slack"]
    )
    p.add_argument("--runs", type=int, default=20)
    p.add_argument("--workers", type=int, default=None)

    p = sub.add_parser(
        "faults",
        help="Table-I comparison under capacity-sensor faults (E15)",
    )
    p.add_argument("kind", choices=["noise", "staleness", "dropout", "bias"])
    p.add_argument(
        "--severities",
        type=float,
        nargs="+",
        default=None,
        help="override the swept severity grid (0 = fault-free)",
    )
    p.add_argument("--lam", type=float, default=6.0)
    p.add_argument("--runs", type=int, default=20)
    p.add_argument("--seed", type=int, default=29)
    p.add_argument("--workers", type=int, default=None)
    p.add_argument(
        "--jobs", type=float, default=500.0, help="expected jobs per run"
    )
    p.add_argument(
        "--allow-failures",
        action="store_true",
        help=(
            "exit 0 even when some replications failed (default: failed "
            "replications make the command exit non-zero)"
        ),
    )

    p = sub.add_parser(
        "recovery",
        help=(
            "E16: value retention under execution faults (job kills, VM "
            "revocations) and the crash-resume bit-identity demo"
        ),
    )
    p.add_argument("kind", choices=["kill", "revocation", "crash-demo"])
    p.add_argument(
        "--rates",
        type=float,
        nargs="+",
        default=None,
        help="override the swept fault-rate grid (0 = fault-free)",
    )
    p.add_argument("--lam", type=float, default=6.0)
    p.add_argument("--runs", type=int, default=20)
    p.add_argument("--seed", type=int, default=31)
    p.add_argument("--workers", type=int, default=None)
    p.add_argument(
        "--jobs", type=float, default=500.0, help="expected jobs per run"
    )
    p.add_argument(
        "--retain",
        type=float,
        default=0.0,
        help="fraction of a killed job's progress that survives (kill only)",
    )
    p.add_argument(
        "--mean-down",
        type=float,
        default=1.0,
        help="mean revocation window length (revocation only)",
    )
    p.add_argument(
        "--checkpoint",
        default=None,
        metavar="BASE",
        help=(
            "base path for per-cell replication checkpoints; rerunning with "
            "the same arguments resumes from where it stopped"
        ),
    )
    p.add_argument(
        "--out",
        default=None,
        metavar="FILE",
        help="also persist the sweep to FILE (schema-v2 store JSON)",
    )
    p.add_argument(
        "--allow-failures",
        action="store_true",
        help=(
            "exit 0 even when some replications failed (default: failed "
            "replications make the command exit non-zero)"
        ),
    )

    p = sub.add_parser(
        "multi",
        help=(
            "multiprocessor fleet: paired policy comparison on m "
            "heterogeneous servers, and the multi crash-resume "
            "bit-identity demo"
        ),
    )
    p.add_argument("kind", choices=["run", "crash-demo"])
    p.add_argument("--m", type=int, default=4, help="number of servers")
    p.add_argument(
        "--lam",
        type=float,
        default=None,
        help="cluster-wide arrival rate (default: 20 for run, 6 for crash-demo)",
    )
    p.add_argument("--k", type=float, default=7.0, help="importance-ratio bound")
    p.add_argument("--runs", type=int, default=5, help="Monte-Carlo runs (run only)")
    p.add_argument("--seed", type=int, default=2011)
    p.add_argument("--workers", type=int, default=0)
    p.add_argument(
        "--jobs", type=float, default=240.0, help="expected jobs per run"
    )

    p = sub.add_parser("theory", help="print the paper's closed-form bounds")
    p.add_argument("--k", type=float, default=7.0)
    p.add_argument("--delta", type=float, default=35.0)

    p = sub.add_parser(
        "adversary", help="demonstrate Theorem 3(3): ratio -> 0 without admissibility"
    )
    p.add_argument("--n", type=int, nargs="+", default=[5, 10, 20, 40])

    p = sub.add_parser(
        "simulate", help="run a saved instance (see repro.workload.save_instance)"
    )
    p.add_argument("instance", help="JSON instance file (jobs + capacity)")
    p.add_argument(
        "--scheduler",
        choices=["vdover", "dover", "edf", "edf-ac", "llf", "greedy", "fcfs"],
        default="vdover",
    )
    p.add_argument("--k", type=float, default=7.0, help="importance-ratio bound")
    p.add_argument("--c-hat", type=float, default=1.0, help="Dover's estimate")
    p.add_argument("--gantt", action="store_true", help="draw the schedule")
    p.add_argument(
        "--trace",
        default=None,
        metavar="FILE",
        help="export a structured trace of the run as JSON lines to FILE",
    )
    p.add_argument(
        "--profile",
        action="store_true",
        help="sample per-event dispatch latency into the trace's metrics footer",
    )

    p = sub.add_parser(
        "obs",
        help="inspect exported trace files (docs/OBSERVABILITY.md)",
    )
    obs_sub = p.add_subparsers(dest="obs_command", required=True)
    q = obs_sub.add_parser(
        "report",
        help="summarize a trace: event mix, decision reasons, latency, faults",
    )
    q.add_argument("trace", help="JSON-lines trace file")
    q = obs_sub.add_parser("tail", help="print the last N events of a trace")
    q.add_argument("trace", help="JSON-lines trace file")
    q.add_argument("-n", type=int, default=25, help="events to show")
    q = obs_sub.add_parser(
        "diff",
        help=(
            "first behaviourally divergent scheduler decision between two "
            "traces (policy names are ignored, so paired algorithms diff "
            "cleanly)"
        ),
    )
    q.add_argument("trace_a", help="first trace file")
    q.add_argument("trace_b", help="second trace file")
    q = obs_sub.add_parser(
        "trace",
        help=(
            "reconstruct one request's causal path (ingress → admission "
            "→ op log → kernel dispatch → journal) from a tenant store "
            "and/or a trace export — works across kill -9 cold starts"
        ),
    )
    q.add_argument("request_id", help="the request_id to correlate")
    q.add_argument(
        "--store",
        default=None,
        metavar="DIR",
        help="tenant store directory (the durable witness)",
    )
    q.add_argument(
        "--trace",
        default=None,
        metavar="FILE",
        help="JSON-lines trace export (lifecycle enrichment)",
    )
    q.add_argument(
        "--tenant", default=None, help="restrict the store scan to one tenant"
    )

    p = sub.add_parser(
        "soak",
        help=(
            "E17: chaos soak of the always-on service — N tenants of "
            "Poisson traffic through the live supervisor under sensor "
            "faults, kills, revocations and forced kernel crashes, "
            "verified replay-equivalent per tenant"
        ),
    )
    p.add_argument("--tenants", type=int, default=3)
    p.add_argument("--lam", type=float, default=3.0, help="per-tenant arrival rate")
    p.add_argument("--horizon", type=float, default=40.0)
    p.add_argument("--seed", type=int, default=2011)
    p.add_argument(
        "--crashes", type=int, default=5, help="forced kernel crashes, fleet-wide"
    )
    p.add_argument(
        "--queue-budget", type=int, default=64, help="per-tenant backlog budget"
    )
    p.add_argument(
        "--kill9",
        action="store_true",
        help=(
            "kill -9 mode: run a real child service process, SIGKILL it "
            "mid-traffic --kills times, and prove replay parity + zero "
            "accepted-job loss after every cold start"
        ),
    )
    p.add_argument(
        "--kills", type=int, default=3, help="SIGKILLs to deliver (--kill9)"
    )
    p.add_argument(
        "--store-dir",
        default=None,
        metavar="DIR",
        help=(
            "durable tenant stores under DIR (with --kill9 the default is "
            "a temp dir; without, nothing is persisted)"
        ),
    )
    p.add_argument(
        "--no-fsync",
        action="store_true",
        help="skip store fsyncs in --kill9 (survives SIGKILL, not power loss)",
    )
    p.add_argument(
        "--timeline",
        default=None,
        metavar="FILE",
        help=(
            "write a machine-readable health timeline (JSON lines of "
            "per-tenant SLO scrapes) to FILE as the soak progresses"
        ),
    )

    # `repro serve` options belong to the daemon's own parser
    # (repro.service.daemon.main); main() forwards the raw arguments, so
    # this entry only lists the command.
    sub.add_parser(
        "serve",
        add_help=False,
        help=(
            "run the durable scheduling service: TCP JSON-line ingress, "
            "crash-safe tenant store, SIGTERM drain (the kill -9 soak's "
            "child process; options: repro serve --help)"
        ),
    )

    p = sub.add_parser(
        "top",
        help=(
            "live fleet dashboard: poll a running service's telemetry "
            "exposition (/metrics.json) and render per-tenant SLOs"
        ),
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument(
        "--port",
        type=int,
        required=True,
        help="the service's telemetry port (hello line: telemetry_port)",
    )
    p.add_argument(
        "--interval", type=float, default=1.0, help="poll interval (seconds)"
    )
    p.add_argument(
        "--iterations",
        type=int,
        default=0,
        help="screens to render before exiting (0 = until interrupted)",
    )
    p.add_argument(
        "--no-clear",
        action="store_true",
        help="append screens instead of clearing the terminal",
    )

    return parser


def _failure_exit(
    n_failed: int, first, allow_failures: bool
) -> int:
    """Shared failure-summary policy: print what was lost and pick the exit
    code.  Failed replications are *excluded* from the printed averages, so
    silently exiting 0 would let CI publish tables computed from fewer runs
    than requested — non-zero unless ``--allow-failures``."""
    if n_failed == 0:
        return 0
    print(
        f"[!] {n_failed} replication(s) failed and were excluded from the "
        f"averages (first: {first})",
        file=sys.stderr,
    )
    if allow_failures:
        return 0
    print(
        "[!] exiting non-zero; pass --allow-failures to accept partial "
        "results",
        file=sys.stderr,
    )
    return 1


def _cmd_table1(args: argparse.Namespace) -> int:
    from repro.experiments.table1 import Table1Config, run_table1

    kwargs: dict = {
        "n_runs": args.runs,
        "seed": args.seed,
        "workers": args.workers,
        "expected_jobs": args.jobs,
    }
    if args.lambdas is not None:
        kwargs["lambdas"] = tuple(args.lambdas)
    result = run_table1(
        Table1Config(**kwargs),
        checkpoint_dir=args.checkpoint,
        timeout=args.timeout,
        max_retries=args.retries,
    )
    print(result.render())
    first = None
    if result.failures:
        lam = sorted(result.failures)[0]
        first = result.failures[lam][0]
    return _failure_exit(result.n_failed, first, args.allow_failures)


def _cmd_figure1(args: argparse.Namespace) -> int:
    from repro.analysis.plots import render_line_chart
    from repro.experiments.figure1 import Figure1Config, run_figure1

    config = Figure1Config(
        lam=args.lam,
        seed=args.seed,
        expected_jobs=args.jobs,
    )
    octx = None
    if args.trace or args.profile:
        from repro import obs

        with obs.session(profile=args.profile) as octx:
            result = run_figure1(config)
    else:
        result = run_figure1(config)
    for panel in result.panels:
        print(
            render_line_chart(
                {
                    "V-Dover": panel.vdover_series,
                    f"Dover(c={panel.c_hat:g})": panel.dover_series,
                },
                title=(
                    f"Figure 1 — value vs time, lambda={config.lam:g}, "
                    f"Dover estimate c={panel.c_hat:g} "
                    f"(generated {panel.generated_value:.0f})"
                ),
                y_label="value",
            )
        )
        print()
    if args.trace and octx is not None:
        n = octx.sink.export_jsonl(args.trace, metrics=octx.snapshot_metrics())
        print(
            f"wrote {n} trace event(s) to {args.trace} "
            f"(inspect with: repro-sched obs report {args.trace})",
            file=sys.stderr,
        )
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.experiments import sweeps

    fn = {
        "policy": sweeps.run_policy_sweep,
        "supplement": sweeps.run_supplement_ablation,
        "beta": sweeps.run_beta_sweep,
        "delta": sweeps.run_delta_sweep,
        "k-misest": sweeps.run_k_misestimation_sweep,
        "slack": sweeps.run_slack_sweep,
    }[args.kind]
    print(fn(n_runs=args.runs, workers=args.workers).render())
    return 0


def _cmd_faults(args: argparse.Namespace) -> int:
    from repro.experiments.faults_sweep import run_faults_sweep

    result = run_faults_sweep(
        args.kind,
        tuple(args.severities) if args.severities is not None else None,
        lam=args.lam,
        n_runs=args.runs,
        seed=args.seed,
        workers=args.workers,
        expected_jobs=args.jobs,
    )
    print(result.render())
    first = result.failures[0][1] if result.failures else None
    return _failure_exit(len(result.failures), first, args.allow_failures)


def _cmd_recovery(args: argparse.Namespace) -> int:
    from repro.analysis.tables import render_table as _render_table
    from repro.experiments.recovery_sweep import (
        crash_resume_equivalence,
        run_recovery_sweep,
    )

    if args.kind == "crash-demo":
        report = crash_resume_equivalence(lam=args.lam, seed=args.seed)
        rows = [
            [
                name,
                "yes" if r["identical"] else "NO",
                r["recoveries"],
                r["events_journaled"],
                f"{r['value']:g}",
            ]
            for name, r in report.items()
        ]
        print(
            _render_table(
                ["scheduler", "bit-identical", "recoveries", "events", "value"],
                rows,
                title="Crash-resume equivalence (snapshot + journal replay)",
            )
        )
        if not all(r["identical"] for r in report.values()):
            print("[!] recovered run diverged from the reference", file=sys.stderr)
            return 1
        return 0

    result = run_recovery_sweep(
        args.kind,
        tuple(args.rates) if args.rates is not None else None,
        lam=args.lam,
        n_runs=args.runs,
        seed=args.seed,
        workers=args.workers,
        expected_jobs=args.jobs,
        retain=args.retain,
        mean_down=args.mean_down,
        checkpoint=args.checkpoint,
    )
    print(result.render())
    if args.out is not None:
        from repro.experiments.store import save_sweep

        save_sweep(args.out, result)
        print(f"saved sweep to {args.out}")
    first = result.failures[0][1] if result.failures else None
    return _failure_exit(len(result.failures), first, args.allow_failures)


def _cmd_multi(args: argparse.Namespace) -> int:
    from repro.experiments.multi_demo import (
        multi_crash_resume_equivalence,
        run_multi_demo,
    )

    if args.kind == "crash-demo":
        report = multi_crash_resume_equivalence(
            m=args.m,
            lam=args.lam if args.lam is not None else 6.0,
            k=args.k,
            seed=args.seed,
            expected_jobs=args.jobs,
        )
        rows = [
            [
                name,
                "yes" if r["identical"] else "NO",
                r["recoveries"],
                r["events_journaled"],
                f"{r['value']:g}",
            ]
            for name, r in report.items()
        ]
        print(
            render_table(
                ["policy", "bit-identical", "recoveries", "events", "value"],
                rows,
                title=(
                    f"Multiprocessor crash-resume equivalence "
                    f"(m={args.m}, snapshot + journal replay)"
                ),
            )
        )
        if not all(r["identical"] for r in report.values()):
            print("[!] recovered run diverged from the reference", file=sys.stderr)
            return 1
        return 0

    rows = run_multi_demo(
        m=args.m,
        lam=args.lam if args.lam is not None else 20.0,
        k=args.k,
        n_runs=args.runs,
        seed=args.seed,
        expected_jobs=args.jobs,
        workers=args.workers,
    )
    print(
        render_table(
            ["policy", "value %", "completed"],
            [[name, f"{share:.2f}", f"{done:.1f}"] for name, share, done in rows],
            title=(
                f"Multiprocessor policies on m={args.m} heterogeneous "
                f"servers (paired, {args.runs} runs)"
            ),
        )
    )
    return 0


def _cmd_theory(args: argparse.Namespace) -> int:
    k, delta = args.k, args.delta
    rows = [
        ["f(k, δ)  (Lemma 2)", f_overload(k, delta)],
        ["β*  = 1 + √(k/f)  (Thm 3 proof)", optimal_beta(k, delta)],
        ["achievable ratio (Thm 3(2))", vdover_competitive_ratio(k, delta)],
        ["upper bound 1/(1+√k)² (Thm 3(1))", varying_capacity_upper_bound(k)],
        ["achievable / upper (→1 as k→∞)", asymptotic_optimality_gap(k, delta)],
    ]
    print(
        render_table(
            ["quantity", "value"],
            rows,
            title=f"Theory at k={k:g}, δ={delta:g}",
            float_fmt="{:.6f}",
        )
    )
    return 0


def _cmd_adversary(args: argparse.Namespace) -> int:
    from repro.core.offline import greedy_admission
    from repro.core.vdover import VDoverScheduler
    from repro.sim.engine import simulate
    from repro.workload.instances import inadmissible_trap

    rows = []
    for n in args.n:
        jobs, capacity = inadmissible_trap(n)
        online = simulate(jobs, capacity, VDoverScheduler(k=float(n * n)))
        offline_value, _ = greedy_admission(jobs, capacity)
        rows.append(
            [n, online.value, offline_value, online.value / offline_value]
        )
    print(
        render_table(
            ["n", "online (V-Dover)", "offline (greedy)", "ratio"],
            rows,
            title="Theorem 3(3): ratio decays without individual admissibility",
        )
    )
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro.core import (
        AdmissionEDFScheduler,
        DoverScheduler,
        EDFScheduler,
        FCFSScheduler,
        GreedyDensityScheduler,
        LLFScheduler,
        VDoverScheduler,
    )
    from repro.sim import render_gantt, simulate
    from repro.workload import load_instance

    jobs, capacity = load_instance(args.instance)
    if capacity is None:
        print("instance file has no capacity section", file=sys.stderr)
        return 1
    scheduler = {
        "vdover": lambda: VDoverScheduler(k=args.k),
        "dover": lambda: DoverScheduler(k=args.k, c_hat=args.c_hat),
        "edf": EDFScheduler,
        "edf-ac": AdmissionEDFScheduler,
        "llf": LLFScheduler,
        "greedy": GreedyDensityScheduler,
        "fcfs": FCFSScheduler,
    }[args.scheduler]()
    octx = None
    if args.trace or args.profile:
        from repro import obs

        with obs.session(profile=args.profile) as octx:
            result = simulate(jobs, capacity, scheduler, validate=True)
    else:
        result = simulate(jobs, capacity, scheduler, validate=True)
    print(
        f"{scheduler.name}: value {result.value:g} of {result.generated_value:g} "
        f"({100 * result.normalized_value:.1f}%), "
        f"{result.n_completed}/{len(jobs)} jobs completed"
    )
    if args.gantt:
        print()
        print(render_gantt(result.trace, jobs, capacity=capacity))
    if args.trace and octx is not None:
        n = octx.sink.export_jsonl(args.trace, metrics=octx.snapshot_metrics())
        print(
            f"wrote {n} trace event(s) to {args.trace} "
            f"(inspect with: repro-sched obs report {args.trace})",
            file=sys.stderr,
        )
    return 0


def _cmd_obs(args: argparse.Namespace) -> int:
    import os

    from repro.obs import diff_traces, load_trace, render_report, render_tail

    if args.obs_command == "report":
        print(render_report(load_trace(args.trace)))
        return 0
    if args.obs_command == "tail":
        print(render_tail(load_trace(args.trace), n=args.n))
        return 0
    if args.obs_command == "trace":
        from repro.obs import correlate_request, render_request_trace

        if args.store is None and args.trace is None:
            print(
                "error: obs trace needs --store and/or --trace",
                file=sys.stderr,
            )
            return 2
        result = correlate_request(
            args.request_id,
            store_dir=args.store,
            trace=None if args.trace is None else load_trace(args.trace),
            tenant=args.tenant,
        )
        print(render_request_trace(result))
        return 0 if result["found"] else 1
    # diff
    print(
        diff_traces(
            load_trace(args.trace_a),
            load_trace(args.trace_b),
            names=(
                os.path.basename(args.trace_a),
                os.path.basename(args.trace_b),
            ),
        )
    )
    return 0


def _cmd_soak(args: argparse.Namespace) -> int:
    if args.kill9:
        from repro.experiments.soak import Kill9Config, run_kill9

        report = run_kill9(
            Kill9Config(
                tenants=args.tenants,
                lam=args.lam,
                horizon=args.horizon,
                seed=args.seed,
                kills=args.kills,
                forced_crashes=args.crashes,
                queue_budget=args.queue_budget,
                store_dir=args.store_dir,
                store_fsync=not args.no_fsync,
                timeline_path=args.timeline,
            )
        )
    else:
        from repro.experiments.soak import SoakConfig, run_soak

        report = run_soak(
            SoakConfig(
                tenants=args.tenants,
                lam=args.lam,
                horizon=args.horizon,
                seed=args.seed,
                forced_crashes=args.crashes,
                queue_budget=args.queue_budget,
                store_dir=args.store_dir,
                timeline_path=args.timeline,
            )
        )
    print("\n".join(report.summary_lines()))
    if not report.ok:
        for failure in report.failures():
            print(f"[!] {failure}", file=sys.stderr)
        return 1
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    import json as _json
    import time
    import urllib.error
    import urllib.request

    from repro.obs import render_top

    url = f"http://{args.host}:{args.port}/metrics.json"
    shown = 0
    try:
        while True:
            try:
                with urllib.request.urlopen(url, timeout=5.0) as resp:
                    doc = _json.loads(resp.read().decode("utf-8"))
            except (urllib.error.URLError, OSError, ValueError) as exc:
                print(f"scrape failed: {exc}", file=sys.stderr)
                return 1
            fleet = doc.get("tenants") or {}
            screen = render_top(fleet, title=f"repro top — {url}")
            if not args.no_clear:
                print("\033[2J\033[H", end="")
            print(screen, flush=True)
            shown += 1
            if args.iterations and shown >= args.iterations:
                return 0
            time.sleep(max(args.interval, 0.05))
    except KeyboardInterrupt:  # pragma: no cover - interactive exit
        return 0


def main(argv: Sequence[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["serve"]:
        from repro.service.daemon import main as serve_main

        return serve_main(argv[1:])
    args = build_parser().parse_args(argv)
    handler = {
        "table1": _cmd_table1,
        "figure1": _cmd_figure1,
        "sweep": _cmd_sweep,
        "faults": _cmd_faults,
        "recovery": _cmd_recovery,
        "multi": _cmd_multi,
        "theory": _cmd_theory,
        "adversary": _cmd_adversary,
        "simulate": _cmd_simulate,
        "obs": _cmd_obs,
        "soak": _cmd_soak,
        "top": _cmd_top,
    }[args.command]
    return handler(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
