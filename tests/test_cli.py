"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_table1_defaults(self):
        args = build_parser().parse_args(["table1"])
        assert args.runs == 50
        assert args.lambdas is None

    def test_sweep_kinds(self):
        for kind in ("policy", "supplement", "beta", "delta"):
            args = build_parser().parse_args(["sweep", kind])
            assert args.kind == kind
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "nonsense"])

    def test_faults_kinds(self):
        for kind in ("noise", "staleness", "dropout", "bias"):
            args = build_parser().parse_args(["faults", kind])
            assert args.kind == kind
            assert args.severities is None
        with pytest.raises(SystemExit):
            build_parser().parse_args(["faults", "gamma-rays"])

    def test_recovery_kinds(self):
        for kind in ("kill", "revocation", "crash-demo"):
            args = build_parser().parse_args(["recovery", kind])
            assert args.kind == kind
            assert args.rates is None
            assert not args.allow_failures
        with pytest.raises(SystemExit):
            build_parser().parse_args(["recovery", "gamma-rays"])

    def test_recovery_flags(self):
        args = build_parser().parse_args(
            [
                "recovery", "kill",
                "--rates", "0", "0.5",
                "--retain", "0.25",
                "--checkpoint", "/tmp/base",
                "--out", "/tmp/sweep.json",
                "--allow-failures",
            ]
        )
        assert args.rates == [0.0, 0.5]
        assert args.retain == 0.25
        assert args.checkpoint == "/tmp/base"
        assert args.out == "/tmp/sweep.json"
        assert args.allow_failures

    def test_allow_failures_on_mc_commands(self):
        for cmd in (["table1"], ["faults", "noise"], ["recovery", "kill"]):
            assert not build_parser().parse_args(cmd).allow_failures
            assert build_parser().parse_args(
                cmd + ["--allow-failures"]
            ).allow_failures

    def test_table1_resilience_flags(self):
        args = build_parser().parse_args(
            ["table1", "--checkpoint", "/tmp/ck", "--timeout", "30", "--retries", "2"]
        )
        assert args.checkpoint == "/tmp/ck"
        assert args.timeout == 30.0
        assert args.retries == 2
        defaults = build_parser().parse_args(["table1"])
        assert defaults.checkpoint is None and defaults.retries == 0


class TestCommands:
    def test_theory(self, capsys):
        assert main(["theory", "--k", "7", "--delta", "35"]) == 0
        out = capsys.readouterr().out
        assert "f(k, δ)" in out
        assert "upper bound" in out

    def test_adversary(self, capsys):
        assert main(["adversary", "--n", "4", "8"]) == 0
        out = capsys.readouterr().out
        assert "ratio" in out
        lines = [l for l in out.splitlines() if l.strip() and l.lstrip()[0].isdigit()]
        ratios = [float(l.split("|")[-1]) for l in lines]
        assert ratios[0] > ratios[1]  # decaying ratio visible from the CLI

    def test_table1_small(self, capsys):
        code = main(
            [
                "table1",
                "--runs", "2",
                "--lambdas", "6",
                "--jobs", "60",
                "--workers", "1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Table I" in out
        assert "V-Dover" in out

    def test_figure1_small(self, capsys):
        assert main(["figure1", "--lam", "6", "--jobs", "60", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "legend" in out  # now rendered as charts

    def test_sweep_beta_small(self, capsys):
        assert main(["sweep", "beta", "--runs", "2", "--workers", "1"]) == 0
        assert "beta" in capsys.readouterr().out

    def test_faults_small(self, capsys):
        code = main(
            [
                "faults", "noise",
                "--severities", "0", "0.5",
                "--runs", "2",
                "--jobs", "60",
                "--workers", "1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "noise severity" in out
        assert "Dover(sensed)" in out

    def test_table1_checkpoint_resumes(self, tmp_path, capsys):
        argv = [
            "table1",
            "--runs", "2",
            "--lambdas", "6",
            "--jobs", "60",
            "--workers", "1",
            "--checkpoint", str(tmp_path),
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert (tmp_path / "table1_lam6.ckpt").exists()
        assert main(argv) == 0  # resumes from the checkpoint
        assert capsys.readouterr().out == first


class TestRecoveryCommand:
    def test_crash_demo(self, capsys):
        assert main(["recovery", "crash-demo", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "Crash-resume equivalence" in out
        assert "bit-identical" in out
        assert "NO" not in out  # every scheduler resumed exactly

    def test_kill_sweep_small(self, capsys, tmp_path):
        out_file = tmp_path / "recovery.json"
        code = main(
            [
                "recovery", "kill",
                "--rates", "0", "0.5",
                "--runs", "2",
                "--jobs", "40",
                "--workers", "1",
                "--out", str(out_file),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "kill rate" in out
        assert "V-Dover" in out
        assert out_file.exists()
        from repro.experiments.store import load_sweep

        loaded = load_sweep(out_file)
        assert loaded.swept_values == [0.0, 0.5]

    def test_recovery_checkpoint_resumes(self, tmp_path, capsys):
        argv = [
            "recovery", "kill",
            "--rates", "0", "0.2",
            "--runs", "2",
            "--jobs", "40",
            "--workers", "1",
            "--checkpoint", str(tmp_path / "rec"),
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert (tmp_path / "rec.cell0").exists()
        assert (tmp_path / "rec.cell1").exists()
        assert main(argv) == 0  # resumes from the per-cell checkpoints
        assert capsys.readouterr().out == first


class TestFailureExitCodes:
    """Satellite: Monte-Carlo commands exit non-zero when replications
    failed, unless --allow-failures."""

    class _StubResult:
        def __init__(self, failures):
            self.failures = failures

        def render(self):
            return "stub table"

    def _patch_faults(self, monkeypatch, failures):
        import repro.experiments.faults_sweep as mod

        monkeypatch.setattr(
            mod,
            "run_faults_sweep",
            lambda *a, **kw: self._StubResult(failures),
        )

    def test_failures_exit_nonzero(self, monkeypatch, capsys):
        self._patch_faults(monkeypatch, [(0.5, "replication #3 failed: boom")])
        assert main(["faults", "noise", "--runs", "2"]) == 1
        err = capsys.readouterr().err
        assert "1 replication(s) failed" in err
        assert "--allow-failures" in err

    def test_allow_failures_exits_zero(self, monkeypatch, capsys):
        self._patch_faults(monkeypatch, [(0.5, "replication #3 failed: boom")])
        assert main(["faults", "noise", "--runs", "2", "--allow-failures"]) == 0
        err = capsys.readouterr().err
        assert "excluded" in err  # still loudly reported

    def test_no_failures_exit_zero(self, monkeypatch, capsys):
        self._patch_faults(monkeypatch, [])
        assert main(["faults", "noise", "--runs", "2"]) == 0
        assert capsys.readouterr().err == ""


class TestSimulateCommand:
    @pytest.fixture
    def instance_file(self, tmp_path):
        from repro.capacity import PiecewiseConstantCapacity
        from repro.sim import Job
        from repro.workload import save_instance

        path = tmp_path / "inst.json"
        jobs = [Job(0, 0.0, 3.0, 6.0, 2.0), Job(1, 1.0, 2.0, 4.0, 5.0)]
        cap = PiecewiseConstantCapacity([0.0, 5.0], [1.0, 2.0])
        save_instance(path, jobs, cap)
        return str(path)

    @pytest.mark.parametrize(
        "scheduler", ["vdover", "dover", "edf", "edf-ac", "llf", "greedy", "fcfs"]
    )
    def test_every_scheduler_choice_runs(self, instance_file, scheduler, capsys):
        assert main(["simulate", instance_file, "--scheduler", scheduler]) == 0
        out = capsys.readouterr().out
        assert "value" in out and "completed" in out

    def test_gantt_flag(self, instance_file, capsys):
        assert main(["simulate", instance_file, "--gantt"]) == 0
        out = capsys.readouterr().out
        assert "#" in out and "c(t)" in out

    def test_instance_without_capacity_errors(self, tmp_path, capsys):
        from repro.sim import Job
        from repro.workload import save_instance

        path = tmp_path / "nocap.json"
        save_instance(path, [Job(0, 0.0, 1.0, 2.0, 1.0)])
        assert main(["simulate", str(path)]) == 1

    def test_figure1_draws_charts(self, capsys):
        assert main(["figure1", "--lam", "6", "--jobs", "40", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "legend" in out
        assert "V-Dover" in out


class TestMultiCommand:
    def test_multi_kinds(self):
        for kind in ("run", "crash-demo"):
            args = build_parser().parse_args(["multi", kind])
            assert args.kind == kind
            assert args.m == 4
            assert args.lam is None  # per-kind default resolved in handler
        with pytest.raises(SystemExit):
            build_parser().parse_args(["multi", "gamma-rays"])

    def test_multi_flags(self):
        args = build_parser().parse_args(
            [
                "multi", "run",
                "--m", "3",
                "--lam", "12",
                "--runs", "2",
                "--seed", "7",
                "--jobs", "80",
                "--workers", "1",
            ]
        )
        assert args.m == 3
        assert args.lam == 12.0
        assert args.runs == 2
        assert args.jobs == 80.0

    def test_multi_run_small(self, capsys):
        code = main(
            ["multi", "run", "--m", "3", "--runs", "2", "--jobs", "60"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "m=3 heterogeneous" in out
        assert "Global-V-Dover" in out
        assert "Part(LW/V-Dover)" in out

    def test_multi_crash_demo(self, capsys):
        assert main(["multi", "crash-demo", "--m", "3", "--jobs", "60"]) == 0
        out = capsys.readouterr().out
        assert "Multiprocessor crash-resume equivalence" in out
        assert "bit-identical" in out
        assert "NO" not in out  # every policy resumed exactly


class TestServeCommand:
    """`repro serve` forwards its arguments to the daemon's parser."""

    def test_help_lists_daemon_flags(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "--telemetry-port" in out and "--no-telemetry" in out
        assert out.startswith("usage: repro serve")

    def test_unknown_flag_exits_2(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--store", str(tmp_path / "s"), "--bogus"])
        assert exc.value.code == 2
        assert "--bogus" in capsys.readouterr().err
        assert not (tmp_path / "s").exists()

    def test_listed_in_top_level_help(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        assert "serve" in capsys.readouterr().out
