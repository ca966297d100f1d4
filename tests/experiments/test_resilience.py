"""Resilience of the Monte-Carlo harness: crash isolation, timeouts,
retries, and checkpoint/resume (docs/ROBUSTNESS.md)."""

import json
import pickle
import signal
import time
from dataclasses import dataclass, field

import numpy as np
import pytest

from repro.errors import CheckpointError, ExperimentError, ReproError
from repro.experiments import (
    CheckpointStore,
    FailedReplication,
    MonteCarloRunner,
    PaperInstanceFactory,
    SchedulerSpec,
    run_fingerprint,
)
from repro.core import EDFScheduler, VDoverScheduler
from repro.store.directory import OsDirectory
from repro.store.log import SegmentedLog
from repro.workload import PoissonWorkload


def _keep_records(ckpt, n: int) -> None:
    """Simulate a crash after ``n`` appends: keep the checkpoint log's
    first ``n`` records (the header included), drop the rest."""
    log = SegmentedLog(OsDirectory(ckpt))
    payloads = [payload for _seq, payload in log.entries()[:n]]
    log.reset()
    for payload in payloads:
        log.append(payload)
    log.close()

SPECS = [
    SchedulerSpec("EDF", EDFScheduler, {}),
    SchedulerSpec("V-Dover", VDoverScheduler, {"k": 7.0}),
]


def small_factory(lam=6.0, jobs=40.0):
    horizon = jobs / lam
    return PaperInstanceFactory(
        workload=PoissonWorkload(lam=lam, horizon=horizon),
        sojourn=horizon / 4.0,
    )


@dataclass(frozen=True)
class CrashEveryNth:
    """Deterministically crashes whenever the drawn job count divides
    ``modulus`` — the same replications fail no matter how, where, or in
    what order they execute."""

    inner: PaperInstanceFactory
    modulus: int = 3

    def make(self, rng):
        jobs, capacity = self.inner.make(rng)
        if len(jobs) % self.modulus == 0:
            raise RuntimeError(f"injected crash (n_jobs={len(jobs)})")
        return jobs, capacity


@dataclass(frozen=True)
class SleepyFactory:
    """Burns wall-clock before delegating, to trip the SIGALRM budget."""

    inner: PaperInstanceFactory
    sleep: float = 0.5

    def make(self, rng):
        time.sleep(self.sleep)
        return self.inner.make(rng)


@dataclass(frozen=True)
class FlakyOnceFactory:
    """Raises ``OSError`` the first time each marker file is missing, then
    succeeds — a transient fault that a single retry absorbs."""

    inner: PaperInstanceFactory
    marker: str = ""

    def make(self, rng):
        from pathlib import Path

        path = Path(self.marker)
        if not path.exists():
            path.touch()
            raise OSError("transient sensor glitch")
        return self.inner.make(rng)


@dataclass(frozen=True)
class CountingFactory:
    """Appends one line to ``log`` per execution, so tests can count how
    many replications actually ran (vs were resumed from a checkpoint)."""

    inner: PaperInstanceFactory
    log: str = ""

    def make(self, rng):
        with open(self.log, "a") as fh:
            fh.write("x\n")
        return self.inner.make(rng)


def executions(log) -> int:
    try:
        with open(log) as fh:
            return sum(1 for _ in fh)
    except FileNotFoundError:
        return 0


class TestCrashIsolation:
    def test_failures_are_structured_not_fatal(self):
        runner = MonteCarloRunner(CrashEveryNth(small_factory()), SPECS)
        report = runner.run_report(12, seed=0, workers=1)
        assert report.outcomes and report.failures  # both kinds occurred
        assert len(report.outcomes) + len(report.failures) == 12
        for failure in report.failure_records():
            assert isinstance(failure, FailedReplication)
            assert failure.error_type == "RuntimeError"
            assert "injected crash" in failure.message
            assert failure.attempts == 1
            assert "RuntimeError" in failure.traceback

    def test_strict_run_raises(self):
        runner = MonteCarloRunner(CrashEveryNth(small_factory()), SPECS)
        with pytest.raises(ExperimentError, match="injected crash"):
            runner.run(12, seed=0, workers=1)

    def test_serial_and_parallel_fail_identically(self):
        """Satellite: a worker crash must not change which replications
        fail, nor the values of the survivors."""
        runner = MonteCarloRunner(CrashEveryNth(small_factory()), SPECS)
        serial = runner.run_report(12, seed=0, workers=1)
        parallel = runner.run_report(12, seed=0, workers=3)
        assert sorted(serial.failures) == sorted(parallel.failures)
        assert sorted(serial.outcomes) == sorted(parallel.outcomes)
        for i in serial.outcomes:
            assert serial.outcomes[i].values == parallel.outcomes[i].values

    def test_survivors_keyed_by_index_for_pairing(self):
        runner = MonteCarloRunner(CrashEveryNth(small_factory()), SPECS)
        report = runner.run_report(12, seed=0, workers=1)
        clean = MonteCarloRunner(small_factory(), SPECS).run(12, seed=0, workers=1)
        for i, outcome in report.outcomes.items():
            assert outcome.values == clean[i].values


@pytest.mark.skipif(
    not hasattr(signal, "SIGALRM"), reason="needs POSIX interval timers"
)
class TestTimeout:
    def test_hung_replication_times_out(self):
        runner = MonteCarloRunner(SleepyFactory(small_factory(), sleep=5.0), SPECS)
        start = time.monotonic()
        report = runner.run_report(1, seed=0, workers=1, timeout=0.1)
        assert time.monotonic() - start < 2.0  # did not sleep the full 5 s
        (failure,) = report.failure_records()
        assert failure.error_type == "ReplicationTimeout"
        assert failure.attempts == 1

    def test_timeout_consumes_retry_budget(self):
        runner = MonteCarloRunner(SleepyFactory(small_factory(), sleep=5.0), SPECS)
        report = runner.run_report(1, seed=0, workers=1, timeout=0.05, max_retries=2)
        (failure,) = report.failure_records()
        assert failure.attempts == 3  # 1 try + 2 retries

    def test_generous_timeout_is_harmless(self):
        runner = MonteCarloRunner(small_factory(), SPECS)
        with_budget = runner.run(3, seed=4, workers=1, timeout=60.0)
        without = runner.run(3, seed=4, workers=1)
        assert [o.values for o in with_budget] == [o.values for o in without]

    def test_timeout_validated(self):
        runner = MonteCarloRunner(small_factory(), SPECS)
        with pytest.raises(ReproError):
            runner.run(1, timeout=-1.0)
        with pytest.raises(ReproError):
            runner.run(1, max_retries=-1)


class TestRetry:
    def test_transient_failure_retried_and_bit_identical(self, tmp_path):
        marker = tmp_path / "glitch.marker"
        flaky = MonteCarloRunner(
            FlakyOnceFactory(small_factory(), marker=str(marker)), SPECS
        )
        outcomes = flaky.run(1, seed=8, workers=1, max_retries=1)
        clean = MonteCarloRunner(small_factory(), SPECS).run(1, seed=8, workers=1)
        # The retried replication re-derives its RNG from scratch, so the
        # second attempt sees exactly the instance the first would have.
        assert outcomes[0].values == clean[0].values

    def test_deterministic_failure_not_retried(self):
        runner = MonteCarloRunner(CrashEveryNth(small_factory()), SPECS)
        report = runner.run_report(12, seed=0, workers=1, max_retries=5)
        for failure in report.failure_records():
            assert failure.attempts == 1  # RuntimeError is not transient

    def test_exhausted_retries_record_attempt_count(self, tmp_path):
        # marker is never created by anyone else -> OSError every attempt
        @dataclass(frozen=True)
        class AlwaysOSError:
            inner: PaperInstanceFactory = field(default_factory=small_factory)

            def make(self, rng):
                raise OSError("persistent glitch")

        runner = MonteCarloRunner(AlwaysOSError(), SPECS)
        report = runner.run_report(1, seed=0, workers=1, max_retries=2)
        (failure,) = report.failure_records()
        assert failure.error_type == "OSError"
        assert failure.attempts == 3


class TestCheckpointResume:
    def _ckpt_runner(self, tmp_path, log_name="exec.log"):
        log = tmp_path / log_name
        runner = MonteCarloRunner(
            CountingFactory(small_factory(), log=str(log)), SPECS
        )
        return runner, log

    def test_uninterrupted_run_with_checkpoint_matches_without(self, tmp_path):
        runner, _ = self._ckpt_runner(tmp_path)
        ckpt = tmp_path / "run.ckpt"
        with_ckpt = runner.run(5, seed=3, workers=1, checkpoint=ckpt)
        without = runner.run(5, seed=3, workers=1)
        assert [o.values for o in with_ckpt] == [o.values for o in without]

    def test_interrupted_run_resumes_bit_identical(self, tmp_path):
        runner, log = self._ckpt_runner(tmp_path)
        ckpt = tmp_path / "run.ckpt"
        full = runner.run(6, seed=3, workers=1, checkpoint=ckpt)

        # Simulate a crash after 3 replications: keep header + 3 records.
        _keep_records(ckpt, 4)
        log.unlink()

        report = runner.run_report(6, seed=3, workers=1, checkpoint=ckpt)
        assert report.resumed == 3
        assert executions(log) == 3  # only the missing replications ran
        assert [o.values for o in report.survivors] == [o.values for o in full]

    def test_truncated_tail_tolerated(self, tmp_path):
        runner, log = self._ckpt_runner(tmp_path)
        ckpt = tmp_path / "run.ckpt"
        full = runner.run(4, seed=5, workers=1, checkpoint=ckpt)
        # a crash mid-append leaves half a frame at the end of the log
        (seg,) = ckpt.glob("*.seg")
        with seg.open("ab") as fh:
            fh.write(b'\x40\x00\x00\x00\x00\x00\x00\x00{"index": 99, "outco')
        log.unlink()
        resumed = runner.run(4, seed=5, workers=1, checkpoint=ckpt)
        assert [o.values for o in resumed] == [o.values for o in full]

    def test_failures_reattempted_on_resume(self, tmp_path):
        marker = tmp_path / "glitch.marker"
        flaky = MonteCarloRunner(
            FlakyOnceFactory(small_factory(), marker=str(marker)), SPECS
        )
        ckpt = tmp_path / "run.ckpt"
        first = flaky.run_report(1, seed=8, workers=1, checkpoint=ckpt)
        assert first.failures  # transient OSError recorded, no retries asked
        second = flaky.run_report(1, seed=8, workers=1, checkpoint=ckpt)
        assert second.ok  # marker now exists -> the re-attempt succeeded
        clean = MonteCarloRunner(small_factory(), SPECS).run(1, seed=8, workers=1)
        assert second.survivors[0].values == clean[0].values

    def test_config_mismatch_rejected(self, tmp_path):
        runner = MonteCarloRunner(small_factory(), SPECS)
        ckpt = tmp_path / "run.ckpt"
        runner.run(2, seed=3, workers=1, checkpoint=ckpt)
        with pytest.raises(CheckpointError, match="different run"):
            runner.run(2, seed=4, workers=1, checkpoint=ckpt)  # other seed
        with pytest.raises(CheckpointError, match="different run"):
            runner.run(3, seed=3, workers=1, checkpoint=ckpt)  # other count
        other = MonteCarloRunner(small_factory(lam=8.0), SPECS)
        with pytest.raises(CheckpointError, match="different run"):
            other.run(2, seed=3, workers=1, checkpoint=ckpt)  # other factory

    def test_corrupt_header_rejected(self, tmp_path):
        # A regular file at the checkpoint path (say, a retired JSON-lines
        # checkpoint) is refused by name, never overwritten.
        ckpt = tmp_path / "run.ckpt.jsonl"
        ckpt.write_text("not json\n")
        runner = MonteCarloRunner(small_factory(), SPECS)
        with pytest.raises(CheckpointError, match="run.ckpt.jsonl"):
            runner.run(2, seed=3, workers=1, checkpoint=ckpt)
        assert ckpt.read_text() == "not json\n"

    def test_parallel_checkpointed_run_resumable(self, tmp_path):
        runner, log = self._ckpt_runner(tmp_path)
        ckpt = tmp_path / "run.ckpt"
        full = runner.run(8, seed=9, workers=2, checkpoint=ckpt)
        _keep_records(ckpt, 5)  # keep header + 4
        resumed = runner.run(8, seed=9, workers=2, checkpoint=ckpt)
        assert [o.values for o in resumed] == [o.values for o in full]


class TestCheckpointStoreUnit:
    def test_fingerprint_sensitive_to_every_input(self):
        f = small_factory()
        base = run_fingerprint(f, SPECS, 1, 4)
        assert run_fingerprint(f, SPECS, 2, 4) != base
        assert run_fingerprint(f, SPECS, 1, 5) != base
        assert run_fingerprint(f, SPECS[:1], 1, 4) != base
        assert run_fingerprint(small_factory(lam=9.0), SPECS, 1, 4) != base
        assert run_fingerprint(f, SPECS, 1, 4) == base  # and stable

    def test_header_written_and_replayed(self, tmp_path):
        ckpt = tmp_path / "u.ckpt"
        with CheckpointStore(ckpt, seed=1, n_runs=3, fingerprint="abc") as store:
            assert store.pending() == [0, 1, 2]
        (_seq, first), = SegmentedLog(OsDirectory(ckpt)).entries()
        header = json.loads(first)
        assert header["kind"] == "mc_checkpoint"
        assert header["schema"] == 2

    def test_out_of_range_index_rejected(self, tmp_path):
        ckpt = tmp_path / "u.ckpt"
        with CheckpointStore(ckpt, seed=1, n_runs=2, fingerprint="abc"):
            pass
        log = SegmentedLog(OsDirectory(ckpt))
        log.append(json.dumps({"index": 7, "failed": {
            "index": 7, "error_type": "X", "message": "", "attempts": 1,
        }}).encode())
        log.close()
        with pytest.raises(CheckpointError, match="out of range"):
            CheckpointStore(ckpt, seed=1, n_runs=2, fingerprint="abc")


class TestSpawnCompatibility:
    """Satellite: the harness must survive the ``spawn`` start method
    (macOS/Windows default), which pickles every payload."""

    def test_payloads_are_picklable(self):
        seeds = np.random.SeedSequence(0).spawn(2)
        from repro.experiments.runner import _RetryPolicy

        payload = (0, small_factory(), SPECS, seeds[0], _RetryPolicy())
        assert pickle.loads(pickle.dumps(payload))[0] == 0

    def test_spawn_matches_serial(self):
        runner = MonteCarloRunner(small_factory(), SPECS)
        serial = runner.run(2, seed=6, workers=1)
        spawned = runner.run(2, seed=6, workers=2, mp_start_method="spawn")
        assert [o.values for o in serial] == [o.values for o in spawned]
