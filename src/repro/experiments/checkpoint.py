"""Incremental Monte-Carlo checkpoints (experiments store, schema v2).

Long sweeps (the paper's Table I is 7 λ-rows × 800 replications) used to be
all-or-nothing: a crash at replication 799 lost hours.  The checkpoint
store makes a run *resumable*: every finished replication is appended
(and fsynced) the moment it completes, and a restarted run reloads them,
re-executes only what is missing, and — because every replication's RNG
derives from ``SeedSequence(seed).spawn(n_runs)[index]`` independently of
execution order — produces **bit-identical** results to an uninterrupted
run.

A checkpoint is a directory holding one :class:`~repro.store.log.
SegmentedLog` of JSON records — the repository's one append-log format,
with its CRC32 framing, torn-tail truncation and corrupt-segment
quarantine::

    {"schema": 2, "kind": "mc_checkpoint", "seed": ..., "n_runs": ...,
     "fingerprint": "..."}                      # record 0: the run header
    {"index": 3, "outcome": {...}}              # completed replication
    {"index": 5, "failed": {...}}               # failure metadata
    ...

* The **fingerprint** hashes the run configuration (seed, run count,
  scheduler recipes, instance factory); resuming with a different
  configuration raises :class:`~repro.errors.CheckpointError` instead of
  silently mixing incompatible replications.
* **Failures are metadata, not results**: a replication recorded as failed
  is re-attempted on resume (its failure may have been transient), and the
  latest record per index wins.
* **Corruption re-runs**: a torn final record (a crash mid-append) is
  truncated away; a corrupt record (bit rot) quarantines its segment's
  suffix and every later segment (:attr:`CheckpointStore.quarantined`),
  and those replications simply re-run.  Only a lost *header* refuses —
  without it nothing can be attributed to a run — as does a regular
  file at the checkpoint path (the retired JSON-lines format is not
  imported: a checkpoint only saves re-running replications).
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import List, Mapping

from repro.errors import CheckpointError
from repro.experiments.runner import FailedReplication, ReplicationOutcome
from repro.store.directory import OsDirectory
from repro.store.log import SegmentedLog

__all__ = ["CheckpointStore", "run_fingerprint"]

CHECKPOINT_SCHEMA = 2
_KIND = "mc_checkpoint"


def run_fingerprint(factory, specs, seed: int, n_runs: int) -> str:
    """A stable digest of everything that determines the replication
    stream: the instance factory, the scheduler recipes, the master seed
    and the run count."""
    doc = {
        "factory": repr(factory),
        "specs": [
            [
                spec.name,
                f"{spec.cls.__module__}.{spec.cls.__qualname__}",
                sorted((str(k), repr(v)) for k, v in dict(spec.kwargs).items()),
            ]
            for spec in specs
        ],
        "seed": int(seed),
        "n_runs": int(n_runs),
    }
    blob = json.dumps(doc, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _outcome_to_dict(outcome: ReplicationOutcome) -> dict:
    doc = {
        "generated_value": outcome.generated_value,
        "n_jobs": outcome.n_jobs,
        "values": dict(outcome.values),
        "completed": dict(outcome.completed),
        "recovered": outcome.recovered,
    }
    if outcome.metrics is not None:
        # Worker-side observability snapshot (plain JSON already) — kept in
        # the checkpoint so a resumed sweep's merged metrics cover loaded
        # replications too.
        doc["metrics"] = outcome.metrics
    return doc


def _outcome_from_dict(doc: Mapping) -> ReplicationOutcome:
    return ReplicationOutcome(
        generated_value=float(doc["generated_value"]),
        n_jobs=int(doc["n_jobs"]),
        values={str(k): float(v) for k, v in doc["values"].items()},
        completed={str(k): int(v) for k, v in doc["completed"].items()},
        # Absent in checkpoints written before crash recovery existed.
        recovered=int(doc.get("recovered", 0)),
        # Absent in checkpoints written before/without observability.
        metrics=doc.get("metrics"),
    )


def _failure_to_dict(failure: FailedReplication) -> dict:
    doc = {
        "index": failure.index,
        "error_type": failure.error_type,
        "message": failure.message,
        "attempts": failure.attempts,
        "traceback": failure.traceback,
    }
    if failure.trace_tail:
        # JSON-ready trace-event dicts (see TraceSink.tail).
        doc["trace_tail"] = list(failure.trace_tail)
    return doc


def _failure_from_dict(doc: Mapping) -> FailedReplication:
    return FailedReplication(
        index=int(doc["index"]),
        error_type=str(doc["error_type"]),
        message=str(doc["message"]),
        attempts=int(doc["attempts"]),
        traceback=str(doc.get("traceback", "")),
        trace_tail=tuple(doc.get("trace_tail", ())),
    )


class CheckpointStore:
    """Append-only per-replication checkpoint bound to one run fingerprint.

    Open with the header metadata of the run about to execute; if the
    checkpoint already exists its header is validated against that
    metadata and the recorded replications become available via
    :attr:`completed` / :attr:`failures`.
    """

    def __init__(
        self, path: str | Path, *, seed: int, n_runs: int, fingerprint: str
    ) -> None:
        self.path = Path(path)
        self.seed = int(seed)
        self.n_runs = int(n_runs)
        self.fingerprint = str(fingerprint)
        self.completed: dict[int, ReplicationOutcome] = {}
        self.failures: dict[int, FailedReplication] = {}
        if self.path.exists() and not self.path.is_dir():
            raise CheckpointError(
                f"{self.path} is a file, not a Monte-Carlo checkpoint "
                "directory (JSON-lines checkpoints are not imported): delete "
                "it or point the run elsewhere"
            )
        directory = OsDirectory(self.path)
        self._log = SegmentedLog(directory, fsync=True)
        #: segments set aside as ``*.quarantine`` while opening (their
        #: replications re-run).
        self.quarantined: List[str] = list(self._log.quarantined)
        entries = self._log.entries()
        if not entries:
            if any(n.endswith(".quarantine") for n in directory.listdir()):
                raise CheckpointError(
                    f"{self.path}: corrupt checkpoint header (quarantined); "
                    "delete the directory to start over"
                )
            self._append(
                {
                    "schema": CHECKPOINT_SCHEMA,
                    "kind": _KIND,
                    "seed": self.seed,
                    "n_runs": self.n_runs,
                    "fingerprint": self.fingerprint,
                }
            )
            return
        try:
            docs = [json.loads(payload) for _seq, payload in entries]
        except ValueError as exc:
            raise CheckpointError(
                f"{self.path}: not a Monte-Carlo checkpoint"
            ) from exc
        self._check_header(docs[0])
        for record in docs[1:]:
            index = int(record["index"])
            if not 0 <= index < self.n_runs:
                raise CheckpointError(
                    f"{self.path}: replication index {index} out of range "
                    f"for n_runs={self.n_runs}"
                )
            if "outcome" in record:
                self.completed[index] = _outcome_from_dict(record["outcome"])
                self.failures.pop(index, None)
            elif "failed" in record:
                self.failures[index] = _failure_from_dict(record["failed"])
            # Unknown record kinds are ignored for forward compatibility.

    # ------------------------------------------------------------------
    def _check_header(self, header: Mapping) -> None:
        if not isinstance(header, dict) or header.get("kind") != _KIND:
            raise CheckpointError(f"{self.path}: not a Monte-Carlo checkpoint")
        if header.get("schema") != CHECKPOINT_SCHEMA:
            raise CheckpointError(
                f"{self.path}: unsupported checkpoint schema "
                f"{header.get('schema')!r} (expected {CHECKPOINT_SCHEMA})"
            )
        for key, want in (
            ("seed", self.seed),
            ("n_runs", self.n_runs),
            ("fingerprint", self.fingerprint),
        ):
            if header.get(key) != want:
                raise CheckpointError(
                    f"{self.path}: checkpoint belongs to a different run "
                    f"({key}: recorded {header.get(key)!r}, requested {want!r}); "
                    "delete it or point the run elsewhere"
                )

    def _append(self, doc: dict) -> None:
        self._log.append(json.dumps(doc).encode(), sync=True)

    def record(self, index: int, result: ReplicationOutcome | FailedReplication) -> None:
        """Persist one finished replication (or its failure metadata)."""
        if isinstance(result, FailedReplication):
            self.failures[index] = result
            self._append({"index": index, "failed": _failure_to_dict(result)})
        else:
            self.completed[index] = result
            self.failures.pop(index, None)
            self._append({"index": index, "outcome": _outcome_to_dict(result)})

    def pending(self) -> list[int]:
        """Replication indices still to run (missing or previously failed)."""
        return [i for i in range(self.n_runs) if i not in self.completed]

    def close(self) -> None:
        self._log.close()

    def __enter__(self) -> "CheckpointStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
