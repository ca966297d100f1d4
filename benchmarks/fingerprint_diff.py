#!/usr/bin/env python3
"""Diff a traced benchmark run's count fingerprint against the record.

``perfbench/run.py --trace 1`` prints the run's deterministic count
fingerprint (ledger-observed calls, pops, pushes, dispatches) on its
second-to-last line.  This script compares it with the fingerprint
recorded for the workload in ``benchmarks/results/fingerprints_seed1.json``
and exits non-zero, naming every count that moved, when they differ::

    python3 perfbench/run.py --workload table1_sweep --seed 1 --seconds 5 \\
        --trace 1 > out.txt
    python3 benchmarks/fingerprint_diff.py table1_sweep out.txt

A change that means to move the counts regenerates the record with
``--write`` (same arguments) and says so.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

RECORD = Path(__file__).resolve().parent / "results" / "fingerprints_seed1.json"


def fingerprint_of(output: str) -> dict:
    """The fingerprint line of a traced run's stdout."""
    lines = output.strip().splitlines()
    if len(lines) < 2:
        raise SystemExit("benchmark output has no fingerprint line")
    return json.loads(lines[-2])["fingerprint"]


def main(argv: list[str]) -> int:
    write = "--write" in argv
    args = [a for a in argv if a != "--write"]
    if len(args) != 2:
        raise SystemExit(__doc__)
    workload, path = args
    got = fingerprint_of(Path(path).read_text())
    record = json.loads(RECORD.read_text()) if RECORD.exists() else {}
    if write:
        record[workload] = got
        RECORD.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
        print(f"recorded the {workload} fingerprint in {RECORD.name}")
        return 0
    want = record.get(workload)
    if want is None:
        print(f"no recorded fingerprint for {workload} in {RECORD.name}")
        return 1
    moved = {
        key: {"recorded": want.get(key), "now": got.get(key)}
        for key in sorted(set(want) | set(got))
        if want.get(key) != got.get(key)
    }
    if moved:
        print(f"{workload}: ledger count fingerprint moved:")
        print(json.dumps(moved, indent=2, sort_keys=True))
        return 1
    print(f"{workload}: fingerprint matches {RECORD.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
