#!/usr/bin/env python3
"""Repository benchmark: one command, three workloads, split by layer.

Run from the repository root::

    python3 perfbench/run.py --workload table1_sweep --seed 1 --seconds 20 --trace 0

Workloads (BENCHMARK.json records why each was chosen):

* ``table1_sweep`` -- the paper's Table I Monte-Carlo sweep at
  lambda in {4, 8, 12} through ``MonteCarloRunner.run_report``;
* ``burst_groups`` -- quantized-release instances (16-32 jobs per
  instant) through EDF, AdmissionEDF and V-Dover;
* ``serve_disk`` -- a ``repro serve`` daemon with an on-disk store,
  driven over TCP in a closed loop.

With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` it carries the per-layer metrics, and the line before
it is the run's deterministic count fingerprint.  Every earlier line is
a ``detail`` document (sample counts, error fraction, failures).
Spans of a traced run are written under ``.bench_out/``.

An exception inside a workload is a failed operation: the run stops,
reports ``correct: false`` and prints every metric it did not reach as 0.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("table1_sweep", "burst_groups", "serve_disk")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"benchmark: no program source at {src}/repro", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    from closed import run_burst, run_table1_sweep
    from common import END_TO_END, PER_LAYER, Tally
    from serve import run_serve

    run = {"table1_sweep": run_table1_sweep, "burst_groups": run_burst,
           "serve_disk": run_serve}[args.workload]
    base = ROOT / ".bench_out"
    base.mkdir(exist_ok=True)
    out_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-s{args.seed}-", dir=base))
    trace = bool(args.trace)
    tally = Tally()
    result: dict = {}
    try:
        result = run(args.seed, args.seconds, trace, out_dir, tally)
    except Exception as exc:  # noqa: BLE001 - reported as a failed operation
        tally.check(False, f"{args.workload}: {exc!r}")
    finally:
        if not trace:
            shutil.rmtree(out_dir, ignore_errors=True)
        else:
            # Keep the span files; drop daemon stores.
            shutil.rmtree(out_dir / "serve" / "untraced", ignore_errors=True)
            for store in (out_dir / "serve").glob("**/store"):
                shutil.rmtree(store, ignore_errors=True)

    detail = dict(result.get("detail", {}))
    detail["error_frac"] = tally.failed / max(tally.attempted, 1)
    detail["problems"] = tally.problems
    if trace:
        detail["spans_dir"] = str(out_dir.relative_to(ROOT))
    print(json.dumps({"detail": detail}))
    units = PER_LAYER if trace else END_TO_END
    reached = result.get("metrics", {})
    metrics = {name: {"value": reached.get(name, 0.0), "unit": unit}
               for name, unit in units.items()}
    if trace:
        print(json.dumps({"fingerprint": result.get("fingerprint")}, sort_keys=True))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
