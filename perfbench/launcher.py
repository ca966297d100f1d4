"""Traced daemon entry: ``repro serve`` with the per-layer ledger installed.

Usage (from the benchmark, with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/launcher.py --ledger-dir DIR -- --store S --specs F

Installs the service wrappers from :mod:`ledger`, then runs the daemon's
own ``main``.  Each SIGUSR1 writes the current counters (plus this
process's ``/proc/self/io`` write count) to ``DIR/dump-<n>.json``; the
benchmark only signals while the daemon is idle between acks.  When the
daemon exits after its SIGTERM drain, the in-memory spans are written to
``DIR/spans.jsonl``.
"""

from __future__ import annotations

import json
import os
import signal
import sys
from pathlib import Path

from ledger import Ledger, install_service


def _wchar() -> int:
    try:
        with open("/proc/self/io", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("wchar:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def main(argv: list) -> int:
    if len(argv) < 3 or argv[0] != "--ledger-dir" or argv[2] != "--":
        print("usage: launcher.py --ledger-dir DIR -- SERVE-ARGS...", file=sys.stderr)
        return 2
    out = Path(argv[1])
    out.mkdir(parents=True, exist_ok=True)
    serve_args = argv[3:]

    ledger = Ledger()
    install_service(ledger)
    dumps = [0]

    def dump(signum, frame) -> None:
        doc = {"counts": ledger.snapshot(), "wchar": _wchar()}
        tmp = out / f"dump-{dumps[0]}.json.tmp"
        tmp.write_text(json.dumps(doc), encoding="utf-8")
        os.replace(tmp, out / f"dump-{dumps[0]}.json")
        dumps[0] += 1

    signal.signal(signal.SIGUSR1, dump)

    from repro.service.daemon import main as serve_main

    try:
        return serve_main(serve_args)
    finally:
        ledger.write_spans(str(out / "spans.jsonl"))


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
