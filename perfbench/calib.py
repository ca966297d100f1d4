"""Machine-speed calibration for CPU-bound wall-clock metrics.

The CPU speed of this shared machine swings by a third within seconds
(a fixed pure-Python loop runs 350-530 M additions per second on an
otherwise idle VM, with no steal time reported), which is more than the
changes the benchmark is meant to catch.  Wall-second figures of
CPU-bound work are therefore converted to *reference seconds*: every
timed span is followed by a short fixed calibration kernel (pure Python:
a heap, a dict, float arithmetic -- the operations the scheduler spends
its time on), and

    reference = wall * REF_S / mean(calibration before, calibration after)

so a span measured while the machine runs at half speed counts as half
as long.  With the machine at the speed ``REF_S`` was chosen for,
reference seconds equal wall seconds.  Each run also reports its raw
wall-second figures in the detail line.  Only the closed-horizon
workloads are calibrated: a daemon's ack also waits on fsyncs, which
the kernel does not track (calibrating ``serve_disk`` did not narrow
its spread).

Work that keeps several processors busy (the Monte-Carlo pool) is
calibrated at the same parallelism: helper processes run the kernel at
the same moment as this process, and the mean of their times is used,
because the processors of a shared machine slow down independently.
"""

from __future__ import annotations

import heapq
import multiprocessing
import random
import time

#: Duration of one calibration kernel at the reference machine speed.
REF_S = 0.02

perf = time.perf_counter


def kernel_s() -> float:
    """Run the calibration kernel once; return its wall time."""
    rng = random.Random(5)
    heap: list = []
    table: dict = {}
    start = perf()
    for i in range(20000):
        x = rng.random()
        heapq.heappush(heap, (x, i))
        table[i % 977] = x * 1.5
        if i % 3 == 0:
            heapq.heappop(heap)
    return perf() - start


def _helper(conn) -> None:
    while conn.recv() is not None:
        conn.send(kernel_s())


class Speed:
    """Converts consecutive wall spans into reference seconds using the
    calibrations on either side of each.

    ``parallel`` > 1 starts ``parallel - 1`` helper processes; call
    :meth:`close` to stop them."""

    def __init__(self, parallel: int = 1) -> None:
        ctx = multiprocessing.get_context("fork")
        self._helpers = []
        for _ in range(parallel - 1):
            ours, theirs = ctx.Pipe()
            proc = ctx.Process(target=_helper, args=(theirs,), daemon=True)
            proc.start()
            theirs.close()
            self._helpers.append((proc, ours))
        self.last = self._sample()

    def _sample(self) -> float:
        for _, conn in self._helpers:
            conn.send(True)
        times = [kernel_s()] + [conn.recv() for _, conn in self._helpers]
        return sum(times) / len(times)

    def span(self, wall: float) -> float:
        now = self._sample()
        scale = REF_S / ((self.last + now) / 2.0)
        self.last = now
        return wall * scale

    def close(self) -> None:
        for proc, conn in self._helpers:
            conn.send(None)
            conn.close()
            proc.join(timeout=10)
            if proc.is_alive():
                proc.kill()
                proc.join()
        self._helpers = []
