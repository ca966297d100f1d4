"""Tier-1 bytecode budget of the dispatch path (``perf_smoke`` marker).

Counted, not clocked: ``sys.settrace`` with ``f_trace_opcodes`` counts
every bytecode executed in every Python frame while one Figure-1 run
dispatches (bootstrap included, engine construction excluded), and the
count per dispatched event is printed.  Bytecodes track the dispatch
path's time more closely than frames do (docs/PERFORMANCE.md, "Bytecodes,
not frames").

The counts are deterministic for a given interpreter, but bytecode
differs across CPython versions (3.12 inlines comprehensions and
specializes differently), so the budget — at most 0.85× the count before
the run loop, the seeded queue, the capacity index and the policy queues
were trimmed — is asserted on CPython 3.11 only; other versions only
print their counts.
"""

from __future__ import annotations

import sys

import pytest

from repro.capacity import TwoStateMarkovCapacity
from repro.core import DoverScheduler, EDFScheduler, VDoverScheduler
from repro.sim import SimulationEngine
from repro.workload import PoissonWorkload

pytestmark = pytest.mark.perf_smoke

#: Bytecodes per dispatched event before the trim, on CPython 3.11
#: (opcode events / dispatches on the Figure-1 instance below).
BEFORE = {
    "EDF": 876.1,
    "V-Dover": 773.7,
    "Dover(c=35)": 1059.5,
}
BUDGET = 0.85
ASSERTED = sys.version_info[:2] == (3, 11)

POLICIES = {
    "EDF": EDFScheduler,
    "V-Dover": lambda: VDoverScheduler(k=7.0),
    "Dover(c=35)": lambda: DoverScheduler(k=7.0, c_hat=35.0),
}


def bytecodes_per_dispatch(make_scheduler) -> float:
    """Bytecodes executed in every Python frame per dispatched event of a
    Figure-1 run (engine construction excluded)."""
    horizon = 2000.0 / 6.0
    jobs = PoissonWorkload(lam=6.0, horizon=horizon).generate(7)
    capacity = TwoStateMarkovCapacity(
        1.0, 35.0, mean_sojourn=horizon / 4.0, rng=3
    )
    engine = SimulationEngine(jobs, capacity, make_scheduler())
    ops = 0

    def local(frame, event, arg):
        nonlocal ops
        if event == "opcode":
            ops += 1
        return local

    def count(frame, event, arg):
        frame.f_trace_opcodes = True
        return local

    previous = sys.gettrace()
    sys.settrace(count)
    try:
        engine.run()
    finally:
        sys.settrace(previous)
    return ops / engine.dispatch_count


@pytest.mark.parametrize("name", list(POLICIES))
def test_dispatch_bytecode_budget(name):
    per_event = bytecodes_per_dispatch(POLICIES[name])
    limit = BUDGET * BEFORE[name]
    print(
        f"{name}: {per_event:.1f} bytecodes per dispatched event "
        f"(before {BEFORE[name]:.1f} on CPython 3.11, budget {limit:.1f}"
        f"{'' if ASSERTED else ', not asserted on this version'})"
    )
    if ASSERTED:
        assert per_event <= limit
