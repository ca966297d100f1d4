"""Tier-1 frame budget of the dispatch path (``perf_smoke`` marker).

Counted, not clocked: ``sys.setprofile`` counts every Python frame the
package enters (``"call"`` events whose code lives under ``repro/``)
while one Figure-1 run dispatches, and the count per dispatched event
must stay at or below three quarters of the count before the dispatch
path was flattened.  The counts are printed, and they are deterministic
for a given interpreter: CPython 3.12 inlines list comprehensions, so
its counts can only be lower than 3.11's.
"""

from __future__ import annotations

import os
import sys

import pytest

import repro
from repro.capacity import TwoStateMarkovCapacity
from repro.core import DoverScheduler, EDFScheduler, VDoverScheduler
from repro.sim import SimulationEngine
from repro.workload import PoissonWorkload

pytestmark = pytest.mark.perf_smoke

_PACKAGE = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep

#: Frames per dispatched event before the flattening, on CPython 3.11
#: (calls / dispatches on the Figure-1 instance below).
BEFORE = {
    "EDF": 127_588 / 4_032,  # 31.6
    "V-Dover": 166_791 / 5_087,  # 32.8
    "Dover(c=35)": 182_088 / 4_180,  # 43.6
}
BUDGET = 0.75

POLICIES = {
    "EDF": EDFScheduler,
    "V-Dover": lambda: VDoverScheduler(k=7.0),
    "Dover(c=35)": lambda: DoverScheduler(k=7.0, c_hat=35.0),
}


def frames_per_dispatch(make_scheduler) -> float:
    """Python frames entered under the package per dispatched event of a
    Figure-1 run (engine construction excluded)."""
    horizon = 2000.0 / 6.0
    jobs = PoissonWorkload(lam=6.0, horizon=horizon).generate(7)
    capacity = TwoStateMarkovCapacity(
        1.0, 35.0, mean_sojourn=horizon / 4.0, rng=3
    )
    engine = SimulationEngine(jobs, capacity, make_scheduler())
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_filename.startswith(_PACKAGE):
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        engine.run()
    finally:
        sys.setprofile(previous)
    return calls / engine.dispatch_count


@pytest.mark.parametrize("name", list(POLICIES))
def test_dispatch_frame_budget(name):
    per_event = frames_per_dispatch(POLICIES[name])
    limit = BUDGET * BEFORE[name]
    print(
        f"{name}: {per_event:.2f} frames per dispatched event "
        f"(before {BEFORE[name]:.2f}, budget {limit:.2f})"
    )
    assert per_event <= limit
