"""Job model: the paper's ``T_i = (r_i, p_i, d_i, v_i)`` tuple.

A :class:`Job` is immutable; all mutable execution state (remaining
workload, status, queue membership) lives in the engine and schedulers so a
single job object can be reused across simulations, schedulers and
Monte-Carlo replications without copying.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.errors import InvalidInstanceError

_INF = math.inf

__all__ = [
    "Job",
    "JobStatus",
    "STATUS_CODE",
    "CODE_STATUS",
    "TERMINAL_CODES",
    "make_jobs",
    "validate_jobs",
    "total_value",
]


class JobStatus(enum.Enum):
    """Lifecycle of a job inside one simulation run."""

    PENDING = "pending"      #: not yet released
    READY = "ready"          #: released, not running, deadline not passed
    RUNNING = "running"      #: currently executing on the processor
    COMPLETED = "completed"  #: full workload finished by the deadline
    FAILED = "failed"        #: deadline passed with workload remaining
    ABANDONED = "abandoned"  #: given up by the scheduler before the deadline


#: Dense integer codes for :class:`JobStatus`, the representation the
#: columnar :class:`repro.sim.jobtable.JobTable` stores (ints compare and
#: vectorize cheaply; the enum stays the API surface).  The code order is
#: part of the snapshot-adjacent contract — append, never reorder.
CODE_STATUS: tuple[JobStatus, ...] = (
    JobStatus.PENDING,
    JobStatus.READY,
    JobStatus.RUNNING,
    JobStatus.COMPLETED,
    JobStatus.FAILED,
    JobStatus.ABANDONED,
)
STATUS_CODE: dict[JobStatus, int] = {s: i for i, s in enumerate(CODE_STATUS)}

#: Codes of states a job can never leave (completed / failed / abandoned).
TERMINAL_CODES: frozenset[int] = frozenset(
    (
        STATUS_CODE[JobStatus.COMPLETED],
        STATUS_CODE[JobStatus.FAILED],
        STATUS_CODE[JobStatus.ABANDONED],
    )
)


@dataclass(frozen=True, order=False)
class Job:
    """An immutable secondary job.

    Parameters
    ----------
    jid:
        Unique integer id within an instance (also the deterministic
        tie-breaker everywhere ordering matters).
    release:
        Release time ``r_i``; the scheduler learns of the job at this time.
    workload:
        Processing demand ``p_i`` in capacity-units x time.
    deadline:
        Firm deadline ``d_i``; completing after it yields zero value.
    value:
        Value ``v_i`` accrued if and only if the job completes by ``d_i``.

    Every number must be a number: NaN is refused in every field, and
    ``release``, ``workload`` and ``value`` must be finite (a NaN or
    infinite release is never reached, a NaN workload never completes
    and a NaN value poisons every total).  An infinite deadline is legal.
    """

    jid: int
    release: float
    workload: float
    deadline: float
    value: float

    def __post_init__(self) -> None:
        # Each test is written so that NaN fails it (every comparison with
        # NaN is false); the upper bounds refuse infinities.  An infinite
        # release fails the deadline test.
        if not 0.0 < self.workload < _INF:
            raise InvalidInstanceError(
                f"job {self.jid}: workload must be positive and finite, "
                f"got {self.workload!r}"
            )
        if not 0.0 <= self.value < _INF:
            raise InvalidInstanceError(
                f"job {self.jid}: value must be non-negative and finite, "
                f"got {self.value!r}"
            )
        if not self.deadline > self.release:
            raise InvalidInstanceError(
                f"job {self.jid}: deadline {self.deadline!r} not after "
                f"release {self.release!r}"
            )
        if not self.release >= 0.0:
            raise InvalidInstanceError(
                f"job {self.jid}: negative release time {self.release!r}"
            )
        if self.jid != self.jid:
            raise InvalidInstanceError(f"job id is NaN: {self.jid!r}")

    # ------------------------------------------------------------------
    @property
    def density(self) -> float:
        """Value density ``v_i / p_i`` (paper, Definition 3)."""
        return self.value / self.workload

    @property
    def relative_deadline(self) -> float:
        """The span ``d_i - r_i`` from release to deadline."""
        return self.deadline - self.release

    def conservative_processing_time(self, rate: float) -> float:
        """``p_i / rate`` — full processing time if capacity is always
        ``rate`` (the paper's ``t_c(T_i, c)`` for a fresh job)."""
        return self.workload / rate

    def is_individually_admissible(self, c_lower: float) -> bool:
        """Definition 4: ``d_i - r_i >= p_i / c̲`` — the job could always be
        completed in isolation even under worst-case capacity.

        The comparison tolerates the usual float slop so that instances
        built with ``relative_deadline = workload / c_lower`` (the paper's
        zero-conservative-laxity workload) count as admissible.
        """
        return self.relative_deadline >= self.workload / c_lower - 1e-9

    def laxity(self, t: float, remaining: float, rate: float) -> float:
        """Laxity at time ``t`` given ``remaining`` workload, if future
        capacity were always ``rate``.

        With ``rate = c̲`` this is the paper's *conservative laxity*
        (Definition 5); with ``rate = ĉ`` it is Dover's estimated laxity.
        """
        return self.deadline - t - remaining / rate

    def __lt__(self, other: "Job") -> bool:
        """Order by (deadline, jid): the canonical EDF order with a
        deterministic tie-break.  Needed so jobs can live in heaps."""
        return (self.deadline, self.jid) < (other.deadline, other.jid)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Job(jid={self.jid}, r={self.release:g}, p={self.workload:g}, "
            f"d={self.deadline:g}, v={self.value:g})"
        )


# ----------------------------------------------------------------------
# Instance helpers
# ----------------------------------------------------------------------
def make_jobs(rows: Iterable[tuple[float, float, float, float]]) -> list[Job]:
    """Build jobs from ``(release, workload, deadline, value)`` rows,
    assigning sequential ids in input order."""
    return [
        Job(jid=i, release=r, workload=p, deadline=d, value=v)
        for i, (r, p, d, v) in enumerate(rows)
    ]


def validate_jobs(jobs: Sequence[Job]) -> None:
    """Check that a job collection forms a valid instance: unique ids.

    Per-job field validity is enforced by :class:`Job` itself.
    """
    seen: set[int] = set()
    for job in jobs:
        if job.jid in seen:
            raise InvalidInstanceError(f"duplicate job id {job.jid}")
        seen.add(job.jid)


def total_value(jobs: Iterable[Job]) -> float:
    """Sum of all job values — the normalizer used by the paper's Table I
    (the optimal offline value is NP-hard to compute, so results are
    reported as a fraction of the total generated value)."""
    return sum(job.value for job in jobs)


def importance_ratio(jobs: Sequence[Job]) -> float:
    """The importance ratio ``k_I`` (Definition 3): max density / min density.

    Raises :class:`InvalidInstanceError` on an empty collection or when some
    job has zero value (the ratio is then undefined/infinite).
    """
    if not jobs:
        raise InvalidInstanceError("importance ratio of an empty job set")
    densities = [job.density for job in jobs]
    lo = min(densities)
    if lo <= 0.0:
        raise InvalidInstanceError(
            "importance ratio undefined: some job has zero value density"
        )
    return max(densities) / lo


__all__.append("importance_ratio")
