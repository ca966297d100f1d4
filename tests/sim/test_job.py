"""Unit tests for the Job model."""

import math

import pytest

from repro.errors import InvalidInstanceError
from repro.sim import Job, importance_ratio, make_jobs, total_value, validate_jobs


class TestValidation:
    def test_valid_job(self):
        job = Job(0, 1.0, 2.0, 5.0, 3.0)
        assert job.density == pytest.approx(1.5)
        assert job.relative_deadline == pytest.approx(4.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(release=0.0, workload=0.0, deadline=1.0, value=1.0),
            dict(release=0.0, workload=-1.0, deadline=1.0, value=1.0),
            dict(release=0.0, workload=1.0, deadline=0.0, value=1.0),
            dict(release=2.0, workload=1.0, deadline=2.0, value=1.0),
            dict(release=0.0, workload=1.0, deadline=1.0, value=-0.5),
            dict(release=-1.0, workload=1.0, deadline=1.0, value=1.0),
        ],
    )
    def test_invalid_fields(self, kwargs):
        with pytest.raises(InvalidInstanceError):
            Job(jid=0, **kwargs)

    def test_duplicate_ids_rejected(self):
        jobs = [Job(0, 0.0, 1.0, 2.0, 1.0), Job(0, 1.0, 1.0, 3.0, 1.0)]
        with pytest.raises(InvalidInstanceError):
            validate_jobs(jobs)

    def test_zero_value_allowed(self):
        Job(0, 0.0, 1.0, 2.0, 0.0)  # worthless but legal

    def test_infinite_deadline_allowed(self):
        assert Job(0, 0.0, 1.0, math.inf, 1.0).deadline == math.inf

    def test_nan_jid_rejected(self):
        with pytest.raises(InvalidInstanceError):
            Job(math.nan, 0.0, 1.0, 2.0, 1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_release_rejected(self, bad):
        # A NaN or infinite release is never reached: the job's value
        # would silently vanish from the run.
        with pytest.raises(InvalidInstanceError):
            Job(0, bad, 1.0, math.inf, 1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_workload_rejected(self, bad):
        with pytest.raises(InvalidInstanceError):
            Job(0, 0.0, bad, 2.0, 1.0)

    def test_nan_deadline_rejected(self):
        with pytest.raises(InvalidInstanceError):
            Job(0, 0.0, 1.0, math.nan, 1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_value_rejected(self, bad):
        # A NaN value would make every total NaN.
        with pytest.raises(InvalidInstanceError):
            Job(0, 0.0, 1.0, 2.0, bad)


class TestDerived:
    def test_conservative_processing_time(self):
        job = Job(0, 0.0, 6.0, 10.0, 1.0)
        assert job.conservative_processing_time(2.0) == pytest.approx(3.0)

    def test_admissibility_boundary(self):
        # d - r = p / c_lower exactly: admissible (the paper's workload).
        job = Job(0, 0.0, 4.0, 4.0, 1.0)
        assert job.is_individually_admissible(1.0)
        assert not job.is_individually_admissible(0.5)

    def test_laxity(self):
        job = Job(0, 0.0, 4.0, 10.0, 1.0)
        assert job.laxity(t=2.0, remaining=4.0, rate=1.0) == pytest.approx(4.0)
        assert job.laxity(t=2.0, remaining=2.0, rate=2.0) == pytest.approx(7.0)

    def test_ordering_is_edf(self):
        a = Job(0, 0.0, 1.0, 5.0, 1.0)
        b = Job(1, 0.0, 1.0, 3.0, 1.0)
        assert b < a
        assert sorted([a, b])[0] is b

    def test_ordering_ties_break_by_id(self):
        a = Job(0, 0.0, 1.0, 5.0, 1.0)
        b = Job(1, 0.0, 1.0, 5.0, 1.0)
        assert a < b


class TestHelpers:
    def test_make_jobs_assigns_ids(self):
        jobs = make_jobs([(0.0, 1.0, 2.0, 1.0), (1.0, 1.0, 3.0, 2.0)])
        assert [j.jid for j in jobs] == [0, 1]

    def test_total_value(self):
        jobs = make_jobs([(0.0, 1.0, 2.0, 1.5), (1.0, 1.0, 3.0, 2.5)])
        assert total_value(jobs) == pytest.approx(4.0)

    def test_importance_ratio(self):
        jobs = make_jobs([(0.0, 1.0, 2.0, 1.0), (0.0, 1.0, 2.0, 7.0)])
        assert importance_ratio(jobs) == pytest.approx(7.0)

    def test_importance_ratio_empty(self):
        with pytest.raises(InvalidInstanceError):
            importance_ratio([])

    def test_importance_ratio_zero_density(self):
        jobs = make_jobs([(0.0, 1.0, 2.0, 0.0)])
        with pytest.raises(InvalidInstanceError):
            importance_ratio(jobs)
