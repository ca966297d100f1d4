"""Unit tests for the Markov-modulated capacity models."""

import copy
import pickle

import numpy as np
import pytest

from repro.capacity import MarkovModulatedCapacity, TwoStateMarkovCapacity
from repro.errors import CapacityError


class TestConstruction:
    def test_two_state_bounds(self):
        cap = TwoStateMarkovCapacity(1.0, 35.0, mean_sojourn=5.0, rng=0)
        assert cap.lower == 1.0
        assert cap.upper == 35.0
        assert cap.delta == 35.0

    def test_two_state_requires_low_below_high(self):
        with pytest.raises(CapacityError):
            TwoStateMarkovCapacity(5.0, 5.0)

    def test_needs_two_states(self):
        with pytest.raises(CapacityError):
            MarkovModulatedCapacity([1.0], [1.0])

    def test_rejects_bad_kernel(self):
        with pytest.raises(CapacityError):
            MarkovModulatedCapacity(
                [1.0, 2.0], [1.0, 1.0], transitions=[[0.5, 0.5], [1.0, 0.0]]
            )

    def test_rejects_non_positive_sojourn(self):
        with pytest.raises(CapacityError):
            MarkovModulatedCapacity([1.0, 2.0], [1.0, 0.0])

    def test_start_high(self):
        cap = TwoStateMarkovCapacity(1.0, 35.0, start_high=True, rng=0)
        assert cap.value(0.0) == 35.0


class TestPath:
    def test_values_within_bounds(self):
        cap = TwoStateMarkovCapacity(1.0, 35.0, mean_sojourn=2.0, rng=3)
        for t in np.linspace(0.0, 100.0, 200):
            assert cap.value(float(t)) in (1.0, 35.0)

    def test_memoized_path_is_consistent(self):
        cap = TwoStateMarkovCapacity(1.0, 35.0, mean_sojourn=2.0, rng=7)
        first = [cap.value(t) for t in np.linspace(0, 50, 101)]
        again = [cap.value(t) for t in np.linspace(0, 50, 101)]
        assert first == again

    def test_same_seed_same_path(self):
        a = TwoStateMarkovCapacity(1.0, 35.0, mean_sojourn=2.0, rng=11)
        b = TwoStateMarkovCapacity(1.0, 35.0, mean_sojourn=2.0, rng=11)
        ts = np.linspace(0, 80, 161)
        assert [a.value(float(t)) for t in ts] == [b.value(float(t)) for t in ts]

    def test_query_order_does_not_change_path(self):
        a = TwoStateMarkovCapacity(1.0, 35.0, mean_sojourn=2.0, rng=13)
        b = TwoStateMarkovCapacity(1.0, 35.0, mean_sojourn=2.0, rng=13)
        # Query a far-future point first on `a`, then compare pointwise.
        a.value(200.0)
        ts = np.linspace(0, 200, 101)
        assert [a.value(float(t)) for t in ts] == [b.value(float(t)) for t in ts]

    def test_alternation(self):
        cap = TwoStateMarkovCapacity(1.0, 35.0, mean_sojourn=1.0, rng=5)
        rates = [r for _, _, r in cap.pieces(0.0, 50.0)]
        for r0, r1 in zip(rates, rates[1:]):
            assert r0 != r1  # two-state chain must alternate


class TestFrontier:
    """The indexed queries extend the path through one frontier
    comparison (PrefixIndexedCapacity's extension contract)."""

    def test_frontier_growth_matches_pointwise_growth(self):
        """Out-of-order queries that grow the path through the frontier
        check leave the same breakpoints and prefix sums as a same-seed
        path grown point by point in time order."""
        rng = np.random.default_rng(4)
        ts = [float(t) for t in rng.uniform(0.0, 300.0, size=200)]
        ts += [0.0, 300.0]
        rng.shuffle(ts)
        grown = TwoStateMarkovCapacity(1.0, 35.0, mean_sojourn=2.0, rng=41)
        got = {}
        for k, t in enumerate(ts):
            # Interleave the other indexed queries that grow the path.
            if k % 3 == 1:
                grown.advance_from(t, grown.cumulative(t), 5.0)
            elif k % 3 == 2:
                grown.advance(t, 0.5, horizon=t + 0.5)
            got[t] = grown.cumulative(t)
        reference = TwoStateMarkovCapacity(1.0, 35.0, mean_sojourn=2.0, rng=41)
        reach = max(
            max(ts), max(t + 5.0 for t in ts[1::3]), max(t + 0.5 for t in ts[2::3])
        )
        for t in sorted(ts) + [reach]:
            reference._materialize(t)
        assert grown.breakpoints_materialized == reference.breakpoints_materialized
        assert all(got[t] == reference.cumulative(t) for t in ts)
        grown.check_index_invariants()

    def test_queries_inside_the_frontier_do_not_call_the_hook(self, monkeypatch):
        cap = TwoStateMarkovCapacity(1.0, 35.0, mean_sojourn=2.0, rng=43)
        cap.cumulative(100.0)
        assert cap._frontier > 100.0
        calls = []
        monkeypatch.setattr(cap, "_materialize", calls.append)
        for t in np.linspace(0.0, 100.0, 51):
            cap.cumulative(float(t))
            cap.advance_from(
                float(t), cap.cumulative(float(t)), 1e-3, horizon=100.0
            )
        assert calls == []
        cap.cumulative(cap._frontier)
        assert calls == [cap._frontier]


    def test_state_without_the_rate_column_loads(self):
        """A path pickled before the index kept its ``_rates`` column
        rebuilds it from the states and answers the same queries."""
        cap = TwoStateMarkovCapacity(1.0, 35.0, mean_sojourn=2.0, rng=47)
        cap.cumulative(60.0)
        old = copy.deepcopy(cap.__dict__)
        del old["_rates"]
        loaded = TwoStateMarkovCapacity.__new__(TwoStateMarkovCapacity)
        loaded.__setstate__(old)
        assert loaded._rates == cap._rates
        loaded.check_index_invariants()
        again = pickle.loads(pickle.dumps(loaded))
        for t in (10.0, 59.0, 120.0):
            assert loaded.cumulative(t) == again.cumulative(t) == cap.cumulative(t)


class TestQueries:
    def test_integrate_matches_pieces(self):
        cap = TwoStateMarkovCapacity(1.0, 35.0, mean_sojourn=3.0, rng=17)
        by_pieces = sum((e - s) * r for s, e, r in cap.pieces(2.0, 60.0))
        assert cap.integrate(2.0, 60.0) == pytest.approx(by_pieces)

    def test_advance_inverse(self):
        cap = TwoStateMarkovCapacity(1.0, 35.0, mean_sojourn=3.0, rng=19)
        t = cap.advance(1.0, 100.0)
        assert cap.integrate(1.0, t) == pytest.approx(100.0)

    def test_advance_bounded_by_conservative_rate(self):
        cap = TwoStateMarkovCapacity(1.0, 35.0, mean_sojourn=3.0, rng=23)
        work = 50.0
        t = cap.advance(0.0, work)
        assert t <= work / cap.lower + 1e-9
        assert t >= work / cap.upper - 1e-9

    def test_pieces_infinite_horizon_rejected(self):
        cap = TwoStateMarkovCapacity(1.0, 35.0, rng=0)
        with pytest.raises(CapacityError):
            list(cap.pieces(0.0, float("inf")))

    def test_realized_path_covers_horizon(self):
        cap = TwoStateMarkovCapacity(1.0, 35.0, mean_sojourn=5.0, rng=29)
        path = cap.realized_path(40.0)
        assert path[0][0] == 0.0
        assert path[-1][1] == pytest.approx(40.0)

    def test_mean_sojourn_statistics(self):
        """Empirical mean sojourn within ~3 standard errors of the target."""
        cap = TwoStateMarkovCapacity(1.0, 2.0, mean_sojourn=4.0, rng=31)
        pieces = list(cap.pieces(0.0, 4000.0))[:-1]  # last piece is clipped
        durations = [e - s for s, e, _ in pieces]
        mean = np.mean(durations)
        se = np.std(durations) / np.sqrt(len(durations))
        assert abs(mean - 4.0) < 3.5 * se + 0.5


class TestCustomKernels:
    def test_three_state_chain_with_kernel(self):
        kernel = [
            [0.0, 0.7, 0.3],
            [0.5, 0.0, 0.5],
            [1.0, 0.0, 0.0],
        ]
        cap = MarkovModulatedCapacity(
            rates=[1.0, 5.0, 20.0],
            mean_sojourns=[2.0, 1.0, 0.5],
            transitions=kernel,
            rng=7,
        )
        rates_seen = {r for _, _, r in cap.pieces(0.0, 400.0)}
        assert rates_seen == {1.0, 5.0, 20.0}
        assert cap.lower == 1.0 and cap.upper == 20.0

    def test_forbidden_transition_never_taken(self):
        # From state 2 the chain may only jump to state 0.
        kernel = [
            [0.0, 1.0, 0.0],
            [0.5, 0.0, 0.5],
            [1.0, 0.0, 0.0],
        ]
        cap = MarkovModulatedCapacity(
            rates=[1.0, 5.0, 20.0],
            mean_sojourns=[1.0, 1.0, 1.0],
            transitions=kernel,
            rng=11,
        )
        rates = [r for _, _, r in cap.pieces(0.0, 500.0)]
        for a, b in zip(rates, rates[1:]):
            if a == 20.0:
                assert b == 1.0  # 2 -> 0 only
            if a == 1.0:
                assert b == 5.0  # 0 -> 1 only

    def test_uniform_default_kernel_three_states(self):
        cap = MarkovModulatedCapacity(
            rates=[1.0, 2.0, 3.0], mean_sojourns=[1.0, 1.0, 1.0], rng=3
        )
        rates = [r for _, _, r in cap.pieces(0.0, 300.0)]
        # never self-transition
        for a, b in zip(rates, rates[1:]):
            assert a != b
