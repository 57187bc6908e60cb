"""Tests for the offline LP, Belady's MIN, and bound selection."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.instance import MultiLevelInstance, WeightedPagingInstance
from repro.core.requests import RequestSequence
from repro.errors import InvalidInstanceError
from repro.offline import (
    belady_cost,
    best_opt_bound,
    lp_divisor,
    next_use_indices,
    offline_opt_multilevel,
    solve_offline_lp,
)
from repro.workloads import (
    geometric_instance,
    multilevel_stream,
    random_multilevel_instance,
    zipf_stream,
)


class TestOfflineLP:
    def test_zero_when_cache_fits(self):
        inst = WeightedPagingInstance.uniform(4, 3)
        seq = RequestSequence.from_pages([0, 1, 2, 0, 1])
        assert solve_offline_lp(inst, seq).value == pytest.approx(0.0, abs=1e-8)

    def test_matches_dp_on_single_level(self):
        # For l = 1 the LP has integral optima on these small instances.
        inst = WeightedPagingInstance(2, [4.0, 2.0, 1.0, 3.0])
        seq = zipf_stream(4, 40, rng=0)
        lp = solve_offline_lp(inst, seq).value
        dp = offline_opt_multilevel(inst, seq)
        assert lp == pytest.approx(dp, abs=1e-6)

    def test_lower_bounds_dp_z_cost_multilevel(self):
        inst = geometric_instance(5, 2, 2)
        seq = multilevel_stream(5, 2, 40, rng=1)
        lp = solve_offline_lp(inst, seq).value
        dp = offline_opt_multilevel(inst, seq)
        # LP z-cost <= 2x eviction OPT for geometric weights.
        assert lp <= 2.0 * dp + 1e-6

    def test_solution_is_feasible(self):
        inst = geometric_instance(6, 2, 2)
        seq = multilevel_stream(6, 2, 30, rng=2)
        res = solve_offline_lp(inst, seq)
        n, k = inst.n_pages, inst.cache_size
        u = res.u
        assert np.all(u >= -1e-7) and np.all(u <= 1 + 1e-7)
        assert np.all(u[1:, :, -1].sum(axis=1) >= n - k - 1e-6)
        assert np.all(np.diff(u, axis=2) <= 1e-7)  # monotone prefixes
        # Every request is served at its time step.
        for t, req in enumerate(seq, start=1):
            assert u[t, req.page, req.level - 1] <= 1e-7

    def test_empty_sequence(self):
        inst = WeightedPagingInstance.uniform(4, 2)
        res = solve_offline_lp(inst, RequestSequence.from_pages([]))
        assert res.value == 0.0
        assert res.u.shape == (1, 4, 1)

    def test_objective_counts_weights(self):
        # k=1, two pages alternating: each switch evicts one unit of the
        # other page. Weights 3 and 5 -> per cycle cost 3 + 5.
        inst = WeightedPagingInstance(1, [3.0, 5.0])
        seq = RequestSequence.from_pages([0, 1, 0, 1])
        lp = solve_offline_lp(inst, seq).value
        # Serving 0,1,0,1 from empty: evict 0 (3), evict 1 (5), evict 0 (3)?
        # Last eviction not needed: fetch 1 after evicting 0. Total = 3+5? No:
        # t0: fetch 0 free. t1: evict 0 (3), fetch 1. t2: evict 1 (5), fetch 0.
        # t3: evict 0 (3), fetch 1. Total 11.
        assert lp == pytest.approx(11.0, abs=1e-6)


class TestBelady:
    def test_next_use_indices(self):
        pages = np.array([0, 1, 0, 2, 1])
        nu = next_use_indices(pages, 3)
        assert nu[0] == 2
        assert nu[1] == 4
        assert nu[2] > 4  # never again
        assert nu[3] > 4

    def test_textbook_example(self):
        inst = WeightedPagingInstance.uniform(5, 3)
        # Classic: 0 1 2 3 0 1 4: MIN has 5 misses, 2 evictions after warmup.
        seq = RequestSequence.from_pages([0, 1, 2, 3, 0, 1, 4])
        assert belady_cost(inst, seq) == 2.0

    def test_matches_dp(self):
        inst = WeightedPagingInstance.uniform(5, 2)
        seq = zipf_stream(5, 60, rng=3)
        assert belady_cost(inst, seq) == offline_opt_multilevel(inst, seq)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=15, deadline=None)
    def test_property_matches_dp(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 6))
        k = int(rng.integers(1, n))
        inst = WeightedPagingInstance.uniform(n, k)
        seq = RequestSequence.from_pages(rng.integers(0, n, size=50))
        assert belady_cost(inst, seq) == offline_opt_multilevel(inst, seq)

    def test_weighted_rejected(self):
        inst = WeightedPagingInstance(2, [2.0, 1.0, 1.0])
        with pytest.raises(InvalidInstanceError):
            belady_cost(inst, RequestSequence.from_pages([0]))

    def test_multilevel_rejected(self):
        inst = MultiLevelInstance(1, np.tile([2.0, 1.0], (3, 1)))
        with pytest.raises(InvalidInstanceError):
            belady_cost(inst, RequestSequence.from_pages([0]))


class TestBounds:
    def test_lp_divisor_values(self):
        assert lp_divisor(WeightedPagingInstance.uniform(4, 2)) == 1.0
        assert lp_divisor(geometric_instance(4, 2, 3)) == 2.0
        non_geo = MultiLevelInstance(1, np.tile([3.0, 2.0], (3, 1)))
        assert lp_divisor(non_geo) == 2.0 if non_geo.has_geometric_levels() else 2

    def test_auto_prefers_dp_when_small(self):
        inst = WeightedPagingInstance.uniform(5, 2)
        seq = zipf_stream(5, 30, rng=0)
        bound = best_opt_bound(inst, seq)
        assert bound.method == "dp"
        assert bound.exact

    def test_auto_falls_back_to_sparse_lp(self):
        inst = WeightedPagingInstance.uniform(30, 5)
        seq = zipf_stream(30, 30, rng=0)
        bound = best_opt_bound(inst, seq, max_states=100)
        assert bound.method == "sparse-lp"
        assert not bound.exact
        assert bound.lp_value is not None
        assert bound.value == pytest.approx(bound.lp_value)  # l = 1 divisor

    def test_dp_preference_raises_when_infeasible(self):
        from repro.errors import StateSpaceTooLargeError

        inst = WeightedPagingInstance.uniform(30, 5)
        seq = zipf_stream(30, 30, rng=0)
        with pytest.raises(StateSpaceTooLargeError):
            best_opt_bound(inst, seq, max_states=10, prefer="dp")

    def test_lp_bound_divides_for_multilevel(self):
        inst = geometric_instance(5, 2, 2)
        seq = multilevel_stream(5, 2, 30, rng=1)
        lp_raw = solve_offline_lp(inst, seq).value
        bound = best_opt_bound(inst, seq, prefer="sparse-lp")
        assert bound.value == pytest.approx(lp_raw / 2.0)

    def test_bound_below_true_opt(self):
        inst = random_multilevel_instance(5, 2, 2, rng=4)
        seq = multilevel_stream(5, 2, 40, rng=5)
        dp = offline_opt_multilevel(inst, seq)
        bound = best_opt_bound(inst, seq, prefer="sparse-lp")
        assert bound.value <= dp + 1e-6

    def test_bad_preference_rejected(self):
        inst = WeightedPagingInstance.uniform(4, 2)
        with pytest.raises(ValueError):
            best_opt_bound(inst, RequestSequence.from_pages([0]), prefer="x")
