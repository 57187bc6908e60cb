"""Condensed per-theorem checks — the paper's claims as a test suite.

Each test is a fast, assertion-bearing miniature of the corresponding
benchmark experiment (see DESIGN.md §3); together they answer "does this
repository still reproduce the paper?" in one pytest run.
"""

import math

import numpy as np
import pytest

from repro.algorithms import (
    KernelLandlordPolicy,
    LRUPolicy,
    PrimalDualWeightedPaging,
    RandomizedMultiLevelPolicy,
    RandomizedWeightedPagingPolicy,
    RWAdapterPolicy,
    WaterFillingPolicy,
)
from repro.analysis import (
    verify_fractional_potential,
    verify_waterfilling_potential,
)
from repro.core.instance import WeightedPagingInstance, WritebackInstance
from repro.core.reductions import (
    writeback_to_rw_instance,
    writeback_to_rw_sequence,
)
from repro.core.requests import WBRequestSequence
from repro.offline import (
    best_opt_bound,
    offline_opt_multilevel,
    offline_opt_writeback,
    sparse_fractional_opt,
)
from repro.sim import simulate, simulate_writeback
from repro.workloads import (
    geometric_instance,
    hot_writer_stream,
    multilevel_stream,
    sample_weights,
    zipf_stream,
)


class TestTheorem11_DeterministicOk:
    """O(k)-competitive deterministic algorithm (water-filling)."""

    def test_ratio_below_2k_and_practically_small(self):
        k = 4
        inst = WeightedPagingInstance(k, sample_weights(12, rng=0, high=16.0))
        seq = zipf_stream(12, 600, rng=1)
        opt = best_opt_bound(inst, seq)
        cost = simulate(inst, seq, WaterFillingPolicy()).cost
        ratio = cost / opt.value
        assert ratio <= 2 * k
        assert ratio <= 4.0  # far below worst case on stochastic input

    def test_potential_drift_holds(self):
        inst = geometric_instance(5, 2, 2)
        seq = multilevel_stream(5, 2, 60, rng=2)
        assert verify_waterfilling_potential(inst, seq).holds


class TestSection42_FractionalOLogK:
    """O(log k)-competitive fractional solver."""

    def test_ratio_within_4logk(self):
        from repro.algorithms import FractionalMultiLevelSolver

        k = 8
        inst = WeightedPagingInstance(k, sample_weights(24, rng=3, high=16.0))
        seq = zipf_stream(24, 500, rng=4)
        online = FractionalMultiLevelSolver(inst).solve(seq).total_z_cost
        lp = sparse_fractional_opt(inst, seq)
        assert online <= 4.0 * math.log(k) * lp + 4 * 16.0

    def test_potential_drift_holds(self):
        inst = geometric_instance(5, 2, 2)
        seq = multilevel_stream(5, 2, 60, rng=5)
        assert verify_fractional_potential(inst, seq).holds

    def test_dual_certificate(self):
        inst = WeightedPagingInstance(3, sample_weights(9, rng=6, high=8.0))
        seq = zipf_stream(9, 200, rng=7)
        state = PrimalDualWeightedPaging(inst).solve(seq)
        assert state.dual_value <= sparse_fractional_opt(inst, seq) + 1e-6


class TestTheorem12_RandomizedOLog2K:
    """O(log^2 k) randomized algorithm = fractional x rounding."""

    def test_rounding_overhead_order_logk(self):
        k = 8
        inst = WeightedPagingInstance(k, sample_weights(24, rng=8, high=16.0))
        seq = zipf_stream(24, 800, rng=9)
        costs = []
        frac = None
        for seed in range(3):
            r = simulate(inst, seq, RandomizedWeightedPagingPolicy(), seed=seed)
            costs.append(r.cost)
            frac = r.extra["fractional_z_cost"]
        beta = 4.0 * math.log(k)
        assert np.mean(costs) <= 2.0 * beta * frac

    def test_feasible_on_multilevel(self):
        inst = geometric_instance(15, 4, 3)
        seq = multilevel_stream(15, 3, 400, rng=10)
        r = simulate(inst, seq, RandomizedMultiLevelPolicy(), seed=11)
        assert len(r.final_cache) <= 4  # verified every step by simulate()


class TestLemma21_Equivalence:
    """Writeback-aware caching == RW-paging."""

    def test_exact_equality_of_optima(self):
        inst = WritebackInstance(2, [7.0, 5.0, 6.0, 4.0], [2.0, 1.0, 2.0, 1.0])
        rng = np.random.default_rng(12)
        seq = WBRequestSequence(rng.integers(0, 4, size=30), rng.random(30) < 0.4)
        native = offline_opt_writeback(inst, seq)
        reduced = offline_opt_multilevel(
            writeback_to_rw_instance(inst), writeback_to_rw_sequence(seq)
        )
        assert native == pytest.approx(reduced)

    def test_policy_transfer_never_costs_more(self):
        inst = WritebackInstance.uniform(12, 4, dirty_cost=8.0)
        seq = hot_writer_stream(12, 400, rng=13)
        r = simulate_writeback(inst, seq, RWAdapterPolicy(WaterFillingPolicy()),
                               seed=14)
        assert r.cost <= r.extra["rw_cost"] + 1e-9


class TestTheorem13_LowerBoundMechanism:
    """RW-paging encodes online set cover."""

    def test_eviction_trace_is_a_cover(self):
        from repro.setcover import (
            extract_cover,
            greedy_cover,
            planted_cover_system,
            reduce_to_rw_paging,
        )

        system, _ = planted_cover_system(12, 6, 3, rng=15)
        elements = [0, 4, 8, 11]
        red = reduce_to_rw_paging(system, elements, w=4.0, repetitions=5)
        r = simulate(red.instance, red.sequence, KernelLandlordPolicy(), seed=16,
                     record_events=True)
        cover = extract_cover(red, r.events)
        assert system.is_cover(cover, elements)
        assert len(cover) >= len(greedy_cover(system, elements)) - 1

    def test_weight_adversary_separates_policies(self):
        from repro.workloads import weighted_phase_adversary

        heavy, light, k = 2, 16, 6
        w = np.concatenate([np.full(heavy, 64.0), np.ones(light)])
        inst = WeightedPagingInstance(k, w)
        seq = weighted_phase_adversary(light, heavy, k, phases=15, light_burst=8)
        lru = simulate(inst, seq, LRUPolicy()).cost
        rand = np.mean([
            simulate(inst, seq, RandomizedWeightedPagingPolicy(), seed=s).cost
            for s in range(3)
        ])
        assert rand < lru  # weight-aware beats weight-oblivious


class TestTheorem15_LevelIndependence:
    """Bounds carry no dependence on the number of levels."""

    def test_ratio_flat_in_levels(self):
        ratios = {}
        for l in (1, 4):
            inst = geometric_instance(18, 4, l)
            seq = multilevel_stream(18, l, 400, rng=17)
            from repro.offline import lp_divisor

            bound = sparse_fractional_opt(inst, seq) / lp_divisor(inst)
            cost = simulate(inst, seq, WaterFillingPolicy()).cost
            ratios[l] = cost / max(bound, 1e-9)
        assert ratios[4] <= 3.0 * ratios[1] + 1.0
