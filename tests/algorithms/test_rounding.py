"""Tests for the distribution-free online rounding (Algorithms 1 and 2)."""

import math

import numpy as np
import pytest

from repro.algorithms import (
    RandomizedMultiLevelPolicy,
    RandomizedWeightedPagingPolicy,
    default_beta,
)
from repro.algorithms.rounding import _ceil_count
from repro.core.cache import MultiLevelCache
from repro.core.instance import WeightedPagingInstance
from repro.core.ledger import CostLedger
from repro.errors import InvalidInstanceError
from repro.sim import simulate
from repro.workloads import (
    geometric_instance,
    multilevel_stream,
    random_multilevel_instance,
    sample_weights,
    zipf_stream,
)


class TestDefaults:
    def test_default_beta(self):
        assert default_beta(1) == pytest.approx(4.0)
        assert default_beta(64) == pytest.approx(4.0 * math.log(64))

    def test_bad_beta_rejected(self):
        with pytest.raises(ValueError):
            RandomizedWeightedPagingPolicy(beta=0.0)

    def test_weighted_policy_rejects_multilevel(self):
        inst = geometric_instance(8, 3, 2)
        with pytest.raises(InvalidInstanceError):
            simulate(inst, multilevel_stream(8, 2, 5, rng=0),
                     RandomizedWeightedPagingPolicy(), seed=0)

    def test_ceil_count_tolerates_fp_noise(self):
        assert _ceil_count(3.0000000001) == 3
        assert _ceil_count(3.1) == 4
        assert _ceil_count(0.0) == 0


class TestFeasibilityThroughSimulator:
    """The verifying simulator checks capacity / one-copy / served, every t."""

    def test_weighted_random_weights(self):
        w = sample_weights(20, rng=0, high=32.0)
        inst = WeightedPagingInstance(5, w)
        seq = zipf_stream(20, 800, rng=1)
        r = simulate(inst, seq, RandomizedWeightedPagingPolicy(), seed=2)
        assert len(r.final_cache) <= 5

    def test_multilevel(self):
        inst = random_multilevel_instance(15, 4, 3, rng=0)
        seq = multilevel_stream(15, 3, 700, rng=1)
        r = simulate(inst, seq, RandomizedMultiLevelPolicy(), seed=2)
        assert len(r.final_cache) <= 4

    @pytest.mark.parametrize("seed", range(6))
    def test_many_seeds_multilevel(self, seed):
        inst = random_multilevel_instance(10, 3, 2, rng=100 + seed)
        seq = multilevel_stream(10, 2, 300, rng=200 + seed)
        simulate(inst, seq, RandomizedMultiLevelPolicy(), seed=seed)

    def test_tiny_cache(self):
        inst = WeightedPagingInstance(1, [2.0, 4.0, 8.0])
        seq = zipf_stream(3, 200, rng=0)
        simulate(inst, seq, RandomizedWeightedPagingPolicy(), seed=1)


class TestAlgorithm1EqualsAlgorithm2AtLevelOne:
    """With l = 1, Algorithm 2 must degenerate exactly to Algorithm 1."""

    @pytest.mark.parametrize("seed", range(4))
    def test_exact_equality(self, seed):
        w = sample_weights(12, rng=seed, high=16.0)
        inst = WeightedPagingInstance(4, w)
        seq = zipf_stream(12, 400, rng=seed + 50)
        a = simulate(inst, seq, RandomizedWeightedPagingPolicy(), seed=seed,
                     record_events=True)
        b = simulate(inst, seq, RandomizedMultiLevelPolicy(), seed=seed,
                     record_events=True)
        assert a.cost == pytest.approx(b.cost)
        assert [(e.page, e.reason) for e in a.events] == [
            (e.page, e.reason) for e in b.events
        ]
        assert a.final_cache == b.final_cache


class TestClassCountInvariant:
    """Lemma 4.6: |P_{>=i} cap C(t)| <= ceil(k_{>=i}(t)) for every class i."""

    def _drive_and_check(self, inst, seq, policy, seed):
        ledger = CostLedger()
        cache = MultiLevelCache(inst, ledger)
        policy.bind(inst, cache, np.random.default_rng(seed))
        classes = inst.weight_classes()
        for t, req in enumerate(seq):
            policy.serve(t, req.page, req.level)
            u_new = policy._u_prev
            k_ge = policy._k_ge(u_new)
            for i in range(1, policy._max_class + 1):
                count = sum(
                    1 for p, j in cache.items() if classes[p, j - 1] >= i
                )
                cap = math.ceil(float(k_ge[i - 1]) - 1e-9)
                assert count <= cap, (
                    f"t={t}, class>={i}: count {count} > ceil(k_ge)={cap}"
                )

    def test_weighted(self):
        w = sample_weights(14, rng=3, high=32.0)
        inst = WeightedPagingInstance(4, w)
        seq = zipf_stream(14, 250, rng=4)
        self._drive_and_check(inst, seq, RandomizedWeightedPagingPolicy(), 5)

    def test_multilevel(self):
        inst = random_multilevel_instance(10, 3, 3, rng=6)
        seq = multilevel_stream(10, 3, 250, rng=7)
        self._drive_and_check(inst, seq, RandomizedMultiLevelPolicy(), 8)


class TestCostBehavior:
    def test_extras_report_fractional_cost(self):
        inst = WeightedPagingInstance(4, np.full(12, 2.0))
        seq = zipf_stream(12, 300, rng=0)
        r = simulate(inst, seq, RandomizedWeightedPagingPolicy(), seed=1)
        assert r.extra["fractional_z_cost"] > 0
        assert r.extra["beta"] == pytest.approx(default_beta(4))

    def test_rounded_cost_within_beta_factor_of_fractional(self):
        # The theorem guarantees expected cost <= O(beta) * fractional; a
        # single run should comfortably sit below ~3*beta.
        inst = WeightedPagingInstance(8, sample_weights(24, rng=0))
        seq = zipf_stream(24, 1500, rng=1)
        r = simulate(inst, seq, RandomizedWeightedPagingPolicy(), seed=2)
        beta = r.extra["beta"]
        assert r.cost <= 3.0 * beta * r.extra["fractional_z_cost"]

    def test_larger_beta_is_more_aggressive(self):
        inst = WeightedPagingInstance(6, np.full(18, 2.0))
        seq = zipf_stream(18, 800, rng=3)
        costs = {}
        for beta in [2.0, 16.0]:
            runs = [
                simulate(inst, seq,
                         RandomizedWeightedPagingPolicy(beta=beta),
                         seed=s).cost
                for s in range(5)
            ]
            costs[beta] = np.mean(runs)
        assert costs[16.0] > costs[2.0]

    def test_quantization_disabled_still_feasible(self):
        inst = WeightedPagingInstance(4, np.full(12, 2.0))
        seq = zipf_stream(12, 200, rng=4)
        simulate(inst, seq, RandomizedWeightedPagingPolicy(delta=0), seed=5)

    def test_custom_delta(self):
        inst = WeightedPagingInstance(4, np.full(12, 2.0))
        seq = zipf_stream(12, 200, rng=6)
        simulate(inst, seq, RandomizedWeightedPagingPolicy(delta=1 / 64), seed=7)

    def test_reproducible_given_seed(self):
        inst = random_multilevel_instance(12, 4, 2, rng=0)
        seq = multilevel_stream(12, 2, 300, rng=1)
        a = simulate(inst, seq, RandomizedMultiLevelPolicy(), seed=9)
        b = simulate(inst, seq, RandomizedMultiLevelPolicy(), seed=9)
        assert a.cost == b.cost
