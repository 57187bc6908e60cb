"""Tests for the Section 4.1 water-filling algorithm (scan and kernel)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import KernelWaterFillingPolicy, WaterFillingPolicy
from repro.core.instance import MultiLevelInstance, WeightedPagingInstance
from repro.core.requests import RequestSequence
from repro.sim import simulate
from repro.workloads import (
    geometric_instance,
    multilevel_stream,
    random_multilevel_instance,
    zipf_stream,
)


class TestWaterFillingBehavior:
    def test_hit_does_nothing(self):
        inst = WeightedPagingInstance(2, [3.0, 3.0, 3.0])
        seq = RequestSequence.from_pages([0, 0, 0])
        r = simulate(inst, seq, WaterFillingPolicy())
        assert r.cost == 0.0
        assert r.n_hits == 2

    def test_upgrade_in_place(self):
        inst = MultiLevelInstance(2, np.tile([4.0, 1.0], (4, 1)))
        seq = RequestSequence.from_pairs([(0, 2), (0, 1)])
        r = simulate(inst, seq, WaterFillingPolicy(), record_events=True)
        assert r.final_cache == {0: 1}
        assert r.cost == pytest.approx(1.0)  # evicted the (0,2) copy
        assert r.events[0].reason == "upgrade"

    def test_evicts_cheapest_first_from_fresh_cache(self):
        # With fresh water levels the victim is the minimum-weight copy.
        inst = WeightedPagingInstance(3, [8.0, 2.0, 4.0, 1.0])
        seq = RequestSequence.from_pages([0, 1, 2, 3])
        r = simulate(inst, seq, WaterFillingPolicy(), record_events=True)
        assert [e.page for e in r.events] == [1]

    def test_water_accumulates_across_misses(self):
        # k = 2; weights 4, 4, then a stream of cheap pages: after the first
        # eviction raised the survivors' water, a heavy page drowns next.
        inst = WeightedPagingInstance(2, [4.0, 4.0, 1.0, 1.0, 1.0])
        seq = RequestSequence.from_pages([0, 1, 2, 3, 4])
        r = simulate(inst, seq, WaterFillingPolicy(), record_events=True)
        # t=2: both have remaining 4; victim is insertion-older page 0.
        # Water of page 1 rises to 4... eviction order is deterministic.
        assert len(r.events) == 3
        assert r.events[0].page == 0

    def test_unit_weights_leave_survivors_at_the_brink(self):
        # Unit weights: the first drowning raises every survivor's water to
        # its weight, so subsequent misses evict (in insertion order) at
        # zero additional raise until a freshly fetched page breaks the tie.
        inst = WeightedPagingInstance.uniform(6, 3)
        seq = RequestSequence.from_pages([0, 1, 2, 3, 0, 4])
        r = simulate(inst, seq, WaterFillingPolicy(), record_events=True)
        assert [e.page for e in r.events] == [0, 1, 2]


class TestHeapEquivalence:
    """The heap-ordered kernel picks the scan's victims."""

    def _assert_equivalent(self, inst, seq):
        a = simulate(inst, seq, WaterFillingPolicy(), record_events=True)
        b = simulate(inst, seq, KernelWaterFillingPolicy(), record_events=True)
        assert a.cost == pytest.approx(b.cost)
        assert [(e.page, e.level) for e in a.events] == [
            (e.page, e.level) for e in b.events
        ]
        assert a.final_cache == b.final_cache

    def test_weighted_zipf(self):
        inst = WeightedPagingInstance(5, np.arange(1.0, 21.0))
        self._assert_equivalent(inst, zipf_stream(20, 1000, rng=0))

    def test_multilevel_geometric(self):
        inst = geometric_instance(15, 4, 3)
        self._assert_equivalent(inst, multilevel_stream(15, 3, 800, rng=1))

    def test_random_weights(self):
        inst = random_multilevel_instance(12, 4, 2, rng=3)
        self._assert_equivalent(inst, multilevel_stream(12, 2, 600, rng=4))

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_property_equivalence(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(5, 14))
        k = int(rng.integers(2, n))
        levels = int(rng.integers(1, 4))
        inst = random_multilevel_instance(n, k, levels, rng=rng)
        seq = multilevel_stream(n, levels, 200, rng=rng)
        self._assert_equivalent(inst, seq)


class TestCompetitiveness:
    def test_never_worse_than_cost_of_all_misses(self):
        inst = WeightedPagingInstance(4, np.full(10, 3.0))
        seq = zipf_stream(10, 500, rng=0)
        r = simulate(inst, seq, WaterFillingPolicy())
        assert r.cost <= 3.0 * 500

    def test_close_to_lru_on_local_workloads(self):
        from repro.algorithms import LRUPolicy
        from repro.workloads import working_set_stream

        inst = WeightedPagingInstance.uniform(50, 8)
        seq = working_set_stream(50, 3000, set_size=6, phase_length=400, rng=0)
        wf = simulate(inst, seq, WaterFillingPolicy())
        lru = simulate(inst, seq, LRUPolicy())
        assert wf.cost <= 2.0 * lru.cost
