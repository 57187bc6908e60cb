"""Tests for writeback policies (native and via the Lemma 2.1 adapter)."""

import pytest

from repro.algorithms import (
    LRUPolicy,
    RandomizedMultiLevelPolicy,
    RWAdapterPolicy,
    WaterFillingPolicy,
    WBLandlordPolicy,
    WBLRUPolicy,
)
from repro.core.instance import WritebackInstance
from repro.core.requests import WBRequestSequence
from repro.sim import simulate_writeback
from repro.workloads import hot_writer_stream, readwrite_stream


def instance(n=12, k=4, dirty=8.0, clean=1.0):
    return WritebackInstance.uniform(n, k, dirty_cost=dirty, clean_cost=clean)


class TestWBLRU:
    def test_dirty_eviction_pays_w1(self):
        inst = instance(n=4, k=2)
        seq = WBRequestSequence.from_pairs([(0, True), (1, False), (2, False)])
        r = simulate_writeback(inst, seq, WBLRUPolicy(), record_events=True)
        # LRU evicts page 0 (dirty) when 2 arrives.
        assert r.cost == pytest.approx(8.0)
        assert r.events[0].page == 0

    def test_hits_tracked(self):
        inst = instance()
        seq = WBRequestSequence.from_pairs([(0, False), (0, True), (0, False)])
        r = simulate_writeback(inst, seq, WBLRUPolicy())
        assert r.n_hits == 2
        assert r.cost == 0.0


class TestWBLandlord:
    def test_prefers_clean_victim(self):
        inst = instance(n=4, k=2)
        # 0 dirty, 1 clean; miss on 2 should evict the clean page 1.
        seq = WBRequestSequence.from_pairs([(0, True), (1, False), (2, False)])
        r = simulate_writeback(inst, seq, WBLandlordPolicy(), record_events=True)
        assert r.events[0].page == 1
        assert r.cost == pytest.approx(1.0)

    def test_beats_wblru_on_hot_writers(self):
        inst = instance(n=40, k=8, dirty=32.0)
        seq = hot_writer_stream(40, 4000, hot_fraction=0.15, rng=0)
        lru = simulate_writeback(inst, seq, WBLRUPolicy())
        ll = simulate_writeback(inst, seq, WBLandlordPolicy())
        assert ll.cost < lru.cost


class TestRWAdapter:
    def test_name_reflects_inner(self):
        assert RWAdapterPolicy(LRUPolicy()).name == "rw[lru]"

    def test_wb_cost_at_most_rw_cost(self):
        inst = instance(n=20, k=5, dirty=16.0)
        seq = readwrite_stream(20, 1500, write_fraction=0.4, rng=0)
        for inner in [LRUPolicy(), WaterFillingPolicy()]:
            r = simulate_writeback(inst, seq, RWAdapterPolicy(inner), seed=1)
            assert r.cost <= r.extra["rw_cost"] + 1e-9

    def test_adapter_with_randomized_policy(self):
        inst = instance(n=15, k=4, dirty=8.0)
        seq = readwrite_stream(15, 600, write_fraction=0.3, rng=2)
        policy = RWAdapterPolicy(RandomizedMultiLevelPolicy())
        r = simulate_writeback(inst, seq, policy, seed=3)
        assert r.cost <= r.extra["rw_cost"] + 1e-9
        assert r.extra["inner_fractional_z_cost"] > 0

    def test_waterfilling_adapter_is_dirty_aware(self):
        # The RW image gives dirty pages weight w1 > w2, so the adapted
        # water-filling holds written pages longer than plain LRU does.
        inst = instance(n=30, k=6, dirty=64.0)
        seq = hot_writer_stream(30, 3000, hot_fraction=0.2, rng=4)
        wf = simulate_writeback(inst, seq, RWAdapterPolicy(WaterFillingPolicy()), seed=5)
        lru = simulate_writeback(inst, seq, WBLRUPolicy(), seed=5)
        assert wf.cost < lru.cost

    def test_adapter_mirrors_page_set(self):
        inst = instance(n=10, k=3)
        seq = readwrite_stream(10, 200, write_fraction=0.5, rng=6)
        policy = RWAdapterPolicy(LRUPolicy())
        r = simulate_writeback(inst, seq, policy, seed=7)
        assert set(r.final_cache) == set(policy._rw_cache.pages())

    def test_reproducible(self):
        inst = instance()
        seq = readwrite_stream(12, 400, rng=8)
        p = lambda: RWAdapterPolicy(RandomizedMultiLevelPolicy())
        a = simulate_writeback(inst, seq, p(), seed=9)
        b = simulate_writeback(inst, seq, p(), seed=9)
        assert a.cost == b.cost
