"""Tests for the classical baseline policies."""

import numpy as np
import pytest

from repro.algorithms import (
    FIFOPolicy,
    KernelLandlordPolicy,
    LRUPolicy,
    MarkingPolicy,
    RandomEvictionPolicy,
    RandomizedMarkingPolicy,
    policy_registry,
)
from repro.core.instance import MultiLevelInstance, WeightedPagingInstance
from repro.core.requests import RequestSequence
from repro.sim import simulate
from repro.workloads import cyclic_nemesis, zipf_stream


def unit_instance(n=8, k=3):
    return WeightedPagingInstance.uniform(n, k)


def ml_instance(n=8, k=3):
    return MultiLevelInstance(k, np.tile([4.0, 2.0, 1.0], (n, 1)))


class TestLRU:
    def test_evicts_least_recently_used(self):
        inst = unit_instance(k=2)
        # 0, 1, touch 0, then 2 -> must evict 1.
        seq = RequestSequence.from_pages([0, 1, 0, 2])
        r = simulate(inst, seq, LRUPolicy(), record_events=True)
        assert [e.page for e in r.events] == [1]

    def test_hit_updates_recency(self):
        inst = unit_instance(k=2)
        seq = RequestSequence.from_pages([0, 1, 0, 2, 0])
        r = simulate(inst, seq, LRUPolicy())
        # 0 stayed cached: hits at t=2 and t=4.
        assert r.n_hits == 2

    def test_nemesis_all_miss(self):
        inst = unit_instance(n=5, k=4)
        seq = cyclic_nemesis(4, 100)
        r = simulate(inst, seq, LRUPolicy())
        assert r.n_hits == 0

    def test_upgrade_pays_lower_copy(self):
        inst = ml_instance(k=2)
        seq = RequestSequence.from_pairs([(0, 3), (0, 1)])
        r = simulate(inst, seq, LRUPolicy())
        # Upgrade (0,3) -> (0,1) pays w(0,3) = 1.
        assert r.cost == pytest.approx(1.0)
        assert r.final_cache == {0: 1}

    def test_downgrade_request_is_hit(self):
        inst = ml_instance(k=2)
        seq = RequestSequence.from_pairs([(0, 1), (0, 3)])
        r = simulate(inst, seq, LRUPolicy())
        assert r.cost == 0.0
        assert r.n_hits == 1


class TestFIFO:
    def test_evicts_first_in(self):
        inst = unit_instance(k=2)
        # 0, 1, touch 0 (no recency effect), 2 -> evicts 0.
        seq = RequestSequence.from_pages([0, 1, 0, 2])
        r = simulate(inst, seq, FIFOPolicy(), record_events=True)
        assert [e.page for e in r.events] == [0]

    def test_differs_from_lru_on_touch(self):
        inst = unit_instance(k=2)
        seq = RequestSequence.from_pages([0, 1, 0, 2, 0])
        lru = simulate(inst, seq, LRUPolicy())
        fifo = simulate(inst, seq, FIFOPolicy())
        assert fifo.cost > lru.cost  # FIFO evicted the hot page


class TestRandomEviction:
    def test_respects_capacity_and_serves(self):
        inst = unit_instance(n=10, k=3)
        seq = zipf_stream(10, 300, rng=0)
        r = simulate(inst, seq, RandomEvictionPolicy(), seed=0)
        assert len(r.final_cache) <= 3

    def test_seeded_runs_reproducible(self):
        inst = unit_instance(n=10, k=3)
        seq = zipf_stream(10, 300, rng=0)
        a = simulate(inst, seq, RandomEvictionPolicy(), seed=5)
        b = simulate(inst, seq, RandomEvictionPolicy(), seed=5)
        assert a.cost == b.cost

    def test_mirror_stays_in_sync_with_cache(self):
        """The O(1) swap-remove mirror must equal the cache contents at
        every victim draw — the invariant the old list(cache.pages())
        materialization got for free."""

        class Checked(RandomEvictionPolicy):
            name = "random-checked"

            def _choose_victim(self, t, page):
                assert sorted(self._pages) == sorted(self.cache.pages())
                assert len(self._index) == len(self._pages)
                assert all(self._pages[i] == p
                           for p, i in self._index.items())
                return super()._choose_victim(t, page)

        inst = unit_instance(n=12, k=4)
        seq = zipf_stream(12, 800, alpha=0.7, rng=1)
        r = simulate(inst, seq, Checked(), seed=2)
        assert r.n_evictions > 0

    def test_mirror_survives_multilevel_upgrades(self):
        """Upgrades replace the copy in place — the mirror must not grow
        a duplicate slot for the upgraded page."""

        class Checked(RandomEvictionPolicy):
            name = "random-ml-checked"

            def _on_fetch(self, t, page):
                super()._on_fetch(t, page)
                assert len(self._pages) == len(set(self._pages))

        inst = ml_instance(n=10, k=3)
        from repro.workloads import multilevel_stream

        seq = multilevel_stream(10, 3, 600, rng=3)
        r = simulate(inst, seq, Checked(), seed=4)
        assert len(r.final_cache) <= 3

    def test_matches_reference_draw_sequence(self):
        """Fixed-seed regression: the mirror indexes pages in fetch order
        with swap-remove compaction, so victim draws are reproducible
        against an independent in-test reference of the same structure."""
        inst = unit_instance(n=10, k=3)
        seq = zipf_stream(10, 400, rng=6)

        evicted = []

        class Recording(RandomEvictionPolicy):
            name = "random-recording"

            def _on_evicted(self, page):
                evicted.append(page)
                super()._on_evicted(page)

        simulate(inst, seq, Recording(), seed=7)

        # Independent replay: same RNG stream, same swap-remove semantics,
        # no policy classes involved.
        rng = np.random.default_rng(7)
        pages, index, cached = [], {}, {}
        expect = []
        for page in seq.pages.tolist():
            if page in cached:
                continue
            while len(cached) >= 3:
                victim = pages[int(rng.integers(0, len(pages)))]
                expect.append(victim)
                del cached[victim]
                slot = index.pop(victim)
                last = pages.pop()
                if last != victim:
                    pages[slot] = last
                    index[last] = slot
            cached[page] = True
            index[page] = len(pages)
            pages.append(page)
        assert evicted == expect
        assert len(evicted) > 0


class TestMarking:
    def test_marked_pages_survive_phase(self):
        inst = unit_instance(n=4, k=2)
        # Phase: 0 and 1 marked; requesting 2 must evict neither... it must
        # start a new phase since everything is marked.
        seq = RequestSequence.from_pages([0, 1, 2])
        r = simulate(inst, seq, MarkingPolicy(), record_events=True)
        assert len(r.events) == 1  # one eviction, from the cleared phase

    def test_unmarked_evicted_before_marked(self):
        inst = unit_instance(n=4, k=3)
        seq = RequestSequence.from_pages([0, 1, 2, 1, 2, 3])
        r = simulate(inst, seq, MarkingPolicy(), record_events=True)
        # 1 and 2 were re-marked; 0 is the only unmarked page.
        assert [e.page for e in r.events] == [0]

    def test_randomized_marking_competitive_on_nemesis(self):
        # On the k+1-page cycle randomized marking misses far less than LRU.
        k = 8
        inst = unit_instance(n=k + 1, k=k)
        seq = cyclic_nemesis(k, 2000)
        lru = simulate(inst, seq, LRUPolicy())
        costs = [
            simulate(inst, seq, RandomizedMarkingPolicy(), seed=s).cost
            for s in range(5)
        ]
        assert np.mean(costs) < lru.cost / 2


class TestLandlord:
    def test_prefers_evicting_light_pages(self):
        inst = WeightedPagingInstance(2, [100.0, 1.0, 1.0, 1.0])
        seq = RequestSequence.from_pages([0, 1, 2, 3, 2, 3])
        r = simulate(inst, seq, KernelLandlordPolicy(), record_events=True)
        assert 0 not in {e.page for e in r.events}

    def test_beats_lru_on_weighted_adversary(self):
        from repro.workloads import weighted_phase_adversary

        heavy, light, k = 2, 16, 6
        w = np.concatenate([np.full(heavy, 64.0), np.ones(light)])
        inst = WeightedPagingInstance(k, w)
        seq = weighted_phase_adversary(light, heavy, k, phases=20, light_burst=8)
        lru = simulate(inst, seq, LRUPolicy())
        ll = simulate(inst, seq, KernelLandlordPolicy())
        assert ll.cost < lru.cost

    def test_hit_restores_credit(self):
        inst = WeightedPagingInstance(2, [2.0, 4.0, 2.0, 2.0])
        # After evicting 0 for 2, page 1's credit has decayed to 2; the hit
        # at t=3 restores it to 4, so page 2 (credit 0 after decay) goes.
        # Without the restore both credits would hit zero and 1 (first in
        # iteration order) would be evicted instead.
        seq = RequestSequence.from_pages([0, 1, 2, 1, 3])
        r = simulate(inst, seq, KernelLandlordPolicy(), record_events=True)
        assert [e.page for e in r.events] == [0, 2]


class TestRegistry:
    def test_all_classical_registered(self):
        for name in ["lru", "fifo", "random", "marking", "randomized-marking",
                     "landlord", "landlord-ref"]:
            assert name in policy_registry
