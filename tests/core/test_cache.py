"""Tests for the cache state classes and the cost ledger."""

import numpy as np
import pytest

from repro.core.cache import MultiLevelCache, WritebackCache
from repro.core.instance import MultiLevelInstance, WritebackInstance
from repro.core.ledger import CostLedger
from repro.errors import CacheInvariantError, CacheOverflowError


def ml_instance(n=6, k=3):
    return MultiLevelInstance(k, np.tile([8.0, 4.0, 2.0], (n, 1)))


def wb_instance(n=6, k=3):
    return WritebackInstance(k, np.full(n, 10.0), np.full(n, 1.0))


class TestMultiLevelCache:
    def test_fetch_and_serve(self):
        c = MultiLevelCache(ml_instance())
        c.fetch(0, 2)
        assert 0 in c
        assert c.level_of(0) == 2
        assert c.serves(0, 2)
        assert c.serves(0, 3)
        assert not c.serves(0, 1)  # cached copy too low for a level-1 request
        assert not c.serves(1, 3)

    def test_fetch_is_free_but_counted(self):
        c = MultiLevelCache(ml_instance())
        c.fetch(0, 1)
        assert c.ledger.eviction_cost == 0.0
        assert c.ledger.n_fetches == 1

    def test_evict_charges_level_weight(self):
        c = MultiLevelCache(ml_instance())
        c.fetch(0, 2)
        level = c.evict(0)
        assert level == 2
        assert c.ledger.eviction_cost == 4.0
        assert 0 not in c

    def test_second_copy_rejected(self):
        c = MultiLevelCache(ml_instance())
        c.fetch(0, 1)
        with pytest.raises(CacheInvariantError):
            c.fetch(0, 2)

    def test_overflow_rejected(self):
        c = MultiLevelCache(ml_instance(k=2))
        c.fetch(0, 1)
        c.fetch(1, 1)
        assert c.is_full
        with pytest.raises(CacheOverflowError):
            c.fetch(2, 1)

    def test_evict_absent_rejected(self):
        c = MultiLevelCache(ml_instance())
        with pytest.raises(CacheInvariantError):
            c.evict(0)

    def test_replace_charges_old_level(self):
        c = MultiLevelCache(ml_instance())
        c.fetch(0, 3)
        old = c.replace(0, 1)
        assert old == 3
        assert c.level_of(0) == 1
        assert c.ledger.eviction_cost == 2.0  # weight of the level-3 copy

    def test_replace_same_level_rejected(self):
        c = MultiLevelCache(ml_instance())
        c.fetch(0, 2)
        with pytest.raises(CacheInvariantError):
            c.replace(0, 2)

    def test_replace_absent_rejected(self):
        c = MultiLevelCache(ml_instance())
        with pytest.raises(CacheInvariantError):
            c.replace(0, 1)

    def test_flush_returns_total(self):
        c = MultiLevelCache(ml_instance())
        c.fetch(0, 1)
        c.fetch(1, 3)
        assert c.flush() == pytest.approx(8.0 + 2.0)
        assert len(c) == 0

    def test_free_slots(self):
        c = MultiLevelCache(ml_instance(k=3))
        assert c.free_slots == 3
        c.fetch(0, 1)
        assert c.free_slots == 2

    def test_contents_is_a_copy(self):
        c = MultiLevelCache(ml_instance())
        c.fetch(0, 1)
        snap = c.contents()
        snap[0] = 99
        assert c.level_of(0) == 1

    def test_check_invariants_passes_on_valid_state(self):
        c = MultiLevelCache(ml_instance())
        c.fetch(0, 1)
        c.check_invariants()

    def test_shared_ledger(self):
        ledger = CostLedger()
        c = MultiLevelCache(ml_instance(), ledger)
        c.fetch(0, 1)
        c.evict(0)
        assert ledger.eviction_cost == 8.0


class TestWritebackCache:
    def test_fetch_enters_clean(self):
        c = WritebackCache(wb_instance())
        c.fetch(0)
        assert 0 in c
        assert not c.is_dirty(0)

    def test_dirty_eviction_costs_more(self):
        c = WritebackCache(wb_instance())
        c.fetch(0)
        c.fetch(1)
        c.mark_dirty(0)
        assert c.evict(0) is True
        assert c.evict(1) is False
        assert c.ledger.eviction_cost == pytest.approx(10.0 + 1.0)

    def test_refetch_after_writeback_is_clean(self):
        c = WritebackCache(wb_instance())
        c.fetch(0)
        c.mark_dirty(0)
        c.evict(0)
        c.fetch(0)
        assert not c.is_dirty(0)

    def test_mark_dirty_absent_rejected(self):
        c = WritebackCache(wb_instance())
        with pytest.raises(CacheInvariantError):
            c.mark_dirty(0)

    def test_overflow_rejected(self):
        c = WritebackCache(wb_instance(k=1))
        c.fetch(0)
        with pytest.raises(CacheOverflowError):
            c.fetch(1)

    def test_double_fetch_rejected(self):
        c = WritebackCache(wb_instance())
        c.fetch(0)
        with pytest.raises(CacheInvariantError):
            c.fetch(0)

    def test_flush_mixed_dirtiness(self):
        c = WritebackCache(wb_instance())
        c.fetch(0)
        c.fetch(1)
        c.mark_dirty(1)
        assert c.flush() == pytest.approx(1.0 + 10.0)


class TestCostLedger:
    def test_charges_accumulate(self):
        ledger = CostLedger()
        ledger.charge_eviction(0, 1, 3.0, "a")
        ledger.charge_eviction(1, 1, 2.0, "b")
        assert ledger.eviction_cost == 5.0
        assert ledger.n_evictions == 2
        assert ledger.cost_by_reason == {"a": 3.0, "b": 2.0}

    def test_negative_cost_rejected(self):
        with pytest.raises(ValueError):
            CostLedger().charge_eviction(0, 1, -1.0)

    def test_event_recording_off_by_default(self):
        ledger = CostLedger()
        ledger.charge_eviction(0, 1, 1.0)
        assert ledger.events == []

    def test_event_recording(self):
        ledger = CostLedger(record_events=True)
        ledger.set_time(7)
        ledger.charge_eviction(3, 2, 1.5, "reset")
        (ev,) = ledger.events
        assert (ev.time, ev.page, ev.level, ev.cost, ev.reason) == (7, 3, 2, 1.5, "reset")
