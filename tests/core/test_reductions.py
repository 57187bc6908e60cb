"""Tests for the Lemma 2.1 writeback <-> RW-paging reduction."""

import pytest

from repro.core.instance import RWPagingInstance, WritebackInstance
from repro.core.reductions import (
    rw_to_writeback_instance,
    rw_to_writeback_sequence,
    writeback_cost_of_rw_run,
    writeback_to_rw_instance,
    writeback_to_rw_sequence,
)
from repro.core.requests import RequestSequence, WBRequestSequence
from repro.errors import InvalidRequestError


def wb_instance():
    return WritebackInstance(2, [10.0, 8.0, 6.0, 4.0], [2.0, 2.0, 1.0, 1.0])


class TestInstanceMaps:
    def test_writeback_to_rw_weights(self):
        rw = writeback_to_rw_instance(wb_instance())
        assert isinstance(rw, RWPagingInstance)
        assert rw.write_weights.tolist() == [10.0, 8.0, 6.0, 4.0]
        assert rw.read_weights.tolist() == [2.0, 2.0, 1.0, 1.0]
        assert rw.cache_size == 2

    def test_round_trip_is_identity(self):
        wb = wb_instance()
        back = rw_to_writeback_instance(writeback_to_rw_instance(wb))
        assert back == wb

    def test_rw_round_trip(self):
        rw = RWPagingInstance(1, [5.0, 3.0], [1.0, 2.0])
        back = writeback_to_rw_instance(rw_to_writeback_instance(rw))
        assert back == rw


class TestSequenceMaps:
    def test_writes_become_level_one(self):
        seq = WBRequestSequence.from_pairs([(0, True), (1, False), (0, False)])
        rw = writeback_to_rw_sequence(seq)
        assert rw.pages.tolist() == [0, 1, 0]
        assert rw.levels.tolist() == [1, 2, 2]

    def test_sequence_round_trip(self):
        seq = WBRequestSequence.from_pairs([(2, True), (0, False), (1, True)])
        assert rw_to_writeback_sequence(writeback_to_rw_sequence(seq)) == seq

    def test_rw_round_trip(self):
        seq = RequestSequence.from_pairs([(0, 1), (1, 2), (2, 2)])
        assert writeback_to_rw_sequence(rw_to_writeback_sequence(seq)) == seq

    def test_levels_above_two_rejected(self):
        seq = RequestSequence.from_pairs([(0, 3)])
        with pytest.raises(InvalidRequestError):
            rw_to_writeback_sequence(seq)


class TestWritebackCostOfRWRun:
    def test_trace_length_mismatch_rejected(self):
        with pytest.raises(InvalidRequestError):
            writeback_cost_of_rw_run(
                wb_instance(), WBRequestSequence.from_pairs([(0, True)]), []
            )

    def test_unserved_write_rejected(self):
        seq = WBRequestSequence.from_pairs([(0, True)])
        with pytest.raises(InvalidRequestError):
            writeback_cost_of_rw_run(wb_instance(), seq, [{1: 1}])

    def test_rw_swap_is_free_dirtying(self):
        # RW trace: fetch (0,2); upgrade to (0,1) on the write; keep it.
        seq = WBRequestSequence.from_pairs([(0, False), (0, True)])
        trace = [{0: 2}, {0: 1}]
        cost = writeback_cost_of_rw_run(wb_instance(), seq, trace)
        assert cost == 0.0  # the swap (p,2)->(p,1) costs nothing writeback-side

    def test_dirty_eviction_charged(self):
        # Write page 0, then it leaves the cache while serving page 1.
        seq = WBRequestSequence.from_pairs([(0, True), (1, False)])
        trace = [{0: 1}, {1: 2}]
        cost = writeback_cost_of_rw_run(wb_instance(), seq, trace)
        assert cost == pytest.approx(10.0)  # dirty eviction of page 0

    def test_clean_eviction_charged(self):
        seq = WBRequestSequence.from_pairs([(0, False), (1, False)])
        trace = [{0: 2}, {1: 2}]
        cost = writeback_cost_of_rw_run(wb_instance(), seq, trace)
        assert cost == pytest.approx(2.0)  # clean eviction of page 0

    def test_induced_cost_never_exceeds_rw_cost(self):
        # RW solution: hold (0,1) from the start, swap to (1,2), back to (0,1).
        # RW cost: evict (0,1)=10 then evict (1,2)=2. Writeback side: page 0
        # became dirty, evicted dirty (10), page 1 clean (2): equal here.
        seq = WBRequestSequence.from_pairs([(0, True), (1, False), (0, True)])
        trace = [{0: 1}, {1: 2}, {0: 1}]
        cost = writeback_cost_of_rw_run(wb_instance(), seq, trace)
        rw_cost = 10.0 + 2.0
        assert cost <= rw_cost + 1e-9
        assert cost == pytest.approx(12.0)
