"""Tests for the Section 3 set-cover -> RW-paging reduction."""

import numpy as np
import pytest

from repro.algorithms import KernelLandlordPolicy, LRUPolicy
from repro.core.requests import Request
from repro.errors import InvalidInstanceError
from repro.setcover import (
    SetSystem,
    completeness_bound,
    default_repetitions,
    extract_cover,
    greedy_cover,
    planted_cover_system,
    reduce_to_rw_paging,
)
from repro.sim import simulate


def small_reduction(reps=3, w=4.0):
    sys_ = SetSystem(4, [[0, 1], [2, 3], [1, 2], [0, 3]])
    return reduce_to_rw_paging(sys_, [0, 2], w=w, repetitions=reps)


class TestConstruction:
    def test_instance_shape(self):
        red = small_reduction()
        # m set pages + n element pages; cache size m.
        assert red.instance.n_pages == 4 + 4
        assert red.instance.cache_size == 4
        assert np.all(red.instance.write_weights == 4.0)
        assert np.all(red.instance.read_weights == 1.0)

    def test_sequence_structure(self):
        red = small_reduction(reps=2)
        seq = list(red.sequence)
        m = 4
        # Init: writes for all sets.
        assert seq[:m] == [Request(s, 1) for s in range(m)]
        # Terminate: writes for all sets.
        assert seq[-m:] == [Request(s, 1) for s in range(m)]

    def test_rho_block_content(self):
        red = small_reduction(reps=1)
        seq = list(red.sequence)
        m = 4
        # First rho(0): read element-page of 0, then reads of sets
        # avoiding element 0 (sets 1 and 2 contain? sets: {0,1},{2,3},{1,2},{0,3};
        # avoiding 0 -> sets 1, 2).
        block = seq[m : m + 3]
        assert block[0] == Request(red.element_page(0), 2)
        assert {r.page for r in block[1:]} == {1, 2}
        assert all(r.level == 2 for r in block)

    def test_sequence_length_formula(self):
        sys_, _ = planted_cover_system(10, 5, 2, rng=0)
        elems = [0, 3, 7]
        reps = 4
        red = reduce_to_rw_paging(sys_, elems, w=3.0, repetitions=reps)
        expected = 5  # init
        for e in elems:
            expected += reps * (1 + len(sys_.sets_avoiding(e))) + 5
        expected += 5  # terminate
        assert len(red.sequence) == expected

    def test_default_w_is_n(self):
        sys_ = SetSystem(6, [[0, 1, 2], [3, 4, 5]])
        red = reduce_to_rw_paging(sys_, [0], repetitions=2)
        assert red.w == 6.0

    def test_default_repetitions_dominates_completeness(self):
        sys_, _ = planted_cover_system(12, 6, 3, rng=1)
        w = 5.0
        reps = default_repetitions(sys_, w)
        red = reduce_to_rw_paging(sys_, range(12), w=w, repetitions=reps)
        assert reps > completeness_bound(red, sys_.n_sets)

    def test_bad_w_rejected(self):
        sys_ = SetSystem(3, [[0, 1, 2]])
        with pytest.raises(InvalidInstanceError):
            reduce_to_rw_paging(sys_, [0], w=0.5)

    def test_bad_repetitions_rejected(self):
        sys_ = SetSystem(3, [[0, 1, 2]])
        with pytest.raises(InvalidInstanceError):
            reduce_to_rw_paging(sys_, [0], repetitions=0)


class TestSoundnessMechanism:
    """Any reasonable-cost run's evicted write pages must form a cover."""

    @pytest.mark.parametrize("policy_cls", [LRUPolicy, KernelLandlordPolicy])
    def test_eviction_trace_encodes_cover(self, policy_cls):
        sys_, _ = planted_cover_system(12, 6, 3, rng=2)
        elems = list(np.random.default_rng(3).integers(0, 12, size=4))
        red = reduce_to_rw_paging(sys_, elems, w=4.0, repetitions=6)
        r = simulate(red.instance, red.sequence, policy_cls(),
                     seed=0, record_events=True)
        cover = extract_cover(red, r.events)
        # Lemma 3.3: the run avoided paying `repetitions`, so the evicted
        # write pages must cover the requested elements.
        assert r.cost < red.repetitions * 0.9 or sys_.is_cover(cover, elems)
        assert sys_.is_cover(cover, elems)

    def test_completeness_bound_achievable_scale(self):
        # Online cost should be within a moderate factor of Lemma 3.2's
        # offline bound (they are O(1)-competitive-ish on such tiny runs).
        sys_, planted = planted_cover_system(12, 6, 3, rng=4)
        elems = list(range(0, 12, 3))
        red = reduce_to_rw_paging(sys_, elems, w=4.0, repetitions=6)
        bound = completeness_bound(red, len(greedy_cover(sys_, elems)))
        r = simulate(red.instance, red.sequence, KernelLandlordPolicy(), seed=0)
        assert r.cost <= 10.0 * bound

    def test_extract_cover_filters_read_copies(self):
        red = small_reduction()
        r = simulate(red.instance, red.sequence, LRUPolicy(),
                     seed=0, record_events=True)
        cover = extract_cover(red, r.events)
        # Only set pages, only write copies.
        assert all(0 <= s < red.system.n_sets for s in cover)
