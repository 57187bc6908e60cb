"""Tests for the loop and mixture streams."""

import pytest

from repro.algorithms import LRUPolicy
from repro.core.instance import WeightedPagingInstance
from repro.core.requests import RequestSequence
from repro.sim import lru_miss_curve, opt_miss_curve, simulate
from repro.workloads import loop_stream, mixture_stream, scan_stream, zipf_stream


class TestLoopStream:
    def test_pure_loop_repeats(self):
        seq = loop_stream(10, 9, loop_size=4)
        assert seq.pages.tolist() == [0, 1, 2, 3, 0, 1, 2, 3, 0]

    def test_lru_thrashes_on_oversized_loop(self):
        seq = loop_stream(10, 500, loop_size=6)
        inst = WeightedPagingInstance.uniform(10, 5)
        r = simulate(inst, seq, LRUPolicy())
        assert r.n_hits == 0  # the classic LOOP pathology

    def test_opt_keeps_most_of_the_loop(self):
        seq = loop_stream(10, 600, loop_size=6)
        lru = lru_miss_curve(seq, max_k=5)
        opt = opt_miss_curve(seq, max_k=5)
        # At k = 5, MIN hits on ~(k-1)/loop of requests; LRU on none.
        assert opt[4] < 0.4 * lru[4]

    def test_jitter_adds_noise(self):
        seq = loop_stream(50, 2000, loop_size=4, jitter=0.5, rng=0)
        assert seq.distinct_pages() > 4

    def test_args_validated(self):
        with pytest.raises(ValueError):
            loop_stream(5, 10, loop_size=6)
        with pytest.raises(ValueError):
            loop_stream(5, 10, loop_size=2, jitter=1.5)


class TestMixtureStream:
    def test_scan_pollution_scenario(self):
        point = zipf_stream(20, 1000, alpha=1.2, rng=0)
        scan = scan_stream(200, 1000)
        # Scans use a disjoint page range so pollution is visible.
        scan = RequestSequence(scan.pages + 20, scan.levels)
        mixed = mixture_stream([(3.0, point), (1.0, scan)], 1000, rng=1)
        assert len(mixed) == 1000
        assert mixed.max_page() >= 20  # both components present
        assert (mixed.pages < 20).mean() == pytest.approx(0.75, abs=0.05)

    def test_components_consumed_in_order(self):
        a = RequestSequence.from_pages([0, 1, 2])
        mixed = mixture_stream([(1.0, a)], 7, rng=2)
        # Single component: consumed round-robin with recycling.
        assert mixed.pages.tolist() == [0, 1, 2, 0, 1, 2, 0]

    def test_levels_preserved(self):
        a = RequestSequence.from_pairs([(0, 2), (1, 3)])
        mixed = mixture_stream([(1.0, a)], 4, rng=3)
        assert mixed.levels.tolist() == [2, 3, 2, 3]

    def test_weights_respected(self):
        a = RequestSequence.from_pages([0])
        b = RequestSequence.from_pages([1])
        mixed = mixture_stream([(9.0, a), (1.0, b)], 5000, rng=4)
        assert (mixed.pages == 0).mean() == pytest.approx(0.9, abs=0.02)

    def test_args_validated(self):
        with pytest.raises(ValueError):
            mixture_stream([], 10)
        with pytest.raises(ValueError):
            mixture_stream([(0.0, RequestSequence.from_pages([0]))], 10)
        with pytest.raises(ValueError):
            mixture_stream([(1.0, RequestSequence.from_pages([]))], 10)
