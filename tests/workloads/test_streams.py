"""Tests for the synthetic, writeback, multi-level and adversarial streams."""

import numpy as np
import pytest

from repro.core.requests import WBRequestSequence
from repro.workloads import (
    cyclic_nemesis,
    geometric_instance,
    hot_writer_stream,
    logging_stream,
    markov_stream,
    multilevel_stream,
    optane_stream,
    random_multilevel_instance,
    readwrite_stream,
    scan_stream,
    uniform_stream,
    weighted_phase_adversary,
    working_set_stream,
    zipf_stream,
)


class TestSyntheticStreams:
    def test_uniform_range_and_length(self):
        seq = uniform_stream(20, 500, rng=0)
        assert len(seq) == 500
        assert seq.max_page() < 20
        assert seq.pages.min() >= 0

    def test_uniform_reproducible(self):
        assert uniform_stream(10, 50, rng=3) == uniform_stream(10, 50, rng=3)

    def test_zipf_skew(self):
        # Higher alpha concentrates mass on fewer pages.
        flat = zipf_stream(100, 5000, alpha=0.1, rng=0, shuffle_ranks=False)
        skew = zipf_stream(100, 5000, alpha=1.5, rng=0, shuffle_ranks=False)
        top_flat = np.bincount(flat.pages, minlength=100).max()
        top_skew = np.bincount(skew.pages, minlength=100).max()
        assert top_skew > 2 * top_flat

    def test_zipf_unshuffled_rank_zero_most_popular(self):
        seq = zipf_stream(50, 5000, alpha=1.2, rng=1, shuffle_ranks=False)
        counts = np.bincount(seq.pages, minlength=50)
        assert counts[0] == counts.max()

    def test_scan_is_cyclic(self):
        seq = scan_stream(4, 10)
        assert seq.pages.tolist() == [0, 1, 2, 3, 0, 1, 2, 3, 0, 1]

    def test_scan_stride(self):
        seq = scan_stream(5, 5, stride=2)
        assert seq.pages.tolist() == [0, 2, 4, 1, 3]

    def test_scan_bad_stride(self):
        with pytest.raises(ValueError):
            scan_stream(5, 5, stride=0)

    def test_working_set_locality(self):
        seq = working_set_stream(
            200, 2000, set_size=10, phase_length=500, rng=0, locality=1.0
        )
        # With locality 1, each phase touches at most set_size pages.
        for start in range(0, 2000, 500):
            phase = seq.pages[start : start + 500]
            assert np.unique(phase).size <= 10

    def test_working_set_args_validated(self):
        with pytest.raises(ValueError):
            working_set_stream(10, 100, set_size=20, phase_length=10)
        with pytest.raises(ValueError):
            working_set_stream(10, 100, set_size=5, phase_length=0)
        with pytest.raises(ValueError):
            working_set_stream(10, 100, set_size=5, phase_length=10, locality=1.5)

    def test_markov_in_range(self):
        seq = markov_stream(30, 1000, rng=0)
        assert seq.pages.min() >= 0
        assert seq.max_page() < 30

    def test_markov_sticky_stays_local(self):
        seq = markov_stream(1000, 500, stickiness=1.0, neighborhood=1, rng=0)
        jumps = np.abs(np.diff(seq.pages))
        jumps = np.minimum(jumps, 1000 - jumps)  # circular distance
        assert jumps.max() <= 1

    def test_markov_args_validated(self):
        with pytest.raises(ValueError):
            markov_stream(10, 10, stickiness=2.0)
        with pytest.raises(ValueError):
            markov_stream(10, 10, neighborhood=0)


class TestWritebackStreams:
    def test_readwrite_fraction_close(self):
        seq = readwrite_stream(50, 5000, write_fraction=0.25, rng=0)
        assert isinstance(seq, WBRequestSequence)
        assert seq.write_fraction() == pytest.approx(0.25, abs=0.03)

    def test_readwrite_bad_fraction(self):
        with pytest.raises(ValueError):
            readwrite_stream(10, 10, write_fraction=1.5)

    def test_hot_writer_concentrates_writes(self):
        seq = hot_writer_stream(
            100, 10000, hot_fraction=0.1, hot_write_prob=0.9,
            cold_write_prob=0.0, rng=0,
        )
        written_pages = np.unique(seq.pages[seq.writes])
        assert written_pages.size <= 10  # only hot pages attract writes

    def test_logging_stream_shape(self):
        seq = logging_stream(64, 1000, log_pages=4, log_interval=10, rng=0)
        # Every 10th request is a write to a log page.
        assert np.all(seq.writes[::10])
        assert np.all(seq.pages[seq.writes] < 4)
        # Reads avoid log pages.
        assert np.all(seq.pages[~seq.writes] >= 4)

    def test_logging_args_validated(self):
        with pytest.raises(ValueError):
            logging_stream(4, 10, log_pages=4)
        with pytest.raises(ValueError):
            logging_stream(8, 10, log_interval=0)


class TestMultiLevel:
    def test_geometric_instance_weights(self):
        inst = geometric_instance(10, 3, 4)
        assert inst.n_levels == 4
        assert inst.weights[0].tolist() == [8.0, 4.0, 2.0, 1.0]
        assert inst.has_geometric_levels()

    def test_geometric_instance_too_small_top(self):
        with pytest.raises(ValueError):
            geometric_instance(10, 3, 4, top_weight=4.0)

    def test_random_instance_valid_and_geometric(self):
        inst = random_multilevel_instance(20, 5, 3, rng=0)
        assert inst.has_geometric_levels()
        assert np.all(inst.weights >= 1.0)

    def test_multilevel_stream_levels_in_range(self):
        seq = multilevel_stream(30, 4, 2000, rng=0)
        assert seq.levels.min() >= 1
        assert seq.max_level() <= 4

    def test_level_bias_prefers_cheap_levels(self):
        seq = multilevel_stream(30, 3, 6000, level_bias=4.0, rng=0)
        counts = np.bincount(seq.levels, minlength=4)[1:]
        assert counts[2] > counts[1] > counts[0]

    def test_optane_stream_two_levels(self):
        seq = optane_stream(40, 3000, chunk_read_fraction=0.2, rng=0)
        assert set(np.unique(seq.levels)) == {1, 2}
        frac = float((seq.levels == 1).mean())
        assert frac == pytest.approx(0.2, abs=0.03)


class TestAdversarial:
    def test_cyclic_nemesis_uses_k_plus_one_pages(self):
        seq = cyclic_nemesis(4, 100)
        assert seq.distinct_pages() == 5
        assert seq.max_page() == 4

    def test_weighted_phase_adversary_structure(self):
        seq = weighted_phase_adversary(
            light_pages=8, heavy_pages=2, cache_size=4, phases=3, light_burst=4
        )
        assert len(seq) == 3 * (4 + 2)
        # Each phase ends with the heavy probes 0, 1.
        assert seq.pages[4:6].tolist() == [0, 1]

    def test_weighted_phase_adversary_validated(self):
        with pytest.raises(ValueError):
            weighted_phase_adversary(0, 1, 2, 1)
        with pytest.raises(ValueError):
            weighted_phase_adversary(4, 1, 2, 1, light_burst=0)
