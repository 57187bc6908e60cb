"""Tests for the Theorem 3.6 phased lower-bound construction."""

import pytest

from repro.algorithms import KernelLandlordPolicy, LRUPolicy
from repro.setcover import (
    greedy_cover,
    hard_instance_family,
    phase_covers,
    phased_reduction,
)
from repro.sim import simulate


def make_phased(phases=3, rng=1):
    fam = hard_instance_family(16, 6, 3, n_sequences=4, rng=0)
    return fam, phased_reduction(fam, phases, w=4.0, repetitions=4, rng=rng)


class TestConstruction:
    def test_shared_instance_across_phases(self):
        fam, ph = make_phased()
        assert ph.instance.cache_size == fam.system.n_sets
        assert ph.n_phases == 3
        assert len(ph.phase_boundaries) == 3
        assert ph.phase_boundaries[0] == 0

    def test_boundaries_partition_sequence(self):
        fam, ph = make_phased(phases=4)
        bounds = list(ph.phase_boundaries) + [len(ph.sequence)]
        assert all(a < b for a, b in zip(bounds, bounds[1:]))
        # Each phase starts with the init writes of Step 1.
        for start in ph.phase_boundaries:
            req = ph.sequence[start]
            assert req.level == 1
            assert req.page == 0

    def test_phases_drawn_from_family(self):
        fam, ph = make_phased(phases=5)
        assert all(elems in fam.sequences for elems in ph.phase_elements)

    def test_seeded_draws_reproducible(self):
        fam, a = make_phased(rng=7)
        _, b = make_phased(rng=7)
        assert a.phase_elements == b.phase_elements

    def test_bad_phase_count_rejected(self):
        fam = hard_instance_family(12, 5, 2, rng=0)
        with pytest.raises(ValueError):
            phased_reduction(fam, 0)


class TestPhaseCovers:
    @pytest.mark.parametrize("factory", [LRUPolicy, KernelLandlordPolicy])
    def test_every_phase_commits_a_valid_cover(self, factory):
        fam, ph = make_phased(phases=3)
        r = simulate(ph.instance, ph.sequence, factory(), seed=0,
                     record_events=True)
        covers = phase_covers(ph, r.events)
        assert len(covers) == 3
        for elems, cover in zip(ph.phase_elements, covers):
            assert fam.system.is_cover(cover, elems)

    def test_online_pays_every_phase(self):
        # The amplification: committed covers are at least offline-sized
        # in (almost) every phase, so total cost scales with phases.
        fam, ph3 = make_phased(phases=2, rng=3)
        _, ph6 = make_phased(phases=6, rng=3)
        c2 = simulate(ph3.instance, ph3.sequence, KernelLandlordPolicy(), seed=0).cost
        c6 = simulate(ph6.instance, ph6.sequence, KernelLandlordPolicy(), seed=0).cost
        assert c6 >= 2.0 * c2

    def test_covers_exceed_offline(self):
        fam, ph = make_phased(phases=4)
        r = simulate(ph.instance, ph.sequence, LRUPolicy(), seed=0,
                     record_events=True)
        covers = phase_covers(ph, r.events)
        for elems, cover in zip(ph.phase_elements, covers):
            offline = len(greedy_cover(fam.system, elems))
            assert len(cover) >= offline - 1

    def test_read_copy_evictions_ignored(self):
        fam, ph = make_phased()
        r = simulate(ph.instance, ph.sequence, LRUPolicy(), seed=0,
                     record_events=True)
        covers = phase_covers(ph, r.events)
        m = fam.system.n_sets
        for cover in covers:
            assert all(0 <= s < m for s in cover)
