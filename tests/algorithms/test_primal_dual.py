"""Tests for the online primal-dual solver and its dual certificate."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import (
    FractionalMultiLevelSolver,
    PrimalDualWeightedPaging,
)
from repro.core.instance import MultiLevelInstance, WeightedPagingInstance
from repro.core.requests import RequestSequence
from repro.errors import InvalidInstanceError
from repro.offline import offline_opt_multilevel, sparse_fractional_opt
from repro.workloads import cyclic_nemesis, sample_weights, zipf_stream


def instance(n=8, k=3, rng=0, high=8.0):
    return WeightedPagingInstance(k, sample_weights(n, rng=rng, high=high))


class TestBasics:
    def test_multilevel_rejected(self):
        ml = MultiLevelInstance(1, np.tile([2.0, 1.0], (3, 1)))
        with pytest.raises(InvalidInstanceError):
            PrimalDualWeightedPaging(ml)

    def test_no_cost_until_cache_overflows(self):
        pd = PrimalDualWeightedPaging(instance(n=8, k=3))
        for p in range(3):
            pd.step(p)
        assert pd.primal_cost == 0.0
        assert pd.dual_value() == 0.0

    def test_request_always_served(self):
        pd = PrimalDualWeightedPaging(instance())
        for p in [0, 1, 2, 3, 4, 0, 5]:
            pd.step(p)
            assert pd.x[p] == 0.0

    def test_repeated_requests_free(self):
        pd = PrimalDualWeightedPaging(instance())
        for _ in range(20):
            pd.step(0)
        assert pd.primal_cost == 0.0

    def test_covering_constraint_maintained(self):
        inst = instance(n=10, k=2)
        pd = PrimalDualWeightedPaging(inst)
        seq = zipf_stream(10, 150, rng=1)
        for p in seq.pages.tolist():
            pd.step(p)
            assert pd.x.sum() >= 10 - 2 - 1e-7

    def test_primal_matches_section42_solver(self):
        # Same ODE, same eta: the primal trajectory equals the Section 4.2
        # solver's at l = 1.
        inst = instance(n=9, k=3, rng=2)
        seq = zipf_stream(9, 120, rng=3)
        pd = PrimalDualWeightedPaging(inst)
        state = pd.solve(seq)
        frac = FractionalMultiLevelSolver(inst)
        traj = frac.solve(seq)
        assert state.primal_cost == pytest.approx(traj.total_z_cost, rel=1e-8)
        assert np.allclose(pd.x, frac.u[:, 0], atol=1e-9)


class TestDualCertificate:
    def test_weak_duality_vs_lp(self):
        inst = instance(n=8, k=3, rng=4)
        seq = zipf_stream(8, 150, rng=5)
        state = PrimalDualWeightedPaging(inst).solve(seq)
        lp = sparse_fractional_opt(inst, seq)
        assert state.dual_value <= lp + 1e-6

    def test_dual_below_integral_opt(self):
        inst = instance(n=6, k=2, rng=6)
        seq = zipf_stream(6, 100, rng=7)
        state = PrimalDualWeightedPaging(inst).solve(seq)
        dp = offline_opt_multilevel(inst, seq)
        assert state.dual_value <= dp + 1e-6

    def test_certified_ratio_within_theorem_bound(self):
        inst = instance(n=12, k=4, rng=8)
        seq = zipf_stream(12, 400, rng=9)
        state = PrimalDualWeightedPaging(inst).solve(seq)
        k = inst.cache_size
        # The BBN theorem: primal <= 2 ln(1 + k) * dual (+ O(1) startup).
        assert state.primal_cost <= 2.0 * math.log(1 + k) * state.dual_value \
            + 2.0 * float(inst.page_weights.max())

    def test_dual_positive_once_evictions_happen(self):
        inst = instance(n=6, k=2, rng=10)
        state = PrimalDualWeightedPaging(inst).solve(
            RequestSequence.from_pages([0, 1, 2, 3, 0, 1])
        )
        assert state.primal_cost > 0
        assert state.dual_value > 0

    def test_certificate_on_nemesis(self):
        # Uniform weights, k+1-page cycle: OPT pays ~1 per k requests; the
        # certificate must stay below that while the primal pays ~log k x.
        k = 4
        inst = WeightedPagingInstance.uniform(k + 1, k)
        seq = cyclic_nemesis(k, 400)
        state = PrimalDualWeightedPaging(inst).solve(seq)
        dp = offline_opt_multilevel(inst, seq)
        assert state.dual_value <= dp + 1e-6
        assert state.certified_ratio <= 2.0 * math.log(1 + k) + 1.0

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=20, deadline=None)
    def test_property_weak_duality(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 9))
        k = int(rng.integers(1, n - 1))
        inst = WeightedPagingInstance(
            k, sample_weights(n, rng=rng, high=8.0)
        )
        seq = RequestSequence.from_pages(rng.integers(0, n, size=80))
        state = PrimalDualWeightedPaging(inst).solve(seq)
        lp = sparse_fractional_opt(inst, seq)
        assert state.dual_value <= lp + 1e-6
        assert state.primal_cost >= lp - 1e-6  # online never beats OPT
