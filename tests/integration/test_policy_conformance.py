"""Registry-wide policy conformance.

Every policy in the registry — present and future — must survive the
verifying simulator on randomized instances: every request served,
capacity respected, one copy per page, cost at least OPT, reproducible
under a fixed seed.  New policies added via ``register_policy`` get this
coverage for free.
"""

import numpy as np
import pytest

from repro.algorithms import policy_registry
from repro.algorithms.base import Policy, WritebackPolicy
from repro.core.instance import WritebackInstance
from repro.offline import offline_opt_multilevel, offline_opt_writeback
from repro.sim import simulate, simulate_writeback
from repro.workloads import (
    multilevel_stream,
    random_multilevel_instance,
    readwrite_stream,
)

ML_POLICIES = sorted(
    name for name, cls in policy_registry.items() if issubclass(cls, Policy)
)
#: Policies restricted to single-level instances by contract.
SINGLE_LEVEL_ONLY = {"randomized-weighted"}


def _levels_for(name: str, l: int) -> int:
    return 1 if name in SINGLE_LEVEL_ONLY else l


WB_POLICIES = sorted(
    name for name, cls in policy_registry.items()
    if issubclass(cls, WritebackPolicy)
)


def test_registry_is_partitioned():
    assert set(ML_POLICIES) | set(WB_POLICIES) == set(policy_registry)
    assert not set(ML_POLICIES) & set(WB_POLICIES)
    assert len(ML_POLICIES) >= 11
    assert len(WB_POLICIES) >= 2


@pytest.mark.parametrize("name", ML_POLICIES)
class TestMultiLevelConformance:
    def test_feasible_on_random_instances(self, name):
        for seed in range(3):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(5, 12))
            k = int(rng.integers(2, n))
            l = _levels_for(name, int(rng.integers(1, 4)))
            inst = random_multilevel_instance(n, k, l, rng=rng)
            seq = multilevel_stream(n, l, 150, rng=rng)
            # simulate() verifies serving + invariants every request.
            r = simulate(inst, seq, policy_registry[name](), seed=seed)
            assert r.n_requests == 150
            assert len(r.final_cache) <= k

    def test_reproducible_under_seed(self, name):
        l = _levels_for(name, 2)
        inst = random_multilevel_instance(8, 3, l, rng=0)
        seq = multilevel_stream(8, l, 200, rng=1)
        a = simulate(inst, seq, policy_registry[name](), seed=42)
        b = simulate(inst, seq, policy_registry[name](), seed=42)
        assert a.cost == b.cost

    def test_never_beats_opt(self, name):
        l = _levels_for(name, 2)
        inst = random_multilevel_instance(5, 2, l, rng=2, high=8.0)
        seq = multilevel_stream(5, l, 60, rng=3)
        opt = offline_opt_multilevel(inst, seq)
        r = simulate(inst, seq, policy_registry[name](), seed=4)
        assert r.cost >= opt - 1e-9

    def test_free_on_all_hits(self, name):
        # k requests for k distinct pages, then repeats: no evictions.
        from repro.core.requests import RequestSequence

        inst = random_multilevel_instance(6, 3, _levels_for(name, 2), rng=5)
        pages = [0, 1, 2] * 10
        seq = RequestSequence.from_pairs([(p, 1) for p in pages])
        r = simulate(inst, seq, policy_registry[name](), seed=6)
        assert r.cost == 0.0


@pytest.mark.parametrize("name", WB_POLICIES)
class TestWritebackConformance:
    def test_feasible_and_dominates_opt(self, name):
        inst = WritebackInstance(2, [6.0, 5.0, 4.0, 7.0, 3.0],
                                 [2.0, 1.0, 1.0, 2.0, 1.0])
        seq = readwrite_stream(5, 60, write_fraction=0.4, rng=7)
        opt = offline_opt_writeback(inst, seq)
        r = simulate_writeback(inst, seq, policy_registry[name](), seed=8)
        assert r.cost >= opt - 1e-9

    def test_reproducible(self, name):
        inst = WritebackInstance.uniform(8, 3, 4.0)
        seq = readwrite_stream(8, 150, rng=9)
        a = simulate_writeback(inst, seq, policy_registry[name](), seed=10)
        b = simulate_writeback(inst, seq, policy_registry[name](), seed=10)
        assert a.cost == b.cost
