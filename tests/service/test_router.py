"""Tests for deterministic shard routing and sharded-run reproducibility."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import LRUPolicy
from repro.core.instance import WeightedPagingInstance
from repro.errors import ServiceConfigError
from repro.faults import FaultPlan
from repro.service import PagingService, ServiceConfig, ShardRouter
from repro.workloads import sample_weights, zipf_stream


def make_config(n_shards=4, seed=0, **kwargs):
    inst = WeightedPagingInstance(16, sample_weights(64, rng=0, high=16.0))
    return ServiceConfig(instance=inst, policy_factory=LRUPolicy,
                         n_shards=n_shards, seed=seed, **kwargs)


class TestShardRouter:
    def test_every_page_owned_by_exactly_one_shard(self):
        router = ShardRouter(4)
        parts = router.page_partition(1000)
        all_pages = np.concatenate(parts)
        assert sorted(all_pages.tolist()) == list(range(1000))

    def test_scalar_and_vector_routing_agree(self):
        router = ShardRouter(5)
        pages = np.arange(200, dtype=np.int64)
        vec = router.shards_of(pages)
        assert [router.shard_of(int(p)) for p in pages] == vec.tolist()

    def test_split_preserves_arrival_order(self):
        router = ShardRouter(3)
        pages = np.array([7, 7, 2, 7, 2, 9, 9, 2], dtype=np.int64)
        levels = np.arange(8, dtype=np.int64) + 1
        for shard_pages, shard_levels in router.split(pages, levels):
            # Levels encode arrival order here, so each slice must ascend.
            assert shard_levels.tolist() == sorted(shard_levels.tolist())
            owners = {router.shard_of(int(p)) for p in shard_pages}
            assert len(owners) <= 1

    def test_single_shard_split_is_identity(self):
        router = ShardRouter(1)
        pages = np.array([3, 1, 2], dtype=np.int64)
        levels = np.ones(3, dtype=np.int64)
        [(p, lv)] = router.split(pages, levels)
        assert p.tolist() == [3, 1, 2]

    def test_hot_pages_spread_across_shards(self):
        # Generators emit ids in frequency order; the router must not alias
        # the hottest pages onto one shard the way `page % n` would.
        router = ShardRouter(4)
        hot = router.shards_of(np.arange(8, dtype=np.int64))
        assert len(set(hot.tolist())) >= 3

    def test_balance_of_page_partition(self):
        router = ShardRouter(4)
        sizes = [len(p) for p in router.page_partition(4096)]
        assert max(sizes) - min(sizes) < 4096 * 0.1

    def test_zero_shards_rejected(self):
        with pytest.raises(ServiceConfigError):
            ShardRouter(0)

    @given(st.integers(0, 2**31), st.integers(1, 16))
    @settings(max_examples=200, deadline=None)
    def test_routing_is_stable_and_in_range(self, page, n_shards):
        a = ShardRouter(n_shards).shard_of(page)
        b = ShardRouter(n_shards).shard_of(page)
        assert a == b
        assert 0 <= a < n_shards


class TestShardCapacities:
    def test_capacities_sum_to_k(self):
        config = make_config(n_shards=3)
        caps = config.shard_capacities()
        assert sum(caps) == 16
        assert max(caps) - min(caps) <= 1

    def test_more_shards_than_slots_rejected(self):
        with pytest.raises(ServiceConfigError):
            make_config(n_shards=17)

    def test_unknown_policy_rejected(self):
        inst = WeightedPagingInstance.uniform(8, 2)
        with pytest.raises(ServiceConfigError):
            ServiceConfig.from_policy_name("nonsense", inst)


class TestFaultPlanValidation:
    """A fault plan that could never fire is a config error, not a no-op."""

    def test_plan_naming_a_missing_shard_rejected(self):
        with pytest.raises(ServiceConfigError, match="shard 9"):
            make_config(n_shards=2, fault_plan=FaultPlan.parse("kill:9@10"))
        # The last shard is still a valid target.
        make_config(n_shards=2, fault_plan=FaultPlan.parse("kill:1@10"))

    @pytest.mark.parametrize("kwargs", [
        {"fault_plan": "kill:0@10"},
        {"checkpoint_interval": 100},
        {"fault_plan": "kill:0@10", "checkpoint_interval": 100},
    ])
    def test_inline_backend_has_no_worker_to_fail(self, kwargs):
        if "fault_plan" in kwargs:
            kwargs = {**kwargs, "fault_plan": FaultPlan.parse(kwargs["fault_plan"])}
        with pytest.raises(ServiceConfigError, match="inline backend"):
            make_config(backend="inline", **kwargs)
        make_config(backend="thread", **kwargs)


class TestShardedDeterminism:
    """Same seed + trace => identical per-shard cost ledgers."""

    @pytest.mark.parametrize("n_shards", [1, 2, 4])
    def test_inline_runs_reproduce(self, n_shards):
        seq = zipf_stream(64, 3000, alpha=0.9, rng=7)
        ledgers = []
        for _ in range(2):
            svc = PagingService(make_config(n_shards=n_shards, validate=True))
            for lo in range(0, len(seq), 256):
                svc.submit_batch(seq.pages[lo:lo + 256], seq.levels[lo:lo + 256])
            ledgers.append([
                (e.ledger.eviction_cost, e.ledger.n_hits, e.ledger.n_misses,
                 e.ledger.n_evictions, dict(e.ledger.cost_by_level))
                for e in svc.engines
            ])
        assert ledgers[0] == ledgers[1]

    def test_threaded_matches_inline(self):
        # Worker threads must not perturb per-shard order or cost.
        seq = zipf_stream(64, 3000, alpha=0.9, rng=3)

        def ledger_state(svc):
            return [(e.ledger.eviction_cost, e.ledger.n_hits,
                     e.ledger.n_misses) for e in svc.engines]

        inline = PagingService(make_config(n_shards=4))
        for lo in range(0, len(seq), 128):
            inline.submit_batch(seq.pages[lo:lo + 128], seq.levels[lo:lo + 128])

        with PagingService(make_config(n_shards=4)) as threaded:
            for lo in range(0, len(seq), 128):
                result = threaded.submit_batch(
                    seq.pages[lo:lo + 128], seq.levels[lo:lo + 128]
                )
                while not result.accepted:  # pragma: no cover - tiny queues
                    threaded.drain(0.01)
                    result = threaded.submit_batch(
                        seq.pages[lo:lo + 128], seq.levels[lo:lo + 128]
                    )
            threaded.drain()
            assert ledger_state(threaded) == ledger_state(inline)

    def test_different_seeds_may_differ_but_same_seed_never(self):
        # The seed feeds every shard policy RNG via SeedSequence spawning.
        seq = zipf_stream(64, 500, rng=1)

        def run(seed):
            svc = PagingService(make_config(n_shards=2, seed=seed))
            svc.submit_batch(seq.pages, seq.levels)
            return [e.ledger.eviction_cost for e in svc.engines]

        assert run(5) == run(5)
