"""The columnar kernels must be *exactly* their scalar twins, request by request.

``landlord-kernel`` / ``waterfilling-kernel`` rearrange the policy state
into per-slot columns and serve whole batches, but every float they produce
comes from the same additions in the same order as the scalar
implementations (``weight + offset`` death keys, exact ``(death, seq)``
minimum).  So the comparison here is ``==`` across three implementations
per family — kernel, lazy-heap scalar, O(k)-scan reference — on costs,
eviction event streams (page, level, cost, reason), final cache contents
and hit counts.  Checkpoint pickling is exercised mid-stream: a restored
kernel must continue byte-identically.
"""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import (
    HeapWaterFillingPolicy,
    KernelLandlordPolicy,
    KernelWaterFillingPolicy,
    LandlordPolicy,
    LandlordRefPolicy,
    WaterFillingPolicy,
    policy_registry,
)
from repro.core.cache import MultiLevelCache
from repro.core.instance import WeightedPagingInstance
from repro.core.ledger import CostLedger
from repro.errors import CacheInvariantError
from repro.obs import MetricsRegistry
from repro.service import ServiceLedger, ShardEngine
from repro.sim import simulate
from repro.workloads import (
    multilevel_stream,
    random_multilevel_instance,
    sample_weights,
    zipf_stream,
)

FAMILIES = [
    (KernelLandlordPolicy, LandlordPolicy, LandlordRefPolicy),
    (KernelWaterFillingPolicy, HeapWaterFillingPolicy, WaterFillingPolicy),
]


def _events(result):
    return [(e.page, e.level, e.cost, e.reason) for e in result.events]


def _random_case(rng, *, max_pages=40, max_len=400):
    n = int(rng.integers(3, max_pages))
    k = int(rng.integers(1, n))
    levels = int(rng.integers(1, 5))
    inst = random_multilevel_instance(n, k, levels, rng=rng)
    seq = multilevel_stream(n, levels, int(rng.integers(50, max_len)),
                            alpha=float(rng.uniform(0.3, 1.2)), rng=rng)
    return inst, seq


def assert_heap_invariant(kernel):
    """Exactly one heap entry per cached slot, none above its slot's key.

    Keys only grow, so a stale entry may understate its slot's live
    ``(death, seq)`` but never overstate it — which is what makes the
    refreshed heap top the exact minimum.
    """
    heap = kernel._heap
    cached = sorted(kernel._page_slot[p] for p in kernel.cache._contents)
    assert sorted(slot for _, _, slot in heap) == cached
    for key, seq, slot in heap:
        assert (key, seq) <= (kernel._death[slot], kernel._seqc[slot])
    assert all(heap[(i - 1) // 2] <= heap[i] for i in range(1, len(heap)))


def assert_triple_equivalent(inst, seq, factories):
    """Kernel vs heap vs scan under the verifying simulator: all ``==``."""
    results = [simulate(inst, seq, factory(), record_events=True)
               for factory in factories]
    kernel = results[0]
    for other in results[1:]:
        assert other.cost == kernel.cost
        assert _events(other) == _events(kernel)
        assert other.final_cache == kernel.final_cache
        assert other.n_hits == kernel.n_hits
        assert other.n_evictions == kernel.n_evictions


class TestKernelEquivalence:
    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=30, deadline=None)
    def test_property_equivalence(self, seed):
        rng = np.random.default_rng(seed)
        inst, seq = _random_case(rng)
        for factories in FAMILIES:
            assert_triple_equivalent(inst, seq, factories)

    def test_weighted_zipf(self):
        inst = WeightedPagingInstance(8, sample_weights(40, rng=2, high=64.0))
        seq = zipf_stream(40, 2000, alpha=0.8, rng=3)
        for factories in FAMILIES:
            assert_triple_equivalent(inst, seq, factories)

    def test_tied_death_keys_break_identically(self):
        # Uniform weights make every live death key equal: only the exact
        # (death, seq) tie-break keeps the kernel's heap on the scan's
        # victim.  This is the case a float-tolerant kernel would fail.
        inst = WeightedPagingInstance.uniform(10, 4)
        seq = zipf_stream(10, 1500, alpha=0.5, rng=9)
        for factories in FAMILIES:
            assert_triple_equivalent(inst, seq, factories)

    def test_registered(self):
        assert policy_registry["landlord-kernel"] is KernelLandlordPolicy
        assert policy_registry["waterfilling-kernel"] is KernelWaterFillingPolicy


class TestServeBatchChunks:
    """serve_batch over arbitrary chunkings == the scalar oracle's serve loop."""

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=20, deadline=None)
    def test_random_chunk_sizes(self, seed):
        rng = np.random.default_rng(seed)
        inst, seq = _random_case(rng, max_pages=60, max_len=600)
        for kernel_cls, _, oracle_cls in FAMILIES:
            ledger = CostLedger(record_events=True)
            kernel = kernel_cls()
            kernel.bind(inst, MultiLevelCache(inst, ledger),
                        np.random.default_rng(0))
            hits, t = 0, 0
            while t < len(seq):
                chunk = int(rng.integers(1, 65))
                hits += kernel.serve_batch(
                    t, seq.pages[t:t + chunk], seq.levels[t:t + chunk])
                t += chunk
            oracle = simulate(inst, seq, oracle_cls(), record_events=True,
                              validate=False)
            assert ledger.eviction_cost == oracle.cost
            assert [(e.page, e.level, e.cost, e.reason)
                    for e in ledger.events] == _events(oracle)
            assert dict(kernel.cache.items()) == oracle.final_cache
            assert hits == oracle.n_hits

    def test_empty_and_single_request_batches(self):
        inst = WeightedPagingInstance(4, sample_weights(12, rng=0))
        seq = zipf_stream(12, 64, alpha=0.9, rng=1)
        for kernel_cls, _, oracle_cls in FAMILIES:
            kernel = kernel_cls()
            kernel.bind(inst, MultiLevelCache(inst, CostLedger()),
                        np.random.default_rng(0))
            hits = 0
            assert kernel.serve_batch(0, seq.pages[:0], seq.levels[:0]) == 0
            for t in range(len(seq)):
                hits += kernel.serve_batch(
                    t, seq.pages[t:t + 1], seq.levels[t:t + 1])
            oracle = simulate(inst, seq, oracle_cls(), validate=False)
            assert kernel.cache.ledger.eviction_cost == oracle.cost
            assert hits == oracle.n_hits


def _eviction_metrics(registry):
    collected = registry.collect()
    return {name: collected[name] for name in
            ("repro_evictions_total", "repro_eviction_cost_total")}


def _ledger_fields(ledger, registry):
    return {
        "eviction_cost": ledger.eviction_cost,
        "n_evictions": ledger.n_evictions,
        "n_fetches": ledger.n_fetches,
        "cost_by_reason": ledger.cost_by_reason,
        "cost_by_level": ledger.cost_by_level,
        "evictions_by_level": ledger.evictions_by_level,
        "registry": _eviction_metrics(registry),
    }


class TestProductionLedgerPath:
    """The serving path: batches settle into a non-recording
    ``ServiceLedger`` under a live registry, never via per-event charges."""

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=15, deadline=None)
    def test_random_chunks_match_scan_oracle(self, seed):
        rng = np.random.default_rng(seed)
        inst, seq = _random_case(rng, max_pages=60, max_len=600)
        pages, levels = seq.pages.tolist(), seq.levels.tolist()
        for kernel_cls, _, oracle_cls in FAMILIES:
            k_reg, o_reg = MetricsRegistry(), MetricsRegistry()
            kernel = kernel_cls()
            kernel.bind(inst, MultiLevelCache(
                inst, ServiceLedger(registry=k_reg, shard=0)),
                np.random.default_rng(0))
            k_hits, t = 0, 0
            while t < len(seq):
                chunk = int(rng.integers(1, 65))
                k_hits += kernel.serve_batch(
                    t, seq.pages[t:t + chunk], seq.levels[t:t + chunk])
                assert_heap_invariant(kernel)
                t += chunk

            oracle = oracle_cls()
            cache = MultiLevelCache(inst, ServiceLedger(registry=o_reg,
                                                        shard=0))
            oracle.bind(inst, cache, np.random.default_rng(0))
            o_hits = 0
            for t, (page, level) in enumerate(zip(pages, levels)):
                o_hits += cache.serves(page, level)
                oracle.serve(t, page, level)

            assert _ledger_fields(kernel.cache.ledger, k_reg) == \
                _ledger_fields(cache.ledger, o_reg)
            assert k_hits == o_hits
            assert dict(kernel.cache.items()) == dict(cache.items())


class TestHeapInvariant:
    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=10, deadline=None)
    def test_holds_across_pickle_and_engine_restore(self, seed):
        rng = np.random.default_rng(seed)
        inst, seq = _random_case(rng, max_pages=50, max_len=600)
        for kernel_cls, _, oracle_cls in FAMILIES:
            engine = ShardEngine(0, inst, kernel_cls(),
                                 np.random.default_rng(0))
            t = 0
            while t < len(seq):
                chunk = int(rng.integers(1, 97))
                engine.process_batch(seq.pages[t:t + chunk],
                                     seq.levels[t:t + chunk])
                t += chunk
                assert_heap_invariant(engine.policy)
                assert_heap_invariant(pickle.loads(pickle.dumps(
                    engine.policy)))
                # Continue on a restored twin: its heap must carry on
                # making the same decisions.
                payload, mark, _ = engine.capture_state()
                engine = ShardEngine(0, inst, kernel_cls(),
                                     np.random.default_rng(0))
                engine.restore_from(payload, mark)
                assert_heap_invariant(engine.policy)
            oracle = simulate(inst, seq, oracle_cls(), validate=False)
            assert engine.ledger.eviction_cost == oracle.cost
            assert dict(engine.cache.items()) == oracle.final_cache

    @pytest.mark.parametrize("kernel_cls", [KernelLandlordPolicy,
                                            KernelWaterFillingPolicy])
    @pytest.mark.parametrize("path", ["serve_batch", "serve"])
    def test_emptied_heap_on_full_cache_names_the_policy(self, kernel_cls,
                                                         path):
        inst = WeightedPagingInstance(3, sample_weights(8, rng=0))
        kernel = kernel_cls()
        kernel.bind(inst, MultiLevelCache(inst, CostLedger()),
                    np.random.default_rng(0))
        kernel.serve_batch(0, np.array([0, 1, 2]), np.array([1, 1, 1]))
        kernel._heap.clear()  # corrupt state, e.g. a bad restore
        with pytest.raises(CacheInvariantError, match=kernel_cls.name):
            if path == "serve":
                kernel.serve(3, 5, 1)
            else:
                kernel.serve_batch(3, np.array([5]), np.array([1]))


class TestKernelCheckpointEquivalence:
    """Pickle round-trips mid-stream must not perturb a single decision."""

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=10, deadline=None)
    def test_midstream_pickle_roundtrip(self, seed):
        rng = np.random.default_rng(seed)
        inst, seq = _random_case(rng, max_pages=50, max_len=600)
        cut = len(seq) // 2
        for kernel_cls, _, _ in FAMILIES:
            ledger = CostLedger(record_events=True)
            original = kernel_cls()
            original.bind(inst, MultiLevelCache(inst, ledger),
                          np.random.default_rng(0))
            original.serve_batch(0, seq.pages[:cut], seq.levels[:cut])
            restored = pickle.loads(pickle.dumps(original))
            # The restoring engine re-points the shared instance and asks
            # the policy to re-derive its weight views.
            restored.instance = inst
            restored.cache.instance = inst
            restored.rebind_instance()
            for policy in (original, restored):
                policy.serve_batch(cut, seq.pages[cut:], seq.levels[cut:])
            l1, l2 = original.cache.ledger, restored.cache.ledger
            assert l2.eviction_cost == l1.eviction_cost
            assert [(e.page, e.level, e.cost, e.reason)
                    for e in l2.events] == [
                        (e.page, e.level, e.cost, e.reason)
                        for e in l1.events]
            assert dict(restored.cache.items()) == dict(
                original.cache.items())

    def test_restored_kernel_matches_scan_oracle(self):
        inst = WeightedPagingInstance(6, sample_weights(24, rng=4, high=32.0))
        seq = zipf_stream(24, 600, rng=7)
        cut = 300
        for kernel_cls, _, oracle_cls in FAMILIES:
            kernel = kernel_cls()
            kernel.bind(inst, MultiLevelCache(inst, CostLedger()),
                        np.random.default_rng(0))
            kernel.serve_batch(0, seq.pages[:cut], seq.levels[:cut])
            kernel = pickle.loads(pickle.dumps(kernel))
            kernel.instance = inst
            kernel.cache.instance = inst
            kernel.rebind_instance()
            kernel.serve_batch(cut, seq.pages[cut:], seq.levels[cut:])
            oracle = simulate(inst, seq, oracle_cls(), validate=False)
            assert kernel.cache.ledger.eviction_cost == oracle.cost
            assert dict(kernel.cache.items()) == oracle.final_cache
