"""The water-filling lazy-deletion heap must stay bounded — and compaction
must be invisible.

Before the compaction fix, every water-filling upgrade pushed a fresh
heap entry whose stale predecessor was never removed: on hit-heavy
streams the heap grew O(total requests) — a memory leak in a long-lived
serving shard.  Compacting whenever ``len(heap) > 2 * len(live)`` bounds
the heap at ``2k + 1`` entries with O(1) amortized work per push.  (The
columnar kernels keep exactly one heap entry per cached slot and need no
compaction; ``tests/algorithms/test_kernel_equivalence.py`` pins that.)

Two properties are pinned here:

* **bounded** — a 100k-request hit-heavy trace never observes the heap
  above ``2k + 1`` entries (the pre-fix heap ends ~hit-count entries
  deep);
* **invisible** — the compacted policy remains request-by-request
  ``==``-equal to its O(k)-scan reference on the same trace: dropping
  stale entries must never change a victim, a cost, or a tie-break.

A second group pins the heap-exhaustion failure mode: a full cache whose
policy heap has no live entries (a corrupt restore) used to escape as a
bare ``IndexError`` from ``heapq``; it must surface as a
:class:`~repro.errors.CacheInvariantError` naming the policy and the
cache occupancy.
"""

import numpy as np
import pytest

from repro.algorithms import HeapWaterFillingPolicy, WaterFillingPolicy
from repro.core.cache import MultiLevelCache
from repro.core.instance import MultiLevelInstance, WeightedPagingInstance
from repro.core.ledger import CostLedger
from repro.errors import CacheInvariantError
from repro.workloads import sample_weights, zipf_stream

N_PAGES, K, STREAM_LEN = 256, 64, 100_000

PAIRS = [(HeapWaterFillingPolicy, WaterFillingPolicy)]


def _hit_heavy_case():
    """~90% hits: a Zipf(1.2) stream whose hot set sits well inside k.

    Multi-level weights make some hot re-requests land at a *smaller*
    level than the cached copy, so the water-filling heap sees a steady
    upgrade stream (its leak source).
    """
    rng = np.random.default_rng(0)
    levels = 3
    base = sample_weights(N_PAGES, rng=1, high=16.0)
    weights = np.outer(base, [4.0, 2.0, 1.0])  # level 1 costs most
    inst = MultiLevelInstance(K, weights)
    pages = zipf_stream(N_PAGES, STREAM_LEN, alpha=1.2, rng=2).pages
    lv = rng.integers(1, levels + 1, size=STREAM_LEN).astype(np.int64)
    return inst, pages, lv


def _run_tracking_heap(policy_cls, inst, pages, levels):
    """Serve the trace, recording the heap high-water mark and the ledger."""
    ledger = CostLedger(record_events=True)
    policy = policy_cls()
    policy.bind(inst, MultiLevelCache(inst, ledger), np.random.default_rng(0))
    max_heap = 0
    serve = policy.serve
    heap = policy._heap
    for t in range(len(pages)):
        serve(t, int(pages[t]), int(levels[t]))
        if len(heap) > max_heap:
            heap = policy._heap  # _compact() rebinds the list
            max_heap = max(max_heap, len(heap))
    return policy, ledger, max_heap


class TestHeapBounded:
    @pytest.mark.parametrize("heap_cls,ref_cls", PAIRS)
    def test_bounded_and_behavior_unchanged(self, heap_cls, ref_cls):
        inst, pages, levels = _hit_heavy_case()
        policy, ledger, max_heap = _run_tracking_heap(
            heap_cls, inst, pages, levels)
        # The stream really is hit-heavy (the leak's worst case) ...
        hit_like = len(pages) - ledger.n_fetches
        assert hit_like > 0.5 * len(pages)
        # ... and pre-fix the heap would have held one entry per upgrade;
        # now it never exceeds the compaction bound.
        assert max_heap <= 2 * K + 1, (
            f"{heap_cls.name} heap reached {max_heap} entries "
            f"(bound {2 * K + 1})"
        )
        # Compaction must be unobservable: exact equality with the scan
        # reference on cost, the full eviction stream, and the cache.
        ref_ledger = CostLedger(record_events=True)
        ref = ref_cls()
        ref.bind(inst, MultiLevelCache(inst, ref_ledger),
                 np.random.default_rng(0))
        for t in range(len(pages)):
            ref.serve(t, int(pages[t]), int(levels[t]))
        assert ledger.eviction_cost == ref_ledger.eviction_cost
        assert [(e.page, e.level, e.cost, e.reason)
                for e in ledger.events] == [
                    (e.page, e.level, e.cost, e.reason)
                    for e in ref_ledger.events]
        assert dict(policy.cache.items()) == dict(ref.cache.items())

    @pytest.mark.parametrize("heap_cls", [HeapWaterFillingPolicy])
    def test_compact_drops_only_stale_entries(self, heap_cls):
        inst = WeightedPagingInstance(4, sample_weights(16, rng=0))
        policy = heap_cls()
        policy.bind(inst, MultiLevelCache(inst, CostLedger()),
                    np.random.default_rng(0))
        for t, page in enumerate([0, 1, 2, 3] * 8):
            policy.serve(t, page, 1)
        policy._compact()
        assert sorted(e[2] for e in policy._heap) == sorted(policy._live)
        assert all(policy._live[page] == seq
                   for _, seq, page in policy._heap)


class TestHeapExhaustion:
    @pytest.mark.parametrize("heap_cls", [HeapWaterFillingPolicy])
    def test_exhausted_heap_raises_invariant_error(self, heap_cls):
        inst = WeightedPagingInstance(2, sample_weights(8, rng=0))
        policy = heap_cls()
        cache = MultiLevelCache(inst, CostLedger())
        policy.bind(inst, cache, np.random.default_rng(0))
        # Fill the cache behind the policy's back: its heap knows nothing
        # about these copies, so the next eviction round finds no live
        # entry while the cache is full — exactly a corrupt-restore state.
        cache.fetch(0, 1)
        cache.fetch(1, 1)
        with pytest.raises(CacheInvariantError) as exc:
            policy.serve(0, 5, 1)
        message = str(exc.value)
        assert policy.name in message
        assert "2/2" in message  # occupancy / capacity
