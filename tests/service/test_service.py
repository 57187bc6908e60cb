"""Service engine parity with the simulator, metrics snapshots, batching."""

import numpy as np
import pytest

from repro.algorithms import LRUPolicy, WaterFillingPolicy
from repro.core.instance import WeightedPagingInstance
from repro.errors import CacheInvariantError, ServiceStateError
from repro.service import PagingService, ServiceConfig
from repro.service.metrics import LatencyHistogram, ServiceLedger
from repro.sim import simulate
from repro.workloads import geometric_instance, multilevel_stream, sample_weights, zipf_stream


def make_service(n_shards=1, policy=WaterFillingPolicy, k=8, n=32, **kwargs):
    inst = WeightedPagingInstance(k, sample_weights(n, rng=0, high=16.0))
    config = ServiceConfig(instance=inst, policy_factory=policy,
                           n_shards=n_shards, **kwargs)
    return PagingService(config)


class TestEngineSimulatorParity:
    """A 1-shard service is exactly the verifying simulator, streamed."""

    @pytest.mark.parametrize("policy", [LRUPolicy, WaterFillingPolicy])
    @pytest.mark.parametrize("batch", [1, 7, 256])
    def test_cost_matches_simulate(self, policy, batch):
        inst = WeightedPagingInstance(8, sample_weights(32, rng=0, high=16.0))
        seq = zipf_stream(32, 1500, alpha=0.9, rng=2)
        ref = simulate(inst, seq, policy(), seed=0)

        svc = make_service(policy=policy, validate=True)
        for lo in range(0, len(seq), batch):
            svc.submit_batch(seq.pages[lo:lo + batch], seq.levels[lo:lo + batch])
        ledger = svc.engines[0].ledger
        assert ledger.eviction_cost == pytest.approx(ref.cost)
        assert ledger.n_hits == ref.n_hits
        assert ledger.n_misses == ref.n_misses
        assert ledger.n_evictions == ref.n_evictions

    def test_multilevel_service(self):
        inst = geometric_instance(24, 6, 3)
        seq = multilevel_stream(24, 3, 800, rng=4)
        config = ServiceConfig(instance=inst, policy_factory=WaterFillingPolicy,
                               n_shards=2, validate=True)
        svc = PagingService(config)
        svc.submit_batch(seq.pages, seq.levels)
        snap = svc.snapshot()
        assert snap.n_requests == 800
        assert set(snap.cost_by_level()) <= {1, 2, 3}
        assert snap.eviction_cost > 0

    def test_validation_catches_cheating_policy(self):
        class NoOpPolicy(LRUPolicy):
            def serve(self, t, page, level):
                pass  # never fetches anything

        svc = make_service(policy=NoOpPolicy, validate=True)
        with pytest.raises(CacheInvariantError, match="unserved"):
            svc.submit_batch(np.array([0, 1]), np.array([1, 1]))

    def test_out_of_range_pages_rejected_at_ingest(self):
        svc = make_service()
        with pytest.raises(Exception):
            svc.submit_batch(np.array([10_000]), np.array([1]))


class TestServiceLifecycle:
    def test_submit_after_stop_raises(self):
        svc = make_service()
        svc.stop()
        with pytest.raises(ServiceStateError):
            svc.submit_batch(np.array([0]), np.array([1]))

    def test_double_start_raises(self):
        svc = make_service()
        svc.start()
        try:
            with pytest.raises(ServiceStateError):
                svc.start()
        finally:
            svc.stop()

    def test_stop_is_idempotent(self):
        svc = make_service()
        svc.stop()
        svc.stop()

    def test_worker_error_surfaces_on_drain(self):
        class ExplodingPolicy(LRUPolicy):
            def serve(self, t, page, level):
                raise RuntimeError("boom")

        with pytest.raises(ServiceStateError, match="boom"):
            with make_service(policy=ExplodingPolicy) as svc:
                ticket = svc.submit_batch(np.array([0]), np.array([1]))
                ticket.wait(5.0)
                svc.drain(5.0)

    def test_empty_batch_is_accepted_and_complete(self):
        svc = make_service()
        ticket = svc.submit_batch(np.array([], dtype=np.int64),
                                  np.array([], dtype=np.int64))
        assert ticket.accepted and ticket.done and ticket.n_requests == 0


class TestMetricsSnapshot:
    def test_golden_snapshot(self):
        """Fixed trace + LRU => bit-deterministic counters and rendering."""
        inst = WeightedPagingInstance(2, np.array([1.0, 2.0, 4.0, 8.0]))
        config = ServiceConfig(instance=inst, policy_factory=LRUPolicy,
                               n_shards=1, validate=True)
        svc = PagingService(config)
        # k=2: [0,1] fill, 2 evicts 0, 0 evicts 1, 1 evicts 2, 1 hits.
        svc.submit_batch(np.array([0, 1, 2, 0, 1, 1]), np.ones(6, dtype=np.int64))
        snap = svc.snapshot()
        shard = snap.shards[0]
        assert (shard.n_requests, shard.n_hits, shard.n_misses) == (6, 1, 5)
        assert shard.n_evictions == 3
        assert shard.eviction_cost == pytest.approx(1.0 + 2.0 + 4.0)
        assert shard.evictions_by_level == {1: 3}
        expected = (
            "== service snapshot ==\n"
            "shard  k  requests  hits  misses  evictions  evict cost  hit rate\n"
            "-----------------------------------------------------------------\n"
            "0      2  6         1     5       3          7.000       0.167   \n"
            "total  2  6         1     5       3          7.000       0.167   \n"
            "overloaded batches: 0\n"
        )
        assert snap.render(include_latency=False) == expected

    def test_snapshot_aggregates_across_shards(self):
        svc = make_service(n_shards=4, k=8, n=64)
        seq = zipf_stream(64, 2000, rng=9)
        svc.submit_batch(seq.pages, seq.levels)
        snap = svc.snapshot()
        assert snap.n_requests == 2000
        assert snap.n_hits == sum(s.n_hits for s in snap.shards)
        assert snap.eviction_cost == pytest.approx(
            sum(s.eviction_cost for s in snap.shards)
        )
        assert all(s.n_requests > 0 for s in snap.shards)
        assert 0.0 < snap.hit_rate < 1.0

    def test_latency_histogram_percentiles(self):
        hist = LatencyHistogram(window=100)
        for v in range(1, 101):
            hist.observe(v / 1000.0)
        p50, p95, p99 = hist.percentiles_ms()
        assert 45.0 <= p50 <= 55.0
        assert 90.0 <= p95 <= 100.0
        assert p95 <= p99 <= 100.0

    def test_latency_histogram_window_rotates(self):
        hist = LatencyHistogram(window=4)
        for v in [1.0, 1.0, 1.0, 1.0, 5.0, 5.0, 5.0, 5.0]:
            hist.observe(v)
        assert hist.percentile(50) == pytest.approx(5.0)

    def test_service_ledger_levels(self):
        ledger = ServiceLedger()
        ledger.charge_eviction(0, 1, 4.0)
        ledger.charge_eviction(1, 2, 1.5)
        ledger.charge_eviction(2, 1, 2.0)
        assert ledger.cost_by_level == {1: 6.0, 2: 1.5}
        assert ledger.evictions_by_level == {1: 2, 2: 1}
        assert ledger.eviction_cost == pytest.approx(7.5)
