"""Load-generator round-trip tests (small, CI-friendly rates)."""

import pytest

from repro.algorithms import WaterFillingPolicy
from repro.core.instance import WeightedPagingInstance
from repro.service import PagingService, ServiceConfig, run_load
from repro.workloads import sample_weights, zipf_stream


def make_service(n_shards=4, **kwargs):
    inst = WeightedPagingInstance(16, sample_weights(128, rng=0, high=16.0))
    config = ServiceConfig(instance=inst, policy_factory=WaterFillingPolicy,
                           n_shards=n_shards, batch_size=128, **kwargs)
    return PagingService(config)


class TestRunLoad:
    def test_round_trip_serves_everything(self):
        seq = zipf_stream(128, 4000, alpha=0.9, rng=5)
        with make_service() as svc:
            report = run_load(svc, seq, rate=50_000.0)
            snap = svc.snapshot()
        assert report.n_served == 4000
        assert report.n_dropped_batches == 0
        assert report.drop_fraction == 0.0
        assert report.achieved_rate > 0
        assert report.p50_ms <= report.p95_ms <= report.p99_ms
        # Every shard participated and the counters are live.
        assert snap.n_requests == 4000
        assert all(s.n_requests > 0 for s in snap.shards)
        assert all(s.n_misses > 0 for s in snap.shards)
        assert snap.eviction_cost > 0

    def test_report_renders(self):
        seq = zipf_stream(128, 500, rng=6)
        with make_service(n_shards=2) as svc:
            report = run_load(svc, seq, rate=100_000.0)
        text = report.render()
        assert "target req/s" in text
        assert "p99 ms" in text

    def test_rate_pacing_slows_the_generator(self):
        # 1000 requests at 10k req/s must take at least ~0.1s.
        seq = zipf_stream(128, 1000, rng=7)
        with make_service(n_shards=2) as svc:
            report = run_load(svc, seq, rate=10_000.0, batch_size=100)
        assert report.duration_s >= 0.08
        assert report.achieved_rate <= 15_000.0

    def test_bad_rate_rejected(self):
        seq = zipf_stream(128, 10, rng=8)
        svc = make_service(n_shards=1)
        with pytest.raises(ValueError):
            run_load(svc, seq, rate=0.0)
        with pytest.raises(ValueError):
            run_load(svc, seq, rate=1000.0, max_retries=-1)
        with pytest.raises(ValueError, match="batch_size"):
            run_load(svc, seq, rate=1000.0, batch_size=0)

    def test_inline_service_also_works(self):
        # run_load does not require threaded mode.
        seq = zipf_stream(128, 600, rng=9)
        svc = make_service(n_shards=2)
        report = run_load(svc, seq, rate=1e9)
        assert report.n_served == 600
        assert svc.total_cost() > 0
