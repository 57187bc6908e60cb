"""Observability wiring in the service: shard totals, latency windows,
trace determinism across execution modes, exposition metrics, spans."""

import urllib.request

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import WaterFillingPolicy
from repro.core.instance import WeightedPagingInstance
from repro.obs import MetricsRegistry, MetricsServer, validate_trace
from repro.obs.federation import histogram_quantile, parse_exposition
from repro.service import (
    LatencyHistogram,
    PagingService,
    ServiceConfig,
    ShardMeter,
    ShardTotals,
)
from repro.workloads import sample_weights, zipf_stream


def make_config(n_shards=2, k=8, n=32, **kwargs):
    inst = WeightedPagingInstance(k, sample_weights(n, rng=0, high=16.0))
    return ServiceConfig(instance=inst, policy_factory=WaterFillingPolicy,
                         n_shards=n_shards, **kwargs)


def make_workload(n=32, length=3000):
    return zipf_stream(n, length, alpha=0.9, rng=2)


class TestServiceLedgerMerge:
    """Shard ledgers fold to the service snapshot's totals."""

    def test_shard_ledgers_merge_to_service_totals(self):
        seq = make_workload()
        svc = PagingService(make_config(n_shards=4))
        for lo in range(0, len(seq), 256):
            svc.submit_batch(seq.pages[lo:lo + 256], seq.levels[lo:lo + 256])
        ledgers = [engine.ledger for engine in svc.engines]
        cost_by_level = {}
        for ledger in ledgers:
            for level, cost in ledger.cost_by_level.items():
                cost_by_level[level] = cost_by_level.get(level, 0.0) + cost
        snap = svc.snapshot()
        assert sum(ledger.eviction_cost for ledger in ledgers) == \
            pytest.approx(snap.eviction_cost)
        assert cost_by_level == pytest.approx(snap.cost_by_level())
        for ledger in ledgers:
            assert sum(ledger.evictions_by_level.values()) == \
                ledger.n_evictions


class TestLatencyHistogramWindow:
    @given(
        xs=st.lists(st.floats(min_value=0.0, max_value=10.0,
                              allow_nan=False), max_size=60),
        window=st.integers(min_value=1, max_value=12),
    )
    @settings(max_examples=80, deadline=None)
    def test_ring_keeps_exactly_the_last_window_samples(self, xs, window):
        hist = LatencyHistogram(window)
        for x in xs:
            hist.observe(x)
        expected = xs[-window:] if xs else []
        assert sorted(hist._samples) == sorted(expected)

    def test_percentile_single_and_batch_agree(self):
        hist = LatencyHistogram(64)
        for x in (0.1, 0.2, 0.3, 0.4, 0.5):
            hist.observe(x)
        p50, p95, p99 = hist.percentiles((50.0, 95.0, 99.0))
        assert hist.percentile(50.0) == pytest.approx(p50)
        assert hist.percentile(95.0) == pytest.approx(p95)
        assert hist.percentiles_ms() == pytest.approx(
            (1e3 * p50, 1e3 * p95, 1e3 * hist.percentile(99.0))
        )
        assert p99 >= p95 >= p50

    def test_empty_histogram(self):
        hist = LatencyHistogram(4)
        assert hist.percentile(50.0) == 0.0
        assert hist.percentiles_ms() == (0.0, 0.0, 0.0)

    def test_window_validation(self):
        with pytest.raises(ValueError):
            LatencyHistogram(0)

    def test_metric_child_receives_observations(self):
        """A meter feeds each batch time to the registry histogram, the
        window and the ``evict`` span alike."""
        reg = MetricsRegistry()
        meter = ShardMeter(0, reg)
        totals = ShardTotals(0, 0, 0, 0, 0, 0.0, {}, {})
        meter.batch(totals, 0.5)
        meter.batch(totals, 2.0)
        child = reg.histogram("repro_batch_latency_seconds", "",
                              ("shard",)).labels("0")
        assert child.count == 2
        assert child.sum == pytest.approx(2.5)
        assert sorted(meter.latency._samples) == [0.5, 2.0]
        evict = meter.profiler.stats()["evict"]
        assert (evict.n, evict.total_s) == (2, pytest.approx(2.5))

    def test_batch_latency_buckets_resolve_sub_millisecond_batches(self):
        """A 50 us batch reads as such on the page, not as q x 0.5 ms
        inside the first default bucket."""
        reg = MetricsRegistry()
        meter = ShardMeter(0, reg)
        totals = ShardTotals(0, 0, 0, 0, 0, 0.0, {}, {})
        for _ in range(1000):
            meter.batch(totals, 50e-6)
        families = parse_exposition(reg.render())
        p50 = histogram_quantile(families, "repro_batch_latency_seconds",
                                 0.5, shard="0")
        assert 0.0 < p50 < 0.1


class TestTraceDeterminismAcrossModes:
    """Satellite: same seed + workload => byte-identical per-shard JSONL
    whether the service runs inline or threaded."""

    @pytest.mark.parametrize("sample", [1.0, 0.35])
    def test_inline_and_threaded_traces_identical(self, tmp_path, sample):
        seq = make_workload(length=4000)
        blobs = {}
        for mode in ("inline", "threaded"):
            svc = PagingService(make_config(n_shards=3, seed=7))
            paths = svc.enable_tracing(tmp_path / mode, sample=sample, seed=7)
            if mode == "threaded":
                svc.start()
            for lo in range(0, len(seq), 128):
                result = svc.submit_batch(seq.pages[lo:lo + 128],
                                          seq.levels[lo:lo + 128])
                while not result.accepted:
                    svc.drain(0.01)
                    result = svc.submit_batch(seq.pages[lo:lo + 128],
                                              seq.levels[lo:lo + 128])
            svc.stop()
            blobs[mode] = [p.read_bytes() for p in paths]
            for p in paths:
                assert validate_trace(p).ok
        assert blobs["inline"] == blobs["threaded"]

    def test_enable_tracing_guards(self, tmp_path):
        from repro.errors import ServiceStateError

        seq = make_workload(length=64)
        svc = PagingService(make_config())
        svc.submit_batch(seq.pages[:64], seq.levels[:64])
        with pytest.raises(ServiceStateError):
            svc.enable_tracing(tmp_path)  # traffic already seen
        svc.stop()

        svc2 = PagingService(make_config())
        svc2.enable_tracing(tmp_path / "a")
        with pytest.raises(ServiceStateError):
            svc2.enable_tracing(tmp_path / "b")  # already enabled
        svc2.stop()

    def test_stop_closes_traces_with_end_record(self, tmp_path):
        seq = make_workload(length=256)
        svc = PagingService(make_config(n_shards=2))
        paths = svc.enable_tracing(tmp_path)
        svc.submit_batch(seq.pages, seq.levels)
        svc.stop()
        for p in paths:
            report = validate_trace(p)
            assert report.ok, report.render()
            assert report.n_by_type.get("end") == 1


class TestExpositionMetrics:
    def test_registry_counters_match_ledgers(self):
        reg = MetricsRegistry()
        seq = make_workload()
        svc = PagingService(make_config(n_shards=2, metrics_registry=reg))
        for lo in range(0, len(seq), 256):
            svc.submit_batch(seq.pages[lo:lo + 256], seq.levels[lo:lo + 256])
        snap = svc.snapshot()
        requests = reg.counter("repro_requests_total", "", ("shard",))
        evictions = reg.counter("repro_evictions_total", "",
                                ("shard", "level"))
        cost = reg.counter("repro_eviction_cost_total", "",
                           ("shard", "level"))
        for shard_snap in snap.shards:
            label = str(shard_snap.shard)
            assert requests.labels(label).value == shard_snap.n_requests
            for level, n in shard_snap.evictions_by_level.items():
                assert evictions.labels(label, str(level)).value == n
                assert cost.labels(label, str(level)).value == pytest.approx(
                    shard_snap.cost_by_level[level]
                )

    def test_http_scrape(self):
        reg = MetricsRegistry()
        seq = make_workload(length=1000)
        svc = PagingService(make_config(n_shards=2, metrics_registry=reg))
        svc.submit_batch(seq.pages, seq.levels)
        with MetricsServer(reg, port=0) as server:
            with urllib.request.urlopen(server.url, timeout=5) as resp:
                assert resp.status == 200
                assert "version=0.0.4" in resp.headers["Content-Type"]
                body = resp.read().decode("utf-8")
            health = server.url.replace("/metrics", "/healthz")
            with urllib.request.urlopen(health, timeout=5) as resp:
                assert resp.read() == b"ok\n"
            missing = server.url.replace("/metrics", "/nope")
            with pytest.raises(urllib.error.HTTPError):
                urllib.request.urlopen(missing, timeout=5)
        assert "# TYPE repro_requests_total counter" in body
        assert 'repro_requests_total{shard="0"}' in body
        assert "repro_batch_latency_seconds_bucket" in body

    def test_null_registry_service_has_no_exposition(self):
        seq = make_workload(length=500)
        svc = PagingService(make_config())
        svc.submit_batch(seq.pages, seq.levels)
        assert svc.registry.render() == ""


class TestSnapshotSpans:
    def test_snapshot_carries_phase_spans(self):
        seq = make_workload()
        svc = PagingService(make_config(n_shards=2))
        for lo in range(0, len(seq), 256):
            svc.submit_batch(seq.pages[lo:lo + 256], seq.levels[lo:lo + 256])
        snap = svc.snapshot()
        merged = snap.merged_spans()
        assert {"ingest", "route", "evict", "snapshot"} <= set(merged)
        n_batches = (len(seq) + 255) // 256
        assert merged["ingest"].n == n_batches
        assert merged["route"].n == n_batches
        # Each shard times its own evict span, once per processed batch.
        assert merged["evict"].n == sum(s.n_batches for s in snap.shards)
        for s in snap.shards:
            assert s.spans["evict"].total_s >= 0.0

    def test_render_includes_and_excludes_spans(self):
        seq = make_workload(length=500)
        svc = PagingService(make_config())
        svc.submit_batch(seq.pages, seq.levels)
        snap = svc.snapshot()
        full = snap.render()
        assert "phase spans" in full
        assert "evict s" in full
        deterministic = snap.render(include_latency=False)
        assert "phase spans" not in deterministic
        assert "p95" not in deterministic
        assert "evict s" not in deterministic
        # Explicit override: latency without spans.
        assert "phase spans" not in snap.render(include_spans=False)

    def test_phase_table_columns(self):
        seq = make_workload(length=500)
        svc = PagingService(make_config())
        svc.submit_batch(seq.pages, seq.levels)
        table = svc.snapshot().phase_table()
        assert table.columns == ["phase", "count", "total s", "mean ms",
                                 "min ms", "max ms", "stddev ms"]
        assert table.rows
