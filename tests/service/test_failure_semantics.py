"""Regression tests for the failure-semantics bugfix sweep:

* ``stop(timeout)`` is one shared deadline, not ``timeout`` per worker join,
* the load generator reports NaN percentiles + ``rejected_all`` instead of
  crashing in ``np.percentile`` when nothing was accepted,
* empty latency histograms answer percentile queries with zeros.
"""

import math
import threading
from time import monotonic
from types import SimpleNamespace

import numpy as np
import pytest

from repro.algorithms import LRUPolicy
from repro.core.instance import WeightedPagingInstance
from repro.service import (
    LatencyHistogram,
    Overloaded,
    PagingService,
    ServiceConfig,
    run_load,
)
from repro.workloads import zipf_stream


class StallingLRUPolicy(LRUPolicy):
    """LRU whose serves block until the test opens the gate."""

    gate = threading.Event()

    def serve(self, t, page, level):
        StallingLRUPolicy.gate.wait(10.0)
        super().serve(t, page, level)


class TestStopDeadline:
    def test_stop_timeout_is_shared_across_all_workers(self):
        """Regression: each join used to get the full timeout, so stopping a
        stuck n-shard service took timeout * (n + 1) instead of timeout."""
        StallingLRUPolicy.gate.clear()
        inst = WeightedPagingInstance.uniform(64, 8)
        config = ServiceConfig(instance=inst, policy_factory=StallingLRUPolicy,
                               n_shards=4, queue_depth=2)
        svc = PagingService(config)
        try:
            svc.start()
            # One batch per shard, all workers now blocked on the gate.
            svc.submit_batch(np.arange(32, dtype=np.int64),
                             np.ones(32, dtype=np.int64))
            started = monotonic()
            svc.stop(0.5)
            elapsed = monotonic() - started
        finally:
            StallingLRUPolicy.gate.set()
        # Old behavior: drain 0.5s + 4 worker joins x 0.5s each >= 2.5s.
        assert elapsed < 1.5, f"stop(0.5) took {elapsed:.2f}s"


class RejectingService:
    """Duck-typed stand-in whose submit always answers Overloaded."""

    def __init__(self, batch_size=32):
        self.config = SimpleNamespace(batch_size=batch_size)
        self.n_submits = 0

    def submit_batch(self, pages, levels=None):
        self.n_submits += 1
        return Overloaded(0, 1)

    def drain(self, timeout=None):
        return True


class TestLoadgenRejectedAll:
    def test_nan_percentiles_when_nothing_accepted(self):
        """Regression: np.percentile([]) raised; now the report flags the
        all-rejected run and carries NaN (not zero!) percentiles."""
        seq = zipf_stream(64, 320, rng=3)
        svc = RejectingService()
        report = run_load(svc, seq, rate=1e9, max_retries=1,
                          retry_backoff=1e-4)
        assert report.rejected_all
        assert report.n_served == 0
        assert report.n_batches == 0
        assert report.n_dropped_batches == 10
        assert report.drop_fraction == 1.0
        assert math.isnan(report.p50_ms)
        assert math.isnan(report.p95_ms)
        assert math.isnan(report.p99_ms)
        # NaN percentiles must still render, not crash the table.
        assert "load generator report" in report.render()

    def test_shed_policy_never_retries(self):
        seq = zipf_stream(64, 320, rng=3)
        svc = RejectingService()
        report = run_load(svc, seq, rate=1e9, max_retries=5,
                          on_overload="shed")
        assert svc.n_submits == 10  # one per batch, zero retries
        assert report.rejected_all

    def test_successful_run_is_not_flagged(self):
        inst = WeightedPagingInstance.uniform(64, 8)
        config = ServiceConfig(instance=inst, policy_factory=LRUPolicy,
                               n_shards=2)
        svc = PagingService(config)
        report = run_load(svc, zipf_stream(64, 500, rng=4), rate=1e9)
        assert not report.rejected_all
        assert report.n_failed_batches == 0
        assert not math.isnan(report.p50_ms)

    def test_bad_overload_policy_rejected(self):
        svc = RejectingService()
        with pytest.raises(ValueError, match="on_overload"):
            run_load(svc, zipf_stream(64, 10, rng=5), rate=1e9,
                     on_overload="panic")


class TestLatencyHistogramEmpty:
    def test_empty_window_answers_zero_not_crash(self):
        """Regression: percentile queries crashed in np.percentile before
        the first observation."""
        hist = LatencyHistogram(window=16)
        assert hist.empty
        assert hist.percentiles((50.0, 95.0, 99.0)) == (0.0, 0.0, 0.0)
        assert hist.percentile(50.0) == 0.0
        assert hist.percentiles_ms() == (0.0, 0.0, 0.0)

    def test_flag_clears_after_first_observation(self):
        hist = LatencyHistogram(window=16)
        hist.observe(0.25)
        assert not hist.empty
        assert hist.percentile(50.0) == pytest.approx(0.25)
