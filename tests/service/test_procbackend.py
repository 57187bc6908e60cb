"""Process-backend semantics: parity with inline/thread, SIGKILL chaos,
and the stricter lifecycle rules the pipe protocol imposes."""

import pytest

from repro.algorithms import KernelLandlordPolicy
from repro.core.instance import WeightedPagingInstance
from repro.errors import ServiceConfigError, ServiceStateError
from repro.faults import FaultPlan
from repro.service import PagingService, ServiceConfig, run_load
from repro.workloads import sample_weights, zipf_stream

N_SHARDS = 2
N_REQUESTS = 4000


def make_service(**kwargs):
    inst = WeightedPagingInstance(16, sample_weights(64, rng=0, high=16.0))
    config = ServiceConfig(instance=inst, policy_factory=KernelLandlordPolicy,
                           n_shards=N_SHARDS, batch_size=128, **kwargs)
    return PagingService(config)


def make_workload():
    return zipf_stream(64, N_REQUESTS, alpha=0.9, rng=1)


def run_to_completion(backend, **kwargs):
    seq = make_workload()
    svc = make_service(backend=backend, **kwargs)
    if backend == "inline":
        svc.submit_batch(seq.pages, seq.levels)
        key = (svc.total_cost(), *_counts(svc))
        svc.stop()
        return key
    with svc:
        report = run_load(svc, seq, rate=1e9, max_retries=200,
                          retry_backoff=0.001)
        assert svc.drain(30.0)
        assert report.n_served == N_REQUESTS
        return (svc.total_cost(), *_counts(svc))


def _counts(svc):
    snap = svc.snapshot()
    return (snap.n_requests, snap.n_hits, snap.n_misses,
            sum(s.n_evictions for s in snap.shards))


class TestBackendParity:
    def test_all_backends_bit_identical(self):
        """Same workload, same seeds: the execution backend must be
        unobservable in the ledgers — costs compared with ==, not approx."""
        inline = run_to_completion("inline")
        thread = run_to_completion("thread")
        process = run_to_completion("process")
        assert inline == thread == process
        assert inline[1] == N_REQUESTS

    def test_snapshot_shape_matches_thread_backend(self):
        seq = make_workload()
        svc = make_service(backend="process")
        with svc:
            run_load(svc, seq, rate=1e9, max_retries=200)
            assert svc.drain(30.0)
            snap = svc.snapshot()
        assert len(snap.shards) == N_SHARDS
        assert sum(s.n_requests for s in snap.shards) == N_REQUESTS
        for shard in snap.shards:
            assert shard.n_hits + shard.n_misses == shard.n_requests
            assert shard.p50_ms >= 0.0


class TestProcessChaos:
    def test_sigkill_mid_loadgen_recovers_byte_identically(self, tmp_path):
        """SIGKILL the worker *processes* mid-run: recovery must reproduce
        the fault-free ledgers and decision traces byte for byte."""

        def traced(tag, **kwargs):
            seq = make_workload()
            svc = make_service(backend="process", checkpoint_interval=500,
                               max_restarts=5, **kwargs)
            paths = svc.enable_tracing(tmp_path / tag, sample=0.2, seed=7)
            with svc:
                report = run_load(svc, seq, rate=1e9, max_retries=400,
                                  retry_backoff=0.001)
                assert svc.drain(30.0)
            assert report.n_served == N_REQUESTS
            return svc, paths

        clean_svc, clean_paths = traced("clean")
        chaos_svc, chaos_paths = traced(
            "chaos", fault_plan=FaultPlan.parse("kill:0@600,kill:1@1500"))

        snap = chaos_svc.snapshot()
        assert snap.n_worker_restarts >= 2
        assert snap.n_failed_shards == 0
        assert chaos_svc.total_cost() == clean_svc.total_cost()
        for clean, chaos in zip(clean_paths, chaos_paths):
            assert chaos.read_bytes() == clean.read_bytes()
            assert clean.stat().st_size > 0

    def test_unrecoverable_kill_marks_shard_failed(self):
        seq = make_workload()
        svc = make_service(backend="process", checkpoint_interval=400,
                           max_restarts=0,
                           fault_plan=FaultPlan.parse("kill:1@500"))
        with svc:
            report = run_load(svc, seq, rate=1e9, max_retries=20,
                              drain_timeout=30.0)
        assert report.n_served < N_REQUESTS
        assert svc.snapshot().n_failed_shards == 1


class TestLifecycleRules:
    def test_unknown_backend_rejected(self):
        with pytest.raises(ServiceConfigError, match="backend"):
            make_service(backend="fibers")

    def test_submit_before_start_rejected(self):
        seq = make_workload()
        svc = make_service(backend="process")
        with pytest.raises(ServiceStateError, match="start"):
            svc.submit_batch(seq.pages[:128], seq.levels[:128])
        svc.stop()

    def test_tracing_after_start_rejected(self, tmp_path):
        svc = make_service(backend="process")
        with svc:
            with pytest.raises(ServiceStateError, match="before start"):
                svc.enable_tracing(tmp_path / "late", sample=1.0, seed=0)

    def test_inline_start_is_noop_and_serves(self):
        seq = make_workload()
        svc = make_service(backend="inline")
        with svc:  # start() is a no-op; submissions still serve inline
            svc.submit_batch(seq.pages, seq.levels)
            assert svc.snapshot().n_requests == N_REQUESTS
