"""ShardEngine's kernel fast path: when it engages, and that it's invisible.

``process_batch`` serves through :func:`~repro.algorithms.base.drive`,
which hands each whole micro-batch to the policy's ``serve_batch`` — the
columnar kernels' whole-batch path, or the default per-request loop of
:class:`~repro.algorithms.base.Policy` — unless validation asks for the
per-request loop.  The contract pinned here:

* fast path and the ``validate=True`` per-request loop produce identical
  ledgers and cache contents,
* an active tracer takes only its sampled requests off ``serve_batch``,
  one ``serve`` call each, and the traces record the scan oracle's
  decisions — the kernel must be indistinguishable in the observability
  plane too,
* inline / thread / process backends agree on the exact cost with kernel
  policies, like every other policy,
* checkpoint capture/restore round-trips the columnar state onto the
  engine's live instance.
"""

import io

import numpy as np
import pytest

from repro.algorithms import (
    KernelLandlordPolicy,
    KernelWaterFillingPolicy,
    LandlordRefPolicy,
    Policy,
    WaterFillingPolicy,
)
from repro.core.instance import WeightedPagingInstance
from repro.obs import DecisionTracer, read_trace
from repro.service import PagingService, ServiceConfig, run_load
from repro.service.engine import ShardEngine
from repro.sim import simulate
from repro.workloads import sample_weights, zipf_stream

KERNELS = [KernelLandlordPolicy, KernelWaterFillingPolicy]


def make_service(policy, n_shards=1, **kwargs):
    inst = WeightedPagingInstance(8, sample_weights(32, rng=0, high=16.0))
    return PagingService(ServiceConfig(
        instance=inst, policy_factory=policy, n_shards=n_shards, **kwargs))


def _workload(length=1500):
    return zipf_stream(32, length, alpha=0.9, rng=2)


def _spy_calls(policy) -> dict[str, int]:
    """Count ``serve_batch`` / ``serve`` calls that go through ``policy``."""
    calls = {"serve_batch": 0, "serve": 0}
    for name in calls:
        method = getattr(policy, name)

        def counted(*args, _name=name, _method=method):
            calls[_name] += 1
            return _method(*args)

        setattr(policy, name, counted)
    return calls


def _spied_run(policy, *, validate=False, tracer=None, length=1500,
               batch=100):
    """Serve the workload through one engine; returns (engine, calls)."""
    inst = WeightedPagingInstance(8, sample_weights(32, rng=0, high=16.0))
    engine = ShardEngine(0, inst, policy, np.random.default_rng(0),
                         validate=validate)
    engine.set_tracer(tracer)
    calls = _spy_calls(engine.policy)
    seq = _workload(length)
    for lo in range(0, len(seq), batch):
        engine.process_batch(seq.pages[lo:lo + batch],
                             seq.levels[lo:lo + batch])
    assert engine.n_requests == len(seq)
    return engine, calls


class TestFastPathDispatch:
    @pytest.mark.parametrize("policy", KERNELS)
    def test_fast_path_engages_without_validation(self, policy):
        # No validation, no active tracer: exactly one serve_batch call
        # per batch and not a single per-request serve.
        engine, calls = _spied_run(policy())
        assert engine.n_batches == 15
        assert calls == {"serve_batch": 15, "serve": 0}

    def test_scalar_policies_have_no_fast_path(self):
        # A scalar policy enters the same way, one serve_batch per batch;
        # Policy's default serve_batch is the per-request serve loop.
        assert WaterFillingPolicy.serve_batch is Policy.serve_batch
        _, calls = _spied_run(WaterFillingPolicy())
        assert calls == {"serve_batch": 15, "serve": 1500}

    @pytest.mark.parametrize("policy", KERNELS)
    def test_validation_keeps_the_per_request_loop(self, policy):
        _, calls = _spied_run(policy(), validate=True, length=300)
        assert calls == {"serve_batch": 0, "serve": 300}

    @pytest.mark.parametrize("policy", KERNELS)
    @pytest.mark.parametrize("sample", [0.01, 0.25, 1.0])
    def test_active_tracer_serves_only_sampled_requests_alone(self, policy,
                                                              sample):
        # Each sampled request is one serve call; the runs between them
        # stay on serve_batch, at most one call per run.
        tracer = DecisionTracer(io.StringIO(), sample=sample, seed=3)
        _, calls = _spied_run(policy(), tracer=tracer)
        sampled = sum(tracer.want(t) for t in range(1500))
        assert calls["serve"] == sampled > 0
        assert calls["serve_batch"] <= 15 + sampled

    @pytest.mark.parametrize("policy", KERNELS)
    def test_unsampled_tracer_keeps_one_serve_batch_per_batch(self, policy):
        tracer = DecisionTracer(io.StringIO(), sample=0.0)
        _, calls = _spied_run(policy(), tracer=tracer)
        assert calls == {"serve_batch": 15, "serve": 0}

    @pytest.mark.parametrize("policy", KERNELS)
    @pytest.mark.parametrize("batch", [1, 7, 256])
    def test_fast_path_matches_validated_fallback(self, policy, batch):
        seq = _workload()
        ledgers = []
        for validate in (False, True):
            svc = make_service(policy, validate=validate)
            for lo in range(0, len(seq), batch):
                svc.submit_batch(seq.pages[lo:lo + batch],
                                 seq.levels[lo:lo + batch])
            engine = svc.engines[0]
            ledgers.append((engine.ledger, dict(engine.cache.items())))
            svc.stop()
        (fast, fast_cache), (slow, slow_cache) = ledgers
        assert fast.eviction_cost == slow.eviction_cost
        assert fast.n_hits == slow.n_hits
        assert fast.n_misses == slow.n_misses
        assert fast.n_evictions == slow.n_evictions
        assert fast_cache == slow_cache

    @pytest.mark.parametrize("kernel,oracle", [
        (KernelLandlordPolicy, LandlordRefPolicy),
        (KernelWaterFillingPolicy, WaterFillingPolicy),
    ])
    def test_fast_path_matches_simulate_oracle(self, kernel, oracle):
        inst = WeightedPagingInstance(8, sample_weights(32, rng=0, high=16.0))
        seq = _workload()
        ref = simulate(inst, seq, oracle(), seed=0)
        svc = make_service(kernel)
        for lo in range(0, len(seq), 128):
            svc.submit_batch(seq.pages[lo:lo + 128],
                             seq.levels[lo:lo + 128])
        assert svc.total_cost() == ref.cost
        ledger = svc.engines[0].ledger
        assert ledger.n_hits == ref.n_hits
        assert ledger.n_evictions == ref.n_evictions
        svc.stop()


def _decisions(path):
    """A trace's ``req``/``evict`` records in order, and its request count.

    The scan oracle also writes ``cand`` records (its candidate sets),
    which the kernel never does; every decision record must still match.
    """
    events = list(read_trace(path))
    return ([e for e in events if e["ev"] in ("req", "evict")],
            [e["n_requests"] for e in events if e["ev"] == "end"])


class TestTracedServing:
    def test_traces_byte_identical_to_scalar_policy(self, tmp_path):
        # Sampled requests run the kernel's serve (its batch loop on one
        # request), the rest its serve_batch; the kernel's decisions — the
        # sampled req/evict records — must match the scan oracle's
        # exactly, shard by shard.
        seq = _workload(3000)
        paths = {}
        for tag, policy in (("kernel", KernelWaterFillingPolicy),
                            ("scalar", WaterFillingPolicy)):
            svc = make_service(policy, n_shards=2, batch_size=128)
            paths[tag] = svc.enable_tracing(tmp_path / tag, sample=0.25,
                                            seed=7)
            with svc:
                report = run_load(svc, seq, rate=1e9, max_retries=200,
                                  retry_backoff=0.001)
                assert svc.drain(30.0)
            assert report.n_served == len(seq)
        for kernel_path, scalar_path in zip(paths["kernel"],
                                            paths["scalar"]):
            decisions, n_requests = _decisions(kernel_path)
            assert decisions and any(e["ev"] == "evict" for e in decisions)
            assert (decisions, n_requests) == _decisions(scalar_path)
            assert n_requests[0] > 0


class TestBackendAgreement:
    @pytest.mark.parametrize("policy", KERNELS)
    def test_backends_agree_on_exact_cost(self, policy):
        seq = _workload(4000)
        costs = {}
        for backend in ("inline", "thread", "process"):
            svc = make_service(policy, n_shards=2, batch_size=128,
                               backend=backend)
            if backend == "inline":
                for lo in range(0, len(seq), 128):
                    svc.submit_batch(seq.pages[lo:lo + 128],
                                     seq.levels[lo:lo + 128])
                costs[backend] = svc.total_cost()
                svc.stop()
            else:
                with svc:
                    run_load(svc, seq, rate=1e9, max_retries=200,
                             retry_backoff=0.001)
                    assert svc.drain(30.0)
                    costs[backend] = svc.total_cost()
        assert len(set(costs.values())) == 1, costs


class TestKernelCheckpoint:
    @pytest.mark.parametrize("policy_cls", KERNELS)
    def test_capture_restore_roundtrip_continues_identically(self, policy_cls):
        inst = WeightedPagingInstance(8, sample_weights(32, rng=0, high=16.0))
        seq = _workload(2000)
        cut = 1024

        def engine(policy):
            return ShardEngine(0, inst, policy, np.random.default_rng(0))

        source = engine(policy_cls())
        for lo in range(0, cut, 128):
            source.process_batch(seq.pages[lo:lo + 128],
                                 seq.levels[lo:lo + 128])
        payload, mark, t = source.capture_state()
        assert t == cut

        target = engine(policy_cls())
        target.restore_from(payload, mark)
        assert target.n_requests == cut
        # The restored policy shares the engine's live instance arrays.
        assert target.policy.instance is inst

        for eng in (source, target):
            for lo in range(cut, len(seq), 128):
                eng.process_batch(seq.pages[lo:lo + 128],
                                  seq.levels[lo:lo + 128])
        assert target.ledger.eviction_cost == source.ledger.eviction_cost
        assert target.ledger.n_hits == source.ledger.n_hits
        assert dict(target.cache.items()) == dict(source.cache.items())

    @pytest.mark.parametrize("policy_cls", KERNELS)
    def test_checkpointed_service_run_matches_clean(self, policy_cls):
        seq = _workload(3000)
        clean = make_service(policy_cls, n_shards=2, batch_size=128)
        clean.submit_batch(seq.pages, seq.levels)

        svc = make_service(policy_cls, n_shards=2, batch_size=128,
                           checkpoint_interval=400)
        with svc:
            report = run_load(svc, seq, rate=1e9, max_retries=200,
                              retry_backoff=0.001)
            assert svc.drain(30.0)
        assert report.n_served == len(seq)
        assert svc.total_cost() == clean.total_cost()
