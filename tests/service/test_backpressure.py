"""Backpressure: bounded queues reject with Overloaded, never grow past the limit."""

import threading

import numpy as np

from repro.algorithms import LRUPolicy
from repro.core.instance import WeightedPagingInstance
from repro.service import Overloaded, PagingService, ServiceConfig
from repro.workloads import zipf_stream


class GatedLRUPolicy(LRUPolicy):
    """LRU whose first serve blocks until the test opens the gate.

    Lets a test freeze the single worker of a one-shard service so the
    bounded queue fills deterministically.
    """

    gate = threading.Event()

    def serve(self, t, page, level):
        GatedLRUPolicy.gate.wait(10.0)
        super().serve(t, page, level)


def make_service(policy, queue_depth=4, n_shards=1):
    inst = WeightedPagingInstance.uniform(32, 8)
    config = ServiceConfig(instance=inst, policy_factory=policy,
                           n_shards=n_shards, queue_depth=queue_depth)
    return PagingService(config)


class TestBackpressure:
    def test_full_queue_returns_overloaded_and_stays_bounded(self):
        GatedLRUPolicy.gate.clear()
        depth = 4
        svc = make_service(GatedLRUPolicy, queue_depth=depth)
        batch = np.arange(8, dtype=np.int64)
        ones = np.ones(8, dtype=np.int64)
        try:
            svc.start()
            accepted, rejected = 0, 0
            # Worker is gated: after `depth` queued batches (plus the one
            # the worker holds), every further submit must be rejected.
            for _ in range(depth + 20):
                result = svc.submit_batch(batch, ones)
                if result.accepted:
                    accepted += 1
                else:
                    rejected += 1
                    assert isinstance(result, Overloaded)
                    assert result.queue_depth == depth
                assert svc._queues[0].qsize() <= depth
            assert accepted <= depth + 1
            assert rejected >= 19
            assert svc.n_overloaded == rejected
            assert svc.snapshot().n_overloaded == rejected
        finally:
            GatedLRUPolicy.gate.set()
            svc.stop(10.0)
        # After the gate opens, every *accepted* batch was served — nothing lost.
        assert svc.engines[0].n_requests == accepted * 8

    def test_rejected_batch_leaves_no_partial_state(self):
        GatedLRUPolicy.gate.clear()
        svc = make_service(GatedLRUPolicy, queue_depth=1, n_shards=2)
        seq = zipf_stream(32, 64, rng=0)
        try:
            svc.start()
            results = [
                svc.submit_batch(seq.pages[lo:lo + 8], seq.levels[lo:lo + 8])
                for lo in range(0, 64, 8)
            ]
            n_accepted = sum(1 for r in results if r.accepted)
            assert any(not r.accepted for r in results)
        finally:
            GatedLRUPolicy.gate.set()
            svc.stop(10.0)
        # All-or-nothing: total served is an exact multiple of the batch size.
        served = sum(e.n_requests for e in svc.engines)
        assert served == n_accepted * 8

    def test_overload_clears_after_drain(self):
        GatedLRUPolicy.gate.clear()
        svc = make_service(GatedLRUPolicy, queue_depth=1)
        batch = np.arange(4, dtype=np.int64)
        ones = np.ones(4, dtype=np.int64)
        try:
            svc.start()
            while svc.submit_batch(batch, ones).accepted:
                pass
            GatedLRUPolicy.gate.set()
            assert svc.drain(10.0)
            result = svc.submit_batch(batch, ones)
            assert result.accepted
            assert result.wait(10.0)
        finally:
            GatedLRUPolicy.gate.set()
            svc.stop(10.0)

    def test_inline_mode_never_overloads(self):
        svc = make_service(LRUPolicy, queue_depth=1)
        batch = np.arange(8, dtype=np.int64)
        ones = np.ones(8, dtype=np.int64)
        for _ in range(50):
            assert svc.submit_batch(batch, ones).accepted
        assert svc.n_overloaded == 0

    def test_ticket_latency_populated(self):
        svc = make_service(LRUPolicy)
        with svc:
            ticket = svc.submit_batch(np.arange(8, dtype=np.int64),
                                      np.ones(8, dtype=np.int64))
            assert ticket.wait(10.0)
        assert ticket.latency is not None
        assert ticket.latency >= 0.0

    def test_queue_depth_visible_in_snapshot(self):
        GatedLRUPolicy.gate.clear()
        svc = make_service(GatedLRUPolicy, queue_depth=4)
        batch = np.arange(4, dtype=np.int64)
        ones = np.ones(4, dtype=np.int64)
        try:
            svc.start()
            for _ in range(6):
                svc.submit_batch(batch, ones)
            snap = svc.snapshot()
            assert snap.shards[0].queue_depth >= 1
        finally:
            GatedLRUPolicy.gate.set()
            svc.stop(10.0)
