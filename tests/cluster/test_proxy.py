"""ClusterProxy behavior over real backends: routing, merging, recovery.

Every test runs the proxy against genuine ``NetServer``-fronted
``PagingService`` backends (no mocks): the contracts pinned here are the
ones operators see — acks round-trip, snapshots merge exactly, held
shards answer ``overloaded`` instead of deadlocking, and a restarted
backend is re-dialed transparently.
"""

import threading
import time

import numpy as np
import pytest

from repro.algorithms import WaterFillingPolicy
from repro.cluster import ClusterMap, ClusterProxy
from repro.core.instance import WeightedPagingInstance
from repro.net import AdmissionPolicy, NetServer, PagingClient, RemoteError
from repro.service import PagingService, ServiceConfig
from repro.workloads import sample_weights, zipf_stream

N_PAGES = 64
N_SHARDS = 4
SEED = 7
BATCH = 128


def make_backend(port=0):
    """One full-shard-set backend: service + TCP frontend, started."""
    inst = WeightedPagingInstance(12, sample_weights(N_PAGES, rng=0, high=16.0))
    config = ServiceConfig(instance=inst, policy_factory=WaterFillingPolicy,
                           n_shards=N_SHARDS, batch_size=BATCH, seed=SEED,
                           queue_depth=256)
    svc = PagingService(config)
    svc.start()
    srv = NetServer(svc, port=port,
                    admission=AdmissionPolicy(max_inflight=64,
                                              request_deadline_s=30.0))
    srv.start()
    return svc, srv


def make_workload(length=4000):
    return zipf_stream(N_PAGES, length, alpha=0.9, rng=2)


@pytest.fixture
def cluster():
    backends = [make_backend() for _ in range(2)]
    cmap = ClusterMap.balanced([srv.address for _, srv in backends], N_SHARDS)
    proxy = ClusterProxy(cmap, window=4, timeout=10.0).start()
    try:
        yield proxy, backends
    finally:
        proxy.stop()
        for svc, srv in backends:
            srv.stop()
            svc.stop()


def submit_all(client, seq):
    for lo in range(0, len(seq), BATCH):
        res = client.submit_batch(seq.pages[lo:lo + BATCH],
                                  seq.levels[lo:lo + BATCH])
        assert res.ok, res


class TestFrontDoor:
    def test_ping_round_trips(self, cluster):
        proxy, _ = cluster
        with PagingClient(proxy.address, timeout=5.0) as client:
            assert client.ping() < 5.0

    def test_submits_split_across_backends(self, cluster):
        proxy, backends = cluster
        seq = make_workload(2000)
        with PagingClient(proxy.address, timeout=10.0) as client:
            submit_all(client, seq)
            assert client.drain(10.0)
        # Each backend saw only its own shards' requests, and the union
        # is the full stream.
        per_backend = [svc.snapshot() for svc, _ in backends]
        assert sum(s.n_requests for s in per_backend) == len(seq)
        assert all(s.n_requests > 0 for s in per_backend)
        cmap = proxy.table.map
        for (svc, srv), snap in zip(backends, per_backend):
            owned = set(cmap.shards_of(srv.address))
            for shard, shard_snap in enumerate(snap.shards):
                if shard not in owned:
                    assert shard_snap.n_requests == 0

    def test_empty_submit_acks_ok(self, cluster):
        proxy, _ = cluster
        with PagingClient(proxy.address, timeout=5.0) as client:
            assert client.submit_batch([]).ok

    def test_pipelined_submits_preserve_totals(self, cluster):
        proxy, backends = cluster
        seq = make_workload(3000)
        with PagingClient(proxy.address, timeout=10.0) as client:
            for lo in range(0, len(seq), BATCH):
                while client.inflight >= 8:
                    _, res = client.collect_any()
                    assert res.ok, res
                client.submit_nowait(seq.pages[lo:lo + BATCH],
                                     seq.levels[lo:lo + BATCH])
            while client.inflight:
                _, res = client.collect_any()
                assert res.ok, res
            assert client.drain(10.0)
        assert sum(svc.snapshot().n_requests for svc, _ in backends) == len(seq)


class TestSnapshotMerge:
    def test_merged_snapshot_equals_single_node(self, cluster):
        proxy, _ = cluster
        seq = make_workload(4000)
        with PagingClient(proxy.address, timeout=10.0) as client:
            submit_all(client, seq)
            assert client.drain(10.0)
            merged = client.snapshot()
        # Single-node reference: same instance/policy/seed, served inline.
        ref_svc, ref_srv = make_backend()
        try:
            ref_srv.stop()
            for lo in range(0, len(seq), BATCH):
                result = ref_svc.submit_batch(seq.pages[lo:lo + BATCH],
                                              seq.levels[lo:lo + BATCH])
                while not result.accepted:
                    ref_svc.drain(0.01)
                    result = ref_svc.submit_batch(seq.pages[lo:lo + BATCH],
                                                  seq.levels[lo:lo + BATCH])
            ref_svc.drain()
            ref = ref_svc.snapshot().to_dict()
        finally:
            ref_svc.stop()
        for key in ("n_requests", "n_hits", "n_misses", "eviction_cost",
                    "cost_by_level"):
            assert merged[key] == ref[key], key
        assert [s["n_requests"] for s in merged["shards"]] == \
            [s["n_requests"] for s in ref["shards"]]

    def test_merged_snapshot_carries_cluster_map(self, cluster):
        proxy, _ = cluster
        with PagingClient(proxy.address, timeout=5.0) as client:
            merged = client.snapshot()
        assert merged["cluster"]["epoch"] == 0
        assert merged["cluster"]["n_shards"] == N_SHARDS

    def test_cluster_status_over_wire(self, cluster):
        proxy, _ = cluster
        with PagingClient(proxy.address, timeout=5.0) as client:
            status = client.cluster_status()
        assert status["n_migrations"] == 0
        assert ClusterMap.from_dict(status) == proxy.table.map

    def test_drain_through_proxy(self, cluster):
        proxy, _ = cluster
        seq = make_workload(1000)
        with PagingClient(proxy.address, timeout=10.0) as client:
            submit_all(client, seq)
            assert client.drain(10.0)


class TestHeldShards:
    def test_held_shard_answers_overloaded_after_hold_timeout(self):
        backends = [make_backend()]
        svc, srv = backends[0]
        cmap = ClusterMap.balanced([srv.address], N_SHARDS)
        proxy = ClusterProxy(cmap, window=4, timeout=5.0,
                             hold_timeout=0.2).start()
        try:
            for shard in range(N_SHARDS):
                proxy.table.hold(shard)
            with PagingClient(proxy.address, timeout=5.0, retries=0) as client:
                res = client.submit_batch([1, 2, 3])
            assert res.status == "overloaded"
            assert "hold" in res.ack.detail
        finally:
            proxy.stop()
            srv.stop()
            svc.stop()

    def test_held_shard_releases_and_serves(self, cluster):
        proxy, _ = cluster
        seq = make_workload(256)
        proxy.table.hold(0)
        done = {}

        def submit():
            with PagingClient(proxy.address, timeout=10.0) as client:
                done["res"] = client.submit_batch(seq.pages[:BATCH],
                                                  seq.levels[:BATCH])

        thread = threading.Thread(target=submit)
        thread.start()
        time.sleep(0.1)  # parked on the hold
        proxy.table.release(0)
        thread.join(10.0)
        assert not thread.is_alive()
        assert done["res"].ok


class TestBackendRecovery:
    def test_proxy_survives_backend_frontend_restart(self, cluster):
        proxy, backends = cluster
        seq = make_workload(2000)
        svc2, srv2 = backends[1]
        with PagingClient(proxy.address, timeout=15.0) as client:
            submit_all(client, seq[: len(seq) // 2 // BATCH * BATCH])
            # Kill the second backend's TCP frontend mid-conversation;
            # the service underneath stays alive (state intact).
            address = srv2.address
            host, port = address.split(":")
            srv2.stop()
            restarted = {}

            def restart():
                time.sleep(0.3)
                restarted["srv"] = NetServer(
                    svc2, host=host, port=int(port),
                    admission=AdmissionPolicy(max_inflight=64,
                                              request_deadline_s=30.0),
                ).start()

            thread = threading.Thread(target=restart)
            thread.start()
            try:
                # These submits hit the dead backend: the channel must
                # re-dial until the listener returns, then resubmit.
                submit_all(client, seq[len(seq) // 2 // BATCH * BATCH:])
                assert client.drain(15.0)
            finally:
                thread.join(5.0)
            backends[1] = (svc2, restarted["srv"])
        total = sum(svc.snapshot().n_requests for svc, _ in backends)
        assert total == len(seq)


class TestLifecycle:
    def test_start_requires_reachable_backends(self):
        cmap = ClusterMap.balanced(["127.0.0.1:1"], N_SHARDS)
        proxy = ClusterProxy(cmap, timeout=0.5)
        with pytest.raises((OSError, RemoteError)):
            proxy.start()

    def test_double_start_rejected(self, cluster):
        proxy, _ = cluster
        from repro.errors import ServiceStateError
        with pytest.raises(ServiceStateError):
            proxy.start()

    def test_stop_is_idempotent(self):
        backends = [make_backend()]
        svc, srv = backends[0]
        cmap = ClusterMap.balanced([srv.address], N_SHARDS)
        proxy = ClusterProxy(cmap).start()
        proxy.stop()
        proxy.stop()
        srv.stop()
        svc.stop()

    def test_idle_stop_returns_promptly(self):
        # stop() must wake the thread blocked in accept() rather than
        # wait out its join timeout.
        cmap = ClusterMap.balanced(["127.0.0.1:1"], N_SHARDS)
        proxy = ClusterProxy(cmap).start(check_backends=False)
        accept_thread = proxy._accept_thread
        time.sleep(0.2)  # let the accept thread block in accept()
        started = time.perf_counter()
        proxy.stop()
        assert time.perf_counter() - started < 1.0
        assert not accept_thread.is_alive()

    def test_metrics_count_traffic(self):
        from repro.obs import MetricsRegistry

        backends = [make_backend()]
        svc, srv = backends[0]
        registry = MetricsRegistry()
        cmap = ClusterMap.balanced([srv.address], N_SHARDS)
        proxy = ClusterProxy(cmap, registry=registry).start()
        try:
            with PagingClient(proxy.address, timeout=5.0) as client:
                assert client.submit_batch([1, 2, 3]).ok
                assert client.drain(5.0)
            text = registry.render()
            assert "repro_proxy_submits_total 1" in text
            assert "repro_proxy_connections_total 1" in text
        finally:
            proxy.stop()
            srv.stop()
            svc.stop()


class TestRouting:
    def test_proxy_router_agrees_with_backend_router(self, cluster):
        proxy, backends = cluster
        svc, _ = backends[0]
        pages = np.arange(N_PAGES)
        assert np.array_equal(proxy.router.shards_of(pages),
                              svc.router.shards_of(pages))
