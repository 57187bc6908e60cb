"""ClusterProxy behavior over real backends: routing, merging, recovery.

Every test runs the proxy against genuine ``NetServer``-fronted
``PagingService`` backends (no mocks): the contracts pinned here are the
ones operators see — acks round-trip, snapshots merge exactly, held
shards park without blocking other traffic and answer ``overloaded``
past the hold timeout, a partly applied batch is never acked retryable,
the proxy adds no thread per connection, and a restarted backend is
re-dialed transparently.
"""

import contextlib
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import WaterFillingPolicy
from repro.cluster import ClusterMap, ClusterProxy
from repro.core.instance import WeightedPagingInstance
from repro.faults import FaultPlan
from repro.net import AdmissionPolicy, NetServer, PagingClient, RemoteError
from repro.obs import MetricsRegistry
from repro.service import PagingService, ServiceConfig
from repro.workloads import sample_weights, zipf_stream
from tests.holding import held_shards, wait_until

N_PAGES = 64
N_SHARDS = 4
SEED = 7
BATCH = 128


def make_service(**overrides):
    inst = WeightedPagingInstance(12, sample_weights(N_PAGES, rng=0, high=16.0))
    config = dict(instance=inst, policy_factory=WaterFillingPolicy,
                  n_shards=N_SHARDS, batch_size=BATCH, seed=SEED,
                  queue_depth=256)
    config.update(overrides)
    return PagingService(ServiceConfig(**config))


def make_backend(port=0, **overrides):
    """One full-shard-set backend: service + TCP frontend, started."""
    svc = make_service(**overrides)
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
    proxy = ClusterProxy(cmap, window=4, timeout=10.0,
                         registry=MetricsRegistry()).start()
    try:
        yield proxy, backends
    finally:
        proxy.stop()
        for svc, srv in backends:
            srv.stop()
            svc.stop()


def front_submits(proxy):
    """Front submits the proxy has received (``repro_proxy_submits_total``)."""
    values = proxy.service.registry.collect()["repro_proxy_submits_total"]
    return values.get((), 0)


def pages_on(proxy, shards):
    """Every page hashing to one of ``shards``, ascending."""
    pages = np.arange(N_PAGES)
    return pages[np.isin(proxy.router.shards_of(pages), list(shards))]


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

    def test_backend_only_messages_are_bad_requests(self, cluster):
        proxy, _ = cluster
        with PagingClient(proxy.address, timeout=5.0) as client:
            with pytest.raises(RemoteError) as err:
                client.migrate_shard(0, timeout=1.0)
            assert err.value.code == "bad_request"
            with pytest.raises(RemoteError) as err:
                client.install_shard(0, 0, b"", timeout=1.0)
            assert err.value.code == "bad_request"
            assert client.ping() < 5.0

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
        wait_until(lambda: front_submits(proxy) == 1, what="submit parked")
        proxy.table.release(0)
        thread.join(10.0)
        assert not thread.is_alive()
        assert done["res"].ok

    def test_held_shard_blocks_neither_ping_nor_other_shards(self, cluster):
        proxy, _ = cluster
        proxy.table.hold(0)
        try:
            with PagingClient(proxy.address, timeout=10.0) as client:
                parked = client.submit_nowait(pages_on(proxy, [0]))
                wait_until(lambda: front_submits(proxy) == 1,
                           what="submit parked")
                # Same connection, behind the parked submit: both answer.
                assert client.ping() < 5.0
                assert client.submit_batch(
                    pages_on(proxy, range(1, N_SHARDS))).ok
                assert client.inflight == 1  # still parked
                proxy.table.release(0)
                assert client.collect(parked).ok
        finally:
            proxy.table.release(0)


class TestFrontAck:
    def test_partly_applied_batch_is_failed_not_retryable(self):
        # Backend B serves one shard slowly (an injected 1 s delay) with
        # queue depth 1, so B's part of a batch is refused 'overloaded'
        # while A applies its part.  Acking that 'overloaded' would make
        # the client resend the whole batch and A apply its part again.
        a_svc, a_srv = make_backend()
        plan = ",".join(f"delay:{s}@0:1.0" for s in range(N_SHARDS))
        b_svc, b_srv = make_backend(queue_depth=1,
                                    fault_plan=FaultPlan.parse(plan))
        cmap = ClusterMap.balanced([a_srv.address, b_srv.address], N_SHARDS)
        proxy = ClusterProxy(cmap, window=4, timeout=10.0, retries=0).start()
        try:
            a_shard = cmap.shards_of(a_srv.address)[0]
            b_shard = cmap.shards_of(b_srv.address)[0]
            b_pages = pages_on(proxy, [b_shard])
            a_pages = pages_on(proxy, [a_shard])
            with PagingClient(proxy.address, timeout=10.0, retries=3) as client:
                # The first B-only batch stalls B's worker in the delay,
                # the second fills B's one queue slot.
                first = client.submit_nowait(b_pages)
                wait_until(lambda: b_svc.snapshot().n_faults_injected == 1,
                           what="B's worker stalled")
                second = client.submit_nowait(b_pages)
                wait_until(lambda: b_svc.snapshot().n_submitted_batches == 2,
                           what="B's queue full")
                res = client.submit_batch(np.concatenate([a_pages, b_pages]))
                assert client.collect(first).ok
                assert client.collect(second).ok
                assert client.drain(10.0)
            assert res.status == "failed", res.ack
            assert not res.retryable and res.retries == 0
            assert f"{a_srv.address} ok" in res.ack.detail
            assert f"{b_srv.address} overloaded" in res.ack.detail
            # A applied its part of the batch exactly once.
            assert a_svc.snapshot().shards[a_shard].n_requests == a_pages.size
        finally:
            proxy.stop()
            for svc, srv in ((a_svc, a_srv), (b_svc, b_srv)):
                srv.stop()
                svc.stop()

    def test_overloaded_part_is_retried_until_applied(self):
        # The proxy retries a refused part itself, with backoff, until the
        # stalled worker (0.3 s delay) frees its one queue slot.
        svc, srv = make_backend(queue_depth=1, fault_plan=FaultPlan.parse(
            ",".join(f"delay:{s}@0:0.3" for s in range(N_SHARDS))))
        cmap = ClusterMap.balanced([srv.address], N_SHARDS)
        proxy = ClusterProxy(cmap, window=4, timeout=10.0, retries=50).start()
        try:
            pages = pages_on(proxy, [0])
            with PagingClient(proxy.address, timeout=10.0, retries=0) as client:
                first = client.submit_nowait(pages)
                wait_until(lambda: svc.snapshot().n_faults_injected == 1,
                           what="worker stalled")
                second = client.submit_nowait(pages)
                wait_until(lambda: svc.snapshot().n_submitted_batches == 2,
                           what="queue full")
                res = client.submit_batch(pages)
                assert client.collect(first).ok
                assert client.collect(second).ok
            assert res.ok and res.retries == 0
            snap = svc.snapshot()
            assert snap.n_overloaded >= 1
            assert snap.shards[0].n_requests == 3 * pages.size
        finally:
            proxy.stop()
            srv.stop()
            svc.stop()

    def test_all_parts_overloaded_stays_retryable(self):
        # Nothing applied: 'overloaded' is the honest, retryable answer.
        svc, srv = make_backend(queue_depth=1, fault_plan=FaultPlan.parse(
            ",".join(f"delay:{s}@0:1.0" for s in range(N_SHARDS))))
        cmap = ClusterMap.balanced([srv.address], N_SHARDS)
        proxy = ClusterProxy(cmap, window=4, timeout=10.0, retries=0).start()
        try:
            pages = pages_on(proxy, [0])
            with PagingClient(proxy.address, timeout=10.0) as client:
                first = client.submit_nowait(pages)
                wait_until(lambda: svc.snapshot().n_faults_injected == 1,
                           what="worker stalled")
                second = client.submit_nowait(pages)
                wait_until(lambda: svc.snapshot().n_submitted_batches == 2,
                           what="queue full")
                res = client.submit_batch(pages, on_overload="shed")
                assert client.collect(first).ok
                assert client.collect(second).ok
            assert res.status == "overloaded" and res.retryable
        finally:
            proxy.stop()
            srv.stop()
            svc.stop()


class TestOneLoop:
    @pytest.mark.parametrize("n_conns", [1, 8])
    def test_connections_add_no_thread(self, cluster, n_conns):
        # Each connection has a submit in flight to both backends (their
        # shard workers are held; parts beyond the link window of 4 wait
        # at the proxy); the proxy serves them all from its one loop
        # thread, so the process thread count does not move.
        proxy, backends = cluster
        clients = [PagingClient(proxy.address, timeout=10.0)
                   for _ in range(n_conns)]
        baseline = threading.active_count()
        try:
            with contextlib.ExitStack() as holds:
                for svc, _ in backends:
                    holds.enter_context(held_shards(svc))
                for client in clients:
                    client.submit_nowait(np.arange(N_PAGES))
                wait_until(lambda: front_submits(proxy) == n_conns and all(
                    svc.snapshot().n_submitted_batches >= min(n_conns, 4)
                    for svc, _ in backends), what="parts at the backends")
                assert threading.active_count() == baseline
            for client in clients:
                _, res = client.collect_any()
                assert res.ok, res
        finally:
            for client in clients:
                client.close()


def _reference_snapshot(batches) -> dict:
    """The single-node snapshot after serving ``batches`` in order."""
    svc = make_service()
    for pages, levels in batches:
        assert svc.submit_batch(pages, levels).ok
    return svc.snapshot().to_dict()


class TestExactness:
    @settings(max_examples=6, deadline=None, derandomize=True)
    @given(sizes=st.lists(st.integers(1, 160), min_size=3, max_size=10),
           window=st.integers(1, 8), hold_at=st.integers(0, 4),
           hold_for=st.integers(1, 4),
           held=st.integers(0, N_SHARDS - 1))
    def test_proxied_stream_equals_single_node(self, sizes, window, hold_at,
                                               hold_for, held):
        """One front connection, random batch sizes and window, one shard
        held and released mid-stream: the merged ledger is the
        single-node ledger, ``==``."""
        seq = zipf_stream(N_PAGES, sum(sizes), alpha=0.9, rng=5)
        bounds = np.cumsum([0, *sizes])
        batches = [(seq.pages[lo:hi], seq.levels[lo:hi])
                   for lo, hi in zip(bounds[:-1], bounds[1:])]
        backends = [make_backend() for _ in range(2)]
        cmap = ClusterMap.balanced([srv.address for _, srv in backends],
                                   N_SHARDS)
        proxy = ClusterProxy(cmap, window=4, timeout=10.0).start()
        try:
            with PagingClient(proxy.address, timeout=10.0) as client:
                for i, (pages, levels) in enumerate(batches):
                    if i == hold_at:
                        proxy.table.hold(held)
                    if i == hold_at + hold_for:
                        proxy.table.release(held)
                    while client.inflight >= window:
                        # A full window may be waiting on the hold.
                        proxy.table.release(held)
                        assert client.collect_any()[1].ok
                    client.submit_nowait(pages, levels)
                proxy.table.release(held)
                while client.inflight:
                    assert client.collect_any()[1].ok
                assert client.drain(10.0)
                merged = client.snapshot()
        finally:
            proxy.stop()
            for svc, srv in backends:
                srv.stop()
                svc.stop()
        ref = _reference_snapshot(batches)
        for key in ("n_requests", "n_hits", "n_misses", "eviction_cost",
                    "cost_by_level"):
            assert merged[key] == ref[key], key
        assert [s["n_requests"] for s in merged["shards"]] == \
            [s["n_requests"] for s in ref["shards"]]


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
        # An idle proxy stops without waiting out its join timeout.
        cmap = ClusterMap.balanced(["127.0.0.1:1"], N_SHARDS)
        proxy = ClusterProxy(cmap).start(check_backends=False)
        started = time.perf_counter()
        proxy.stop()
        assert time.perf_counter() - started < 1.0

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


    def test_registry_holds_only_proxy_families(self, cluster):
        # Federation adds the proxy page into every backend="all" sum, so
        # the front end's repro_net_* families must stay out of it.
        proxy, _ = cluster
        with PagingClient(proxy.address, timeout=5.0) as client:
            assert client.submit_batch([1, 2, 3]).ok
        assert set(proxy.service.registry.collect()) == {
            "repro_proxy_connections_total", "repro_proxy_submits_total",
            "repro_proxy_forwards_total", "repro_proxy_migrations_total",
            "repro_proxy_migrations_inflight", "repro_proxy_epoch"}


class TestRouting:
    def test_proxy_router_agrees_with_backend_router(self, cluster):
        proxy, backends = cluster
        svc, _ = backends[0]
        pages = np.arange(N_PAGES)
        assert np.array_equal(proxy.router.shards_of(pages),
                              svc.router.shards_of(pages))
