"""Live shard migration: the cluster's zero-loss, exact-ledger contract.

The acceptance property from the issue: a networked load generator
driving the proxy while shards migrate between backends must (a) finish
with zero failed tickets and (b) leave the cluster's merged cost ledger
*exactly* equal to a same-seed single-node run.  Anything weaker means a
ticket was dropped, duplicated, or served against stale state.
"""

import threading

import pytest

from repro.algorithms import WaterFillingPolicy
from repro.cluster import ClusterMap, ClusterProxy, migrate_shard
from repro.core.instance import WeightedPagingInstance
from repro.errors import MigrationError
from repro.net import (
    AdmissionPolicy,
    NetServer,
    PagingClient,
    run_network_load,
)
from repro.service import PagingService, ServiceConfig
from repro.workloads import sample_weights, zipf_stream
from tests.holding import wait_until

N_PAGES = 64
N_SHARDS = 4
SEED = 7
BATCH = 128


def make_backend():
    inst = WeightedPagingInstance(12, sample_weights(N_PAGES, rng=0, high=16.0))
    config = ServiceConfig(instance=inst, policy_factory=WaterFillingPolicy,
                           n_shards=N_SHARDS, batch_size=BATCH, seed=SEED,
                           queue_depth=256)
    svc = PagingService(config)
    svc.start()
    srv = NetServer(svc, admission=AdmissionPolicy(max_inflight=64,
                                                   request_deadline_s=30.0))
    srv.start()
    return svc, srv


def single_node_reference(seq):
    """The exact ledger a single node produces for ``seq``."""
    svc, srv = make_backend()
    try:
        srv.stop()
        for lo in range(0, len(seq), BATCH):
            result = svc.submit_batch(seq.pages[lo:lo + BATCH],
                                      seq.levels[lo:lo + BATCH])
            while not result.accepted:
                svc.drain(0.01)
                result = svc.submit_batch(seq.pages[lo:lo + BATCH],
                                          seq.levels[lo:lo + BATCH])
        svc.drain()
        return svc.snapshot().to_dict()
    finally:
        svc.stop()


@pytest.fixture
def cluster():
    backends = [make_backend() for _ in range(2)]
    cmap = ClusterMap.balanced([srv.address for _, srv in backends], N_SHARDS)
    proxy = ClusterProxy(cmap, window=8, timeout=15.0).start()
    try:
        yield proxy, backends
    finally:
        proxy.stop()
        for svc, srv in backends:
            srv.stop()
            svc.stop()


class TestLiveMigration:
    def test_loadgen_with_migrations_is_lossless_and_exact(self, cluster):
        """THE acceptance test: migrate under load, lose nothing, match
        the single-node ledger to the last bit."""
        proxy, backends = cluster
        seq = zipf_stream(N_PAGES, 12_000, alpha=0.9, rng=2)
        addr1 = backends[0][1].address
        addr2 = backends[1][1].address
        outcomes = []

        def served():
            return sum(e.n_requests for svc, _ in backends
                       for e in svc.engines)

        def migrate_mid_run():
            # Shard 0 genuinely moves (it starts on backend 1), then a
            # second migration brings it back — two epoch bumps while
            # the stream is in flight, each once a fixed share is served.
            wait_until(lambda: served() >= len(seq) // 4, timeout=30.0,
                       what="a quarter of the stream served")
            outcomes.append(proxy.migrate(0, addr2))
            wait_until(lambda: served() >= len(seq) // 2, timeout=30.0,
                       what="half of the stream served")
            outcomes.append(proxy.migrate(0, addr1))

        mover = threading.Thread(target=migrate_mid_run)
        mover.start()
        report = run_network_load(
            proxy.address, seq,
            rate=40_000.0, batch_size=BATCH,
            connections=1, window=8, timeout=15.0,
            max_retries=8, retry_backoff=0.002,
        )
        mover.join(30.0)
        assert not mover.is_alive()
        assert [o["moved"] for o in outcomes] == [True, True]
        assert report.n_failed_batches == 0
        assert report.n_dropped_batches == 0
        assert report.n_served == len(seq)
        with PagingClient(proxy.address, timeout=15.0) as client:
            assert client.drain(15.0)
            merged = client.snapshot()
        ref = single_node_reference(seq)
        for key in ("n_requests", "n_hits", "n_misses", "eviction_cost",
                    "cost_by_level"):
            assert merged[key] == ref[key], key
        assert merged["cluster"]["epoch"] == 2

    def test_migrated_shard_serves_from_new_owner(self, cluster):
        proxy, backends = cluster
        seq = zipf_stream(N_PAGES, 4000, alpha=0.9, rng=2)
        addr2 = backends[1][1].address
        with PagingClient(proxy.address, timeout=15.0) as client:
            half = len(seq) // 2 // BATCH * BATCH  # batch-aligned split
            for lo in range(0, half, BATCH):
                assert client.submit_batch(seq.pages[lo:lo + BATCH],
                                           seq.levels[lo:lo + BATCH]).ok
            assert client.drain(15.0)
            before = backends[1][0].snapshot().shards[0].n_requests
            result = proxy.migrate(0, addr2)
            assert result["moved"] and result["epoch"] == 1
            for lo in range(half, len(seq), BATCH):
                assert client.submit_batch(seq.pages[lo:lo + BATCH],
                                           seq.levels[lo:lo + BATCH]).ok
            assert client.drain(15.0)
        # Post-migration shard-0 traffic landed on backend 2, and its
        # engine carries the full pre-migration history (the installed
        # checkpoint), so the merged ledger stays exact.
        assert backends[1][0].snapshot().shards[0].n_requests > before
        with PagingClient(proxy.address, timeout=15.0) as client:
            merged = client.snapshot()
        ref = single_node_reference(seq)
        assert merged["eviction_cost"] == ref["eviction_cost"]
        assert merged["n_requests"] == ref["n_requests"]

    def test_move_shard_over_wire(self, cluster):
        proxy, backends = cluster
        addr2 = backends[1][1].address
        with PagingClient(proxy.address, timeout=15.0) as client:
            reply = client.move_shard(0, addr2, timeout=15.0)
            assert reply.ok
            assert reply.source == backends[0][1].address
            assert reply.target == addr2
            assert reply.epoch == 1
            status = client.cluster_status()
        assert status["assignment"][0] == addr2
        assert status["n_migrations"] == 1

    def test_move_to_current_owner_is_noop(self, cluster):
        proxy, backends = cluster
        addr1 = backends[0][1].address
        result = proxy.migrate(0, addr1)
        assert result["moved"] is False
        assert proxy.table.map.epoch == 0
        assert proxy.n_migrations == 0

    def test_move_shard_bad_index_is_typed_error(self, cluster):
        proxy, backends = cluster
        from repro.net import RemoteError
        with PagingClient(proxy.address, timeout=15.0) as client:
            with pytest.raises(RemoteError) as err:
                client.move_shard(99, backends[1][1].address, timeout=15.0)
        assert err.value.code == "bad_request"


class TestMigrationFailure:
    def test_unreachable_target_leaves_routing_untouched(self, cluster):
        proxy, _ = cluster
        before = proxy.table.map
        with pytest.raises(MigrationError):
            migrate_shard(proxy.table, 0, "127.0.0.1:1", timeout=2.0)
        assert proxy.table.map == before
        # The hold was released: traffic still flows.
        with PagingClient(proxy.address, timeout=5.0) as client:
            assert client.submit_batch([1, 2, 3]).ok

    def test_failed_migration_over_wire_is_not_ok(self, cluster):
        proxy, _ = cluster
        with PagingClient(proxy.address, timeout=15.0) as client:
            reply = client.move_shard(0, "127.0.0.1:1", timeout=5.0)
            assert not reply.ok
            assert "failed" in reply.detail or "migrat" in reply.detail
            assert client.cluster_status()["epoch"] == 0

    def test_empty_target_rejected(self, cluster):
        proxy, _ = cluster
        with pytest.raises(ValueError):
            migrate_shard(proxy.table, 0, "", timeout=2.0)
