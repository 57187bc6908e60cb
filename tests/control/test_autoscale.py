"""Autoscaling: spawn → drain → retire under live load, ledger exact.

The acceptance property: a full scale cycle (a new backend spawned and
loaded via live migration mid-stream, then drained and retired) must
finish with zero failed/dropped tickets and a merged cluster ledger
``==``-equal to the same-seed single-node run.
"""

import threading
import time

import pytest

from repro.algorithms import WaterFillingPolicy
from repro.cluster import ClusterMap, ClusterProxy
from repro.control import Autoscaler, ControllerConfig, drain_backend
from repro.core.instance import WeightedPagingInstance
from repro.errors import ServiceConfigError
from repro.net import (
    AdmissionPolicy,
    NetServer,
    PagingClient,
    run_network_load,
)
from repro.obs import MetricsRegistry
from repro.service import PagingService, ServiceConfig
from repro.workloads import sample_weights, zipf_stream
from tests.holding import wait_until

N_PAGES = 64
N_SHARDS = 4
SEED = 7
BATCH = 128


def make_backend():
    inst = WeightedPagingInstance(12, sample_weights(N_PAGES, rng=0,
                                                     high=16.0))
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


class InProcessSpawner:
    """Spawner protocol backed by in-process backends (fast, leak-free)."""

    def __init__(self):
        self.live = {}
        self.retired = []

    def spawn(self) -> str:
        svc, srv = make_backend()
        self.live[srv.address] = (svc, srv)
        return srv.address

    def retire(self, address: str) -> None:
        svc, srv = self.live.pop(address)
        srv.stop()
        svc.stop()
        self.retired.append(address)

    def stop_all(self):
        for address in list(self.live):
            self.retire(address)


@pytest.fixture
def cluster():
    svc, srv = make_backend()
    cmap = ClusterMap.balanced([srv.address], N_SHARDS)
    proxy = ClusterProxy(cmap, window=8, timeout=15.0).start()
    spawner = InProcessSpawner()
    try:
        yield proxy, (svc, srv), spawner
    finally:
        proxy.stop()
        spawner.stop_all()
        srv.stop()
        svc.stop()


class TestScaleCycleUnderLoad:
    def test_spawn_drain_retire_midstream_is_lossless_and_exact(
            self, cluster):
        """THE acceptance test: one full autoscale cycle mid-loadgen."""
        proxy, (svc, srv), spawner = cluster
        seq = zipf_stream(N_PAGES, 12_000, alpha=0.9, rng=2)
        registry = MetricsRegistry()
        pressure = [1.0]  # synthetic: overload now, idle later
        scaler = Autoscaler(
            proxy, spawner, lambda: pressure[0],
            config=ControllerConfig(interval_s=0.05, dwell_s=0.1),
            max_backends=2, registry=registry)
        events = []

        def served():
            backends = [svc] + [s for s, _ in spawner.live.values()]
            return sum(e.n_requests for s in backends for e in s.engines)

        def cycle():
            wait_until(lambda: served() >= len(seq) // 4, timeout=30.0,
                       what="a quarter of the stream served")
            events.append(scaler.step())        # pressure 1.0 -> scale up
            wait_until(lambda: served() >= len(seq) // 2, timeout=30.0,
                       what="half of the stream served")
            pressure[0] = 0.0
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:  # dwell gate, then down
                decision = scaler.step()
                if decision is not None:
                    events.append(decision)
                    return
                time.sleep(0.05)

        mover = threading.Thread(target=cycle)
        mover.start()
        report = run_network_load(
            proxy.address, seq,
            rate=40_000.0, batch_size=BATCH,
            connections=1, window=8, timeout=15.0,
            max_retries=8, retry_backoff=0.002,
        )
        mover.join(30.0)
        assert not mover.is_alive()
        assert events == ["up", "down"]
        assert spawner.retired and not spawner.live  # full cycle completed
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
        # Back to one backend owning everything.
        assert proxy.table.map.backends == (srv.address,)
        page = registry.render()
        assert 'repro_ctl_scale_events_total{direction="up"} 1' in page
        assert 'repro_ctl_scale_events_total{direction="down"} 1' in page
        assert "repro_ctl_backends 1" in page


class TestScaleMechanics:
    def test_scale_up_rebalances_onto_the_new_backend(self, cluster):
        proxy, (svc, srv), spawner = cluster
        scaler = Autoscaler(proxy, spawner, lambda: 1.0,
                            config=ControllerConfig(dwell_s=0.0),
                            max_backends=2)
        assert scaler.step() == "up"
        counts = proxy.table.map.counts()
        assert len(counts) == 2
        assert max(counts.values()) - min(counts.values()) <= 1

    def test_scale_up_respects_max_backends(self, cluster):
        proxy, _, spawner = cluster
        scaler = Autoscaler(proxy, spawner, lambda: 1.0,
                            config=ControllerConfig(dwell_s=0.0),
                            max_backends=1)
        assert scaler.step() is None
        assert not spawner.live

    def test_scale_down_without_spawned_backends_is_a_noop(self, cluster):
        proxy, _, spawner = cluster
        scaler = Autoscaler(proxy, spawner, lambda: 0.0,
                            config=ControllerConfig(dwell_s=0.0))
        assert scaler.step() is None

    def test_governor_dwell_gates_the_cycle(self, cluster):
        proxy, _, spawner = cluster
        pressure = [1.0]
        scaler = Autoscaler(proxy, spawner, lambda: pressure[0],
                            config=ControllerConfig(dwell_s=60.0),
                            max_backends=2)
        assert scaler.step(now=0.0) == "up"
        pressure[0] = 0.0
        assert scaler.step(now=1.0) is None  # reversal inside the dwell
        assert len(spawner.live) == 1
        spawner.stop_all()

    def test_validation(self, cluster):
        proxy, _, spawner = cluster
        with pytest.raises(ServiceConfigError):
            Autoscaler(proxy, spawner, lambda: 0.0, min_backends=0)
        with pytest.raises(ServiceConfigError):
            Autoscaler(proxy, spawner, lambda: 0.0,
                       min_backends=4, max_backends=2)


class TestDrainBackend:
    def test_drain_moves_every_shard_off_the_backend(self, cluster):
        proxy, (svc, srv), spawner = cluster
        address = spawner.spawn()
        cmap = proxy.table.map
        for shard, _src, target in cmap.rebalance_moves(
                list(cmap.backends) + [address]):
            if target == address:
                proxy.migrate(shard, target)
        assert len(proxy.table.map.counts()) == 2
        owned = proxy.table.map.shards_of(address)
        assert owned  # the rebalance genuinely loaded the new backend
        moved = drain_backend(proxy, address)
        assert sorted(moved) == sorted(owned)
        assert proxy.table.map.backends == (srv.address,)
        spawner.stop_all()

    def test_drain_unknown_backend_rejected(self, cluster):
        proxy, _, _ = cluster
        with pytest.raises(ServiceConfigError):
            drain_backend(proxy, "127.0.0.1:1")

    def test_drain_last_backend_rejected(self, cluster):
        proxy, (svc, srv), _ = cluster
        with pytest.raises(ServiceConfigError):
            drain_backend(proxy, srv.address)
