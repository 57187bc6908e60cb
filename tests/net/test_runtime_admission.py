"""Runtime admission control: the controller's actuator surface.

``NetServer.set_max_inflight`` / ``set_request_deadline`` and
``PagingService.set_queue_limit`` must take effect on LIVE connections
and queues — that is what makes closed-loop control possible without
bouncing clients.
"""

import pytest

from repro.algorithms import WaterFillingPolicy
from repro.core.instance import WeightedPagingInstance
from repro.net import AdmissionPolicy, NetServer, PagingClient
from repro.obs import MetricsRegistry
from repro.service import PagingService, ServiceConfig
from repro.workloads import sample_weights
from tests.holding import held_shards, wait_until

N_PAGES = 128


def make_service(n_shards=2, k=16, **kwargs):
    inst = WeightedPagingInstance(k, sample_weights(N_PAGES, rng=0,
                                                    high=16.0))
    config = ServiceConfig(instance=inst, policy_factory=WaterFillingPolicy,
                           n_shards=n_shards, batch_size=64, **kwargs)
    return PagingService(config)


@pytest.fixture()
def served():
    svc = make_service(metrics_registry=MetricsRegistry())
    svc.start()
    srv = NetServer(svc, admission=AdmissionPolicy(max_inflight=8)).start()
    yield svc, srv
    srv.stop()
    svc.stop()


def pipelined_statuses(svc, address, n):
    """Statuses of ``n`` pipelined submits, all admitted before any serves."""
    with PagingClient(address) as client:
        with held_shards(svc):
            before = svc.snapshot().n_submitted_batches
            for _ in range(n):
                client.submit_nowait(range(30))
            wait_until(
                lambda: svc.snapshot().n_submitted_batches == before + n,
                what="burst admitted")
        statuses = []
        while client.inflight:
            _, res = client.collect_any()
            statuses.append(res.status)
    return statuses


class TestLiveWindowResize:
    def test_tightening_sheds_more_on_live_connections(self, served):
        svc, srv = served
        assert pipelined_statuses(svc, srv.address, 8).count("shed") == 0
        srv.set_max_inflight(2)
        # New AND existing connections see cap 2: 8 pipelined -> 6 shed.
        assert pipelined_statuses(svc, srv.address, 8).count("shed") == 6
        srv.set_max_inflight(8)
        assert pipelined_statuses(svc, srv.address, 8).count("shed") == 0

    def test_existing_connection_is_resized_in_place(self, served):
        svc, srv = served
        with PagingClient(srv.address) as client:
            assert client.submit_batch(range(16)).ok  # window established
            srv.set_max_inflight(1)  # returns once the loop applied it
            with held_shards(svc):
                before = svc.snapshot().n_submitted_batches
                for _ in range(4):
                    client.submit_nowait(range(16))
                wait_until(
                    lambda: svc.snapshot().n_submitted_batches == before + 4,
                    what="burst admitted")
            statuses = []
            while client.inflight:
                _, res = client.collect_any()
                statuses.append(res.status)
        assert statuses.count("shed") == 3

    def test_window_gauge_tracks_the_setpoint(self, served):
        svc, srv = served
        srv.set_max_inflight(3)
        assert "repro_net_max_inflight 3" in svc.registry.render()

    def test_validation(self, served):
        svc, srv = served
        with pytest.raises(ValueError):
            srv.set_max_inflight(0)
        with pytest.raises(ValueError):
            srv.set_request_deadline(0.0)

    def test_deadline_swap_is_visible_to_new_requests(self, served):
        svc, srv = served
        srv.set_request_deadline(1.5)
        assert srv.admission.request_deadline_s == 1.5
        with PagingClient(srv.address) as client:
            assert client.submit_batch(range(16)).ok


class TestSoftQueueLimit:
    def test_soft_limit_rejects_below_physical_depth(self):
        svc = make_service(n_shards=1, queue_depth=64, backend="thread")
        effective = svc.set_queue_limit(1)
        assert effective == 1
        assert svc.queue_limit == 1
        with svc:
            overloaded = 0
            for _ in range(50):
                if not svc.submit_batch(range(40)).accepted:
                    overloaded += 1
            svc.drain()
        assert overloaded > 0  # the 64-deep physical queue never fills

    def test_relaxing_restores_the_physical_depth(self):
        svc = make_service(queue_depth=16)
        svc.set_queue_limit(4)
        assert svc.queue_limit == 4
        svc.set_queue_limit(None)
        assert svc.queue_limit == 16
        # Above the physical depth: clamped, not grown.
        assert svc.set_queue_limit(10_000) == 16

    def test_queue_capacity_gauge_follows(self):
        svc = make_service(metrics_registry=MetricsRegistry())
        svc.set_queue_limit(5)
        assert "repro_queue_capacity 5" in svc.registry.render()

    def test_validation(self):
        svc = make_service()
        with pytest.raises(ValueError):
            svc.set_queue_limit(0)

    def test_overloaded_result_reports_effective_limit(self):
        svc = make_service(n_shards=1, queue_depth=64, backend="thread")
        svc.set_queue_limit(1)
        with svc:
            rejected = None
            for _ in range(50):
                result = svc.submit_batch(range(40))
                if not result.accepted:
                    rejected = result
                    break
            svc.drain()
        assert rejected is not None
        assert rejected.queue_depth == 1
