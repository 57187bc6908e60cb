"""NetServer behavior: admission control, typed errors, control plane,
metrics — everything a client can observe through one socket.
"""

import socket
import struct
import time

import pytest

from repro.algorithms import WaterFillingPolicy
from repro.core.instance import WeightedPagingInstance
from repro.errors import ServiceConfigError
from repro.faults import FaultPlan
from repro.net import (
    PROTOCOL_VERSION,
    AdmissionPolicy,
    FrameDecoder,
    NetServer,
    PagingClient,
    RemoteError,
    encode,
)
from repro.net.frame import Error, Ping, Pong, SubmitBatch
from repro.obs import MetricsRegistry
from repro.service import PagingService, ServiceConfig
from repro.workloads import sample_weights
from tests.holding import held_shards, wait_until

N_PAGES = 128


def make_service(n_shards=2, k=16, **kwargs):
    inst = WeightedPagingInstance(k, sample_weights(N_PAGES, rng=0, high=16.0))
    config = ServiceConfig(instance=inst, policy_factory=WaterFillingPolicy,
                           n_shards=n_shards, batch_size=64, **kwargs)
    return PagingService(config)


@pytest.fixture()
def served():
    """A threaded service behind a listening NetServer."""
    svc = make_service()
    svc.start()
    srv = NetServer(svc, admission=AdmissionPolicy(max_inflight=4)).start()
    yield srv
    srv.stop()
    svc.stop()


def raw_exchange(srv, blob, *, max_events=1, timeout=5.0):
    """Send raw bytes on a fresh socket; decode ``max_events`` replies."""
    decoder = FrameDecoder()
    events = []
    with socket.create_connection(("127.0.0.1", srv.port), timeout=timeout) as s:
        s.sendall(blob)
        while len(events) < max_events:
            data = s.recv(65536)
            if not data:
                break
            events.extend(decoder.feed(data))
    return events


class TestControlPlane:
    def test_ping_snapshot_drain(self, served):
        with PagingClient(served.address) as client:
            assert client.ping() < 1.0
            res = client.submit_batch(range(40))
            assert res.ok and res.n_requests == 40
            assert client.drain(5.0)
            snap = client.snapshot()
            assert snap["n_requests"] == 40
            assert len(snap["shards"]) == 2
            # Per-shard dicts carry the full ledger breakdown.
            assert sum(s["n_requests"] for s in snap["shards"]) == 40

    def test_address_properties(self, served):
        assert served.port > 0
        assert served.address == f"127.0.0.1:{served.port}"

    def test_start_twice_rejected(self, served):
        from repro.errors import ServiceStateError

        with pytest.raises(ServiceStateError):
            served.start()

    def test_stop_is_idempotent(self):
        svc = make_service()
        svc.start()
        srv = NetServer(svc).start()
        srv.stop()
        srv.stop()
        svc.stop()

    def test_port_conflict_surfaces_as_oserror(self, served):
        svc = make_service()
        svc.start()
        try:
            with pytest.raises(OSError):
                NetServer(svc, port=served.port).start()
        finally:
            svc.stop()


class TestTypedErrors:
    """Malformed traffic gets a typed Error frame, never a dead socket."""

    def test_bad_version_answered_and_connection_survives(self, served):
        payload = b'{"type":"ping","id":1}'
        bad = struct.pack(">IB", len(payload), 77) + payload
        events = raw_exchange(served, bad + encode(Ping(2)), max_events=2)
        assert isinstance(events[0], Error)
        assert events[0].code == "bad_version"
        assert events[1] == Pong(2)

    def test_undecodable_payload_answered(self, served):
        junk = struct.pack(">IB", 8, PROTOCOL_VERSION) + b"\xff" * 8
        events = raw_exchange(served, junk + encode(Ping(3)), max_events=2)
        assert events[0].code == "decode"
        assert events[1] == Pong(3)

    def test_oversized_frame_answered(self):
        svc = make_service()
        svc.start()
        srv = NetServer(svc, admission=AdmissionPolicy(max_frame_bytes=128)).start()
        try:
            big = encode(SubmitBatch(1, tuple(range(500))))
            events = raw_exchange(srv, big + encode(Ping(4)), max_events=2)
            assert events[0].code == "frame_too_large"
            assert events[1] == Pong(4)
        finally:
            srv.stop()
            svc.stop()

    def test_response_typed_message_is_bad_request(self, served):
        events = raw_exchange(served, encode(Pong(9)), max_events=1)
        assert isinstance(events[0], Error)
        assert events[0].code == "bad_request"
        assert events[0].id == 9

    def test_missing_field_is_answered(self, served):
        payload = b'{"type":"submit","id":5}'
        bad = struct.pack(">IB", len(payload), PROTOCOL_VERSION) + payload
        events = raw_exchange(served, bad, max_events=1)
        assert events[0].code == "decode"


class TestAdmission:
    def test_connection_cap_refuses_with_typed_error(self):
        svc = make_service()
        svc.start()
        srv = NetServer(svc, admission=AdmissionPolicy(max_connections=1)).start()
        try:
            with PagingClient(srv.address) as first:
                first.ping()  # holds the only slot
                second = PagingClient(srv.address)
                with pytest.raises(RemoteError) as err:
                    second.ping()
                assert err.value.code == "too_many_connections"
                second.close()
            # Slot released: a later connection is admitted again, once
            # the loop has seen the first client's EOF.
            wait_until(lambda: srv._gate.active == 0, what="slot released")
            with PagingClient(srv.address) as third:
                third.ping()
        finally:
            srv.stop()
            svc.stop()

    def test_window_overflow_sheds_oldest(self, served):
        # max_inflight=4: ten pipelined submits shed the six oldest slots
        # as the window slides; every request still gets exactly one ack.
        # The shards are held until all ten are admitted, so no early
        # completion frees a seat mid-burst.
        svc = served.service
        with PagingClient(served.address) as client:
            with held_shards(svc):
                for _ in range(10):
                    client.submit_nowait(range(30))
                wait_until(lambda: svc.snapshot().n_submitted_batches == 10,
                           what="burst admitted")
            statuses = []
            while client.inflight:
                _, res = client.collect_any()
                statuses.append(res.status)
        assert len(statuses) == 10
        assert statuses.count("shed") == 6
        assert statuses.count("ok") == 4

    def test_deadline_answers_instead_of_hanging(self):
        # A shard stalled (injected 1s delay) behind a 50ms deadline must
        # answer 'deadline', not block the connection.
        svc = make_service(
            n_shards=1,
            fault_plan=FaultPlan.parse("delay:0@0:1.0"),
        )
        svc.start()
        srv = NetServer(
            svc, admission=AdmissionPolicy(request_deadline_s=0.05)).start()
        try:
            with PagingClient(srv.address) as client:
                started = time.monotonic()
                res = client.submit_batch(range(20))
                elapsed = time.monotonic() - started
            assert res.status == "deadline"
            assert elapsed < 0.9  # answered well before the 1s stall ends
        finally:
            srv.stop()
            svc.stop()

    def test_admission_policy_validation(self):
        with pytest.raises(ServiceConfigError):
            AdmissionPolicy(max_connections=0)
        with pytest.raises(ServiceConfigError):
            AdmissionPolicy(max_inflight=0)
        with pytest.raises(ServiceConfigError):
            AdmissionPolicy(request_deadline_s=0.0)
        with pytest.raises(ServiceConfigError):
            AdmissionPolicy(max_frame_bytes=0)


class TestMetrics:
    def test_wire_counters_populate(self):
        registry = MetricsRegistry()
        svc = make_service(metrics_registry=registry)
        svc.start()
        srv = NetServer(svc).start()
        try:
            with PagingClient(srv.address) as client:
                client.ping()
                assert client.submit_batch(range(50)).ok
        finally:
            srv.stop()
            svc.stop()
        values = registry.collect()
        assert values["repro_net_connections_total"][()] == 1
        assert values["repro_net_requests_total"][("ping",)] == 1
        assert values["repro_net_requests_total"][("submit",)] == 1
        assert values["repro_net_bytes_total"][("in",)] > 0
        assert values["repro_net_bytes_total"][("out",)] > 0
        assert values["repro_net_inflight"][()] == 0
        assert values["repro_net_request_seconds"][()]["count"] == 1

    def test_decode_errors_counted(self):
        registry = MetricsRegistry()
        svc = make_service(metrics_registry=registry)
        svc.start()
        srv = NetServer(svc).start()
        try:
            junk = struct.pack(">IB", 4, PROTOCOL_VERSION) + b"!!!!"
            events = raw_exchange(srv, junk, max_events=1)
            assert events[0].code == "decode"
        finally:
            srv.stop()
            svc.stop()
        assert registry.collect()["repro_net_decode_errors_total"][()] == 1
