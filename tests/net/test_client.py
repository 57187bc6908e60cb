"""PagingClient unit behavior against a scripted peer.

A tiny in-process TCP server with a canned response script pins the
client-side contracts deterministically — overload retry/backoff,
out-of-order pipelined acks, reply timeouts, typed remote errors —
without depending on real service load to produce each status.
"""

import socket
import threading

import pytest

from repro.net import FrameDecoder, PagingClient, RemoteError, encode, parse_address
from repro.net.frame import Error, Pong, SubmitAck


class ScriptedServer:
    """Accepts one connection and answers each request from a script.

    The script maps the arrival index of each *request* (any message) to
    a function ``(msg) -> list of replies``; returning [] means stay
    silent (the client should time out).  Runs on a daemon thread.
    """

    def __init__(self, script):
        self.script = script
        self.received = []
        self._listener = socket.create_server(("127.0.0.1", 0))
        self.port = self._listener.getsockname()[1]
        self.address = f"127.0.0.1:{self.port}"
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _run(self):
        try:
            conn, _ = self._listener.accept()
        except OSError:
            return
        decoder = FrameDecoder()
        with conn:
            while True:
                try:
                    data = conn.recv(65536)
                except OSError:
                    return
                if not data:
                    return
                for msg in decoder.feed(data):
                    index = len(self.received)
                    self.received.append(msg)
                    make = self.script.get(index)
                    if make is None:
                        continue
                    for reply in make(msg):
                        try:
                            conn.sendall(encode(reply))
                        except OSError:
                            return

    def close(self):
        self._listener.close()
        self._thread.join(2.0)


class TestParseAddress:
    def test_host_port_string(self):
        assert parse_address("127.0.0.1:7411") == ("127.0.0.1", 7411)

    def test_tuple_passthrough(self):
        assert parse_address(("localhost", 80)) == ("localhost", 80)

    def test_rejects_bare_host(self):
        with pytest.raises(ValueError):
            parse_address("localhost")


class TestOverloadPolicy:
    def test_retry_until_ok(self):
        # Two overloaded answers, then ok: retry policy should deliver the
        # final ok and count exactly two retries.
        srv = ScriptedServer({
            0: lambda m: [SubmitAck(m.id, "overloaded")],
            1: lambda m: [SubmitAck(m.id, "overloaded")],
            2: lambda m: [SubmitAck(m.id, "ok", n_requests=len(m.pages))],
        })
        try:
            with PagingClient(srv.address, retries=3,
                              retry_backoff=0.001) as client:
                res = client.submit_batch([1, 2, 3])
            assert res.ok
            assert res.retries == 2
            assert res.n_requests == 3
            assert len(srv.received) == 3
            # Every resend carried the same batch under a fresh id.
            ids = [m.id for m in srv.received]
            assert len(set(ids)) == 3
            assert all(m.pages == (1, 2, 3) for m in srv.received)
        finally:
            srv.close()

    def test_retry_budget_exhausts(self):
        srv = ScriptedServer({
            i: (lambda m: [SubmitAck(m.id, "overloaded")]) for i in range(5)
        })
        try:
            with PagingClient(srv.address, retries=2,
                              retry_backoff=0.001) as client:
                res = client.submit_batch([1])
            assert res.status == "overloaded"
            assert res.retries == 2
            assert len(srv.received) == 3  # initial + 2 retries
        finally:
            srv.close()

    def test_shed_never_retries(self):
        srv = ScriptedServer({
            0: lambda m: [SubmitAck(m.id, "overloaded")],
        })
        try:
            with PagingClient(srv.address, retries=5) as client:
                res = client.submit_batch([1], on_overload="shed")
            assert res.status == "overloaded"
            assert res.retries == 0
            assert len(srv.received) == 1
        finally:
            srv.close()

    def test_non_retryable_statuses_return_immediately(self):
        for status in ("shed", "deadline", "failed"):
            srv = ScriptedServer({0: lambda m, s=status: [SubmitAck(m.id, s)]})
            try:
                with PagingClient(srv.address, retries=5) as client:
                    res = client.submit_batch([1])
                assert res.status == status
                assert res.retries == 0
            finally:
                srv.close()

    def test_bad_on_overload_rejected(self):
        client = PagingClient("127.0.0.1:1")
        with pytest.raises(ValueError):
            client.submit_batch([1], on_overload="panic")


class TestPipelining:
    def test_out_of_order_acks_match_by_id(self):
        # Respond to the second submit first: collect() must still pair
        # each ack with its own request.
        held = {}

        def hold(m):
            held["first"] = m
            return []

        def release(m):
            first = held.pop("first")
            return [SubmitAck(m.id, "ok", n_requests=len(m.pages)),
                    SubmitAck(first.id, "ok", n_requests=len(first.pages))]

        srv = ScriptedServer({0: hold, 1: release})
        try:
            with PagingClient(srv.address) as client:
                a = client.submit_nowait([1, 2])
                b = client.submit_nowait([3, 4, 5])
                assert client.inflight == 2
                res_a = client.collect(a)
                res_b = client.collect(b)
            assert res_a.n_requests == 2
            assert res_b.n_requests == 3
        finally:
            srv.close()

    def test_collect_any_returns_first_resolved(self):
        def only_second(m):
            return [SubmitAck(m.id, "ok", n_requests=len(m.pages))]

        srv = ScriptedServer({1: only_second})
        try:
            with PagingClient(srv.address) as client:
                client.submit_nowait([1])
                b = client.submit_nowait([2, 3])
                rid, res = client.collect_any()
                assert rid == b
                assert res.n_requests == 2
                assert client.inflight == 1
        finally:
            srv.close()

    def test_collect_unknown_id_rejected(self):
        client = PagingClient("127.0.0.1:1")
        with pytest.raises(KeyError):
            client.collect(42)

    def test_collect_any_without_inflight_rejected(self):
        client = PagingClient("127.0.0.1:1")
        with pytest.raises(RuntimeError):
            client.collect_any()


class TestFailureModes:
    def test_silent_server_times_out(self):
        srv = ScriptedServer({})  # never answers
        try:
            with PagingClient(srv.address, timeout=0.2) as client:
                with pytest.raises(socket.timeout):
                    client.ping()
        finally:
            srv.close()

    def test_error_reply_raises_remote_error(self):
        srv = ScriptedServer({
            0: lambda m: [Error(m.id, "bad_request", "nope")],
        })
        try:
            with PagingClient(srv.address) as client:
                with pytest.raises(RemoteError) as err:
                    client.submit_batch([1])
            assert err.value.code == "bad_request"
            assert "nope" in str(err.value)
        finally:
            srv.close()

    def test_connection_reset_surfaces(self):
        srv = ScriptedServer({})
        try:
            with PagingClient(srv.address, timeout=1.0) as client:
                client.connect()
                srv.close()
                with pytest.raises((ConnectionResetError, socket.timeout,
                                    BrokenPipeError)):
                    client.ping()
        finally:
            srv.close()

    def test_unexpected_reply_type_is_remote_error(self):
        srv = ScriptedServer({0: lambda m: [Pong(m.id)]})
        try:
            with PagingClient(srv.address) as client:
                with pytest.raises(RemoteError):
                    client.submit_batch([1])
        finally:
            srv.close()

    def test_close_resets_protocol_state(self):
        srv = ScriptedServer({})
        try:
            client = PagingClient(srv.address)
            client.submit_nowait([1])
            assert client.inflight == 1
            client.close()
            assert client.inflight == 0
            assert not client.connected
        finally:
            srv.close()
