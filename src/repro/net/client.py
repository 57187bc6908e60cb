"""Synchronous client for the :mod:`repro.net` wire protocol.

:class:`PagingClient` speaks the length-prefixed frame protocol over one
TCP connection, reused across calls.  Two submission styles:

* **round-trip** — :meth:`submit_batch` sends and waits for the matching
  :class:`~repro.net.frame.SubmitAck`, retrying ``overloaded`` answers
  with capped exponential backoff when ``on_overload="retry"`` (the same
  policy as the inline load generator);
* **pipelined** — :meth:`submit_nowait` queues a request id and
  :meth:`collect` / :meth:`collect_any` reap acks as they arrive, so one
  connection can keep ``window`` submits in flight.

Every reply is matched to its request by id; the server may interleave
responses across pipelined submits (acks arrive completion-order, not
send-order).  A typed :class:`~repro.net.frame.Error` reply raises
:class:`RemoteError` carrying the server's error code.  Socket-level
failures (reset, timeout) raise ``OSError`` / ``socket.timeout`` — the
client is deliberately transparent about transport loss: it never hides
a failure; :meth:`close` drops the dead socket and its unmatched protocol
state, and the next call dials again.
"""

from __future__ import annotations

import base64
import socket
import time

from repro.errors import ReproError
from repro.net.frame import (
    DEFAULT_MAX_FRAME_BYTES,
    ClusterStatus,
    ClusterStatusReply,
    Drain,
    DrainReply,
    Error,
    FrameDecoder,
    FrameError,
    Install,
    InstallReply,
    Migrate,
    MigrateReply,
    MoveShard,
    MoveShardReply,
    Ping,
    Pong,
    Snapshot,
    SnapshotReply,
    SubmitAck,
    SubmitBatch,
    encode,
)

__all__ = ["PagingClient", "NetSubmitResult", "RemoteError", "parse_address"]

#: Backoff ceiling for overload retries, matching the inline load
#: generator's policy in :func:`repro.service.loadgen.run_load`.
_BACKOFF_CAP_S = 0.05


class RemoteError(ReproError, RuntimeError):
    """The server answered with a typed :class:`Error` frame."""

    def __init__(self, code: str, message: str, request_id: int = 0) -> None:
        super().__init__(f"[{code}] {message}")
        self.code = code
        self.remote_message = message
        self.request_id = request_id


class NetSubmitResult:
    """Outcome of one networked submit: the final ack plus client-side cost."""

    __slots__ = ("ack", "latency_s", "retries")

    def __init__(self, ack: SubmitAck, latency_s: float, retries: int = 0) -> None:
        self.ack = ack
        self.latency_s = latency_s
        self.retries = retries

    @property
    def status(self) -> str:
        return self.ack.status

    @property
    def ok(self) -> bool:
        """True when the batch was fully applied (``status == "ok"``)."""
        return self.ack.status == "ok"

    @property
    def accepted(self) -> bool:
        return self.ack.accepted

    @property
    def retryable(self) -> bool:
        return self.ack.retryable

    @property
    def n_requests(self) -> int:
        return self.ack.n_requests

    def __repr__(self) -> str:
        return (f"NetSubmitResult({self.ack.status}, n={self.ack.n_requests}, "
                f"latency={self.latency_s * 1e3:.3f}ms, retries={self.retries})")


def parse_address(address: str | tuple[str, int]) -> tuple[str, int]:
    """``"host:port"`` (or an already-split pair) -> ``(host, port)``."""
    if isinstance(address, tuple):
        host, port = address
        return str(host), int(port)
    host, sep, port = address.rpartition(":")
    if not sep or not host:
        raise ValueError(f"address must be 'host:port', got {address!r}")
    return host, int(port)


class PagingClient:
    """One reusable connection to a :class:`~repro.net.NetServer`.

    The socket dials lazily on first use and survives across calls.
    Instances are not thread-safe: share work across threads by giving
    each its own client (the load generator does exactly that).
    """

    def __init__(
        self,
        address: str | tuple[str, int],
        *,
        timeout: float = 10.0,
        retries: int = 3,
        retry_backoff: float = 0.002,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
    ) -> None:
        self.host, self.port = parse_address(address)
        self.timeout = timeout
        self.retries = retries
        self.retry_backoff = retry_backoff
        self.max_frame_bytes = max_frame_bytes
        self._sock: socket.socket | None = None
        self._decoder = FrameDecoder(max_frame_bytes=max_frame_bytes)
        self._next_id = 1
        #: Acks that arrived while waiting for a different id.
        self._pending: dict[int, SubmitAck] = {}
        #: Ids submitted via submit_nowait and not yet collected.
        self._inflight: dict[int, tuple[int, float]] = {}
        self.n_sent = 0
        self.n_received = 0

    # -- connection --------------------------------------------------------
    @property
    def connected(self) -> bool:
        return self._sock is not None

    def connect(self) -> "PagingClient":
        """Dial the server (no-op when already connected)."""
        if self._sock is None:
            sock = socket.create_connection(
                (self.host, self.port), timeout=self.timeout)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._sock = sock
        return self

    def close(self) -> None:
        """Drop the connection and any unmatched protocol state."""
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None
        self._decoder = FrameDecoder(max_frame_bytes=self.max_frame_bytes)
        self._pending.clear()
        self._inflight.clear()

    def __enter__(self) -> "PagingClient":
        return self.connect()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- wire helpers ------------------------------------------------------
    def _alloc_id(self) -> int:
        rid = self._next_id
        self._next_id += 1
        return rid

    def _send(self, msg) -> None:
        self.connect()
        assert self._sock is not None
        self._sock.sendall(encode(msg, max_frame_bytes=self.max_frame_bytes))
        self.n_sent += 1

    def _recv_into_pending(self, deadline: float) -> None:
        """Read one chunk off the socket and file decoded acks by id."""
        assert self._sock is not None
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise socket.timeout("timed out waiting for server reply")
        self._sock.settimeout(min(remaining, self.timeout))
        data = self._sock.recv(65536)
        if not data:
            raise ConnectionResetError("server closed the connection")
        for event in self._decoder.feed(data):
            if isinstance(event, FrameError):
                # The server never sends malformed frames; treat this as
                # transport corruption and surface it.
                raise RemoteError(event.code, str(event))
            self.n_received += 1
            if isinstance(event, Error):
                if event.id == 0:
                    # Connection-scoped error (e.g. too_many_connections).
                    raise RemoteError(event.code, event.message, 0)
                self._pending[event.id] = event
            else:
                self._pending[event.id] = event

    def _wait_for(self, request_id: int, timeout: float | None = None):
        """Block until the reply for ``request_id`` arrives."""
        deadline = time.monotonic() + (timeout if timeout is not None
                                       else self.timeout)
        while request_id not in self._pending:
            self._recv_into_pending(deadline)
        reply = self._pending.pop(request_id)
        if isinstance(reply, Error):
            raise RemoteError(reply.code, reply.message, reply.id)
        return reply

    # -- control plane -----------------------------------------------------
    def ping(self) -> float:
        """Round-trip one Ping; returns the latency in seconds."""
        rid = self._alloc_id()
        started = time.monotonic()
        self._send(Ping(rid))
        reply = self._wait_for(rid)
        if not isinstance(reply, Pong):
            raise RemoteError("bad_request", f"expected Pong, got {reply.type}")
        return time.monotonic() - started

    def snapshot(self) -> dict:
        """Fetch the service's point-in-time snapshot as a plain dict."""
        rid = self._alloc_id()
        self._send(Snapshot(rid))
        reply = self._wait_for(rid)
        if not isinstance(reply, SnapshotReply):
            raise RemoteError("bad_request",
                              f"expected SnapshotReply, got {reply.type}")
        return reply.snapshot

    def drain(self, timeout: float | None = None) -> bool:
        """Ask the server to drain its service; True when fully drained."""
        rid = self._alloc_id()
        self._send(Drain(rid, timeout))
        wait = (timeout + self.timeout) if timeout is not None else None
        reply = self._wait_for(rid, timeout=wait)
        if not isinstance(reply, DrainReply):
            raise RemoteError("bad_request",
                              f"expected DrainReply, got {reply.type}")
        return reply.ok

    # -- cluster control plane ---------------------------------------------
    def migrate_shard(self, shard: int,
                      timeout: float | None = None) -> tuple[int, bytes]:
        """Capture ``shard`` on the server; returns ``(t, payload_bytes)``.

        The server quiesces the shard first, so only call this once the
        shard's traffic is held (the proxy's migration path does).
        """
        rid = self._alloc_id()
        self._send(Migrate(rid, int(shard), timeout))
        wait = (timeout + self.timeout) if timeout is not None else None
        reply = self._wait_for(rid, timeout=wait)
        if not isinstance(reply, MigrateReply):
            raise RemoteError("bad_request",
                              f"expected MigrateReply, got {reply.type}")
        return reply.t, base64.b64decode(reply.payload.encode("ascii"))

    def install_shard(self, shard: int, t: int, payload: bytes,
                      timeout: float | None = None) -> bool:
        """Install captured shard state on the server; True on success."""
        rid = self._alloc_id()
        self._send(Install(
            rid, int(shard), int(t),
            base64.b64encode(payload).decode("ascii"), timeout))
        wait = (timeout + self.timeout) if timeout is not None else None
        reply = self._wait_for(rid, timeout=wait)
        if not isinstance(reply, InstallReply):
            raise RemoteError("bad_request",
                              f"expected InstallReply, got {reply.type}")
        return reply.ok

    def cluster_status(self) -> dict:
        """Fetch a cluster proxy's routing map and counters."""
        rid = self._alloc_id()
        self._send(ClusterStatus(rid))
        reply = self._wait_for(rid)
        if not isinstance(reply, ClusterStatusReply):
            raise RemoteError("bad_request",
                              f"expected ClusterStatusReply, got {reply.type}")
        return reply.cluster

    def move_shard(self, shard: int, target: str,
                   timeout: float | None = 60.0) -> MoveShardReply:
        """Ask a cluster proxy to live-migrate ``shard`` to ``target``."""
        rid = self._alloc_id()
        self._send(MoveShard(rid, int(shard), str(target)))
        reply = self._wait_for(rid, timeout=timeout)
        if not isinstance(reply, MoveShardReply):
            raise RemoteError("bad_request",
                              f"expected MoveShardReply, got {reply.type}")
        return reply

    # -- submission --------------------------------------------------------
    def submit_batch(self, pages, levels=None, *,
                     on_overload: str = "retry",
                     trace=None) -> NetSubmitResult:
        """Submit one batch and wait for its final ack.

        ``on_overload="retry"`` resends an ``overloaded`` answer up to
        ``retries`` times with capped exponential backoff
        (``min(retry_backoff * 2**(attempt-1), 50ms)``); ``"shed"``
        returns the overloaded ack as-is after the first attempt.

        ``trace`` (a :class:`repro.obs.rtrace.TraceContext` or ``None``)
        rides in the version-2 frame's optional ``trace`` field; retries
        resend the same context, so the whole retry storm stitches into
        one waterfall.
        """
        if on_overload not in ("retry", "shed"):
            raise ValueError(
                f"on_overload must be 'retry' or 'shed', got {on_overload!r}")
        pages_t = tuple(int(p) for p in pages)
        levels_t = (tuple(int(v) for v in levels)
                    if levels is not None else ())
        wire_trace = trace.to_wire() if trace is not None else None
        started = time.monotonic()
        attempt = 0
        while True:
            rid = self._alloc_id()
            self._send(SubmitBatch(rid, pages_t, levels_t, trace=wire_trace))
            ack = self._wait_for(rid)
            if not isinstance(ack, SubmitAck):
                raise RemoteError("bad_request",
                                  f"expected SubmitAck, got {ack.type}")
            if (ack.retryable and on_overload == "retry"
                    and attempt < self.retries):
                attempt += 1
                time.sleep(min(self.retry_backoff * 2 ** (attempt - 1),
                               _BACKOFF_CAP_S))
                continue
            return NetSubmitResult(ack, time.monotonic() - started, attempt)

    def submit_nowait(self, pages, levels=None, *, trace=None) -> int:
        """Send a batch without waiting; returns its request id.

        ``trace`` propagates exactly as in :meth:`submit_batch`.
        """
        rid = self._alloc_id()
        self._send(SubmitBatch(
            rid,
            tuple(int(p) for p in pages),
            tuple(int(v) for v in levels) if levels is not None else (),
            trace=trace.to_wire() if trace is not None else None,
        ))
        self._inflight[rid] = (len(pages), time.monotonic())
        return rid

    @property
    def inflight(self) -> int:
        """Submits sent via :meth:`submit_nowait` and not yet collected."""
        return len(self._inflight)

    def collect(self, request_id: int,
                timeout: float | None = None) -> NetSubmitResult:
        """Wait for the ack of one pipelined submit."""
        if request_id not in self._inflight:
            raise KeyError(f"request id {request_id} is not in flight")
        _, sent_at = self._inflight[request_id]
        try:
            ack = self._wait_for(request_id, timeout=timeout)
        finally:
            self._inflight.pop(request_id, None)
        if not isinstance(ack, SubmitAck):
            raise RemoteError("bad_request",
                              f"expected SubmitAck, got {ack.type}")
        return NetSubmitResult(ack, time.monotonic() - sent_at)

    def collect_any(self, timeout: float | None = None) -> tuple[int, NetSubmitResult]:
        """Wait for whichever pipelined submit resolves first.

        Returns ``(request_id, result)`` for the oldest in-flight id whose
        ack has arrived (responses may complete out of send order).
        """
        if not self._inflight:
            raise RuntimeError("no submits in flight")
        deadline = time.monotonic() + (timeout if timeout is not None
                                       else self.timeout)
        while True:
            for rid in self._inflight:
                if rid in self._pending:
                    return rid, self.collect(rid, timeout=0.001)
            self._recv_into_pending(deadline)

    def __repr__(self) -> str:
        state = "connected" if self.connected else "idle"
        return (f"PagingClient({self.host}:{self.port}, {state}, "
                f"inflight={len(self._inflight)})")
