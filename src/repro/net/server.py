"""Asyncio TCP frontend for a :class:`~repro.service.server.PagingService`.

:class:`NetServer` owns a listening socket and an event loop on a
dedicated daemon thread (the same lifecycle shape as
:class:`~repro.obs.MetricsServer`): ``start()`` binds and returns once the
port is known, ``stop()`` closes the *listener first* and then tears down
live connections, so a graceful shutdown can drain the backing service
with no new work arriving.

Request flow per connection (all on the event loop)::

    bytes -> FrameDecoder -> admission -> service.submit_batch -> ticket
                                                            |
         SubmitAck <- first of (done-callback, deadline timer)

The service's :class:`~repro.service.ingest.BatchTicket` resolves on a
shard worker thread; :meth:`BatchTicket.add_done_callback` bridges that
completion into the loop via ``call_soon_threadsafe`` (or answers
directly when the ticket resolves on the loop itself) — the event loop
never blocks in ``ticket.wait``, and an accepted submit costs one
callback and one timer, not a task.  Slow batches are bounded by a
server-side deadline (answered ``deadline``), bursts beyond the
per-connection window shed the oldest response slot (answered ``shed``),
and the service's own :class:`~repro.service.ingest.Overloaded` /
:class:`~repro.service.ingest.Failed` rejections map onto ``SubmitAck``
statuses — the client always gets a typed answer, never a hang.

Replies are written without awaiting; the reader awaits ``drain()`` once
per chunk read, so a client that stops reading stops being read.

Chaos coverage extends to the socket path: an optional
:class:`~repro.faults.FaultPlan` is polled per connection (``shard`` =
connection index, logical time = submits seen on that connection);
``delay`` sleeps before processing, ``drop`` swallows the request
(client-visible as a timeout), ``kill`` closes the connection abruptly.
"""

from __future__ import annotations

import asyncio
import base64
import binascii
import contextlib
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.errors import (
    FrameError,
    InvalidInstanceError,
    InvalidRequestError,
    ServiceStateError,
)
from repro.net.admission import AdmissionPolicy, ConnectionGate, InflightWindow
from repro.faults.checkpoint import ShardCheckpoint
from repro.net.frame import (
    Drain,
    DrainReply,
    Error,
    FrameDecoder,
    Install,
    InstallReply,
    Migrate,
    MigrateReply,
    Ping,
    Pong,
    Snapshot,
    SnapshotReply,
    SubmitAck,
    SubmitBatch,
    encode,
)
from repro.obs.rtrace import SpanExporter, TraceContext
from repro.service.ingest import BatchTicket, Failed, Overloaded
from repro.service.server import PagingService

__all__ = ["NetServer"]


class _Request:
    """One outstanding submit on one connection."""

    __slots__ = ("id", "n_requests", "started", "responded", "trace", "t",
                 "timer")

    def __init__(self, request_id: int, n_requests: int, started: float,
                 trace: TraceContext | None = None, t: int = 0) -> None:
        self.id = request_id
        self.n_requests = n_requests
        self.started = started
        #: Exactly one SubmitAck per request id: set when any path (shed,
        #: deadline, completion) claims the response slot.
        self.responded = False
        #: Trace context carried in the submit frame (None when untraced).
        self.trace = trace
        #: Connection-local submit index, the ack span's logical time.
        self.t = t
        #: The deadline timer, once the service accepted the submit.
        self.timer: asyncio.TimerHandle | None = None


class _Connection:
    """Per-connection state owned by the event loop."""

    __slots__ = ("id", "writer", "window", "n_submits", "open")

    def __init__(self, conn_id: int, writer: asyncio.StreamWriter,
                 window: InflightWindow) -> None:
        self.id = conn_id
        self.writer = writer
        self.window = window
        #: Logical clock for net-level fault injection: submits seen.
        self.n_submits = 0
        self.open = True


class NetServer:
    """Serves the wire protocol for one backing service.

    The service is a :class:`PagingService` or anything with its
    ``submit_batch`` / ``drain`` / ``snapshot`` / ``registry`` surface
    (the cluster proxy's :class:`~repro.cluster.RemoteService`).  The
    server does not own the service's lifecycle: start the service
    (threaded mode) before accepting traffic and stop it after
    :meth:`stop` — with an inline service every submit is served on the
    event loop thread, which works but serializes connections.
    """

    def __init__(
        self,
        service: PagingService,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        admission: AdmissionPolicy | None = None,
        fault_plan=None,
        registry=None,
        span_exporter: SpanExporter | None = None,
    ) -> None:
        self.service = service
        self.admission = admission if admission is not None else AdmissionPolicy()
        self._host = host
        self._requested_port = port
        self._plan = fault_plan
        #: Optional exporter for ``net``-tier ack spans; the backing
        #: service emits its own svc/shard spans when request tracing is
        #: enabled, this covers the frontend's slice of the waterfall.
        self._spans = span_exporter
        reg = registry if registry is not None else service.registry
        self._m_connections = reg.counter(
            "repro_net_connections_total", "Connections accepted")
        self._m_conn_rejected = reg.counter(
            "repro_net_connections_rejected_total",
            "Connections refused at the max_connections gate")
        self._m_active = reg.gauge(
            "repro_net_active_connections", "Currently open connections")
        self._m_requests = reg.counter(
            "repro_net_requests_total", "Messages received", ("kind",))
        self._m_bytes = reg.counter(
            "repro_net_bytes_total", "Bytes moved over the wire", ("direction",))
        self._m_inflight = reg.gauge(
            "repro_net_inflight", "Submits awaiting a response")
        self._m_decode_errors = reg.counter(
            "repro_net_decode_errors_total", "Frames rejected by the codec")
        self._m_deadline = reg.counter(
            "repro_net_deadline_drops_total",
            "Submits answered 'deadline' (server-side deadline expired)")
        self._m_shed = reg.counter(
            "repro_net_shed_total",
            "Submits answered 'shed' (oldest-first window overflow)")
        self._m_overloaded = reg.counter(
            "repro_net_overloaded_total",
            "Submits answered 'overloaded' (service backpressure)")
        self._m_faults = reg.counter(
            "repro_net_faults_injected_total",
            "Net-boundary faults fired", ("kind",))
        self._m_latency = reg.histogram(
            "repro_net_request_seconds",
            "Server-side submit latency (admission to response)")
        self._m_window_cap = reg.gauge(
            "repro_net_max_inflight",
            "Per-connection in-flight window cap (runtime-adjustable)")
        self._m_window_cap.set(self.admission.max_inflight)
        self._gate = ConnectionGate(self.admission.max_connections)
        self._loop: asyncio.AbstractEventLoop | None = None
        self._loop_tid: int | None = None
        self._thread: threading.Thread | None = None
        self._stop_evt: asyncio.Event | None = None
        self._started_evt = threading.Event()
        self._startup_error: BaseException | None = None
        self._server: asyncio.base_events.Server | None = None
        self._port: int | None = None
        self._conn_seq = 0
        self._conns: set[_Connection] = set()
        self._tasks: set[asyncio.Task] = set()
        self._executor = ThreadPoolExecutor(
            max_workers=2, thread_name_prefix="repro-net-drain")

    # -- lifecycle ---------------------------------------------------------
    @property
    def port(self) -> int:
        """The bound port (valid after :meth:`start`)."""
        return self._port if self._port is not None else self._requested_port

    @property
    def host(self) -> str:
        """The bind host."""
        return self._host

    @property
    def address(self) -> str:
        """``host:port`` as accepted by :class:`~repro.net.PagingClient`."""
        return f"{self._host}:{self.port}"

    def start(self) -> "NetServer":
        """Bind the listener and serve from a daemon thread."""
        if self._thread is not None:
            raise ServiceStateError("net server already started")
        self._thread = threading.Thread(
            target=self._run, name="repro-net", daemon=True)
        self._thread.start()
        self._started_evt.wait(10.0)
        if self._startup_error is not None:
            self._thread.join(1.0)
            self._thread = None
            raise self._startup_error
        return self

    def stop(self, timeout: float | None = 10.0) -> None:
        """Close the listener first, then live connections (idempotent)."""
        if self._thread is None:
            return
        loop = self._loop
        if loop is not None and not loop.is_closed() and self._stop_evt is not None:
            with contextlib.suppress(RuntimeError):
                loop.call_soon_threadsafe(self._stop_evt.set)
        self._thread.join(timeout)
        self._thread = None
        self._executor.shutdown(wait=False)

    def __enter__(self) -> "NetServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- runtime admission actuators ---------------------------------------
    def set_max_inflight(self, cap: int) -> None:
        """Live-adjust the per-connection in-flight window cap.

        The control plane's net-side actuator: swaps the (frozen)
        :class:`AdmissionPolicy` for new connections and resizes every
        live connection's window on the event loop, returning once the
        loop has applied it.  Shrinking does not retro-shed entries
        already in flight — the next ``admit`` past the new cap sheds
        oldest-first, exactly the steady-state rule.  Thread-safe;
        callable before ``start()`` and while serving.
        """
        from dataclasses import replace

        cap = int(cap)
        if cap < 1:
            raise ValueError(f"max_inflight must be >= 1, got {cap}")
        self.admission = replace(self.admission, max_inflight=cap)
        self._m_window_cap.set(cap)
        applied = threading.Event()

        def apply() -> None:
            for conn in self._conns:
                conn.window.cap = cap
            applied.set()

        loop = self._loop
        if loop is None or threading.get_ident() == self._loop_tid:
            apply()
            return
        try:
            loop.call_soon_threadsafe(apply)
        except RuntimeError:  # loop closed: no live connection to resize
            return
        # Bounded, so a loop that stops before running ``apply`` cannot
        # hang the caller.
        applied.wait(5.0)

    def set_request_deadline(self, deadline_s: float) -> None:
        """Live-adjust the server-side submit deadline (thread-safe).

        Takes effect per request: the deadline is read when a submit's
        ticket await starts, so in-flight waits keep the deadline they
        were admitted under.
        """
        from dataclasses import replace

        if deadline_s <= 0:
            raise ValueError(
                f"request_deadline_s must be > 0, got {deadline_s}")
        self.admission = replace(self.admission,
                                 request_deadline_s=float(deadline_s))

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        self._loop_tid = threading.get_ident()
        try:
            loop.run_until_complete(self._serve())
        finally:
            with contextlib.suppress(Exception):
                loop.run_until_complete(loop.shutdown_asyncgens())
            loop.close()

    async def _serve(self) -> None:
        self._stop_evt = asyncio.Event()
        try:
            self._server = await asyncio.start_server(
                self._handle, self._host, self._requested_port)
        except OSError as exc:
            self._startup_error = exc
            self._started_evt.set()
            return
        self._port = self._server.sockets[0].getsockname()[1]
        self._started_evt.set()
        await self._stop_evt.wait()
        # Listener closes before connections: a draining service must not
        # see new sockets, only the tail of already-accepted work.
        self._server.close()
        await self._server.wait_closed()
        for task in [t for t in self._tasks if not t.done()]:
            task.cancel()
        if self._tasks:
            await asyncio.gather(*self._tasks, return_exceptions=True)

    # -- connection handling -----------------------------------------------
    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._tasks.add(task)
            task.add_done_callback(self._tasks.discard)
        sock = writer.get_extra_info("socket")
        if sock is not None:
            import socket as _socket

            with contextlib.suppress(OSError):
                sock.setsockopt(_socket.IPPROTO_TCP, _socket.TCP_NODELAY, 1)
        if not self._gate.try_acquire():
            self._m_conn_rejected.inc()
            self._write(writer, Error(
                0, "too_many_connections",
                f"server accepts at most {self.admission.max_connections} "
                "connections"))
            writer.close()
            return
        self._m_connections.inc()
        self._m_active.set(self._gate.active)
        conn = _Connection(self._conn_seq, writer,
                           InflightWindow(self.admission.max_inflight))
        self._conn_seq += 1
        self._conns.add(conn)
        decoder = FrameDecoder(max_frame_bytes=self.admission.max_frame_bytes)
        try:
            while True:
                data = await reader.read(65536)
                if not data:
                    break
                self._m_bytes.labels("in").inc(len(data))
                close = False
                for event in decoder.feed(data):
                    if isinstance(event, FrameError):
                        self._m_decode_errors.inc()
                        self._send(conn, Error(0, event.code, str(event)))
                        continue
                    self._m_requests.labels(event.type).inc()
                    close = await self._dispatch(conn, event)
                    if close:
                        break
                if close:
                    break
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
            pass
        finally:
            conn.open = False
            self._conns.discard(conn)
            for entry in conn.window.drain():
                if not entry.responded:
                    entry.responded = True
                    self._m_inflight.dec()
                if entry.timer is not None:
                    entry.timer.cancel()
            self._gate.release()
            self._m_active.set(self._gate.active)
            # No await on wait_closed(): stop() cancelling the handler
            # there would end it cancelled, which asyncio 3.11 logs as
            # an error.  The transport finishes closing on its own.
            writer.close()

    async def _dispatch(self, conn: _Connection, msg) -> bool:
        """Handle one message; returns True when the connection must close."""
        if isinstance(msg, SubmitBatch):
            return await self._dispatch_submit(conn, msg)
        if isinstance(msg, Ping):
            self._send(conn, Pong(msg.id))
            return False
        if isinstance(msg, Snapshot):
            snap = self.service.snapshot()
            self._send(conn, SnapshotReply(msg.id, snap.to_dict()))
            return False
        if isinstance(msg, Drain):
            loop = asyncio.get_running_loop()
            try:
                ok = await loop.run_in_executor(
                    self._executor, self.service.drain, msg.timeout)
            except ServiceStateError as exc:
                self._send(conn, Error(msg.id, "unavailable", str(exc)))
                return False
            self._send(conn, DrainReply(msg.id, bool(ok)))
            return False
        if isinstance(msg, Migrate):
            loop = asyncio.get_running_loop()
            try:
                ckpt = await loop.run_in_executor(
                    self._executor, self.service.capture_shard,
                    msg.shard, msg.timeout)
            except (ValueError, ServiceStateError) as exc:
                code = ("bad_request" if isinstance(exc, ValueError)
                        else "unavailable")
                self._send(conn, Error(msg.id, code, str(exc)))
                return False
            self._send(conn, MigrateReply(
                msg.id, msg.shard, ckpt.t,
                base64.b64encode(ckpt.payload).decode("ascii")))
            return False
        if isinstance(msg, Install):
            loop = asyncio.get_running_loop()
            try:
                ckpt = ShardCheckpoint.from_wire(
                    msg.t, base64.b64decode(msg.payload.encode("ascii")))
                await loop.run_in_executor(
                    self._executor, self.service.install_shard,
                    msg.shard, ckpt, msg.timeout)
            except (ValueError, binascii.Error) as exc:
                self._send(conn, Error(msg.id, "bad_request", str(exc)))
                return False
            except ServiceStateError as exc:
                self._send(conn, Error(msg.id, "unavailable", str(exc)))
                return False
            self._send(conn, InstallReply(msg.id, msg.shard, True))
            return False
        # A response-typed message from a client is a protocol violation.
        self._send(conn, Error(
            msg.id, "bad_request", f"unexpected {msg.type} message"))
        return False

    async def _dispatch_submit(self, conn: _Connection, msg: SubmitBatch) -> bool:
        loop = asyncio.get_running_loop()
        t = conn.n_submits
        conn.n_submits += 1
        if self._plan is not None:
            spec = self._plan.poll(conn.id, t)
            if spec is not None:
                self._m_faults.labels(spec.kind).inc()
                if spec.kind == "delay":
                    await asyncio.sleep(spec.delay_s)
                elif spec.kind == "drop":
                    return False  # request vanishes; the client times out
                else:  # kill: abrupt close, mid-protocol
                    return True
        ctx = (TraceContext.from_wire(msg.trace)
               if msg.trace is not None else None)
        entry = _Request(msg.id, len(msg.pages), loop.time(), trace=ctx, t=t)
        victim = conn.window.admit(msg.id, entry)
        self._m_inflight.inc()
        if victim is not None and not victim.responded:
            victim.responded = True
            if victim.timer is not None:
                victim.timer.cancel()
            self._m_shed.inc()
            self._m_inflight.dec()
            self._send(conn, SubmitAck(
                victim.id, "shed", victim.n_requests,
                detail="per-connection in-flight window overflow"))
        pages = np.asarray(msg.pages, dtype=np.int64)
        levels = (np.asarray(msg.levels, dtype=np.int64)
                  if msg.levels else None)
        try:
            result = self.service.submit_batch(pages, levels, trace=ctx)
        except (InvalidRequestError, InvalidInstanceError, ValueError) as exc:
            self._finish(conn, entry)
            self._send(conn, Error(msg.id, "bad_request", str(exc)))
            return False
        except ServiceStateError as exc:
            self._finish(conn, entry)
            self._send(conn, Error(msg.id, "unavailable", str(exc)))
            return False
        if isinstance(result, Overloaded):
            self._m_overloaded.inc()
            self._finish(conn, entry)
            self._send(conn, SubmitAck(
                msg.id, "overloaded", entry.n_requests, shard=result.shard,
                detail=f"shard queue at depth {result.queue_depth}"))
            return False
        if isinstance(result, Failed):
            self._finish(conn, entry)
            self._send(conn, SubmitAck(
                msg.id, "failed", entry.n_requests, shard=result.shard,
                detail=repr(result.error)))
            return False
        # Accepted: answer from the ticket's done-callback or the deadline
        # timer, whichever fires first, without blocking the reader.
        remaining = self.admission.request_deadline_s - (loop.time() - entry.started)
        entry.timer = loop.call_later(max(remaining, 1e-3), self._expire,
                                      conn, entry)
        result.add_done_callback(
            lambda ticket: self._on_ticket(conn, entry, ticket))
        return False

    def _on_ticket(self, conn: _Connection, entry: _Request,
                   ticket: BatchTicket) -> None:
        """Done-callback: answer on the loop, from whichever thread resolved."""
        if threading.get_ident() == self._loop_tid:
            self._answer(conn, entry, ticket)
            return
        with contextlib.suppress(RuntimeError):  # loop closed: no one to answer
            self._loop.call_soon_threadsafe(self._answer, conn, entry, ticket)

    def _answer(self, conn: _Connection, entry: _Request,
                ticket: BatchTicket) -> None:
        if entry.responded or not conn.open:
            return
        status, detail = self._outcome(ticket)
        elapsed = self._loop.time() - entry.started
        self._m_latency.observe(elapsed)
        self._finish(conn, entry)
        if self._spans is not None and entry.trace is not None:
            self._spans.emit(
                entry.trace, "ack", tier="net", t=entry.t,
                attrs={"status": status, "n_requests": entry.n_requests},
                dur=elapsed)
        self._send(conn, SubmitAck(
            entry.id, status, entry.n_requests, detail=detail))

    @staticmethod
    def _outcome(ticket: BatchTicket) -> tuple[str, str]:
        """The ``(status, detail)`` a resolved ticket is acked with."""
        if ticket.ok:
            return "ok", ""
        return "failed", repr(ticket.errors[0] if ticket.errors
                              else "shard slice failed")

    def _expire(self, conn: _Connection, entry: _Request) -> None:
        """Deadline timer: answer ``deadline`` if nothing answered yet."""
        if entry.responded or not conn.open:
            return
        self._m_deadline.inc()
        self._finish(conn, entry)
        self._send(conn, SubmitAck(
            entry.id, "deadline", entry.n_requests,
            detail=f"not resolved within "
                   f"{self.admission.request_deadline_s:g}s"))

    def _finish(self, conn: _Connection, entry: _Request) -> None:
        """Claim the response slot for ``entry`` and release its window seat."""
        entry.responded = True
        conn.window.resolve(entry.id)
        self._m_inflight.dec()
        if entry.timer is not None:
            entry.timer.cancel()

    # -- writes ------------------------------------------------------------
    def _send(self, conn: _Connection, msg) -> None:
        self._write(conn.writer, msg)

    def _write(self, writer: asyncio.StreamWriter, msg) -> None:
        """Queue one frame on the transport (never blocks the loop)."""
        if writer.is_closing():
            return
        data = encode(msg, max_frame_bytes=2**31 - 1)
        writer.write(data)
        self._m_bytes.labels("out").inc(len(data))

    def __repr__(self) -> str:
        state = "serving" if self._thread is not None else "stopped"
        return f"NetServer({self.address}, {state}, conns={self._gate.active})"
