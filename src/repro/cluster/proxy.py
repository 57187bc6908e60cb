"""ClusterProxy: one wire-protocol front door over N ``repro serve`` backends.

The proxy is a :class:`~repro.net.NetServer` — the same asyncio front end,
admission window and request deadline a single node uses — whose service
is a :class:`RemoteService` instead of a local
:class:`~repro.service.server.PagingService`:

* pages hash to **cluster shards** with the same splitmix64
  :class:`~repro.service.router.ShardRouter` every backend uses
  internally, so a page lands on the same shard engine no matter which
  backend currently owns that shard;
* each submit is admitted through the :class:`RoutingTable`, split into
  one part per owning backend (arrival order preserved within each part)
  and pipelined over one shared connection per backend (a :class:`_Link`),
  on the server's own event loop;
* a submit touching a shard held by a migration *parks* — without
  blocking the loop — until the shard is released or ``hold_timeout``
  passes;
* ``overloaded`` part answers are retried with capped backoff, and a
  lost backend connection is re-dialed and its in-flight parts resent
  (at-least-once: a part applied just before the loss is applied again).

The front ack is ``ok`` only when every part acked ``ok``; ``overloaded``
only when nothing was applied (every part refused ``overloaded``, or the
hold timed out); otherwise ``failed``, with each part's status in the
detail — a partly applied batch must never look retryable.

Threads: the NetServer loop thread plus its 2-thread executor, however
many clients connect.  Snapshot fan-out, ``Drain`` and ``MoveShard`` make
blocking backend calls, so they run on the executor; the loop stays free
to process the acks a migration's idle-wait is waiting for.
"""

from __future__ import annotations

import asyncio
import contextlib
import threading
from collections import deque
from time import monotonic

import numpy as np

from repro.cluster.map import ClusterMap
from repro.cluster.migrate import migrate_shard
from repro.errors import (
    FrameError,
    MigrationError,
    ServiceConfigError,
    ServiceStateError,
)
from repro.net.admission import AdmissionPolicy
from repro.net.client import PagingClient, RemoteError, parse_address
from repro.net.frame import (
    DEFAULT_MAX_FRAME_BYTES,
    ClusterStatus,
    ClusterStatusReply,
    Error,
    FrameDecoder,
    Install,
    Migrate,
    MoveShard,
    MoveShardReply,
    Snapshot,
    SnapshotReply,
    SubmitBatch,
    encode,
)
from repro.net.server import NetServer
from repro.obs.registry import null_registry
from repro.obs.rtrace import SpanExporter, flight_recorder
from repro.service.ingest import BatchTicket
from repro.service.router import ShardRouter

__all__ = ["ClusterProxy", "RemoteService", "RoutingTable"]

#: Backoff ceiling for per-part overload retries (the client's policy).
_BACKOFF_CAP_S = 0.05
#: Pause between dials of an unreachable backend.
_REDIAL_S = 0.05


class RoutingTable:
    """Shared, lockable routing state: the live map + migration gates.

    Admission protocol: a submit calls :meth:`admit` with the distinct
    shards it touches.  Unless one of them is *held* by a migration, admit
    atomically increments the shards' in-flight counts and returns the map
    to route by; it never waits.  The migrator's counterpart —
    :meth:`hold` then :meth:`wait_shard_idle` — therefore observes a shard
    with zero in-flight submits only when no admitted submit can still
    reach the old owner, which is exactly the no-lost-update condition.
    """

    def __init__(self, cluster_map: ClusterMap) -> None:
        self._map = cluster_map
        self._cond = threading.Condition()
        self._held = [False] * cluster_map.n_shards
        self._inflight = [0] * cluster_map.n_shards
        #: Serializes migrations (one shard moves at a time).
        self.migration_lock = threading.Lock()
        #: Called with no arguments, on the releasing thread, after
        #: :meth:`release` reopens a shard (the proxy wakes parked submits).
        self.on_release = None

    @property
    def map(self) -> ClusterMap:
        """The current cluster map (immutable; safe to use lock-free)."""
        with self._cond:
            return self._map

    # -- submit side -------------------------------------------------------
    def admit(self, shards) -> ClusterMap | None:
        """Admit one submit touching ``shards``; None while any is held.

        On success the shards' in-flight counts are incremented and the
        map that routing must use is returned — reading the map *inside*
        the same critical section as the increment is what makes the
        flip in :meth:`reassign` atomic from the submit's point of view.
        """
        with self._cond:
            if any(self._held[s] for s in shards):
                return None
            for s in shards:
                self._inflight[s] += 1
            return self._map

    def finish(self, shards) -> None:
        """Release one admitted submit's in-flight slots."""
        with self._cond:
            for s in shards:
                self._inflight[s] -= 1
            self._cond.notify_all()

    def wait_idle(self, timeout: float | None = None) -> bool:
        """Block until no admitted submit is in flight anywhere."""
        with self._cond:
            return self._cond.wait_for(
                lambda: not any(self._inflight), timeout)

    # -- migration side ----------------------------------------------------
    def hold(self, shard: int) -> None:
        """Stop admitting submits touching ``shard`` (they park)."""
        with self._cond:
            self._held[shard] = True

    def release(self, shard: int) -> None:
        """Reopen ``shard`` for traffic."""
        with self._cond:
            self._held[shard] = False
        if self.on_release is not None:
            self.on_release()

    def wait_shard_idle(self, shard: int, timeout: float | None) -> bool:
        """Block until every admitted submit touching ``shard`` finished."""
        with self._cond:
            return self._cond.wait_for(
                lambda: self._inflight[shard] == 0, timeout)

    def reassign(self, shard: int, target: str) -> ClusterMap:
        """Flip one shard's owner; returns the new (epoch-bumped) map."""
        with self._cond:
            self._map = self._map.with_owner(shard, target)
            return self._map


class _Refused(RuntimeError):
    """A front submit that did not end ``ok``: its ack status and detail."""

    def __init__(self, status: str, detail: str) -> None:
        super().__init__(detail)
        self.status = status


class _Submit:
    """One front submit: parked until admitted, then one part per backend."""

    __slots__ = ("ticket", "pages", "levels", "owners", "shards", "trace",
                 "timer", "n_parts", "outcomes")

    def __init__(self, ticket: BatchTicket, pages, levels, owners,
                 shards: list[int], trace) -> None:
        self.ticket = ticket
        self.pages = pages
        self.levels = levels
        self.owners = owners
        self.shards = shards
        self.trace = trace
        #: The hold-timeout timer while parked.
        self.timer: asyncio.TimerHandle | None = None
        self.n_parts = 0
        #: ``(backend, status, detail)`` per resolved part.
        self.outcomes: list[tuple[str, str, str]] = []


class _Part:
    """One backend's share of a submit, as sent (and resent) on its link."""

    __slots__ = ("submit", "pages", "levels", "trace", "attempts")

    def __init__(self, submit: _Submit, pages: list, levels, trace) -> None:
        self.submit = submit
        self.pages = pages
        self.levels = levels
        self.trace = trace
        self.attempts = 0


class _Link(asyncio.Protocol):
    """One pipelined connection to one backend, shared by every submit.

    At most ``window`` parts are in flight; the rest wait in FIFO order.
    When the connection is lost, the in-flight parts go back to the head
    of the queue and the backend is re-dialed every ``_REDIAL_S`` until it
    answers, so a backend restart costs latency, not tickets.
    """

    def __init__(self, service: "RemoteService", address: str) -> None:
        self.service = service
        self.address = address
        self.host, self.port = parse_address(address)
        self.transport: asyncio.Transport | None = None
        self.dialer: asyncio.Task | None = None
        self.closed = False
        self.decoder = FrameDecoder()
        self.next_id = 1
        self.inflight: dict[int, _Part] = {}
        self.waiting: deque[_Part] = deque()

    def send(self, part: _Part) -> None:
        self.waiting.append(part)
        self._pump()

    def _resend(self, part: _Part) -> None:
        self.waiting.appendleft(part)
        self._pump()

    def _pump(self) -> None:
        if self.transport is None:
            if self.dialer is None and not self.closed:
                self.dialer = self.service.loop.create_task(self._dial())
            return
        svc = self.service
        while self.waiting and len(self.inflight) < svc.window:
            part = self.waiting.popleft()
            rid = self.next_id
            self.next_id += 1
            self.inflight[rid] = part
            self.transport.write(encode(
                SubmitBatch(rid, part.pages, part.levels, trace=part.trace),
                max_frame_bytes=svc.max_frame_bytes))
            svc._m_forwards.labels(self.address).inc()

    async def _dial(self) -> None:
        loop = self.service.loop
        while not self.closed:
            try:
                await asyncio.wait_for(loop.create_connection(
                    lambda: self, self.host, self.port), self.service.timeout)
                break
            except (OSError, asyncio.TimeoutError):
                await asyncio.sleep(_REDIAL_S)
        self.dialer = None

    def close(self) -> None:
        self.closed = True
        if self.transport is not None:
            self.transport.abort()
        if self.dialer is not None:
            self.dialer.cancel()

    # -- asyncio.Protocol ----------------------------------------------------
    def connection_made(self, transport) -> None:
        self.transport = transport
        self._pump()

    def connection_lost(self, exc) -> None:
        self.transport = None
        self.decoder = FrameDecoder()
        self.waiting.extendleft(reversed(self.inflight.values()))
        self.inflight.clear()
        if self.waiting:
            self._pump()

    def data_received(self, data: bytes) -> None:
        svc = self.service
        for event in self.decoder.feed(data):
            part = self.inflight.pop(getattr(event, "id", 0), None)
            if part is None:
                # Undecodable bytes or a connection-scoped error (id 0,
                # e.g. too_many_connections): drop the link and resend.
                if isinstance(event, (FrameError, Error)):
                    self.transport.abort()
                    return
                continue
            if isinstance(event, Error):
                svc._part_done(self.address, part, "failed",
                              f"[{event.code}] {event.message}")
            elif event.retryable and part.attempts < svc.retries:
                part.attempts += 1
                svc.loop.call_later(
                    min(svc.retry_backoff * 2 ** (part.attempts - 1),
                        _BACKOFF_CAP_S), self._resend, part)
            else:
                svc._part_done(self.address, part, event.status, event.detail)
        self._pump()


class RemoteService:
    """The service surface :class:`~repro.net.NetServer` drives, served by
    remote backends.

    :meth:`submit_batch` returns a :class:`~repro.service.ingest.BatchTicket`
    that resolves once every backend part is acked (a failed ticket's
    error carries the merged front status).  It and everything behind it
    run on the loop given to :meth:`bind`; :meth:`drain` and
    :meth:`snapshot` block on backend round trips, so call them off-loop.
    """

    def __init__(
        self,
        cluster_map: ClusterMap,
        *,
        window: int = 16,
        retries: int = 8,
        retry_backoff: float = 0.002,
        timeout: float = 30.0,
        hold_timeout: float = 60.0,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
        registry=None,
        span_exporter: SpanExporter | None = None,
    ) -> None:
        if window < 1:
            raise ServiceConfigError(f"window must be >= 1, got {window}")
        self.table = RoutingTable(cluster_map)
        self.router = ShardRouter(cluster_map.n_shards)
        self.window = window
        self.retries = retries
        self.retry_backoff = retry_backoff
        self.timeout = timeout
        self.hold_timeout = hold_timeout
        self.max_frame_bytes = max_frame_bytes
        self.registry = registry if registry is not None else null_registry()
        self._m_submits = self.registry.counter(
            "repro_proxy_submits_total", "Front submits received")
        self._m_forwards = self.registry.counter(
            "repro_proxy_forwards_total",
            "Parts forwarded to backends", ("backend",))
        #: Optional exporter for ``proxy``-tier spans (admit + per-part
        #: forward); incoming contexts are forwarded to backends either
        #: way, so tracing composes across tiers without proxy recording.
        self._spans = span_exporter
        self._submit_seq = 0
        self.loop: asyncio.AbstractEventLoop | None = None
        self._links: dict[str, _Link] = {}
        #: Submits waiting on a held shard, in arrival order.
        self._parked: deque[_Submit] = deque()
        self._parked_on = [0] * cluster_map.n_shards

    # -- loop lifecycle ------------------------------------------------------
    def bind(self, loop: asyncio.AbstractEventLoop) -> None:
        """Serve from ``loop``; releases wake parked submits on it."""
        self.loop = loop

        def wake() -> None:
            with contextlib.suppress(RuntimeError):  # loop already closed
                loop.call_soon_threadsafe(self._wake)

        self.table.on_release = wake

    async def close(self) -> None:
        """Drop every backend link (on the bound loop)."""
        self.table.on_release = None
        dialers = [link.dialer for link in self._links.values()
                   if link.dialer is not None]
        for link in self._links.values():
            link.close()
        await asyncio.gather(*dialers, return_exceptions=True)

    # -- submit path (on the loop) --------------------------------------------
    def submit_batch(self, pages, levels=None, *, trace=None) -> BatchTicket:
        """Admit (or park) one batch and forward its parts; never blocks."""
        self._m_submits.inc()
        pages = np.asarray(pages, dtype=np.int64)
        if levels is not None:
            levels = np.asarray(levels, dtype=np.int64)
            if levels.shape != pages.shape:
                raise ValueError(
                    f"{levels.size} levels for {pages.size} pages")
        if pages.size == 0:
            return BatchTicket(0, 0)
        owners = self.router.shards_of(pages)
        sub = _Submit(BatchTicket(1, int(pages.size)), pages, levels, owners,
                      np.unique(owners).tolist(), trace)
        # A submit never overtakes a parked one on a shard they share.
        cmap = (None if any(self._parked_on[s] for s in sub.shards)
                else self.table.admit(sub.shards))
        if cmap is None:
            self._parked.append(sub)
            for s in sub.shards:
                self._parked_on[s] += 1
            sub.timer = self.loop.call_later(
                self.hold_timeout, self._hold_expired, sub)
        else:
            self._forward(sub, cmap)
        return sub.ticket

    def _wake(self) -> None:
        """Admit the parked submits whose shards are open, oldest first."""
        blocked: set[int] = set()
        parked, self._parked = self._parked, deque()
        for sub in parked:
            cmap = (self.table.admit(sub.shards)
                    if blocked.isdisjoint(sub.shards) else None)
            if cmap is None:
                blocked.update(sub.shards)
                self._parked.append(sub)
                continue
            sub.timer.cancel()
            for s in sub.shards:
                self._parked_on[s] -= 1
            self._forward(sub, cmap)

    def _hold_expired(self, sub: _Submit) -> None:
        self._parked.remove(sub)
        for s in sub.shards:
            self._parked_on[s] -= 1
        sub.ticket.part_failed(_Refused(
            "overloaded", "shard held by migration beyond hold_timeout"))
        self._wake()

    def _forward(self, sub: _Submit, cmap: ClusterMap) -> None:
        # Group the touched shards by owning backend; each group becomes
        # one part, its pages kept in arrival order (boolean masks are
        # order-preserving), so per-shard request order is untouched.
        by_backend: dict[str, list[int]] = {}
        for s in sub.shards:
            by_backend.setdefault(cmap.owner_of(s), []).append(s)
        sub.n_parts = len(by_backend)
        ctx = sub.trace
        spans = self._spans if ctx is not None else None
        if spans is not None:
            t = self._submit_seq
            self._submit_seq += 1
            ctx = spans.emit(ctx, "admit", tier="proxy", t=t,
                             attrs={"n_requests": int(sub.pages.size),
                                    "n_backends": sub.n_parts})
        part_of = None
        if sub.n_parts > 1:
            part_of_shard = np.empty(cmap.n_shards, dtype=np.intp)
            for idx, owned in enumerate(by_backend.values()):
                part_of_shard[owned] = idx
            part_of = part_of_shard[sub.owners]
        for idx, backend in enumerate(by_backend):
            pages, levels = sub.pages, sub.levels
            if part_of is not None:
                mask = part_of == idx
                pages = pages[mask]
                levels = None if levels is None else levels[mask]
            fwd = ctx
            if spans is not None:
                fwd = spans.emit(ctx, "forward", tier="proxy", t=t, index=idx,
                                 attrs={"backend": backend,
                                        "n_requests": int(pages.size)})
            link = self._links.get(backend)
            if link is None:
                link = self._links[backend] = _Link(self, backend)
            link.send(_Part(sub, pages.tolist(),
                            () if levels is None else levels.tolist(),
                            None if fwd is None else fwd.to_wire()))

    def _part_done(self, backend: str, part: _Part, status: str,
                  detail: str) -> None:
        """Record one part's terminal ack; the last one resolves the ticket."""
        sub = part.submit
        sub.outcomes.append((backend, status, detail))
        if len(sub.outcomes) < sub.n_parts:
            return
        # Release the routing slots *before* the ack write: a client that
        # reacts instantly (migrate-on-ack tests do) must see the table
        # already idle.
        self.table.finish(sub.shards)
        statuses = {s for _, s, _ in sub.outcomes}
        if statuses == {"ok"}:
            sub.ticket.part_done()
            return
        sub.ticket.part_failed(_Refused(
            "overloaded" if statuses == {"overloaded"} else "failed",
            "; ".join(f"{b} {s}" + (f": {d}" if d else "")
                      for b, s, d in sub.outcomes)))

    # -- blocking control plane (off the loop) -------------------------------
    def _call(self, address: str, fn):
        """Run one control-plane call on an ephemeral backend client."""
        with PagingClient(address, timeout=self.timeout) as client:
            return fn(client)

    def drain(self, timeout: float | None = None) -> bool:
        """Wait until no admitted submit is in flight, then drain every
        backend; False when ``timeout`` expired first."""
        deadline = None if timeout is None else monotonic() + timeout

        def remaining() -> float | None:
            return None if deadline is None else max(0.0, deadline - monotonic())

        if not self.table.wait_idle(remaining()):
            return False
        ok = True
        for backend in self.table.map.backends:
            try:
                ok = self._call(backend, lambda c: c.drain(remaining())) and ok
            except (OSError, RemoteError) as exc:
                raise ServiceStateError(
                    f"backend drain failed: {exc}") from exc
        return ok

    def snapshot(self) -> dict:
        """One service-shaped snapshot: each shard from its current owner.

        Backends replicate the full shard set, so every backend reports
        every shard; only the owner's copy carries that shard's live
        state (the others are idle or stale post-migration).  Service-wide
        ingest counters are summed across backends.
        """
        cmap = self.table.map
        try:
            per_backend = {b: self._call(b, lambda c: c.snapshot())
                           for b in cmap.backends}
        except (OSError, RemoteError) as exc:
            raise ServiceStateError(
                f"backend snapshot failed: {exc}") from exc
        shard_dicts = []
        for shard in range(cmap.n_shards):
            owner = per_backend[cmap.owner_of(shard)]
            shard_dicts.append(next(
                s for s in owner["shards"] if s["shard"] == shard))
        n_requests = sum(s["n_requests"] for s in shard_dicts)
        n_hits = sum(s["n_hits"] for s in shard_dicts)
        cost_by_level: dict[str, float] = {}
        for s in shard_dicts:
            for level, cost in s["cost_by_level"].items():
                cost_by_level[level] = cost_by_level.get(level, 0.0) + cost
        merged = {
            "n_requests": n_requests,
            "n_hits": n_hits,
            "n_misses": sum(s["n_misses"] for s in shard_dicts),
            "hit_rate": (n_hits / n_requests) if n_requests else 0.0,
            "eviction_cost": sum(s["eviction_cost"] for s in shard_dicts),
            "cost_by_level": cost_by_level,
        }
        for key in ("n_overloaded", "n_submitted_batches",
                    "n_worker_restarts", "n_failed_shards",
                    "n_faults_injected"):
            merged[key] = sum(b[key] for b in per_backend.values())
        merged["shards"] = shard_dicts
        merged["cluster"] = cmap.to_dict()
        return merged


class ClusterProxy(NetServer):
    """A :class:`~repro.net.NetServer` routing the wire protocol over a cluster.

    Adds the cluster messages (``ClusterStatus``, ``MoveShard``) and the
    merged ``Snapshot`` to the single-node front end; ``Migrate`` and
    ``Install`` are backend-only and answer ``bad_request``.  The proxy
    never owns the backends' lifecycles — they are independent
    ``repro serve`` processes.
    """

    def __init__(
        self,
        cluster_map: ClusterMap,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        window: int = 16,
        retries: int = 8,
        retry_backoff: float = 0.002,
        timeout: float = 30.0,
        hold_timeout: float = 60.0,
        migration_timeout: float = 60.0,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
        registry=None,
        span_exporter: SpanExporter | None = None,
    ) -> None:
        reg = registry if registry is not None else null_registry()
        service = RemoteService(
            cluster_map, window=window, retries=retries,
            retry_backoff=retry_backoff, timeout=timeout,
            hold_timeout=hold_timeout, max_frame_bytes=max_frame_bytes,
            registry=reg, span_exporter=span_exporter)
        # A held submit answers 'overloaded' at hold_timeout, before the
        # deadline, which also covers one backend round trip.  The front's
        # repro_net_* families stay out of the proxy registry: federation
        # sums the proxy page into every backend="all" total.
        super().__init__(
            service, host=host, port=port,
            admission=AdmissionPolicy(request_deadline_s=hold_timeout + timeout,
                                      max_frame_bytes=max_frame_bytes),
            registry=null_registry())
        # NetServer counts each accepted connection through this attribute.
        self._m_connections = reg.counter(
            "repro_proxy_connections_total", "Front connections accepted")
        self._m_migrations = reg.counter(
            "repro_proxy_migrations_total", "Shard migrations completed")
        self._m_migrating = reg.gauge(
            "repro_proxy_migrations_inflight", "Migrations currently running")
        self._m_epoch = reg.gauge(
            "repro_proxy_epoch", "Current cluster map epoch")
        self._m_epoch.set(cluster_map.epoch)
        self.migration_timeout = migration_timeout
        self.n_migrations = 0

    @property
    def table(self) -> RoutingTable:
        return self.service.table

    @property
    def router(self) -> ShardRouter:
        return self.service.router

    # -- lifecycle ---------------------------------------------------------
    def start(self, *, check_backends: bool = True) -> "ClusterProxy":
        """Bind the front listener (optionally pinging every backend first)."""
        if self._thread is not None:
            raise ServiceStateError("cluster proxy already started")
        if check_backends:
            for backend in self.table.map.backends:
                with PagingClient(backend, timeout=self.service.timeout) as probe:
                    probe.ping()
        super().start()
        return self

    async def _serve(self) -> None:
        self.service.bind(asyncio.get_running_loop())
        try:
            await super()._serve()
        finally:
            await self.service.close()

    # -- dispatch ----------------------------------------------------------
    async def _dispatch(self, conn, msg) -> bool:
        if isinstance(msg, ClusterStatus):
            reply = ClusterStatusReply(msg.id, self.status())
        elif isinstance(msg, (Snapshot, MoveShard)):
            reply = await asyncio.get_running_loop().run_in_executor(
                self._executor, self._control, msg)
        elif isinstance(msg, (Migrate, Install)):
            reply = Error(msg.id, "bad_request",
                          f"unexpected {msg.type} message")
        else:  # submit, ping, drain and response-typed messages
            return await super()._dispatch(conn, msg)
        self._send(conn, reply)
        return False

    def _control(self, msg):
        """Answer a Snapshot or MoveShard (blocking; runs on the executor)."""
        if isinstance(msg, Snapshot):
            try:
                return SnapshotReply(msg.id, self.service.snapshot())
            except ServiceStateError as exc:
                return Error(msg.id, "unavailable", str(exc))
        try:
            result = self.migrate(msg.shard, msg.target)
        except (ValueError, ServiceConfigError) as exc:
            return Error(msg.id, "bad_request", str(exc))
        except (MigrationError, OSError, RemoteError) as exc:
            return MoveShardReply(
                msg.id, msg.shard, ok=False, target=msg.target,
                epoch=self.table.map.epoch, detail=str(exc))
        return MoveShardReply(
            msg.id, msg.shard, ok=True, source=result["source"],
            target=result["target"], epoch=result["epoch"],
            detail=result["detail"])

    @staticmethod
    def _outcome(ticket: BatchTicket) -> tuple[str, str]:
        if ticket.ok:
            return "ok", ""
        refused = ticket.errors[0]
        return refused.status, str(refused)

    # -- control plane -----------------------------------------------------
    def status(self) -> dict:
        """The live map plus proxy-side counters (ClusterStatus payload)."""
        payload = self.table.map.to_dict()
        payload["n_migrations"] = self.n_migrations
        return payload

    def migrate(self, shard: int, target: str) -> dict:
        """Live-migrate ``shard`` to ``target``; returns the outcome dict.

        Delegates to :func:`repro.cluster.migrate_shard` with this
        proxy's routing table, so in-flight tickets finish on the old
        owner before the state moves and parked ones only resume once
        routing points at the new owner.  Blocks; never call it on the
        proxy's event loop.
        """
        self._m_migrating.set(1)
        try:
            result = migrate_shard(
                self.table, shard, target, timeout=self.migration_timeout)
        except MigrationError:
            # Preserve the last spans' worth of context for the post-mortem
            # before the error propagates to the mover.
            flight_recorder().dump(f"migration-error-shard-{shard}")
            raise
        finally:
            self._m_migrating.set(0)
        if result["moved"]:
            self.n_migrations += 1
            self._m_migrations.inc()
            self._m_epoch.set(result["epoch"])
        return result

    def __repr__(self) -> str:
        state = "serving" if self._thread is not None else "stopped"
        return f"ClusterProxy({self.address}, {state}, {self.table.map!r})"
