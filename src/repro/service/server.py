"""The paging service: router + shard engines + bounded ingest queues.

:class:`PagingService` serves through one of three backends
(``config.backend``):

* **inline** — :meth:`submit_batch` routes and serves the batch on the
  caller's thread; :meth:`start` is a no-op.  Deterministic, zero
  queueing, ideal for benchmarks and tests.  (The default ``thread``
  backend also serves inline until :meth:`start` is called.)
* **thread** (after :meth:`start`, or inside a ``with`` block) — each
  shard owns a bounded :class:`queue.Queue` drained by a dedicated worker
  thread.  Submissions that would overflow any target shard queue are
  rejected with :class:`~repro.service.ingest.Overloaded` — the service
  never buffers unboundedly.
* **process** — the same bounded queues and worker threads, but each
  worker thread is a thin proxy: the shard engine lives in its own
  spawned OS process (:class:`~repro.service.procworker.ProcEngine`),
  fed micro-batches over a pipe.  This is the only backend whose
  aggregate throughput scales with cores; it requires :meth:`start`
  before any traffic.

Either way, per-shard request order equals arrival order, so the per-shard
cost ledgers are bit-reproducible for a given (seed, trace) regardless of
thread scheduling — the property the conformance tests pin down.

Failure semantics (threaded mode)
---------------------------------
With ``checkpoint_interval > 0`` the service *recovers* from worker
deaths: every accepted shard slice is also appended to a bounded in-memory
replay log, each worker checkpoints its engine every ``checkpoint_interval``
requests, and a supervisor thread restarts dead workers from their last
checkpoint and replays the log suffix — per-shard ledgers and traces end
byte-identical to a fault-free run.  A shard that exhausts its
``max_restarts`` budget is marked **failed**: its pending tickets complete
with a failure result (``ticket.ok`` is False; ``wait()`` never hangs) and
subsequent submissions touching it return
:class:`~repro.service.ingest.Failed`.

With ``checkpoint_interval == 0`` (the default) there is no recovery: a
worker death fails the shard immediately — pending tickets complete as
failed and the error is re-raised on the next submit/drain.
"""

from __future__ import annotations

import queue as _queue
import threading
from dataclasses import replace
from pathlib import Path
from time import monotonic, perf_counter, sleep

import numpy as np

from repro.errors import InjectedFault, ServiceStateError
from repro.faults.checkpoint import ShardCheckpoint
from repro.obs.registry import null_registry
from repro.obs.rtrace import (
    RequestSampler,
    SpanExporter,
    TraceContext,
    flight_recorder,
)
from repro.obs.spans import PhaseProfiler
from repro.obs.tracer import DecisionTracer
from repro.service.config import ServiceConfig
from repro.service.engine import ShardEngine
from repro.service.ingest import BatchTicket, Failed, MicroBatcher, Overloaded
from repro.service.metrics import ServiceSnapshot
from repro.service.procworker import ProcEngine
from repro.service.router import ShardRouter
from repro.sim.seeding import spawn_seeds

__all__ = ["PagingService"]

#: Maximum in-memory replay-log entries per shard.  Reaching the cap forces
#: an early checkpoint (which prunes the log), bounding recovery memory at
#: this many batches regardless of ``checkpoint_interval``.
REPLAY_LOG_CAP = 1024

_STOP = object()


class _Part:
    """One shard's slice of an accepted batch, as logged and queued."""

    __slots__ = ("seq", "ticket", "pages", "levels", "completed",
                 "trace", "trace_t")

    def __init__(self, seq: int, ticket: BatchTicket,
                 pages: np.ndarray, levels: np.ndarray,
                 trace=None, trace_t: int = 0) -> None:
        self.seq = seq
        self.ticket = ticket
        self.pages = pages
        self.levels = levels
        #: Resolved exactly once (done or failed); guarded by the service
        #: lock so replay and queue consumption cannot double-complete.
        self.completed = False
        #: Request-trace context for this slice's shard-tier spans (the
        #: ``queue`` child), plus the logical submit time it was minted at.
        self.trace = trace
        self.trace_t = trace_t


class _ShardState:
    """Per-shard recovery bookkeeping owned by the service."""

    __slots__ = ("shard", "next_seq", "applied_seq", "log", "checkpoint",
                 "since_checkpoint", "restarts", "failed", "fail_error",
                 "n_checkpoints", "n_restores", "n_replayed", "op_lock")

    def __init__(self, shard: int) -> None:
        self.shard = shard
        #: Serializes engine access between the shard's worker thread and
        #: an external capture/install (cluster migration).  The worker
        #: holds it for the whole of ``_process_one`` — including the
        #: periodic checkpoint, which talks to the worker *process* on the
        #: process backend — so a migrator that holds it while the shard
        #: is quiescent owns the engine (and its pipe) exclusively.
        self.op_lock = threading.Lock()
        #: Sequence numbers are per-shard, assigned under the service lock
        #: at admission; queue order equals seq order equals arrival order.
        self.next_seq = 0
        #: Highest seq whose batch has been applied to the engine.
        self.applied_seq = 0
        #: Admitted-but-not-yet-pruned parts, in seq order.  Superset of
        #: the shard queue's contents, so recovery can replay everything
        #: the dead worker had popped but not finished.
        self.log: list[_Part] = []
        self.checkpoint: ShardCheckpoint | None = None
        self.since_checkpoint = 0
        self.restarts = 0
        self.failed = False
        self.fail_error: BaseException | None = None
        self.n_checkpoints = 0
        self.n_restores = 0
        self.n_replayed = 0


class PagingService:
    """A long-lived, sharded serving front-end over any registered policy."""

    def __init__(self, config: ServiceConfig) -> None:
        self.config = config
        self.registry = (config.metrics_registry
                         if config.metrics_registry is not None
                         else null_registry())
        self.router = ShardRouter(config.n_shards)
        seeds = spawn_seeds(config.seed, config.n_shards)
        if config.backend == "process":
            self.engines = [
                ProcEngine(
                    i, inst, config.policy_factory, seed,
                    validate=config.validate,
                    registry=self.registry,
                )
                for i, (inst, seed) in enumerate(
                    zip(config.shard_instances(), seeds)
                )
            ]
        else:
            self.engines = [
                ShardEngine(
                    i, inst, config.policy_factory(),
                    np.random.default_rng(seed),
                    validate=config.validate,
                    registry=self.registry,
                )
                for i, (inst, seed) in enumerate(
                    zip(config.shard_instances(), seeds)
                )
            ]
        self.profiler = PhaseProfiler()
        self._tracers: list[DecisionTracer] = []
        self._m_overloaded = self.registry.counter(
            "repro_overloaded_total", "Batch submissions rejected for backpressure"
        )
        self._m_queue_depth = self.registry.gauge(
            "repro_queue_depth", "Pending batches per shard queue", ("shard",)
        )
        # Per-shard children cached once: the queue-depth gauge is now
        # updated continuously on the ingest/serve hot paths (the control
        # plane's primary signal), not only on snapshot().
        self._m_qdepth = [self._m_queue_depth.labels(str(i))
                          for i in range(config.n_shards)]
        self._m_queue_cap = self.registry.gauge(
            "repro_queue_capacity",
            "Effective per-shard queue limit (config depth or the "
            "controller's soft shed threshold)")
        self._m_queue_cap.set(config.queue_depth)
        self._m_checkpoints = self.registry.counter(
            "repro_checkpoints_total", "Shard checkpoints taken", ("shard",)
        )
        self._m_restores = self.registry.counter(
            "repro_restores_total", "Shard checkpoint restores", ("shard",)
        )
        self._m_replayed = self.registry.counter(
            "repro_replayed_batches_total",
            "Replay-log batches re-applied after a restore", ("shard",)
        )
        self._m_restarts = self.registry.counter(
            "repro_worker_restarts_total", "Shard worker restarts", ("shard",)
        )
        self._m_faults = self.registry.counter(
            "repro_faults_injected_total", "Injected faults fired",
            ("shard", "kind"),
        )
        self._m_failed_parts = self.registry.counter(
            "repro_failed_parts_total",
            "Batch slices completed with a failure result", ("shard",)
        )
        self._recovery = config.checkpoint_interval > 0
        self._plan = config.fault_plan
        self._states = [_ShardState(i) for i in range(config.n_shards)]
        self._queues: list[_queue.Queue] = []
        self._threads: list[threading.Thread] = []
        self._supervisor: threading.Thread | None = None
        self._death_q: _queue.Queue = _queue.Queue()
        self._started = False
        self._stopped = False
        self._trace_enabled = False
        self._rtrace = False
        self._rsampler: RequestSampler | None = None
        self._svc_spans: SpanExporter | None = None
        self._shard_spans: list[SpanExporter] = []
        self._rt_next = 0
        self._rt_lock = threading.Lock()
        self._n_overloaded = 0
        self._n_batches = 0
        self._soft_queue_limit: int | None = None
        self._recorder = None
        self._errors: list[BaseException] = []
        self._lock = threading.Lock()
        self._inflight = 0
        self._idle = threading.Condition(self._lock)
        self._batcher = MicroBatcher(
            config.batch_size, config.flush_interval, self.submit_batch
        )

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> "PagingService":
        """Arm the configured backend: one bounded queue + worker per shard.

        With ``backend="inline"`` this is a no-op (the service keeps
        serving on the submitting thread); with ``backend="process"`` the
        shard worker processes are spawned before the proxy threads start.
        """
        if self._stopped:
            raise ServiceStateError("service already stopped")
        if self.config.backend == "inline":
            return self
        if self._started:
            raise ServiceStateError("service already started")
        if self.config.backend == "process":
            for engine in self.engines:
                engine.spawn()
        self._queues = [
            _queue.Queue(maxsize=self.config.queue_depth) for _ in self.engines
        ]
        self._threads = [
            threading.Thread(
                target=self._worker, args=(shard,),
                name=f"repro-shard-{shard}", daemon=True,
            )
            for shard in range(self.config.n_shards)
        ]
        self._started = True
        for t in self._threads:
            t.start()
        if self._recovery:
            self._supervisor = threading.Thread(
                target=self._supervise, name="repro-supervisor", daemon=True,
            )
            self._supervisor.start()
        return self

    def stop(self, timeout: float | None = None) -> None:
        """Drain pending work, stop the workers, and seal the service.

        ``timeout`` is one *shared* monotonic deadline covering the drain,
        every worker join and the supervisor join — the whole call returns
        within ``timeout`` seconds of being made (not ``timeout`` per
        thread).
        """
        if self._stopped:
            return
        deadline = None if timeout is None else monotonic() + timeout

        def remaining() -> float | None:
            if deadline is None:
                return None
            return max(0.0, deadline - monotonic())

        if self._started:
            self.drain(remaining())
            for q in self._queues:
                # A full queue always has a live consumer making progress
                # (failed shards have their queues drained when marked), so
                # a blocking put terminates; the deadline still bounds it.
                try:
                    if deadline is None:
                        q.put(_STOP)
                    else:
                        q.put(_STOP, timeout=max(remaining(), 1e-3))
                except _queue.Full:
                    pass
            if self._supervisor is not None:
                self._death_q.put(_STOP)
                self._supervisor.join(remaining())
            with self._lock:
                threads = list(self._threads)
            for t in threads:
                t.join(remaining())
            if self.config.backend == "process":
                for engine in self.engines:
                    engine.shutdown(remaining())
        else:
            self._flush_pending(remaining())
        self._stopped = True
        for tracer in self._tracers:
            tracer.close()
        if self._svc_spans is not None:
            self._svc_spans.close()
        for exporter in self._shard_spans:
            exporter.close()
        self._raise_pending()

    @property
    def started(self) -> bool:
        """True once :meth:`start` switched the service to threaded mode."""
        return self._started

    @property
    def stopped(self) -> bool:
        """True once :meth:`stop` sealed the service."""
        return self._stopped

    def __enter__(self) -> "PagingService":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- ingest ------------------------------------------------------------
    def submit(self, page: int, level: int = 1):
        """Offer one request to the micro-batcher (single-producer API).

        Returns None while the request is buffered, otherwise the flush
        result (:class:`BatchTicket`, :class:`Overloaded`,
        :class:`~repro.service.ingest.Failed` or
        :class:`~repro.service.ingest.Shed`).
        """
        return self._batcher.offer(page, level)

    def flush(self):
        """Force the micro-batcher to submit its partial batch, if any."""
        return self._batcher.flush()

    def submit_batch(self, pages, levels=None, *,
                     trace: TraceContext | None = None,
                     ) -> BatchTicket | Overloaded | Failed:
        """Submit one micro-batch; returns a ticket or a rejection response.

        ``levels`` defaults to all-ones (weighted paging).  In threaded
        mode the batch is accepted only if *every* target shard queue has
        room — all-or-nothing, so a rejected batch leaves no partial state
        anywhere and can be retried verbatim.  A batch touching a
        permanently failed shard returns :class:`Failed` (recovery mode)
        or raises :class:`~repro.errors.ServiceStateError` (no recovery).

        The whole submission is timed under the ``ingest`` span (in inline
        mode that includes serving) and the shard split under ``route``.

        With request tracing armed (:meth:`enable_request_tracing`),
        ``trace`` carries an upstream :class:`TraceContext` (the network
        frontend extracts it from the wire envelope); ``None`` makes the
        service mint its own root from the deterministic submit counter.
        Sampled submissions emit ``admit``/``route`` and per-shard
        ``queue`` spans here on the submitting thread — identically in
        inline and queued modes — and ``batch``/``evict`` spans from
        whichever thread serves the slice (see :meth:`_serve_part`).
        """
        self._raise_pending()
        if self._stopped:
            raise ServiceStateError("cannot submit to a stopped service")
        with self.profiler.span("ingest"):
            pages = np.ascontiguousarray(pages, dtype=np.int64)
            if levels is None:
                levels = np.ones_like(pages)
            else:
                levels = np.ascontiguousarray(levels, dtype=np.int64)
            self.config.instance.validate_sequence(pages, levels)
            ctx, t = trace, 0
            if self._rtrace:
                with self._rt_lock:
                    t = self._rt_next
                    self._rt_next += 1
                if ctx is None:
                    ctx = self._rsampler.context(t)
            with self.profiler.span("route"):
                parts = [
                    (shard, p, lv)
                    for shard, (p, lv) in enumerate(self.router.split(pages, levels))
                    if p.size
                ]
            queue_ctxs: dict[int, TraceContext] = {}
            if self._rtrace and ctx is not None:
                admit = self._svc_spans.emit(
                    ctx, "admit", tier="svc", t=t,
                    attrs={"n_requests": int(pages.size)})
                route = self._svc_spans.emit(
                    admit, "route", tier="svc", t=t,
                    attrs={"n_parts": len(parts)})
                for shard, p, _ in parts:
                    queue_ctxs[shard] = self._svc_spans.emit(
                        route, "queue", tier="svc", t=t, index=shard,
                        attrs={"shard": shard, "n_requests": int(p.size)})
            if not self._started:
                if self.config.backend == "process":
                    raise ServiceStateError(
                        "the process backend serves no traffic before "
                        "start(); call start() (or use a with block) first"
                    )
                ticket = BatchTicket(len(parts), int(pages.size))
                for shard, p, lv in parts:
                    if self._recorder is not None:
                        self._recorder.record(shard, p, lv)
                    self._serve_part(shard, self.engines[shard], p, lv,
                                     queue_ctxs.get(shard), t)
                    ticket.part_done()
                self._n_batches += 1
                return ticket
            limit = self._soft_queue_limit
            with self._lock:
                for shard, _, _ in parts:
                    state = self._states[shard]
                    if state.failed:
                        if self._recovery:
                            return Failed(shard, state.fail_error)
                        raise ServiceStateError(
                            f"shard worker failed: {state.fail_error!r}"
                        ) from state.fail_error
                for shard, _, _ in parts:
                    q = self._queues[shard]
                    if q.full() or (limit is not None
                                    and q.qsize() >= limit):
                        self._n_overloaded += 1
                        self._m_overloaded.inc()
                        return Overloaded(shard, self.queue_limit)
                ticket = BatchTicket(len(parts), int(pages.size))
                self._inflight += len(parts)
                for shard, p, lv in parts:
                    state = self._states[shard]
                    state.next_seq += 1
                    part = _Part(state.next_seq, ticket, p, lv,
                                 queue_ctxs.get(shard), t)
                    if self._recorder is not None:
                        self._recorder.record(shard, p, lv)
                    state.log.append(part)
                    self._queues[shard].put(part)
                    self._m_qdepth[shard].set(self._queues[shard].qsize())
                self._n_batches += 1
            return ticket

    def drain(self, timeout: float | None = None) -> bool:
        """Flush the micro-batcher and wait until all queued work is served.

        Returns False if the timeout expired with work still in flight.
        Never hangs on a dead shard: recovery completes its work, and an
        unrecoverable shard's parts are completed as failed.
        """
        deadline = None if timeout is None else monotonic() + timeout
        if not self._flush_pending(timeout):
            return False
        if not self._started:
            return True
        with self._idle:
            remaining = (None if deadline is None
                         else max(0.0, deadline - monotonic()))
            ok = self._idle.wait_for(lambda: self._inflight == 0, remaining)
        self._raise_pending()
        return ok

    def _flush_pending(self, timeout: float | None) -> bool:
        """Retry-flush the micro-batcher until accepted, shed or timed out."""
        deadline = None if timeout is None else monotonic() + timeout
        while len(self._batcher):
            result = self._batcher.flush()
            if result is None or result.accepted:
                return True
            if not getattr(result, "retryable", True):
                # Terminal rejection: the batcher already shed the buffer.
                return True
            if deadline is not None and monotonic() >= deadline:
                return False
            sleep(0.0005)
        return True

    # -- shard handoff (cluster migration) ---------------------------------
    def _quiesce_shard(self, shard: int, timeout: float | None) -> _ShardState:
        """Wait until ``shard`` has applied everything it admitted.

        The caller must guarantee no *new* submissions touching the shard
        arrive while waiting (the cluster proxy holds the shard's traffic
        first), so ``next_seq`` stops moving and ``applied_seq`` catches
        up.  Other shards may keep serving throughout — this never waits
        on global idleness, which would hang under continuous load.
        """
        if not 0 <= shard < len(self.engines):
            raise ValueError(
                f"shard must be in [0, {len(self.engines)}), got {shard}")
        state = self._states[shard]
        deadline = None if timeout is None else monotonic() + timeout
        while True:
            if state.failed:
                raise ServiceStateError(
                    f"shard {shard} is permanently failed: "
                    f"{state.fail_error!r}")
            if state.next_seq == state.applied_seq:
                return state
            if deadline is not None and monotonic() >= deadline:
                raise ServiceStateError(
                    f"shard {shard} did not quiesce within {timeout:g}s "
                    f"(applied {state.applied_seq}/{state.next_seq})")
            sleep(0.0005)

    def capture_shard(self, shard: int,
                      timeout: float | None = None) -> ShardCheckpoint:
        """Quiesce one shard and checkpoint its engine for handoff.

        Unlike the periodic recovery checkpoints this is callable from any
        thread: the per-shard op lock hands the (possibly process-backed)
        engine over exclusively once the worker is idle.  The rest of the
        service keeps serving other shards while the capture runs.
        """
        self._raise_pending()
        if self._stopped:
            raise ServiceStateError("cannot capture a shard on a stopped service")
        state = self._quiesce_shard(shard, timeout)
        with state.op_lock:
            if state.next_seq != state.applied_seq:  # pragma: no cover
                raise ServiceStateError(
                    f"shard {shard} received traffic during capture")
            return ShardCheckpoint.capture(
                self.engines[shard], seq=state.applied_seq)

    def install_shard(self, shard: int, checkpoint: ShardCheckpoint,
                      timeout: float | None = None) -> None:
        """Install a checkpoint captured on another service into ``shard``.

        The caller contract mirrors :meth:`capture_shard`: the shard must
        see no traffic until this returns.  The foreign trace mark is
        ignored (marks are file positions on the source host); with
        recovery armed a fresh *local* checkpoint is taken immediately so
        a later worker death restores the installed state, never the
        pre-migration one.
        """
        self._raise_pending()
        if self._stopped:
            raise ServiceStateError("cannot install into a stopped service")
        state = self._quiesce_shard(shard, timeout)
        engine = self.engines[shard]
        with state.op_lock:
            if state.next_seq != state.applied_seq:  # pragma: no cover
                raise ServiceStateError(
                    f"shard {shard} received traffic during install")
            engine.restore_from(checkpoint.payload, None)
            if self._recovery:
                self._take_checkpoint(state, engine)

    # -- worker loop -------------------------------------------------------
    def _worker(self, shard: int, *, recovered: bool = False) -> None:
        state = self._states[shard]
        engine = self.engines[shard]
        q = self._queues[shard]
        try:
            if recovered:
                with state.op_lock:
                    self._recover(state, engine)
            elif self._recovery and state.checkpoint is None:
                # Seed checkpoint at t=0 so even a first-interval death
                # can be recovered.
                with state.op_lock:
                    self._take_checkpoint(state, engine)
            while True:
                item = q.get()
                if item is _STOP:
                    return
                if item.seq <= state.applied_seq:
                    # Already applied (and completed) during replay.
                    continue
                with state.op_lock:
                    self._process_one(state, engine, item)
        except BaseException as exc:  # worker death: recover or fail shard
            self._on_worker_death(state, exc)

    def _process_one(self, state: _ShardState, engine: ShardEngine,
                     part: _Part) -> None:
        """Apply one logged part: faults, serve, complete, checkpoint."""
        self._m_qdepth[state.shard].set(self._queues[state.shard].qsize())
        if self._plan is not None:
            t_last = engine.n_requests + int(part.pages.size) - 1
            spec = self._plan.poll(state.shard, t_last)
            if spec is not None:
                self._m_faults.labels(str(state.shard), spec.kind).inc()
                if spec.kind == "delay":
                    sleep(spec.delay_s)
                else:
                    # kill: die before serving (engine state intact).  On
                    # the process backend a kill is a *real* SIGKILL of
                    # the worker process — no Python cleanup, the pipe
                    # just breaks — before the proxy thread dies too.
                    # drop: the queue slot is lost with the worker; only
                    # the replay log can restore the slice.  Either way
                    # the part stays un-completed and un-applied, so
                    # recovery replays it from the log.
                    if spec.kind == "kill":
                        kill = getattr(engine, "kill_worker", None)
                        if kill is not None:
                            kill()
                    raise InjectedFault(f"injected fault: {spec}")
        self._serve_part(state.shard, engine, part.pages, part.levels,
                         part.trace, part.trace_t)
        state.applied_seq = part.seq
        state.since_checkpoint += int(part.pages.size)
        self._complete_part(part)
        if self._recovery:
            if (state.since_checkpoint >= self.config.checkpoint_interval
                    or len(state.log) >= REPLAY_LOG_CAP):
                self._take_checkpoint(state, engine)
        else:
            self._prune_log(state)

    def _serve_part(self, shard: int, engine, pages, levels,
                    ctx: TraceContext | None, t: int) -> None:
        """Serve one shard slice, emitting shard-tier spans when sampled.

        The ``batch``/``evict`` spans are computed from before/after
        eviction totals (:meth:`ShardEngine.totals`), which the process
        backend mirrors bit-exactly from its worker acks — so the shard
        span files are byte-identical across inline/thread/process
        backends for the same seed.  Recovery replay re-emits a replayed
        slice's spans; their ids are deterministic, so stitching dedups
        them (:func:`repro.obs.rtrace.stitch_spans`).
        """
        if ctx is None or not ctx.sampled or not self._rtrace:
            engine.process_batch(pages, levels)
            return
        ev0, cost0 = engine.totals()
        engine.process_batch(pages, levels)
        ev1, cost1 = engine.totals()
        exp = self._shard_spans[shard]
        batch = exp.emit(ctx, "batch", tier="shard", t=t,
                         attrs={"shard": shard, "n_requests": int(pages.size)})
        exp.emit(batch, "evict", tier="shard", t=t,
                 attrs={"shard": shard, "n_evictions": ev1 - ev0,
                        "cost": cost1 - cost0})

    def _complete_part(self, part: _Part,
                       error: BaseException | None = None) -> None:
        """Resolve one part exactly once (done, or failed with ``error``)."""
        with self._idle:
            if part.completed:
                return
            part.completed = True
        if error is None:
            part.ticket.part_done()
        else:
            part.ticket.part_failed(error)
        with self._idle:
            self._inflight -= 1
            if self._inflight == 0:
                self._idle.notify_all()

    def _prune_log(self, state: _ShardState) -> None:
        """Drop applied entries (no-recovery mode keeps the log minimal)."""
        with self._lock:
            applied = state.applied_seq
            state.log = [p for p in state.log if p.seq > applied]

    def _take_checkpoint(self, state: _ShardState, engine: ShardEngine) -> None:
        started = perf_counter()
        state.checkpoint = ShardCheckpoint.capture(engine, seq=state.applied_seq)
        engine.profiler.record("checkpoint", perf_counter() - started)
        state.since_checkpoint = 0
        state.n_checkpoints += 1
        self._m_checkpoints.labels(str(state.shard)).inc()
        # The checkpoint covers everything up to its seq; prune the log.
        with self._lock:
            seq = state.checkpoint.seq
            state.log = [p for p in state.log if p.seq > seq]

    def _recover(self, state: _ShardState, engine: ShardEngine) -> None:
        """Restore the last checkpoint and replay the logged suffix."""
        ckpt = state.checkpoint
        if ckpt is None:
            raise ServiceStateError(
                f"shard {state.shard} has no checkpoint to restore"
            )
        with self._lock:
            pending = [p for p in state.log if p.seq > ckpt.seq]
        started = perf_counter()
        ckpt.restore(engine)
        engine.profiler.record("restore", perf_counter() - started)
        state.applied_seq = ckpt.seq
        state.since_checkpoint = 0
        state.n_restores += 1
        self._m_restores.labels(str(state.shard)).inc()
        started = perf_counter()
        n = 0
        try:
            for part in pending:
                # Replay re-applies every logged batch past the checkpoint
                # — including ones the dead worker completed (their effects
                # were rolled back with the restore; _complete_part keeps
                # their tickets resolved exactly once) and ones still
                # sitting in the queue (the seq guard skips them on pop).
                self._process_one(state, engine, part)
                n += 1
                state.n_replayed += 1
                self._m_replayed.labels(str(state.shard)).inc()
        finally:
            engine.profiler.record("replay", perf_counter() - started)

    def _on_worker_death(self, state: _ShardState, exc: BaseException) -> None:
        # Postmortem first: the flight recorder's span rings still hold
        # the causal context leading up to the death (no-op unless a dump
        # directory was armed).
        flight_recorder().dump(f"shard-{state.shard}-death")
        if self._recovery:
            self._death_q.put((state.shard, exc))
            return
        with self._lock:
            self._errors.append(exc)
            state.failed = True
            state.fail_error = exc
        self._fail_shard_parts(state, exc)

    def _fail_shard_parts(self, state: _ShardState,
                          exc: BaseException) -> None:
        """Complete every pending part of a dead shard as failed.

        ``state.failed`` must already be set (under the lock) so no new
        part can be admitted for this shard while we sweep.
        """
        q = self._queues[state.shard]
        while True:
            try:
                q.get_nowait()
            except _queue.Empty:
                break
        with self._lock:
            parts = list(state.log)
            state.log = []
        error = ServiceStateError(f"shard {state.shard} failed: {exc!r}")
        error.__cause__ = exc
        for part in parts:
            if not part.completed:
                self._m_failed_parts.labels(str(state.shard)).inc()
            self._complete_part(part, error=error)

    def _supervise(self) -> None:
        """Restart dead workers from their checkpoints; fail them past budget."""
        while True:
            msg = self._death_q.get()
            if msg is _STOP:
                return
            shard, exc = msg
            state = self._states[shard]
            with self._lock:
                give_up = state.restarts >= self.config.max_restarts
                if give_up:
                    state.failed = True
                    state.fail_error = exc
                else:
                    state.restarts += 1
                    n = state.restarts
            if give_up:
                self._fail_shard_parts(state, exc)
                continue
            self._m_restarts.labels(str(shard)).inc()
            thread = threading.Thread(
                target=self._worker, args=(shard,),
                kwargs={"recovered": True},
                name=f"repro-shard-{shard}-r{n}", daemon=True,
            )
            with self._lock:
                self._threads.append(thread)
            thread.start()

    def _raise_pending(self) -> None:
        # In recovery mode failures surface as Failed results on the
        # affected submissions, never as raised errors on healthy paths.
        if self._errors and not self._recovery:
            exc = self._errors[0]
            raise ServiceStateError(
                f"shard worker failed: {exc!r}"
            ) from exc

    # -- admission actuators ----------------------------------------------
    @property
    def queue_limit(self) -> int:
        """The effective per-shard queue cap batches are admitted under."""
        if self._soft_queue_limit is None:
            return self.config.queue_depth
        return min(self._soft_queue_limit, self.config.queue_depth)

    def set_queue_limit(self, limit: int | None) -> int:
        """Set (or clear) the soft shed threshold; returns the new cap.

        The control plane's service-side actuator: batches targeting a
        shard whose queue already holds ``limit`` entries are rejected
        ``Overloaded`` *before* the physical ``queue_depth`` is reached,
        so backpressure engages earlier under overload and relaxes back
        without touching the (fixed-size) queues themselves.  ``None``
        restores the configured depth.  Thread-safe; takes effect on the
        next submission.
        """
        if limit is not None:
            limit = int(limit)
            if limit < 1:
                raise ValueError(f"queue limit must be >= 1, got {limit}")
        self._soft_queue_limit = limit
        effective = self.queue_limit
        self._m_queue_cap.set(effective)
        return effective

    def attach_recorder(self, recorder) -> None:
        """Record every admitted shard slice into ``recorder``.

        ``recorder`` needs one method — ``record(shard, pages, levels)``
        — called in per-shard arrival order (the order the engines serve),
        once per admitted slice: rejected submissions never reach it and
        recovery replay does not re-enter the ingest path, so the recorded
        streams are exactly what the live run served.  See
        :class:`repro.control.ExperienceRecorder`.  Pass ``None`` to
        detach.
        """
        self._recorder = recorder

    # -- observability -----------------------------------------------------
    @property
    def n_overloaded(self) -> int:
        """Number of batch submissions rejected for backpressure."""
        return self._n_overloaded

    def total_cost(self) -> float:
        """Total eviction cost across all shards (the paper's objective)."""
        return sum(e.ledger.eviction_cost for e in self.engines)

    def enable_tracing(
        self,
        directory,
        *,
        sample: float = 1.0,
        seed: int = 0,
        max_events: int = 1_000_000,
    ) -> list[Path]:
        """Attach one :class:`~repro.obs.DecisionTracer` per shard.

        Writes ``shard-<i>.jsonl`` files under ``directory`` (created if
        missing).  Events are keyed to each shard's *logical* clock and the
        sampling decision is a pure function of ``(seed, t)``, so inline
        and threaded runs of the same workload produce byte-identical
        per-shard traces — including runs that recover from injected
        faults: checkpoints carry a trace mark and a restore truncates the
        file back to it before the replay re-emits the suffix.  Traces are
        closed by :meth:`stop`.

        Must be called before any traffic (the tracer counts every request
        of a shard's clock from t = 0).
        """
        if self._stopped:
            raise ServiceStateError("service already stopped")
        if self._trace_enabled:
            raise ServiceStateError("tracing already enabled")
        self._trace_enabled = True
        if any(e.n_requests for e in self.engines):
            raise ServiceStateError(
                "enable_tracing must be called before any traffic"
            )
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        paths: list[Path] = []
        process = self.config.backend == "process"
        if process and self._started:
            raise ServiceStateError(
                "the process backend applies tracing at spawn time; call "
                "enable_tracing before start()"
            )
        for engine in self.engines:
            path = directory / f"shard-{engine.shard_id}.jsonl"
            if process:
                # The worker process owns the tracer (and its file): the
                # config rides along on the spawn spec, so events stay
                # keyed to the shard's logical clock and the trace is
                # byte-identical to the inline/thread backends.
                engine.set_trace_config(
                    path, sample=sample, seed=seed, max_events=max_events,
                    source=f"shard-{engine.shard_id}",
                )
            else:
                tracer = DecisionTracer(
                    path, sample=sample, seed=seed, max_events=max_events,
                    source=f"shard-{engine.shard_id}",
                )
                engine.set_tracer(tracer)
                self._tracers.append(tracer)
            paths.append(path)
        return paths

    def enable_request_tracing(
        self,
        directory,
        *,
        sample: float = 1.0,
        seed: int = 0,
    ) -> list[Path]:
        """Arm causal request-span export under ``directory``.

        Writes ``svc.spans.jsonl`` (the ``admit``/``route``/``queue``
        spans, emitted by the submitting thread) and one
        ``shard-<i>.spans.jsonl`` per shard (``batch``/``evict`` spans,
        emitted by whichever thread serves the slice — exactly one
        logical writer per file on every backend).  Sampling is the
        decision tracer's pure ``(seed, t)`` function of the service's
        submit counter, and no record carries wall-clock fields, so two
        same-seed runs of the same workload produce byte-identical span
        files regardless of backend — the acceptance property pinned by
        the rtrace tests.

        Unlike :meth:`enable_tracing` this works on *every* backend
        including process (spans are emitted parent-side from mirrored
        eviction totals), but must still be called before any traffic so
        the submit counter starts at 0.  Exporters are closed by
        :meth:`stop`.
        """
        if self._stopped:
            raise ServiceStateError("service already stopped")
        if self._rtrace:
            raise ServiceStateError("request tracing already enabled")
        if any(e.n_requests for e in self.engines):
            raise ServiceStateError(
                "enable_request_tracing must be called before any traffic"
            )
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        self._rsampler = RequestSampler(seed=seed, sample=sample)
        paths = [directory / "svc.spans.jsonl"]
        self._svc_spans = SpanExporter(paths[0])
        self._shard_spans = []
        for engine in self.engines:
            path = directory / f"shard-{engine.shard_id}.spans.jsonl"
            self._shard_spans.append(SpanExporter(path))
            paths.append(path)
        self._rtrace = True
        return paths

    def snapshot(self) -> ServiceSnapshot:
        """Point-in-time counters for every shard plus ingest totals."""
        with self.profiler.span("snapshot"):
            depths = (
                [q.qsize() for q in self._queues] if self._started
                else [0] * len(self.engines)
            )
            for shard, depth in enumerate(depths):
                self._m_queue_depth.labels(str(shard)).set(depth)
            shards = tuple(
                replace(
                    e.snapshot(queue_depth=d),
                    n_checkpoints=s.n_checkpoints,
                    n_restores=s.n_restores,
                    n_replayed_batches=s.n_replayed,
                )
                for e, d, s in zip(self.engines, depths, self._states)
            )
        # Spans are read after the snapshot span closes, so even the first
        # snapshot reports its own timing.
        return ServiceSnapshot(
            shards=shards,
            n_overloaded=self._n_overloaded,
            n_submitted_batches=self._n_batches,
            spans=self.profiler.stats(),
            n_worker_restarts=sum(s.restarts for s in self._states),
            n_failed_shards=sum(1 for s in self._states if s.failed),
            n_faults_injected=(self._plan.n_fired
                               if self._plan is not None else 0),
        )

    def __repr__(self) -> str:
        mode = ("stopped" if self._stopped
                else "threaded" if self._started else "inline")
        return (
            f"PagingService(shards={self.config.n_shards}, mode={mode}, "
            f"served={sum(e.n_requests for e in self.engines)})"
        )
