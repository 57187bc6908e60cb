"""Process-backed shard workers: one OS process per shard engine.

The thread backend keeps every :class:`~repro.service.engine.ShardEngine`
in the parent process, so pure-Python ``policy.serve`` loops contend for
one GIL and aggregate throughput plateaus at a single core.  This module
moves each engine into its own **spawned** process:

* :func:`_child_main` — the worker process entry point.  It builds a
  fresh engine from a picklable :class:`WorkerSpec` (null metrics
  registry; the parent owns exposition) and serves a tiny op loop over a
  :class:`multiprocessing.connection.Connection`: ``batch`` / ``checkpoint``
  / ``restore`` / ``stop``.  Because the child owns a real
  ``ShardEngine``, each micro-batch arriving over the pipe is served by
  its unmetered :meth:`~repro.service.engine.ShardEngine.serve` step —
  the same ``drive`` loop an in-process shard runs — and the ack's
  ``elapsed`` times that step alone.
* :class:`ProcEngine` — the parent-side handle.  It mimics exactly the
  slice of the ``ShardEngine`` interface the service uses
  (``process_batch``, ``capture_state`` / ``restore_from``, ``snapshot``,
  ``ledger``, ``n_requests``, ``meter``), so
  :class:`~repro.service.server.PagingService`, the supervisor and
  :class:`~repro.faults.ShardCheckpoint` drive both backends through one
  code path.

Determinism and observability
-----------------------------
Every batch ack carries the child ledger's **absolute totals** as a
:class:`~repro.service.metrics.ShardTotals` (requests, batches, hits,
misses, evictions, cost, per-level breakdowns) — not deltas — and the
parent keeps the last one as its ``ledger``, so the mirror is bit-exact at
every batch boundary and ``total_cost()`` / ledger-equality assertions
hold across backends.  The acked totals feed the same
:class:`~repro.service.metrics.ShardMeter` the in-process engine feeds its
ledger, and a restore ack rebases it, so ``/metrics``, the latency window
and the phase spans come from one code path on every backend: the same
families, labels and values as the thread backend, with replayed work
counted again after a restore (*at-least-once*, the standard
Prometheus-counter-across-restart semantics).

Tracing lives in the child: the worker owns the per-shard JSONL file and
its engine tracer, keyed to the shard's logical clock, so traces remain
byte-identical across inline/thread/process backends.  A *respawned*
worker re-opens the file in resume mode (no second ``meta`` line) and the
restore op rewinds it to the checkpoint mark before replay.

Failure surface
---------------
A broken pipe (the child was SIGKILLed, crashed, or exited) raises
:class:`~repro.errors.WorkerDiedError` on the worker thread, which rides
the existing worker-death path: with recovery armed the supervisor calls
``checkpoint.restore`` and :meth:`ProcEngine.restore_from` respawns the
process before handing it the pickled state.  An in-child exception (e.g.
a validation failure or injected fault) is shipped back and re-raised in
the parent; the child stays alive awaiting a restore.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import signal
from dataclasses import dataclass, replace
from time import perf_counter

import numpy as np

from repro.core.instance import MultiLevelInstance
from repro.errors import ServiceStateError, WorkerDiedError
from repro.obs.registry import MetricsRegistry
from repro.obs.tracer import DecisionTracer
from repro.service.engine import ShardEngine
from repro.service.metrics import ShardMeter, ShardSnapshot, ShardTotals

__all__ = ["WorkerSpec", "ProcEngine"]


@dataclass(frozen=True)
class WorkerSpec:
    """Everything a spawned worker needs to rebuild its shard engine.

    Must round-trip through pickle (the spawn context re-imports the
    module tree in the child): ``policy_factory`` is therefore typically
    a registered policy *class*, pickled by reference.
    """

    shard_id: int
    instance: MultiLevelInstance
    policy_factory: object
    rng_seed: int
    validate: bool = False
    #: Optional tracing config: (path, sample, seed, max_events, source).
    trace: tuple | None = None
    #: True on respawn: re-open the trace file without a new meta line.
    trace_resume: bool = False


def _child_main(conn, spec: WorkerSpec) -> None:
    """Worker process entry point: build the engine, serve the op loop."""
    engine = ShardEngine(
        spec.shard_id,
        spec.instance,
        spec.policy_factory(),
        np.random.default_rng(spec.rng_seed),
        validate=spec.validate,
    )
    tracer = None
    if spec.trace is not None:
        path, sample, seed, max_events, source = spec.trace
        tracer = DecisionTracer(
            path, sample=sample, seed=seed, max_events=max_events,
            source=source, resume=spec.trace_resume,
        )
        engine.set_tracer(tracer)
    try:
        while True:
            try:
                op = conn.recv()
            except (EOFError, OSError):
                return  # parent went away: nothing left to serve
            kind = op[0]
            if kind == "batch":
                started = perf_counter()
                try:
                    engine.serve(op[1], op[2])
                except BaseException as exc:  # ship it; stay up for restore
                    conn.send(("error", exc))
                else:
                    elapsed = perf_counter() - started
                    conn.send(("ack", ShardTotals.of(engine.ledger), elapsed))
            elif kind == "checkpoint":
                payload, mark, t = engine.capture_state()
                conn.send(("ckpt", payload, mark, t))
            elif kind == "restore":
                engine.restore_from(op[1], op[2])
                conn.send(("restored", ShardTotals.of(engine.ledger)))
            elif kind == "stop":
                conn.send(("stopped",))
                return
            else:  # pragma: no cover - protocol misuse
                conn.send(("error", ServiceStateError(f"unknown op {kind!r}")))
    finally:
        if tracer is not None:
            tracer.close()
        conn.close()


class ProcEngine:
    """Parent-side handle driving one shard engine in a worker process.

    Mirrors the ``ShardEngine`` surface the service layer touches; all
    pipe traffic happens on the single worker thread that owns the shard
    (the same single-consumer contract as the thread backend), so no
    locking is needed around the connection.
    """

    def __init__(
        self,
        shard_id: int,
        instance: MultiLevelInstance,
        policy_factory,
        rng_seed: int,
        *,
        validate: bool = False,
        registry: MetricsRegistry | None = None,
    ) -> None:
        self.shard_id = shard_id
        self.instance = instance
        #: The worker ledger's totals as of the last ack.
        self.ledger = ShardTotals(0, 0, 0, 0, 0, 0.0, {}, {})
        self.meter = ShardMeter(shard_id, registry)
        self._spec = WorkerSpec(
            shard_id=shard_id,
            instance=instance,
            policy_factory=policy_factory,
            rng_seed=rng_seed,
            validate=validate,
        )
        self._ctx = mp.get_context("spawn")
        self._proc = None
        self._conn = None

    # -- lifecycle ---------------------------------------------------------
    @property
    def running(self) -> bool:
        """True while the worker process is alive."""
        return self._proc is not None and self._proc.is_alive()

    def spawn(self) -> None:
        """Start the worker process (first launch: fresh trace file)."""
        self._launch(resume=False)

    def _launch(self, *, resume: bool) -> None:
        if self.running:
            raise ServiceStateError(
                f"shard {self.shard_id} worker already running"
            )
        if self._conn is not None:
            self._conn.close()
        spec = self._spec
        if spec.trace is not None:
            spec = replace(spec, trace_resume=resume)
        parent_conn, child_conn = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=_child_main, args=(child_conn, spec),
            name=f"repro-shard-{self.shard_id}-proc", daemon=True,
        )
        proc.start()
        child_conn.close()
        self._proc, self._conn = proc, parent_conn

    def set_trace_config(self, path, *, sample: float, seed: int,
                         max_events: int, source: str) -> None:
        """Record the tracing config the worker applies at spawn time."""
        if self._proc is not None:
            raise ServiceStateError(
                "tracing must be configured before the worker is spawned"
            )
        self._spec = replace(
            self._spec,
            trace=(str(path), float(sample), int(seed), int(max_events),
                   source),
        )

    def kill_worker(self) -> None:
        """SIGKILL the worker process and wait for it to die.

        Used by the fault-injection layer so ``kill`` faults exercise real
        process death (no Python cleanup, no atexit) rather than a raised
        exception.  Waiting keeps the subsequent restart deterministic:
        ``restore_from`` sees a dead process and respawns.
        """
        if self._proc is not None and self._proc.is_alive():
            os.kill(self._proc.pid, signal.SIGKILL)
            self._proc.join(timeout=10.0)

    def shutdown(self, timeout: float | None = None) -> None:
        """Stop the worker: polite stop op, then terminate, then kill."""
        proc, conn = self._proc, self._conn
        if proc is None:
            return
        wait = 5.0 if timeout is None else max(timeout, 0.1)
        if proc.is_alive() and conn is not None:
            try:
                conn.send(("stop",))
                if conn.poll(wait):
                    conn.recv()
            except (EOFError, OSError):
                pass
        proc.join(timeout=wait)
        if proc.is_alive():  # pragma: no cover - unresponsive child
            proc.terminate()
            proc.join(timeout=1.0)
            if proc.is_alive():
                proc.kill()
                proc.join(timeout=1.0)
        if conn is not None:
            conn.close()
        self._proc = self._conn = None

    # -- request path --------------------------------------------------------
    @property
    def n_requests(self) -> int:
        """Requests acked by the worker so far (the mirrored logical clock)."""
        return self.ledger.n_requests

    def _roundtrip(self, op: tuple) -> tuple:
        conn = self._conn
        if conn is None:
            raise WorkerDiedError(
                f"shard {self.shard_id} worker process is not running"
            )
        try:
            conn.send(op)
            msg = conn.recv()
        except (EOFError, OSError) as exc:
            raise WorkerDiedError(
                f"shard {self.shard_id} worker process died"
            ) from exc
        if msg[0] == "error":
            raise msg[1]
        return msg

    def process_batch(self, pages: np.ndarray, levels: np.ndarray) -> None:
        """Ship one micro-batch to the worker and meter its acked totals."""
        _, self.ledger, elapsed = self._roundtrip(("batch", pages, levels))
        self.meter.batch(self.ledger, elapsed)

    # -- checkpoint support --------------------------------------------------
    def capture_state(self) -> tuple[bytes, tuple | None, int]:
        """Ask the worker for a pickled state payload + trace mark."""
        msg = self._roundtrip(("checkpoint",))
        return msg[1], msg[2], msg[3]

    def restore_from(self, payload: bytes, trace_mark) -> None:
        """Install a checkpoint payload, respawning a dead worker first."""
        if not self.running:
            self._launch(resume=self._spec.trace is not None)
        self.ledger = self._roundtrip(("restore", payload, trace_mark))[1]
        self.meter.rebase(self.ledger)

    # -- observability -------------------------------------------------------
    def snapshot(self, *, queue_depth: int = 0) -> ShardSnapshot:
        """Point-in-time counters from the acked totals."""
        return self.meter.snapshot(self.ledger, self.instance.cache_size,
                                   queue_depth)

    def __repr__(self) -> str:
        state = "alive" if self.running else "down"
        return (
            f"ProcEngine(shard={self.shard_id}, {state}, "
            f"served={self.n_requests}, "
            f"cost={self.ledger.eviction_cost:.3f})"
        )
