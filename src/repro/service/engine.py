"""One shard of the paging service: a verifying cache + policy + metrics.

A :class:`ShardEngine` is the serving twin of :func:`repro.sim.simulate`:
the same authoritative :class:`~repro.core.cache.MultiLevelCache`, the same
``policy.serve`` contract, the same optional per-request verification — but
driven by an unbounded *stream* of micro-batches instead of one materialized
trace, with a monotonic per-shard logical clock (the ledger's
``n_requests``).  Both serve through :func:`~repro.algorithms.base.drive`:
without validation every batch enters the policy through
:meth:`~repro.algorithms.base.Policy.serve_batch` — one call, or with an
active tracer one call per run between sampled requests.

Observability hooks:

* a :class:`~repro.service.metrics.ShardMeter` counts and times every
  batch: the latency window and the ``evict`` span (the phase where the
  policy decides and pays) always, shard-labeled exposition metrics only
  when a :class:`~repro.obs.MetricsRegistry` is given,
* a :class:`~repro.obs.DecisionTracer` attached via :meth:`set_tracer`
  records sampled decisions against the shard's *logical* clock, so inline
  and threaded runs produce byte-identical traces.

Engines are single-consumer: exactly one thread (or the caller, in inline
mode) may call :meth:`process_batch`.  That keeps per-shard request order —
and therefore cost ledgers — deterministic without any locking in the hot
loop.
"""

from __future__ import annotations

import pickle
from time import perf_counter

import numpy as np

from repro.algorithms.base import Policy, drive
from repro.core.cache import MultiLevelCache
from repro.core.instance import MultiLevelInstance
from repro.obs.registry import MetricsRegistry
from repro.service.metrics import ServiceLedger, ShardMeter, ShardSnapshot

__all__ = ["ShardEngine"]


class ShardEngine:
    """Long-lived policy + cache pair consuming request micro-batches."""

    __slots__ = ("shard_id", "instance", "policy", "ledger", "cache",
                 "validate", "meter", "tracer")

    def __init__(
        self,
        shard_id: int,
        instance: MultiLevelInstance,
        policy: Policy,
        rng: np.random.Generator,
        *,
        validate: bool = False,
        registry: MetricsRegistry | None = None,
    ) -> None:
        self.shard_id = shard_id
        self.instance = instance
        self.policy = policy
        self.ledger = ServiceLedger()
        self.cache = MultiLevelCache(instance, self.ledger)
        self.validate = validate
        self.meter = ShardMeter(shard_id, registry)
        self.tracer = None
        policy.bind(instance, self.cache, rng)

    @property
    def n_requests(self) -> int:
        """Requests processed so far (the shard's logical clock)."""
        return self.ledger.n_requests

    @property
    def n_batches(self) -> int:
        """Micro-batches processed so far."""
        return self.ledger.n_batches

    def set_tracer(self, tracer) -> None:
        """Attach (or with ``None`` detach) a decision tracer.

        The tracer is shared with the ledger and the policy so eviction
        and candidate events ride along with their sampled request.
        """
        self.tracer = tracer
        self.ledger.tracer = tracer
        self.policy.tracer = tracer

    def serve(self, pages: np.ndarray, levels: np.ndarray) -> None:
        """Serve one micro-batch without metering it.

        :func:`drive` plus the ledger's request, hit, miss and batch
        counts; every page must be routed to this shard.  A process
        worker calls this directly, so the parent's meter is the only
        meter of a process-backed shard.
        """
        ledger = self.ledger
        hits = drive(self.policy, ledger.n_requests, pages, levels,
                     validate=self.validate, tracer=self.tracer)
        n = int(pages.size)
        ledger.n_requests += n
        ledger.n_hits += hits
        ledger.n_misses += n - hits
        ledger.n_batches += 1

    def process_batch(self, pages: np.ndarray, levels: np.ndarray) -> None:
        """Serve one micro-batch (:meth:`serve`) and meter it.

        Timing covers the whole batch (the latency the load generator's
        clients would observe for a synchronous round-trip).
        """
        started = perf_counter()
        self.serve(pages, levels)
        self.meter.batch(self.ledger, perf_counter() - started)

    # -- checkpoint support ------------------------------------------------
    def capture_state(self) -> tuple[bytes, tuple | None, int]:
        """Pickle the replayable state; returns ``(payload, trace_mark, t)``.

        The payload is one pickle of the bound policy, which transitively
        owns the cache (``policy.cache``) and ledger (``cache.ledger``,
        with the request and batch counts) plus its RNG cursor: everything
        that determines future behavior, consistent by construction.  The
        ledger and policy drop their live handles via ``__getstate__``, so
        the same bytes restore this engine in-process *or* a fresh worker
        process.  The meter is wall-clock observability and stays out.
        """
        payload = pickle.dumps(self.policy, protocol=pickle.HIGHEST_PROTOCOL)
        mark = self.tracer.mark() if self.tracer is not None else None
        return payload, mark, self.ledger.n_requests

    def restore_from(self, payload: bytes, trace_mark) -> None:
        """Install a :meth:`capture_state` payload and rewind the tracer.

        Single-consumer contract applies: only the worker thread that owns
        this engine may restore it, and only between batches.  The
        unpickled graph carries its own copy of the instance; the engine
        re-points it at its live substrate so restored shards share the
        read-only weight arrays.  The meter takes the restored totals as
        its baseline, so the restore itself counts nothing.
        """
        self.policy = policy = pickle.loads(payload)
        self.cache = policy.cache
        self.ledger = ledger = policy.cache.ledger
        self.cache.instance = self.instance
        policy.instance = self.instance
        policy.rebind_instance()
        # Re-attach the live tracer (dropped by the pickle hooks).
        ledger.tracer = self.tracer
        policy.tracer = self.tracer
        if self.tracer is not None and trace_mark is not None:
            self.tracer.rewind(trace_mark)
        self.meter.rebase(ledger)

    def snapshot(self, *, queue_depth: int = 0) -> ShardSnapshot:
        """Point-in-time counters (queue depth is supplied by the server)."""
        return self.meter.snapshot(self.ledger, self.instance.cache_size,
                                   queue_depth)

    def __repr__(self) -> str:
        return (
            f"ShardEngine(shard={self.shard_id}, k={self.instance.cache_size}, "
            f"served={self.n_requests}, cost={self.ledger.eviction_cost:.3f})"
        )
