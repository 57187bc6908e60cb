"""One shard of the paging service: a verifying cache + policy + metrics.

A :class:`ShardEngine` is the serving twin of :func:`repro.sim.simulate`:
the same authoritative :class:`~repro.core.cache.MultiLevelCache`, the same
``policy.serve`` contract, the same optional per-request verification — but
driven by an unbounded *stream* of micro-batches instead of one materialized
trace, with a monotonic per-shard logical clock and batch service times fed
into a :class:`~repro.service.metrics.LatencyHistogram`.  Both serve
through :func:`~repro.algorithms.base.drive`: without validation every
batch enters the policy through
:meth:`~repro.algorithms.base.Policy.serve_batch` — one call, or with an
active tracer one call per run between sampled requests.

Observability hooks (all default to no-ops):

* a :class:`~repro.obs.MetricsRegistry` mirrors the shard's counters into
  shard-labeled exposition metrics,
* a :class:`~repro.obs.PhaseProfiler` times every batch under the ``evict``
  span (the phase where the policy decides and pays),
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
from repro.obs.registry import MetricsRegistry, null_registry
from repro.obs.spans import PhaseProfiler
from repro.service.metrics import LatencyHistogram, ServiceLedger, ShardSnapshot

__all__ = ["ShardEngine"]


class ShardEngine:
    """Long-lived policy + cache pair consuming request micro-batches."""

    __slots__ = (
        "shard_id", "instance", "policy", "ledger", "cache", "latency",
        "validate", "n_batches", "profiler", "tracer",
        "_m_requests", "_m_hits", "_m_misses", "_m_batches", "_t",
    )

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
        reg = registry if registry is not None else null_registry()
        shard_label = str(shard_id)
        self.shard_id = shard_id
        self.instance = instance
        self.policy = policy
        self.ledger = ServiceLedger(registry=reg, shard=shard_id)
        self.cache = MultiLevelCache(instance, self.ledger)
        self.latency = LatencyHistogram(
            metric=reg.histogram(
                "repro_batch_latency_seconds",
                "Batch service time per shard",
                ("shard",),
            ).labels(shard_label),
        )
        self.validate = validate
        self.n_batches = 0
        self.profiler = PhaseProfiler()
        self.tracer = None
        self._m_requests = reg.counter(
            "repro_requests_total", "Requests served", ("shard",)
        ).labels(shard_label)
        self._m_hits = reg.counter(
            "repro_hits_total", "Requests served without cache changes",
            ("shard",),
        ).labels(shard_label)
        self._m_misses = reg.counter(
            "repro_misses_total", "Requests that required cache changes",
            ("shard",),
        ).labels(shard_label)
        self._m_batches = reg.counter(
            "repro_batches_total", "Micro-batches processed", ("shard",)
        ).labels(shard_label)
        self._t = 0
        policy.bind(instance, self.cache, rng)

    @property
    def n_requests(self) -> int:
        """Requests processed so far (the shard's logical clock)."""
        return self._t

    def totals(self) -> tuple[int, float]:
        """``(n_evictions, eviction_cost)`` — the exact ledger values.

        The uniform accessor request tracing diffs around a batch to
        derive ``evict`` span attributes; :class:`ProcEngine` answers the
        same call from its mirrored worker totals, bit-exactly.
        """
        ledger = self.ledger
        return ledger.n_evictions, ledger.eviction_cost

    def set_tracer(self, tracer) -> None:
        """Attach (or with ``None`` detach) a decision tracer.

        The tracer is shared with the ledger and the policy so eviction
        and candidate events ride along with their sampled request.
        """
        self.tracer = tracer
        self.ledger.tracer = tracer
        self.policy.tracer = tracer

    def process_batch(self, pages: np.ndarray, levels: np.ndarray) -> None:
        """Serve one micro-batch; every page must be routed to this shard.

        Timing covers the whole batch (the latency the load generator's
        clients would observe for a synchronous round-trip).
        """
        started = perf_counter()
        hits = drive(self.policy, self._t, pages, levels,
                     validate=self.validate, tracer=self.tracer)
        n = int(pages.size)
        self._t += n
        self.ledger.n_hits += hits
        self.ledger.n_misses += n - hits
        self.n_batches += 1
        elapsed = perf_counter() - started
        self.latency.observe(elapsed)
        self.profiler.record("evict", elapsed)
        self._m_requests.inc(n)
        self._m_hits.inc(hits)
        self._m_misses.inc(n - hits)
        self._m_batches.inc()

    # -- checkpoint support ------------------------------------------------
    def checkpoint_state(self) -> dict:
        """The engine's replayable state as one consistent object graph.

        The bound policy transitively owns the cache (``policy.cache``)
        and ledger (``cache.ledger``) plus its RNG cursor, so pickling
        this dict (see :meth:`capture_state`) captures everything that
        determines future behavior in one pass.  The latency window and
        registry counters are deliberately excluded: they are wall-clock
        observability, not the determinism surface.
        """
        return {"policy": self.policy, "t": self._t,
                "n_batches": self.n_batches}

    def capture_state(self) -> tuple[bytes, tuple | None, int]:
        """Pickle the replayable state; returns ``(payload, trace_mark, t)``.

        The payload round-trips through :mod:`pickle` (the ledger and
        policy drop their live handles via ``__getstate__``), so the same
        bytes restore this engine in-process *or* a fresh worker process.
        """
        payload = pickle.dumps(self.checkpoint_state(),
                               protocol=pickle.HIGHEST_PROTOCOL)
        mark = self.tracer.mark() if self.tracer is not None else None
        return payload, mark, self._t

    def restore_from(self, payload: bytes, trace_mark) -> None:
        """Install a :meth:`capture_state` payload and rewind the tracer."""
        self.restore_state(pickle.loads(payload))
        if self.tracer is not None and trace_mark is not None:
            self.tracer.rewind(trace_mark)

    def restore_state(self, state: dict) -> None:
        """Install an unpickled :meth:`checkpoint_state` dict.

        Single-consumer contract applies: only the worker thread that owns
        this engine may restore it, and only between batches.  The
        unpickled graph carries a pristine ledger (no registry handles)
        and its own copy of the instance; the engine re-points both at its
        live substrate so restored shards keep publishing to the same
        exposition children and share the read-only weight arrays.
        """
        policy = state["policy"]
        old_ledger = self.ledger
        self.policy = policy
        self.cache = policy.cache
        ledger = policy.cache.ledger
        self.cache.instance = self.instance
        policy.instance = self.instance
        policy.rebind_instance()
        # Transplant the live exposition handles onto the restored ledger.
        ledger._m_evictions = old_ledger._m_evictions
        ledger._m_cost = old_ledger._m_cost
        ledger._level_children = old_ledger._level_children
        self.ledger = ledger
        self._t = int(state["t"])
        self.n_batches = int(state["n_batches"])
        # Re-attach the live tracer (dropped by the pickle hooks).
        ledger.tracer = self.tracer
        policy.tracer = self.tracer

    def snapshot(self, *, queue_depth: int = 0) -> ShardSnapshot:
        """Point-in-time counters (queue depth is supplied by the server)."""
        ledger = self.ledger
        p50, p95, p99 = self.latency.percentiles_ms()
        return ShardSnapshot(
            shard=self.shard_id,
            cache_size=self.instance.cache_size,
            n_requests=self._t,
            n_hits=ledger.n_hits,
            n_misses=ledger.n_misses,
            n_evictions=ledger.n_evictions,
            eviction_cost=ledger.eviction_cost,
            cost_by_level=dict(ledger.cost_by_level),
            evictions_by_level=dict(ledger.evictions_by_level),
            n_batches=self.n_batches,
            queue_depth=queue_depth,
            p50_ms=p50,
            p95_ms=p95,
            p99_ms=p99,
            spans=self.profiler.stats(),
        )

    def __repr__(self) -> str:
        return (
            f"ShardEngine(shard={self.shard_id}, k={self.instance.cache_size}, "
            f"served={self._t}, cost={self.ledger.eviction_cost:.3f})"
        )
