"""repro.service — a sharded online paging service over the paper's policies.

The offline harness materializes a whole trace and hands it to
:func:`repro.sim.simulate`; this package wraps the same verified substrate
(:class:`~repro.core.cache.MultiLevelCache` + a :class:`~repro.algorithms.base.Policy`)
behind a long-lived, stream-oriented server:

* :class:`ShardRouter` hash-partitions the page universe across ``N``
  independent shard engines (deterministic splitmix64 routing, so the same
  trace always produces the same per-shard cost ledgers),
* :class:`ShardEngine` owns one verifying cache + policy per shard and
  consumes request micro-batches,
* :class:`PagingService` ties them together with bounded per-shard queues —
  overload surfaces as an explicit :class:`Overloaded` response instead of
  unbounded memory growth,
* :class:`~repro.service.metrics.ServiceSnapshot` exposes monotonic counters
  (hits, misses, eviction cost per level), batch-latency percentiles, and
  per-phase :class:`~repro.obs.SpanStats` (``ingest`` / ``route`` /
  ``evict`` / ``snapshot``),
* :func:`run_load` replays any :mod:`repro.workloads` stream at a target
  request rate and reports achieved throughput + tail latency, with
  retry-with-backoff or shed-on-overload client policies.

Failure semantics: with ``ServiceConfig.checkpoint_interval > 0`` the
service checkpoints every shard periodically and a supervisor restarts
dead workers from the last checkpoint, replaying a bounded in-memory log —
recovered runs end with byte-identical per-shard ledgers and traces.  A
shard past its restart budget fails its pending tickets (``ticket.ok`` is
False, ``wait()`` never hangs) and later submissions touching it return
:class:`Failed`.  See :mod:`repro.faults` for the deterministic
fault-injection layer used to test this.

Observability (:mod:`repro.obs`) is opt-in and free when off: pass a
:class:`~repro.obs.MetricsRegistry` via ``ServiceConfig.metrics_registry``
to publish Prometheus-style exposition metrics (serve it with
:class:`~repro.obs.MetricsServer`), and call
:meth:`PagingService.enable_tracing` before traffic to write per-shard
JSONL decision traces that are byte-identical between inline and threaded
runs.

Quick start::

    from repro.service import PagingService, ServiceConfig, run_load

    config = ServiceConfig.from_policy_name(
        "waterfilling-kernel", instance, n_shards=4, seed=0
    )
    with PagingService(config) as svc:
        report = run_load(svc, seq, rate=100_000)
    print(report.render())
    print(svc.snapshot().render())
"""

from repro.service.config import ServiceConfig
from repro.service.engine import ShardEngine
from repro.service.ingest import (
    BatchTicket,
    Failed,
    Overloaded,
)
from repro.service.loadgen import LoadReport, run_load
from repro.service.metrics import (
    LatencyHistogram,
    ServiceLedger,
    ServiceSnapshot,
    ShardMeter,
    ShardSnapshot,
    ShardTotals,
)
from repro.service.profiles import PROFILE_KINDS, RateProfile
from repro.service.router import ShardRouter
from repro.service.server import PagingService

__all__ = [
    "PROFILE_KINDS",
    "RateProfile",
    "ServiceConfig",
    "ShardEngine",
    "BatchTicket",
    "Failed",
    "Overloaded",
    "LoadReport",
    "run_load",
    "LatencyHistogram",
    "ServiceLedger",
    "ServiceSnapshot",
    "ShardMeter",
    "ShardSnapshot",
    "ShardTotals",
    "ShardRouter",
    "PagingService",
]
