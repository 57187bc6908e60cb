"""Observability for the paging service.

Four layers, all backed by :mod:`repro.obs`:

* :class:`ServiceLedger` — a :class:`~repro.core.ledger.CostLedger` that
  additionally buckets eviction counts and cost per level and mirrors them
  into a metrics registry (``repro_evictions_total`` /
  ``repro_eviction_cost_total``, labeled by shard and level).
* :class:`LatencyHistogram` — a bounded window of recent batch service
  times; percentiles are computed over the window at snapshot time, and
  each observation can feed a registry histogram for exposition.
* :class:`ShardSnapshot` / :class:`ServiceSnapshot` — immutable point-in-time
  views rendered through the repo-standard :class:`~repro.analysis.Table`,
  now carrying per-phase :class:`~repro.obs.SpanStats` from the profilers.

All counters are monotonic over the service's lifetime; snapshots are cheap
(one dict copy per shard) and safe to take while the service is running
because engines only ever *add* to their ledgers.  Pass no registry (the
default) and every metrics call hits the shared no-op sink.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.analysis.tables import Table
from repro.core.ledger import CostLedger
from repro.obs.registry import NULL_METRIC, MetricsRegistry, null_registry
from repro.obs.spans import SpanStats, merge_span_stats

__all__ = [
    "ServiceLedger",
    "LatencyHistogram",
    "ShardSnapshot",
    "ServiceSnapshot",
]

#: Recent batch service times each shard keeps for percentile estimates.
LATENCY_WINDOW = 4096


class ServiceLedger(CostLedger):
    """Cost ledger with per-level eviction breakdowns for serving metrics.

    When constructed with a real :class:`~repro.obs.MetricsRegistry`, each
    eviction also increments the shard/level-labeled exposition counters;
    with the default null registry those calls are no-ops.
    """

    __slots__ = ("cost_by_level", "evictions_by_level", "_shard",
                 "_m_evictions", "_m_cost", "_level_children")

    def __init__(self, *, record_events: bool = False,
                 registry: MetricsRegistry | None = None,
                 shard: int | str = "") -> None:
        super().__init__(record_events=record_events)
        self.cost_by_level: dict[int, float] = {}
        self.evictions_by_level: dict[int, int] = {}
        reg = registry if registry is not None else null_registry()
        self._shard = str(shard)
        self._m_evictions = reg.counter(
            "repro_evictions_total", "Evictions charged to this ledger",
            ("shard", "level"),
        )
        self._m_cost = reg.counter(
            "repro_eviction_cost_total",
            "Total eviction cost (the paper's objective)",
            ("shard", "level"),
        )
        # level -> (evictions child, cost child); caches the labels() lookup
        # so the per-eviction registry work is one dict hit + two incs.
        self._level_children: dict[int, tuple] = {}

    def charge_eviction(self, page: int, level: int, cost: float,
                        reason: str = "") -> None:
        super().charge_eviction(page, level, cost, reason)
        self.cost_by_level[level] = self.cost_by_level.get(level, 0.0) + cost
        self.evictions_by_level[level] = self.evictions_by_level.get(level, 0) + 1
        if self._m_evictions is NULL_METRIC and self._m_cost is NULL_METRIC:
            return  # no exposition sink: skip the per-level child lookups
        children = self._children(level)
        children[0].inc()
        children[1].inc(cost)

    def charge_evictions(
            self, events: Sequence[tuple[int, int, float, str]]) -> None:
        """Batch form of :meth:`charge_eviction`, bit-identical to one
        call per event (see :meth:`CostLedger.charge_evictions`), per-level
        dicts and registry children included."""
        before = self.n_evictions
        try:
            super().charge_evictions(events)
        finally:
            # The per-level view takes exactly the events the base charged
            # (all of them, unless a negative cost stopped it part-way).
            charged = self.n_evictions - before
            if charged < len(events):
                events = events[:charged]
            cost_by_level = self.cost_by_level
            evictions_by_level = self.evictions_by_level
            live = not (self._m_evictions is NULL_METRIC
                        and self._m_cost is NULL_METRIC)
            for _page, level, cost, _reason in events:
                cost_by_level[level] = cost_by_level.get(level, 0.0) + cost
                evictions_by_level[level] = evictions_by_level.get(level, 0) + 1
                if live:
                    children = self._children(level)
                    children[0].inc()
                    children[1].inc(cost)

    def _children(self, level: int) -> tuple:
        """The (evictions, cost) registry children for ``level``."""
        children = self._level_children.get(level)
        if children is None:
            lv = str(level)
            children = (self._m_evictions.labels(self._shard, lv),
                        self._m_cost.labels(self._shard, lv))
            self._level_children[level] = children
        return children

    def __getstate__(self) -> dict:
        """Drop the registry handles: families hold locks, children are
        process-local exposition state.  A restored ledger starts on the
        no-op sink; the restoring engine transplants its live handles (see
        :meth:`repro.service.engine.ShardEngine.restore_state`)."""
        state = super().__getstate__()
        for name in ("_m_evictions", "_m_cost", "_level_children"):
            state.pop(name, None)
        return state

    def __setstate__(self, state: dict) -> None:
        super().__setstate__(state)
        self._m_evictions = NULL_METRIC
        self._m_cost = NULL_METRIC
        self._level_children = {}

    def merge(self, other: CostLedger) -> None:
        """Fold another ledger into this one, keeping per-level totals.

        :meth:`CostLedger.merge` only knows the base counters; merging
        shard ledgers through it would silently drop ``cost_by_level`` /
        ``evictions_by_level``, so the per-level dicts are folded here.
        Exposition counters are *not* re-charged — the source ledger
        already published its evictions to the registry.
        """
        super().merge(other)
        if isinstance(other, ServiceLedger):
            for level, cost in other.cost_by_level.items():
                self.cost_by_level[level] = (
                    self.cost_by_level.get(level, 0.0) + cost
                )
            for level, n in other.evictions_by_level.items():
                self.evictions_by_level[level] = (
                    self.evictions_by_level.get(level, 0) + n
                )


class LatencyHistogram:
    """Bounded ring of recent observations (seconds) with percentile queries.

    The window keeps the most recent ``window`` observations; the total
    count and sum are monotonic so mean throughput can still be derived
    after old samples rotate out.  ``metric`` (a registry histogram child)
    additionally receives every observation for exposition; the default is
    the shared no-op sink.
    """

    __slots__ = ("_window", "_samples", "_pos", "count", "total_seconds",
                 "_metric")

    def __init__(self, window: int = LATENCY_WINDOW, *,
                 metric=NULL_METRIC) -> None:
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self._window = window
        self._samples: list[float] = []
        self._pos = 0
        self.count = 0
        self.total_seconds = 0.0
        self._metric = metric

    def observe(self, seconds: float) -> None:
        """Record one service-time observation."""
        self.count += 1
        self.total_seconds += seconds
        self._metric.observe(seconds)
        if len(self._samples) < self._window:
            self._samples.append(seconds)
        else:
            self._samples[self._pos] = seconds
            self._pos = (self._pos + 1) % self._window

    @property
    def empty(self) -> bool:
        """True while no observation has been recorded yet.

        Percentile queries on an empty window return zeros rather than
        crashing in ``np.percentile``; callers that must distinguish
        "all-zero latency" from "no data" branch on this flag.
        """
        return not self._samples

    def percentiles(self, qs: Sequence[float]) -> tuple[float, ...]:
        """Percentiles (0-100) over the window, in seconds.

        The single computation path behind every percentile query: the
        window is order-insensitive for percentiles, so the rotating ring
        is handed to numpy as-is.  An empty window (``np.percentile``
        would raise) yields all zeros — see :attr:`empty`.
        """
        if not self._samples:
            return tuple(0.0 for _ in qs)
        arr = np.asarray(self._samples)
        return tuple(float(v) for v in np.percentile(arr, list(qs)))

    def percentile(self, q: float) -> float:
        """The ``q``-th percentile (0-100) over the window, in seconds."""
        return self.percentiles((q,))[0]

    def percentiles_ms(self, qs=(50.0, 95.0, 99.0)) -> tuple[float, ...]:
        """Several percentiles at once, converted to milliseconds."""
        return tuple(v * 1e3 for v in self.percentiles(qs))


@dataclass(frozen=True)
class ShardSnapshot:
    """Point-in-time counters for one shard engine."""

    shard: int
    cache_size: int
    n_requests: int
    n_hits: int
    n_misses: int
    n_evictions: int
    eviction_cost: float
    cost_by_level: dict[int, float] = field(default_factory=dict)
    evictions_by_level: dict[int, int] = field(default_factory=dict)
    n_batches: int = 0
    queue_depth: int = 0
    p50_ms: float = 0.0
    p95_ms: float = 0.0
    p99_ms: float = 0.0
    spans: dict[str, SpanStats] = field(default_factory=dict)
    n_checkpoints: int = 0
    n_restores: int = 0
    n_replayed_batches: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of this shard's requests served without cache changes."""
        return self.n_hits / self.n_requests if self.n_requests else 0.0

    def to_dict(self) -> dict:
        """JSON-safe view of the shard counters (wire / artifact payloads).

        Level keys are stringified so the dict survives a JSON round-trip
        unchanged; span stats flatten to plain numbers.
        """
        return {
            "shard": self.shard,
            "cache_size": self.cache_size,
            "n_requests": self.n_requests,
            "n_hits": self.n_hits,
            "n_misses": self.n_misses,
            "n_evictions": self.n_evictions,
            "eviction_cost": self.eviction_cost,
            "hit_rate": self.hit_rate,
            "cost_by_level": {str(k): v for k, v in self.cost_by_level.items()},
            "evictions_by_level": {
                str(k): v for k, v in self.evictions_by_level.items()
            },
            "n_batches": self.n_batches,
            "queue_depth": self.queue_depth,
            "p50_ms": self.p50_ms,
            "p95_ms": self.p95_ms,
            "p99_ms": self.p99_ms,
            "n_checkpoints": self.n_checkpoints,
            "n_restores": self.n_restores,
            "n_replayed_batches": self.n_replayed_batches,
            "spans": {
                name: {"n": s.n, "total_s": s.total_s, "max_s": s.max_s,
                       "min_s": s.min_s, "sq_s": s.sq_s}
                for name, s in self.spans.items()
            },
        }


@dataclass(frozen=True)
class ServiceSnapshot:
    """Point-in-time view of the whole service (all shards + ingest)."""

    shards: tuple[ShardSnapshot, ...]
    n_overloaded: int = 0
    n_submitted_batches: int = 0
    spans: dict[str, SpanStats] = field(default_factory=dict)
    n_worker_restarts: int = 0
    n_failed_shards: int = 0
    n_faults_injected: int = 0

    # -- aggregates --------------------------------------------------------
    @property
    def n_requests(self) -> int:
        """Total requests processed across shards."""
        return sum(s.n_requests for s in self.shards)

    @property
    def n_hits(self) -> int:
        """Total hits across shards."""
        return sum(s.n_hits for s in self.shards)

    @property
    def n_misses(self) -> int:
        """Total misses across shards."""
        return sum(s.n_misses for s in self.shards)

    @property
    def eviction_cost(self) -> float:
        """Total eviction cost (the paper's objective) across shards."""
        return sum(s.eviction_cost for s in self.shards)

    @property
    def hit_rate(self) -> float:
        """Service-wide hit rate."""
        n = self.n_requests
        return self.n_hits / n if n else 0.0

    def cost_by_level(self) -> dict[int, float]:
        """Eviction cost per level, merged across shards."""
        merged: dict[int, float] = {}
        for s in self.shards:
            for level, cost in s.cost_by_level.items():
                merged[level] = merged.get(level, 0.0) + cost
        return dict(sorted(merged.items()))

    def merged_spans(self) -> dict[str, SpanStats]:
        """Service-level spans plus per-shard spans folded together."""
        return merge_span_stats(self.spans, *(s.spans for s in self.shards))

    def to_dict(self) -> dict:
        """JSON-safe view of the whole snapshot.

        This is the payload of the network frontend's ``Snapshot`` reply —
        everything :meth:`render` shows, machine-readable, round-trippable
        through JSON without key-type surprises.
        """
        return {
            "n_requests": self.n_requests,
            "n_hits": self.n_hits,
            "n_misses": self.n_misses,
            "hit_rate": self.hit_rate,
            "eviction_cost": self.eviction_cost,
            "cost_by_level": {str(k): v for k, v in self.cost_by_level().items()},
            "n_overloaded": self.n_overloaded,
            "n_submitted_batches": self.n_submitted_batches,
            "n_worker_restarts": self.n_worker_restarts,
            "n_failed_shards": self.n_failed_shards,
            "n_faults_injected": self.n_faults_injected,
            "shards": [s.to_dict() for s in self.shards],
        }

    # -- rendering ---------------------------------------------------------
    def table(self, *, include_latency: bool = True,
              include_spans: bool = False) -> Table:
        """Per-shard counter table plus a totals row.

        ``include_latency=False`` drops the (timing-dependent) percentile
        columns so the rendering is bit-deterministic for golden tests;
        ``include_spans=True`` adds each shard's ``evict`` span total.
        """
        columns = ["shard", "k", "requests", "hits", "misses",
                   "evictions", "evict cost", "hit rate"]
        if include_latency:
            columns += ["batches", "p50 ms", "p95 ms", "p99 ms"]
        if include_spans:
            columns += ["evict s"]
        table = Table(columns, title="service snapshot")
        for s in self.shards:
            row = [s.shard, s.cache_size, s.n_requests, s.n_hits, s.n_misses,
                   s.n_evictions, s.eviction_cost, s.hit_rate]
            if include_latency:
                row += [s.n_batches, s.p50_ms, s.p95_ms, s.p99_ms]
            if include_spans:
                evict = s.spans.get("evict")
                row += [evict.total_s if evict else 0.0]
            table.add_row(*row)
        total_row = ["total", sum(s.cache_size for s in self.shards),
                     self.n_requests, self.n_hits, self.n_misses,
                     sum(s.n_evictions for s in self.shards),
                     self.eviction_cost, self.hit_rate]
        if include_latency:
            total_row += [self.n_submitted_batches, "", "", ""]
        if include_spans:
            merged_evict = self.merged_spans().get("evict")
            total_row += [merged_evict.total_s if merged_evict else 0.0]
        table.add_row(*total_row)
        return table

    def phase_table(self) -> Table:
        """Per-phase span aggregates (service + shards merged)."""
        table = Table(["phase", "count", "total s", "mean ms", "min ms",
                       "max ms", "stddev ms"],
                      title="phase spans")
        for name, s in self.merged_spans().items():
            table.add_row(name, s.n, s.total_s, s.mean_ms, s.min_ms,
                          1e3 * s.max_s, s.stddev_ms)
        return table

    def render(self, *, include_latency: bool = True,
               include_spans: bool | None = None) -> str:
        """Rendered counter table, the overload line, and (optionally) spans.

        ``include_spans`` defaults to ``include_latency`` — both carry
        timing-dependent values, so the deterministic golden-test mode
        (``include_latency=False``) keeps excluding them.
        """
        if include_spans is None:
            include_spans = include_latency
        text = self.table(include_latency=include_latency,
                          include_spans=include_spans).render()
        text += f"overloaded batches: {self.n_overloaded}\n"
        # Recovery counters appear only when nonzero, so fault-free runs
        # (and the deterministic golden rendering) are unchanged.
        if self.n_faults_injected or self.n_worker_restarts or self.n_failed_shards:
            text += (
                f"faults injected: {self.n_faults_injected}, "
                f"worker restarts: {self.n_worker_restarts}, "
                f"failed shards: {self.n_failed_shards}\n"
            )
        if include_spans and self.merged_spans():
            text += "\n" + self.phase_table().render()
        return text
