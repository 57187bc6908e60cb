"""Observability for the paging service, backed by :mod:`repro.obs`:

* :class:`ServiceLedger` — a :class:`~repro.core.ledger.CostLedger` that
  also counts the shard's requests and batches and buckets evictions and
  cost per level; :class:`ShardTotals` is its absolute totals at one batch
  boundary (what a process-backed worker acks).
* :class:`ShardMeter` — the one place a shard batch is counted and timed:
  the shard-labeled exposition families, a :class:`LatencyHistogram`
  window of recent batch times and the phase profiler.
* :class:`ShardSnapshot` / :class:`ServiceSnapshot` — immutable point-in-time
  views rendered through the repo-standard :class:`~repro.analysis.Table`,
  carrying per-phase :class:`~repro.obs.SpanStats` from the profilers.

All counters are monotonic over the service's lifetime; snapshots are cheap
(one dict copy per shard) and safe to take while the service is running
because engines only ever *add* to their ledgers.  Pass no registry (the
default) and the meters skip the exposition families altogether.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from repro.analysis.tables import Table
from repro.core.ledger import CostLedger
from repro.obs.registry import MetricsRegistry, null_registry
from repro.obs.spans import PhaseProfiler, SpanStats, merge_span_stats

__all__ = [
    "ServiceLedger",
    "ShardTotals",
    "ShardMeter",
    "LatencyHistogram",
    "ShardSnapshot",
    "ServiceSnapshot",
]

#: Recent batch service times each shard keeps for percentile estimates.
LATENCY_WINDOW = 4096


class ServiceLedger(CostLedger):
    """Cost ledger of one shard engine: per-level eviction breakdowns plus
    the shard's request count (its logical clock) and batch count."""

    __slots__ = ("cost_by_level", "evictions_by_level", "n_requests",
                 "n_batches")

    def __init__(self, *, record_events: bool = False) -> None:
        super().__init__(record_events=record_events)
        self.cost_by_level: dict[int, float] = {}
        self.evictions_by_level: dict[int, int] = {}
        self.n_requests = 0
        self.n_batches = 0

    def charge_eviction(self, page: int, level: int, cost: float,
                        reason: str = "") -> None:
        super().charge_eviction(page, level, cost, reason)
        self.cost_by_level[level] = self.cost_by_level.get(level, 0.0) + cost
        self.evictions_by_level[level] = self.evictions_by_level.get(level, 0) + 1

    def charge_evictions(
            self, events: Sequence[tuple[int, int, float, str]]) -> None:
        """Batch form of :meth:`charge_eviction`, bit-identical to one
        call per event (see :meth:`CostLedger.charge_evictions`), per-level
        dicts included."""
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
            for _page, level, cost, _reason in events:
                cost_by_level[level] = cost_by_level.get(level, 0.0) + cost
                evictions_by_level[level] = evictions_by_level.get(level, 0) + 1


class ShardTotals(NamedTuple):
    """A shard's absolute ledger totals at one batch boundary.

    What a process-backed worker acks after every batch and restore, and
    the parent's mirror of that worker's ledger.  The attribute names are
    :class:`ServiceLedger`'s, so a :class:`ShardMeter`, a snapshot or a
    request-trace span reads either one the same way.
    """

    n_requests: int
    n_batches: int
    n_hits: int
    n_misses: int
    n_evictions: int
    eviction_cost: float
    cost_by_level: dict[int, float]
    evictions_by_level: dict[int, int]

    @classmethod
    def of(cls, ledger) -> "ShardTotals":
        """A copy of ``ledger``'s totals, per-level dicts included."""
        return cls(ledger.n_requests, ledger.n_batches, ledger.n_hits,
                   ledger.n_misses, ledger.n_evictions, ledger.eviction_cost,
                   dict(ledger.cost_by_level),
                   dict(ledger.evictions_by_level))


class LatencyHistogram:
    """Bounded ring of recent observations (seconds) with percentile queries.

    The window keeps the most recent ``window`` observations.  It is not a
    copy of the registry's ``repro_batch_latency_seconds`` histogram: that
    one's buckets start at 0.5 ms, above a typical shard batch, so only
    the raw window gives exact snapshot percentiles.
    """

    __slots__ = ("_window", "_samples", "_pos")

    def __init__(self, window: int = LATENCY_WINDOW) -> None:
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self._window = window
        self._samples: list[float] = []
        self._pos = 0

    def observe(self, seconds: float) -> None:
        """Record one service-time observation."""
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


class ShardMeter:
    """The one place a shard batch is counted and timed.

    Both engine backends call :meth:`batch` once per served batch with the
    shard's *absolute* totals (the in-process :class:`ServiceLedger`, or
    the :class:`ShardTotals` a worker acks) and :meth:`rebase` after any
    restore or install.  Each exposition counter moves by the difference of
    totals since the last call, so ``/metrics`` reads the same on every
    backend: a restored or installed history counts nothing, and batches
    replayed after a restore count again (*at-least-once*, like Prometheus
    counters across a process restart).  The meter also owns the shard's
    latency window and :class:`~repro.obs.PhaseProfiler` (one ``evict``
    span per batch) and builds its :class:`ShardSnapshot`; it is never
    checkpoint state.  With no registry :meth:`batch` skips the counters.
    """

    __slots__ = ("shard_id", "latency", "profiler", "_live", "_m_requests",
                 "_m_hits", "_m_misses", "_m_batches", "_m_latency",
                 "_f_evictions", "_f_cost", "_children", "_n_requests",
                 "_n_batches", "_n_hits", "_n_misses", "_evictions_base",
                 "_cost_base")

    def __init__(self, shard_id: int,
                 registry: MetricsRegistry | None = None) -> None:
        reg = registry if registry is not None else null_registry()
        label = str(shard_id)
        self.shard_id = shard_id
        self.latency = LatencyHistogram()
        self.profiler = PhaseProfiler()
        self._live = reg is not null_registry()
        self._m_requests = reg.counter(
            "repro_requests_total", "Requests served", ("shard",)
        ).labels(label)
        self._m_hits = reg.counter(
            "repro_hits_total", "Requests served without cache changes",
            ("shard",),
        ).labels(label)
        self._m_misses = reg.counter(
            "repro_misses_total", "Requests that required cache changes",
            ("shard",),
        ).labels(label)
        self._m_batches = reg.counter(
            "repro_batches_total", "Micro-batches processed", ("shard",)
        ).labels(label)
        self._m_latency = reg.histogram(
            "repro_batch_latency_seconds", "Batch service time per shard",
            ("shard",),
        ).labels(label)
        self._f_evictions = reg.counter(
            "repro_evictions_total", "Evictions charged to this ledger",
            ("shard", "level"),
        )
        self._f_cost = reg.counter(
            "repro_eviction_cost_total",
            "Total eviction cost (the paper's objective)",
            ("shard", "level"),
        )
        # level -> (evictions child, cost child), made at the level's
        # first counted eviction, as a scrape would first see it.
        self._children: dict[int, tuple] = {}
        self._n_requests = self._n_batches = 0
        self._n_hits = self._n_misses = 0
        self._evictions_base: dict[int, int] = {}
        self._cost_base: dict[int, float] = {}

    def batch(self, totals, elapsed: float) -> None:
        """Count and time one served batch; ``totals`` are absolute."""
        if self._live:
            self._count(totals)
            self._m_latency.observe(elapsed)
        self.profiler.record("evict", elapsed)
        self.latency.observe(elapsed)

    def rebase(self, totals) -> None:
        """Take ``totals`` (just restored or installed) as the new
        baseline, counting nothing."""
        if self._live:
            self._n_requests = totals.n_requests
            self._n_batches = totals.n_batches
            self._n_hits = totals.n_hits
            self._n_misses = totals.n_misses
            self._evictions_base = dict(totals.evictions_by_level)
            self._cost_base = dict(totals.cost_by_level)

    def _count(self, totals) -> None:
        self._m_requests.inc(totals.n_requests - self._n_requests)
        self._m_hits.inc(totals.n_hits - self._n_hits)
        self._m_misses.inc(totals.n_misses - self._n_misses)
        self._m_batches.inc(totals.n_batches - self._n_batches)
        self._n_requests = totals.n_requests
        self._n_batches = totals.n_batches
        self._n_hits = totals.n_hits
        self._n_misses = totals.n_misses
        evictions_base, cost_base = self._evictions_base, self._cost_base
        cost_by_level = totals.cost_by_level
        for level, n in totals.evictions_by_level.items():
            new = n - evictions_base.get(level, 0)
            if not new:
                continue
            children = self._children.get(level)
            if children is None:
                lv = str(level)
                children = self._children[level] = (
                    self._f_evictions.labels(str(self.shard_id), lv),
                    self._f_cost.labels(str(self.shard_id), lv),
                )
            cost = cost_by_level[level]
            children[0].inc(new)
            children[1].inc(cost - cost_base.get(level, 0.0))
            evictions_base[level] = n
            cost_base[level] = cost

    def snapshot(self, totals, cache_size: int,
                 queue_depth: int = 0) -> ShardSnapshot:
        """Point-in-time counters from ``totals`` plus this meter's timings."""
        p50, p95, p99 = self.latency.percentiles_ms()
        return ShardSnapshot(
            shard=self.shard_id,
            cache_size=cache_size,
            n_requests=totals.n_requests,
            n_hits=totals.n_hits,
            n_misses=totals.n_misses,
            n_evictions=totals.n_evictions,
            eviction_cost=totals.eviction_cost,
            cost_by_level=dict(totals.cost_by_level),
            evictions_by_level=dict(totals.evictions_by_level),
            n_batches=totals.n_batches,
            queue_depth=queue_depth,
            p50_ms=p50,
            p95_ms=p95,
            p99_ms=p99,
            spans=self.profiler.stats(),
        )


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
