"""Open-loop load generator for the paging service.

Replays any :class:`~repro.core.requests.RequestSequence` (so every
generator in :mod:`repro.workloads` works) against a
:class:`~repro.service.server.PagingService` at a target request rate.
The pacing is *open-loop*: batch ``i`` is due at ``start + i·B/rate``
regardless of how fast the service responds, so a service that cannot
keep up shows up as rising queue depth, ``Overloaded`` rejections and
tail latency — not as a silently slower generator.

Two overload policies:

* ``on_overload="retry"`` (default) — an ``Overloaded`` rejection is
  retried with exponential backoff up to ``max_retries`` times, then the
  batch is dropped and counted.
* ``on_overload="shed"`` — rejections are never retried; the batch is
  shed immediately.  This is the load-shedding client: it preserves the
  open-loop pacing exactly (no backoff sleeps) at the price of drops.

Terminal rejections (:class:`~repro.service.ingest.Failed` — the target
shard is permanently down) are never retried under either policy.
Tickets that complete as *failed* (their shard died unrecoverably while
the batch was in flight) count as failed batches, not served requests.

The report carries achieved throughput, drop/overload/failure counts and
end-to-end batch latency percentiles measured from the successfully
completed tickets.  When *no* batch was accepted the percentiles are NaN
and ``rejected_all`` is set — zero latency was never observed, it is
simply unknown.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from time import perf_counter, sleep

import numpy as np

from repro.analysis.tables import Table
from repro.core.requests import RequestSequence
from repro.service.ingest import BatchTicket, retry_delay
from repro.service.profiles import RateProfile
from repro.service.server import PagingService

__all__ = ["LoadReport", "run_load", "summarize_latencies"]


def summarize_latencies(latencies_s) -> tuple[float, float, float]:
    """p50/p95/p99 of end-to-end batch latencies, in milliseconds.

    The single percentile path shared by the in-process and networked
    load generators.  An empty sample yields NaN, not 0 — zero would read
    as an impossibly fast service in downstream tables, while NaN says
    "no completed batch ever reported a latency".
    """
    arr = np.asarray(latencies_s, dtype=np.float64)
    if not arr.size:
        return math.nan, math.nan, math.nan
    p50, p95, p99 = (
        float(v) * 1e3 for v in np.percentile(arr, [50.0, 95.0, 99.0])
    )
    return p50, p95, p99


@dataclass(frozen=True)
class LoadReport:
    """Outcome of one load-generation run."""

    target_rate: float
    achieved_rate: float
    duration_s: float
    n_requests: int
    n_served: int
    n_batches: int
    n_overloaded: int
    n_dropped_batches: int
    p50_ms: float
    p95_ms: float
    p99_ms: float
    n_failed_batches: int = 0
    rejected_all: bool = False

    @classmethod
    def from_tallies(cls, *, target_rate: float, n_requests: int,
                     duration_s: float, latencies_s, n_served: int,
                     n_batches: int, n_overloaded: int,
                     n_dropped_batches: int,
                     n_failed_batches: int) -> "LoadReport":
        """A run's report from its tallies (``n_batches``: accepted)."""
        p50, p95, p99 = summarize_latencies(latencies_s)
        return cls(
            target_rate=target_rate,
            achieved_rate=n_served / duration_s if duration_s > 0 else 0.0,
            duration_s=duration_s, n_requests=n_requests, n_served=n_served,
            n_batches=n_batches, n_overloaded=n_overloaded,
            n_dropped_batches=n_dropped_batches, p50_ms=p50, p95_ms=p95,
            p99_ms=p99, n_failed_batches=n_failed_batches,
            rejected_all=n_batches == 0,
        )

    @property
    def drop_fraction(self) -> float:
        """Fraction of offered requests shed after retries."""
        return 1.0 - (self.n_served / self.n_requests) if self.n_requests else 0.0

    def table(self) -> Table:
        """One-row summary table in the repo's benchmark format."""
        table = Table(
            ["target req/s", "achieved req/s", "duration s", "served",
             "dropped %", "overloads", "failed", "p50 ms", "p95 ms", "p99 ms"],
            title="load generator report",
        )
        table.add_row(
            self.target_rate, self.achieved_rate, self.duration_s,
            self.n_served, 100.0 * self.drop_fraction, self.n_overloaded,
            self.n_failed_batches, self.p50_ms, self.p95_ms, self.p99_ms,
        )
        return table

    def render(self) -> str:
        """Rendered summary table."""
        return self.table().render()


def check_load_args(rate: float, batch_size: int, max_retries: int,
                    on_overload: str) -> None:
    """Reject load-generator arguments no run can honor (ValueError)."""
    if rate <= 0:
        raise ValueError(f"rate must be > 0, got {rate}")
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    if max_retries < 0:
        raise ValueError(f"max_retries must be >= 0, got {max_retries}")
    if on_overload not in ("retry", "shed"):
        raise ValueError(
            f"on_overload must be 'retry' or 'shed', got {on_overload!r}"
        )


def load_schedule(n: int, batch_size: int, rate: float,
                  profile: RateProfile | None) -> tuple[list[float], float]:
    """Each batch's due offset in seconds (``i·B/rate``, or the
    ``profile``'s), and the offered rate the report names as its target."""
    if profile is None:
        return [lo / rate for lo in range(0, n, batch_size)], float(rate)
    return (profile.due_offsets(-(-n // batch_size), batch_size).tolist(),
            profile.mean_rate(n, batch_size))


def sleep_until(deadline: float) -> None:
    """Sleep until ``perf_counter()`` reaches ``deadline`` (if it has not)."""
    now = perf_counter()
    if now < deadline:
        sleep(deadline - now)


def run_load(
    service: PagingService,
    seq: RequestSequence,
    *,
    rate: float = 100_000.0,
    batch_size: int | None = None,
    max_retries: int = 3,
    retry_backoff: float = 0.001,
    on_overload: str = "retry",
    drain_timeout: float | None = 30.0,
    profile: RateProfile | None = None,
) -> LoadReport:
    """Replay ``seq`` against ``service`` at ``rate`` requests/second.

    ``batch_size`` defaults to the service's configured micro-batch size.
    ``on_overload`` selects the client policy for ``Overloaded``
    rejections: ``"retry"`` (up to ``max_retries`` attempts, each after
    :func:`~repro.service.ingest.retry_delay`) or ``"shed"`` (drop
    immediately, never sleep).  The call drains the
    service before reporting, so counters in a subsequent
    :meth:`~repro.service.server.PagingService.snapshot` cover every
    accepted request.

    With a :class:`~repro.service.profiles.RateProfile` the flat pacing
    is replaced by the profile's precomputed due offsets (``rate`` is
    ignored; the report's ``target_rate`` becomes the profile's mean
    offered rate).
    """
    b = batch_size if batch_size is not None else service.config.batch_size
    check_load_args(rate, b, max_retries, on_overload)
    pages, levels = seq.pages, seq.levels
    n = len(seq)
    offsets, target = load_schedule(n, b, rate, profile)
    tickets: list[BatchTicket] = []
    n_overloaded = 0
    n_dropped = 0
    retries_budget = 0 if on_overload == "shed" else max_retries
    started = perf_counter()
    for offset, lo in zip(offsets, range(0, n, b)):
        sleep_until(started + offset)
        batch_pages = pages[lo:lo + b]
        batch_levels = levels[lo:lo + b]
        result = service.submit_batch(batch_pages, batch_levels)
        retries = 0
        while (not result.accepted and retries < retries_budget
               and getattr(result, "retryable", True)):
            retries += 1
            sleep(retry_delay(retry_backoff, retries))
            result = service.submit_batch(batch_pages, batch_levels)
        n_overloaded += retries
        if result.accepted:
            tickets.append(result)
        else:
            n_overloaded += 1
            n_dropped += 1
    service.drain(drain_timeout)
    return LoadReport.from_tallies(
        target_rate=target, n_requests=n,
        duration_s=perf_counter() - started,
        latencies_s=[t.latency for t in tickets
                     if t.ok and t.latency is not None],
        n_served=sum(t.n_requests for t in tickets if t.ok),
        n_batches=len(tickets), n_overloaded=n_overloaded,
        n_dropped_batches=n_dropped,
        n_failed_batches=sum(1 for t in tickets if t.done and not t.ok),
    )
