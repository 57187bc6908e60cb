"""Phase profiling: named context-manager spans aggregated per profiler.

A :class:`PhaseProfiler` accumulates, per span name, the number of entries,
total wall time and maximum single duration.  Spans are meant for *phase*
granularity (one per batch / snapshot, not per request), so the two
``perf_counter`` calls per span are negligible next to the work they wrap.

Profilers are single-writer: the service profiler is driven by the
submitting thread, each shard engine's by its worker thread.  Reading
:meth:`stats` from another thread during a run is safe — values are plain
floats updated under the GIL, and a torn read merely mixes two adjacent
batches.  :func:`merge_span_stats` folds per-shard stats into a run-level
view.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter

__all__ = ["SpanStats", "PhaseProfiler"]


@dataclass(frozen=True)
class SpanStats:
    """Aggregate timing of one named phase.

    ``min_s`` and ``sq_s`` (sum of squared durations) ride along so
    merged aggregates can still report spread: min/max bound the range
    and ``sq_s`` yields the exact pooled standard deviation — both fold
    associatively under :meth:`merged`, unlike a stored stddev.  The new
    fields default so positional ``SpanStats(name, n, total, max)``
    construction (pre-existing callers and tests) keeps working.
    """

    name: str
    n: int
    total_s: float
    max_s: float
    min_s: float = 0.0
    sq_s: float = 0.0

    @property
    def mean_ms(self) -> float:
        """Mean duration per entry, in milliseconds."""
        return 1e3 * self.total_s / self.n if self.n else 0.0

    @property
    def min_ms(self) -> float:
        """Minimum single duration, in milliseconds."""
        return 1e3 * self.min_s

    @property
    def stddev_ms(self) -> float:
        """Population standard deviation of durations, in milliseconds.

        Computed from the sum of squares; the variance is clamped at
        zero because float cancellation can drive it epsilon-negative
        when all durations are (near-)equal.
        """
        if self.n < 1:
            return 0.0
        mean = self.total_s / self.n
        var = self.sq_s / self.n - mean * mean
        return 1e3 * var ** 0.5 if var > 0.0 else 0.0

    def merged(self, other: "SpanStats") -> "SpanStats":
        """The aggregate of this and another stats record (same name).

        Empty records (``n == 0``) are identity elements: their zero
        ``min_s`` must not clobber a real minimum from the other side.
        """
        if self.n == 0:
            min_s = other.min_s
        elif other.n == 0:
            min_s = self.min_s
        else:
            min_s = min(self.min_s, other.min_s)
        return SpanStats(
            name=self.name,
            n=self.n + other.n,
            total_s=self.total_s + other.total_s,
            max_s=max(self.max_s, other.max_s),
            min_s=min_s,
            sq_s=self.sq_s + other.sq_s,
        )


class _Span:
    """Reusable timing context for one profiler + name pair."""

    __slots__ = ("_profiler", "_name", "_t0")

    def __init__(self, profiler: "PhaseProfiler", name: str) -> None:
        self._profiler = profiler
        self._name = name
        self._t0 = 0.0

    def __enter__(self) -> "_Span":
        self._t0 = perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self._profiler.record(self._name, perf_counter() - self._t0)


class PhaseProfiler:
    """Accumulates (count, total, max, min, sum-of-squares) per span name."""

    __slots__ = ("_cells", "_spans")

    def __init__(self) -> None:
        # name -> [n, total_s, max_s, min_s, sq_s]; lists so record()
        # stays a handful of in-place updates.
        self._cells: dict[str, list] = {}
        self._spans: dict[str, _Span] = {}

    def span(self, name: str) -> _Span:
        """A reusable ``with``-able timer for phase ``name``."""
        span = self._spans.get(name)
        if span is None:
            span = self._spans[name] = _Span(self, name)
        return span

    def record(self, name: str, seconds: float) -> None:
        """Record one completed phase duration directly."""
        cell = self._cells.get(name)
        if cell is None:
            self._cells[name] = [1, seconds, seconds, seconds,
                                 seconds * seconds]
            return
        cell[0] += 1
        cell[1] += seconds
        if seconds > cell[2]:
            cell[2] = seconds
        if seconds < cell[3]:
            cell[3] = seconds
        cell[4] += seconds * seconds

    def stats(self) -> dict[str, SpanStats]:
        """Point-in-time aggregate per span name."""
        return {
            name: SpanStats(name, cell[0], cell[1], cell[2], cell[3], cell[4])
            for name, cell in self._cells.items()
        }

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{n}: {c[0]}x {c[1]:.4f}s" for n, c in sorted(self._cells.items())
        )
        return f"PhaseProfiler({parts})"


def merge_span_stats(*stat_maps: dict[str, SpanStats]) -> dict[str, SpanStats]:
    """Merge several ``name -> SpanStats`` maps into one (sorted by name)."""
    merged: dict[str, SpanStats] = {}
    for stats in stat_maps:
        for name, s in stats.items():
            cur = merged.get(name)
            merged[name] = s if cur is None else cur.merged(s)
    return dict(sorted(merged.items()))


__all__.append("merge_span_stats")
