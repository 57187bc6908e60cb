"""Phase profiler: span accounting, merging, reuse."""

import pytest

from repro.obs import PhaseProfiler, SpanStats, merge_span_stats


class TestPhaseProfiler:
    def test_record_accumulates(self):
        p = PhaseProfiler()
        p.record("ingest", 0.5)
        p.record("ingest", 1.5)
        p.record("route", 0.1)
        stats = p.stats()
        assert stats["ingest"].n == 2
        assert stats["ingest"].total_s == pytest.approx(2.0)
        assert stats["ingest"].max_s == pytest.approx(1.5)
        assert stats["ingest"].mean_ms == pytest.approx(1000.0)
        assert stats["route"].n == 1

    def test_span_context_manager_times(self):
        p = PhaseProfiler()
        with p.span("evict"):
            pass
        with p.span("evict"):
            pass
        stats = p.stats()
        assert stats["evict"].n == 2
        assert stats["evict"].total_s >= 0.0
        assert stats["evict"].max_s <= stats["evict"].total_s

    def test_span_objects_are_reused(self):
        p = PhaseProfiler()
        assert p.span("a") is p.span("a")
        assert p.span("a") is not p.span("b")

    def test_nested_different_spans(self):
        p = PhaseProfiler()
        with p.span("outer"):
            with p.span("inner"):
                pass
        stats = p.stats()
        assert stats["outer"].n == 1 and stats["inner"].n == 1
        assert stats["outer"].total_s >= stats["inner"].total_s

    def test_empty_stats_mean(self):
        s = SpanStats("x", 0, 0.0, 0.0)
        assert s.mean_ms == 0.0

    def test_min_and_stddev_accumulate(self):
        p = PhaseProfiler()
        for d in (1.0, 3.0, 5.0):
            p.record("x", d)
        s = p.stats()["x"]
        assert s.min_ms == pytest.approx(1000.0)
        assert s.max_s == pytest.approx(5.0)
        # Population stddev of {1, 3, 5} is sqrt(8/3).
        assert s.stddev_ms == pytest.approx(1000.0 * (8.0 / 3.0) ** 0.5)

    def test_constant_durations_have_zero_spread(self):
        p = PhaseProfiler()
        for _ in range(4):
            p.record("x", 2.0)
        s = p.stats()["x"]
        assert s.min_ms == s.max_s * 1e3 == pytest.approx(2000.0)
        assert s.stddev_ms == 0.0


class TestSpanStats:
    def test_positional_construction_still_works(self):
        """Pre-existing callers build SpanStats(name, n, total, max)."""
        s = SpanStats("x", 2, 3.0, 2.0)
        assert s.min_s == 0.0 and s.sq_s == 0.0
        assert s.stddev_ms >= 0.0

    def test_merged_folds_all_fields(self):
        a = SpanStats("x", 2, 3.0, 2.0, min_s=1.0, sq_s=5.0)
        b = SpanStats("x", 1, 0.5, 0.5, min_s=0.5, sq_s=0.25)
        m = a.merged(b)
        assert (m.n, m.total_s, m.max_s) == (3, 3.5, 2.0)
        assert m.min_s == 0.5
        assert m.sq_s == pytest.approx(5.25)

    def test_merged_is_associative(self):
        """min/max/sums all fold associatively — the property that lets
        per-shard profilers merge in any order."""
        a = SpanStats("x", 2, 3.0, 2.0, min_s=1.0, sq_s=5.0)
        b = SpanStats("x", 1, 0.5, 0.5, min_s=0.5, sq_s=0.25)
        c = SpanStats("x", 3, 9.0, 4.0, min_s=2.0, sq_s=29.0)
        assert a.merged(b).merged(c) == a.merged(b.merged(c))

    def test_empty_is_merge_identity(self):
        """A zero record's min_s=0.0 must not clobber a real minimum."""
        empty = SpanStats("x", 0, 0.0, 0.0)
        real = SpanStats("x", 2, 3.0, 2.0, min_s=1.0, sq_s=5.0)
        assert empty.merged(real) == real
        assert real.merged(empty) == real

    def test_pooled_stddev_matches_direct_computation(self):
        p1, p2 = PhaseProfiler(), PhaseProfiler()
        for d in (1.0, 2.0):
            p1.record("x", d)
        for d in (3.0, 6.0):
            p2.record("x", d)
        merged = p1.stats()["x"].merged(p2.stats()["x"])
        durations = [1.0, 2.0, 3.0, 6.0]
        mean = sum(durations) / 4
        var = sum((d - mean) ** 2 for d in durations) / 4
        assert merged.stddev_ms == pytest.approx(1e3 * var ** 0.5)
        assert merged.min_ms == pytest.approx(1000.0)


class TestMergeSpanStats:
    def test_merges_and_sorts_by_name(self):
        m1 = {"b": SpanStats("b", 1, 1.0, 1.0)}
        m2 = {"a": SpanStats("a", 2, 0.5, 0.4),
              "b": SpanStats("b", 3, 2.0, 1.5)}
        merged = merge_span_stats(m1, m2)
        assert list(merged) == ["a", "b"]
        assert merged["b"].n == 4
        assert merged["b"].total_s == pytest.approx(3.0)
        assert merged["b"].max_s == pytest.approx(1.5)

    def test_empty_input(self):
        assert merge_span_stats() == {}
        assert merge_span_stats({}, {}) == {}
