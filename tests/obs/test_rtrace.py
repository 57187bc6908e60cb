"""Request tracing: deterministic ids, span export, stitching, flight
recorder, and the cross-backend byte-identity acceptance property."""

import json
from pathlib import Path

import pytest

from repro.algorithms import KernelLandlordPolicy
from repro.cluster import ClusterMap, ClusterProxy
from repro.core.instance import WeightedPagingInstance
from repro.net import NetServer, run_network_load
from repro.obs import (
    FlightRecorder,
    RequestSampler,
    SpanExporter,
    TraceContext,
    longest_chain,
    read_spans,
    render_waterfall,
    stitch_spans,
)
from repro.service import PagingService, ServiceConfig
from repro.workloads import sample_weights, zipf_stream


def make_service(**kwargs):
    inst = WeightedPagingInstance(16, sample_weights(64, rng=0, high=16.0))
    config = ServiceConfig(instance=inst, policy_factory=KernelLandlordPolicy,
                           n_shards=2, batch_size=256, **kwargs)
    return PagingService(config)


class TestRequestSampler:
    def test_sampling_is_a_pure_function_of_seed_and_t(self):
        a = RequestSampler(seed=7, sample=0.25)
        b = RequestSampler(seed=7, sample=0.25)
        assert [a.want(t) for t in range(200)] == \
               [b.want(t) for t in range(200)]
        assert [a.trace_id(t) for t in range(20)] == \
               [b.trace_id(t) for t in range(20)]

    def test_extreme_rates(self):
        assert all(RequestSampler(seed=1, sample=1.0).want(t)
                   for t in range(100))
        assert not any(RequestSampler(seed=1, sample=0.0).want(t)
                       for t in range(100))

    def test_rate_roughly_honored(self):
        sampler = RequestSampler(seed=3, sample=0.1)
        hits = sum(sampler.want(t) for t in range(20_000))
        assert 0.05 < hits / 20_000 < 0.15

    def test_root_context_span_is_trace(self):
        ctx = RequestSampler(seed=5, sample=1.0).context(42)
        assert ctx.span_id == ctx.trace_id
        assert ctx.sampled

    def test_context_sampled_matches_want(self):
        sampler = RequestSampler(seed=9, sample=0.3)
        for t in range(100):
            assert sampler.context(t).sampled == sampler.want(t)

    def test_bad_rate_rejected(self):
        with pytest.raises(ValueError):
            RequestSampler(sample=1.5)
        with pytest.raises(ValueError):
            RequestSampler(sample=-0.1)


class TestTraceContext:
    def test_child_ids_are_deterministic(self):
        ctx = TraceContext(1, 2, True)
        assert ctx.child("admit") == ctx.child("admit")
        assert ctx.child("admit") != ctx.child("route")
        assert ctx.child("queue", 0) != ctx.child("queue", 1)

    def test_child_keeps_trace_and_sampling(self):
        ctx = TraceContext(10, 20, False)
        child = ctx.child("x")
        assert child.trace_id == 10
        assert not child.sampled
        assert child.span_id != 20

    def test_wire_round_trip(self):
        ctx = TraceContext(0xDEADBEEF, 0xCAFE, True)
        assert TraceContext.from_wire(ctx.to_wire()) == ctx

    @pytest.mark.parametrize("bad", [
        ["zz", "00", 1],          # non-hex
        ["00"],                   # wrong arity
        "0011",                   # not a list
        42,
        ["00", "11", 1, "extra"],
    ])
    def test_malformed_wire_degrades_to_untraced(self, bad):
        assert TraceContext.from_wire(bad) is None

    def test_none_wire_is_untraced(self):
        assert TraceContext.from_wire(None) is None


class TestSpanExporter:
    def test_sampled_spans_are_written(self, tmp_path):
        path = tmp_path / "spans.jsonl"
        with SpanExporter(path, recorder=FlightRecorder()) as exp:
            ctx = TraceContext(1, 1, True)
            child = exp.emit(ctx, "admit", tier="svc", t=3,
                             attrs={"n_requests": 5})
        records = read_spans(path)
        assert len(records) == 1
        rec = records[0]
        assert rec["ev"] == "span"
        assert rec["name"] == "admit"
        assert rec["tier"] == "svc"
        assert rec["t"] == 3
        assert rec["attrs"] == {"n_requests": 5}
        assert rec["span"] == f"{child.span_id:016x}"
        assert rec["parent"] == f"{ctx.span_id:016x}"

    def test_unsampled_spans_derive_but_write_nothing(self, tmp_path):
        path = tmp_path / "spans.jsonl"
        with SpanExporter(path, recorder=FlightRecorder()) as exp:
            ctx = TraceContext(1, 1, False)
            child = exp.emit(ctx, "admit", tier="svc")
        assert child == ctx.child("admit")
        assert path.read_text() == ""

    def test_wall_false_omits_clock_fields(self, tmp_path):
        path = tmp_path / "spans.jsonl"
        with SpanExporter(path, recorder=FlightRecorder()) as exp:
            exp.emit(TraceContext(1, 1, True), "a", tier="svc", dur=1.0)
        (rec,) = read_spans(path)
        assert "ts" not in rec and "dur" not in rec

    def test_wall_true_carries_ts_and_dur(self, tmp_path):
        path = tmp_path / "spans.jsonl"
        with SpanExporter(path, wall=True, recorder=FlightRecorder()) as exp:
            exp.emit(TraceContext(1, 1, True), "a", tier="net", dur=0.25)
        (rec,) = read_spans(path)
        assert rec["ts"] > 0
        assert rec["dur"] == pytest.approx(0.25)

    def test_close_is_idempotent_and_drops_late_emits(self, tmp_path):
        path = tmp_path / "spans.jsonl"
        exp = SpanExporter(path, recorder=FlightRecorder())
        exp.close()
        exp.close()
        exp.emit(TraceContext(1, 1, True), "late", tier="svc")
        assert path.read_text() == ""


class TestStitching:
    def _chain(self, n=3):
        """A root plus (n-1) nested children, as emitted records."""
        sampler = RequestSampler(seed=1, sample=1.0)
        ctx = sampler.context(0)
        records = []
        for i in range(n):
            child = ctx.child(f"step{i}")
            records.append({
                "ev": "span",
                "trace": f"{child.trace_id:016x}",
                "span": f"{child.span_id:016x}",
                "parent": f"{ctx.span_id:016x}",
                "name": f"step{i}", "tier": "svc", "t": 0,
            })
            ctx = child
        return records

    def test_stitch_groups_by_trace(self):
        recs = self._chain(3)
        other = dict(recs[0])
        other["trace"] = other["span"] = "beef" * 4
        traces = stitch_spans(recs + [other])
        assert len(traces) == 2
        assert len(traces[recs[0]["trace"]]) == 3

    def test_duplicate_spans_collapse(self):
        """Recovery replay re-emits identical span ids; stitching keeps
        the first occurrence instead of double-counting."""
        recs = self._chain(3)
        traces = stitch_spans(recs + recs)
        assert len(traces[recs[0]["trace"]]) == 3

    def test_non_span_events_ignored(self):
        assert stitch_spans([{"ev": "meta", "x": 1}]) == {}

    def test_longest_chain_walks_parent_links(self):
        recs = self._chain(4)
        chain = longest_chain(recs)
        assert [r["name"] for r in chain] == \
               ["step0", "step1", "step2", "step3"]
        for parent, child in zip(chain, chain[1:]):
            assert child["parent"] == parent["span"]

    def test_render_waterfall_indents_children(self):
        recs = self._chain(3)
        text = render_waterfall(recs[0]["trace"], recs)
        lines = text.splitlines()
        assert "3 span(s)" in lines[0]
        assert lines[1].startswith("  svc:step0")
        assert lines[2].startswith("    svc:step1")
        assert lines[3].startswith("      svc:step2")


class TestFlightRecorder:
    def test_ring_keeps_last_n_per_tier(self):
        rec = FlightRecorder(capacity=3)
        for i in range(10):
            rec.record("svc", {"t": i})
        rec.record("net", {"t": 0})
        snap = rec.snapshot()
        assert [r["t"] for r in snap["svc"]] == [7, 8, 9]
        assert len(snap["net"]) == 1

    def test_dump_is_noop_until_armed(self, tmp_path):
        rec = FlightRecorder()
        rec.record("svc", {"t": 1})
        assert rec.dump("shard-death") is None
        rec.set_dump_dir(tmp_path)
        path = rec.dump("shard-death")
        assert path is not None and path.parent == tmp_path
        payload = json.loads(path.read_text())
        assert payload["reason"] == "shard-death"
        assert payload["spans"]["svc"] == [{"t": 1}]

    def test_dump_names_are_sequenced_and_slugged(self, tmp_path):
        rec = FlightRecorder()
        rec.set_dump_dir(tmp_path)
        first = rec.dump("migration failed: shard 3!")
        second = rec.dump("sigusr1")
        assert first.name == "flight-001-migration-failed-shard-3.json"
        assert second.name == "flight-002-sigusr1.json"

    def test_explicit_directory_overrides(self, tmp_path):
        rec = FlightRecorder()
        path = rec.dump("adhoc", directory=tmp_path)
        assert path is not None and path.exists()

    def test_clear_drops_rings(self):
        rec = FlightRecorder()
        rec.record("svc", {"t": 1})
        rec.clear()
        assert rec.snapshot() == {}

    def test_bad_capacity_rejected(self):
        with pytest.raises(ValueError):
            FlightRecorder(capacity=0)

    def test_exporter_tees_into_recorder(self, tmp_path):
        rec = FlightRecorder()
        with SpanExporter(tmp_path / "s.jsonl", recorder=rec) as exp:
            exp.emit(TraceContext(1, 1, True), "admit", tier="svc")
        snap = rec.snapshot()
        assert len(snap["svc"]) == 1
        assert snap["svc"][0]["name"] == "admit"


N_REQUESTS = 4000
TRACE_SEED = 11


def _run_traced(backend: str, directory: Path) -> list[Path]:
    """One traced run; returns the span files (svc first, shards after)."""
    seq = zipf_stream(64, N_REQUESTS, alpha=0.9, rng=1)
    svc = make_service(backend=backend)
    paths = svc.enable_request_tracing(directory, sample=1.0,
                                      seed=TRACE_SEED)
    batches = [(seq.pages[lo:lo + 256], seq.levels[lo:lo + 256])
               for lo in range(0, N_REQUESTS, 256)]
    if backend == "inline":
        for pages, levels in batches:
            svc.submit_batch(pages, levels)
        svc.stop()
        return paths
    with svc:
        for pages, levels in batches:
            result = svc.submit_batch(pages, levels)
            result.wait(10.0)
        assert svc.drain(30.0)
    return paths


class TestByteIdentity:
    def test_span_files_identical_across_backends(self, tmp_path):
        """The acceptance property: same seed, same batch stream — the
        execution backend must be unobservable in the span bytes."""
        contents = {}
        for backend in ("inline", "thread", "process"):
            paths = _run_traced(backend, tmp_path / backend)
            contents[backend] = [p.read_bytes() for p in paths]
            assert all(c for c in contents[backend])
        assert contents["inline"] == contents["thread"] == \
               contents["process"]

    def test_local_chain_covers_every_tier(self, tmp_path):
        paths = _run_traced("thread", tmp_path / "chain")
        traces = stitch_spans(read_spans(*paths))
        assert len(traces) == N_REQUESTS // 256 + (N_REQUESTS % 256 > 0)
        chain = longest_chain(next(iter(traces.values())))
        names = [(r["tier"], r["name"]) for r in chain]
        assert names[:3] == [("svc", "admit"), ("svc", "route"),
                             ("svc", "queue")]
        assert ("shard", "batch") in names
        assert len(chain) >= 5


class TestNetworkedWaterfall:
    def test_cluster_chain_spans_every_tier(self, tmp_path):
        """client -> proxy -> backend -> shard, stitched offline: the
        longest causal chain crosses >= 5 spans (the PR's acceptance
        criterion) and visits all four tiers."""
        inst = WeightedPagingInstance(16, sample_weights(64, rng=0,
                                                         high=16.0))
        n_shards = 4
        backends = []
        for b in range(2):
            svc = PagingService(ServiceConfig(
                instance=inst, policy_factory=KernelLandlordPolicy,
                n_shards=n_shards, batch_size=256, backend="thread"))
            svc.enable_request_tracing(tmp_path / f"backend-{b}",
                                       sample=1.0, seed=TRACE_SEED)
            svc.start()
            exp = SpanExporter(tmp_path / f"backend-{b}" / "net.spans.jsonl",
                               wall=True, recorder=FlightRecorder())
            srv = NetServer(svc, span_exporter=exp)
            srv.start()
            backends.append((svc, srv, exp))
        cmap = ClusterMap.balanced([s.address for _, s, _ in backends],
                                   n_shards)
        proxy_spans = SpanExporter(tmp_path / "proxy.spans.jsonl",
                                   wall=True, recorder=FlightRecorder())
        proxy = ClusterProxy(cmap, window=4, timeout=30.0,
                             span_exporter=proxy_spans).start()
        try:
            seq = zipf_stream(64, 2000, alpha=0.9, rng=1)
            report = run_network_load(
                proxy.address, seq, rate=1e6, batch_size=250,
                connections=2, window=4, timeout=30.0,
                trace_sample=1.0, trace_seed=TRACE_SEED,
                span_dir=tmp_path)
        finally:
            proxy.stop()
            proxy_spans.close()
            for svc, srv, exp in backends:
                srv.stop()
                svc.stop()
                exp.close()
        assert report.n_served == 2000
        files = sorted(tmp_path.rglob("*.spans.jsonl"))
        traces = stitch_spans(read_spans(*files))
        assert len(traces) == 8  # 2000 requests / 250 per batch, all sampled
        chains = [longest_chain(recs) for recs in traces.values()]
        best = max(chains, key=len)
        assert len(best) >= 5
        tiers = [r["tier"] for r in best]
        for tier in ("client", "proxy", "svc", "shard"):
            assert tier in tiers, tiers
        # Causality holds link by link.
        for parent, child in zip(best, best[1:]):
            assert child["parent"] == parent["span"]
        # The waterfall renders every tier of the chain.
        text = render_waterfall(next(iter(traces)),
                                traces[next(iter(traces))])
        assert "client:submit" in text
        assert "proxy:forward" in text
