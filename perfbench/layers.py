"""Per-layer metrics of a traced run, and which end-to-end metric each moves.

Busy time is thread CPU time: under the GIL, wall-clock spans of threads
overlap, so summed wall time overstates work.  ``wait`` is wall minus CPU
inside the call.  A metric of a layer a workload does not touch reads 0.
"""

from __future__ import annotations

from collections import defaultdict

from common import percentile

# name, unit, what it measures, which end-to-end metric it should move.
METRICS = (
    ("kernels.calls", "count", "serve_batch calls",
     "throughput_rps on replay-rw (batch path)"),
    ("kernels.requests_per_call", "req", "requests per serve_batch call",
     "throughput_rps on replay-rw"),
    ("kernels.cpu_s", "s", "CPU in serve_batch and per-request serve",
     "throughput_rps on replay-rw and observed-ml3; ~no change in wire-hot latency_ms"),
    ("kernels.cpu_frac", "fraction", "kernels.cpu_s / sut.cpu_s",
     "share of the program's CPU the kernel could save"),
    ("kernels.ns_per_req", "ns/req", "serve_batch CPU per request",
     "throughput_rps on replay-rw"),
    ("kernels.hit_frac", "fraction", "hits / requests served",
     "context: the hit-run path vs eviction rounds"),
    ("kernels.evictions_per_req", "1/req", "evictions / requests served",
     "context: eviction-round work"),
    ("kernels.scalar_serves", "count", "per-request serve calls",
     "throughput_rps on observed-ml3 (scalar path)"),
    ("kernels.scalar_ns_per_req", "ns/req", "CPU per per-request serve",
     "throughput_rps on observed-ml3"),
    ("ledger.charges", "count", "ServiceLedger.charge_eviction calls",
     "throughput_rps on observed-ml3 (live registry) vs replay-rw (null)"),
    ("ledger.ns_per_charge", "ns", "CPU per charge_eviction",
     "throughput_rps on observed-ml3 vs replay-rw"),
    ("engine.calls", "count", "ShardEngine.process_batch calls",
     "throughput_rps on replay-rw and observed-ml3"),
    ("engine.cpu_s", "s", "CPU in process_batch, children included",
     "throughput_rps on replay-rw and observed-ml3"),
    ("engine.self_ns_per_req", "ns/req", "process_batch self CPU per request",
     "throughput_rps on replay-rw and observed-ml3"),
    ("engine.wait_s", "s", "wall minus CPU inside process_batch",
     "throughput_rps on observed-ml3 (GIL contention)"),
    ("service.submits", "count", "PagingService.submit_batch calls",
     "throughput_rps on observed-ml3"),
    ("service.self_ns_per_req", "ns/req", "submit_batch self CPU per request",
     "throughput_rps on observed-ml3; latency_ms (printed p50/p99) on wire-hot"),
    ("service.route_ns_per_req", "ns/req", "ShardRouter.split CPU per request",
     "throughput_rps on observed-ml3; latency_ms on wire-hot"),
    ("service.parts_per_batch", "count", "non-empty shard parts per split",
     "context: fan-out of one batch"),
    ("service.queue_wait_p50_ms", "ms", "routed part to its process_batch start",
     "throughput_rps on observed-ml3; latency_ms on wire-hot"),
    ("service.queue_wait_p99_ms", "ms", "the same, 99th percentile",
     "printed p99 on wire-hot"),
    ("service.overloaded", "count", "submits refused Overloaded",
     "failed batches on every serving workload"),
    ("service.failed", "count", "batches failed or never completed",
     "failed batches on every serving workload"),
    ("obs.tracer_calls", "count", "DecisionTracer.request calls",
     "throughput_rps on observed-ml3; zero elsewhere"),
    ("obs.tracer_ns_per_req", "ns/req", "CPU per DecisionTracer.request",
     "throughput_rps on observed-ml3"),
    ("obs.sampled_frac", "fraction", "decision records written / tracer calls",
     "throughput_rps on observed-ml3 (useful share of tracer work)"),
    ("obs.span_emits", "count", "SpanExporter.emit calls",
     "throughput_rps on observed-ml3"),
    ("obs.span_cpu_s", "s", "CPU in SpanExporter.emit",
     "throughput_rps on observed-ml3"),
    ("obs.trace_bytes", "bytes", "decision-trace plus span files written",
     "throughput_rps on observed-ml3"),
    ("net.encode_ns_per_req", "ns/req", "repro.net.frame.encode CPU per request",
     "latency_ms, throughput_rps on wire-hot"),
    ("net.decode_ns_per_req", "ns/req", "FrameDecoder.feed CPU per request",
     "latency_ms, throughput_rps on wire-hot"),
    ("net.bytes_per_req", "bytes/req", "backend wire bytes in+out per request",
     "throughput_rps on wire-hot"),
    ("net.server_p50_ms", "ms", "backend repro_net_request_seconds p50, open-loop windows",
     "latency_ms on wire-hot"),
    ("net.shed", "count", "backend acks 'shed'", "failed batches on wire-hot"),
    ("net.deadline", "count", "backend acks 'deadline'",
     "failed batches on wire-hot"),
    ("net.overloaded", "count", "backend acks 'overloaded'",
     "failed batches on wire-hot"),
    ("cluster.forwards_per_submit", "count", "proxy parts forwarded per submit",
     "latency_ms, throughput_rps on wire-hot"),
    ("cluster.channel_cpu_s", "s", "CPU in the proxy's submit_nowait/collect_any",
     "throughput_rps on wire-hot"),
    ("cluster.channel_wait_s", "s", "wall minus CPU in those calls",
     "latency_ms on wire-hot"),
    ("cluster.added_p50_ms", "ms", "driver p50 minus net.server_p50_ms",
     "latency_ms on wire-hot"),
    ("offline.lp_s", "s", "solve_sparse_lp wall per instance",
     "throughput_rps and latency_ms on certify-rw"),
    ("offline.round_s", "s", "threshold_round wall per instance",
     "throughput_rps and latency_ms on certify-rw"),
    ("offline.lp_vars", "count", "LP variables per instance",
     "throughput_rps on certify-rw"),
    ("offline.lp_rows", "count", "LP constraints per instance",
     "throughput_rps on certify-rw"),
    ("offline.schedules", "count", "rounded schedules per instance",
     "throughput_rps on certify-rw"),
    ("offline.best_threshold", "ratio", "winning rounding threshold",
     "offline.sandwich_width on certify-rw"),
    ("offline.sandwich_width", "ratio", "rounded upper / certified lower bound",
     "quality on certify-rw (lower is tighter)"),
    ("offline.cost_ratio", "ratio", "waterfilling-kernel cost / certified lower bound",
     "quality on certify-rw (looser bound reads higher)"),
    ("sut.cpu_s", "s", "CPU of the process running the program, timed phase",
     "context for every share above"),
    ("sut.cpu_us_per_req", "us/req", "sut.cpu_s per request",
     "throughput_rps on every workload"),
    ("sut.unattributed_cpu_frac", "fraction", "CPU outside every wrapped call",
     "where spans inside the program are still needed"),
    ("driver.late_p99_ms", "ms", "open-loop send time minus due time, p99",
     "validity of latency_ms (printed p50/p99) on wire-hot"),
    ("driver.cpu_s", "s", "CPU of the wire-hot load driver",
     "validity of throughput_rps on wire-hot"),
    ("host.calib_ms", "ms", "fixed pure-Python + numpy loop at run start",
     "host-speed drift beside every number"),
    ("trace.throughput_ratio", "ratio", "traced / untraced throughput_rps",
     "tracing overhead of this benchmark"),
    ("trace.latency_ratio", "ratio", "traced / untraced latency_ms",
     "tracing overhead of this benchmark"),
)

UNITS = {name: unit for name, unit, _, _ in METRICS}


def _per(num: float, den: float, scale: float = 1.0) -> float:
    return num * scale / den if den else 0.0


def queue_waits(spans, engine_keys) -> list[float]:
    """Seconds from routing a part to its shard's ``process_batch`` start.

    Shard queues are FIFO, so the i-th part routed to shard s pairs with
    that shard's i-th ``process_batch`` call.  Parts of refused submits
    never reach a queue and are left out.
    """
    by_id = {s[0]: s for s in spans}
    routed: dict = defaultdict(list)
    for s in sorted((s for s in spans if s[1] == "service.split"),
                    key=lambda s: s[5]):
        parent = by_id.get(s[3])
        if parent is not None and parent[11] not in ("BatchTicket", None):
            continue
        for shard in s[11] or ():
            routed[(s[10], shard)].append(s[5])
    served: dict = defaultdict(list)
    for s in sorted((s for s in spans if s[1] == "engine.process_batch"),
                    key=lambda s: s[4]):
        key = engine_keys.get(s[10])
        if key is not None:
            served[tuple(key)].append(s[4])
    waits = []
    for key, starts in served.items():
        waits.extend(b - a for a, b in zip(routed.get(key, ()), starts))
    return waits


def compute(layers_in: dict, facts: dict) -> dict:
    """Every per-layer metric from one traced run's spans and counters.

    ``facts`` carries what the run measured outside the spans: requests
    served, program CPU, ledger deltas and registry counters.
    """
    tot = layers_in["totals"]

    def t(name: str, key: str) -> float:
        return tot.get(name, {}).get(key, 0)

    requests = facts.get("served", 0)
    sut_cpu = facts.get("cpu_s", 0.0)
    kb_cpu, ks_cpu = t("kernels.serve_batch", "cpu"), t("kernels.serve", "cpu")
    spans = layers_in["spans"]
    splits = [s for s in spans if s[1] == "service.split"]
    waits = [w * 1000.0 for w in queue_waits(spans, {
        int(k): v for k, v in layers_in["engine_keys"].items()})]
    m = {
        "kernels.calls": t("kernels.serve_batch", "calls"),
        "kernels.requests_per_call": _per(t("kernels.serve_batch", "items"),
                                          t("kernels.serve_batch", "calls")),
        "kernels.cpu_s": kb_cpu + ks_cpu,
        "kernels.cpu_frac": _per(kb_cpu + ks_cpu, sut_cpu),
        "kernels.ns_per_req": _per(kb_cpu, t("kernels.serve_batch", "items"), 1e9),
        "kernels.hit_frac": _per(facts.get("hits", 0), requests),
        "kernels.evictions_per_req": _per(facts.get("evictions", 0), requests),
        "kernels.scalar_serves": t("kernels.serve", "calls"),
        "kernels.scalar_ns_per_req": _per(ks_cpu, t("kernels.serve", "calls"), 1e9),
        "ledger.charges": t("ledger.charge", "calls"),
        "ledger.ns_per_charge": _per(t("ledger.charge", "cpu"),
                                     t("ledger.charge", "calls"), 1e9),
        "engine.calls": t("engine.process_batch", "calls"),
        "engine.cpu_s": t("engine.process_batch", "cpu"),
        "engine.self_ns_per_req": _per(t("engine.process_batch", "self_cpu"),
                                       t("engine.process_batch", "items"), 1e9),
        "engine.wait_s": t("engine.process_batch", "wall")
        - t("engine.process_batch", "cpu"),
        "service.submits": t("service.submit_batch", "calls"),
        "service.self_ns_per_req": _per(t("service.submit_batch", "self_cpu"),
                                        t("service.submit_batch", "items"), 1e9),
        "service.route_ns_per_req": _per(t("service.split", "cpu"),
                                         t("service.split", "items"), 1e9),
        "service.parts_per_batch": _per(sum(len(s[11] or ()) for s in splits),
                                        len(splits)),
        "service.queue_wait_p50_ms": percentile(waits, 50.0),
        "service.queue_wait_p99_ms": percentile(waits, 99.0),
        "service.overloaded": facts.get("overloaded", 0),
        "service.failed": facts.get("failed", 0),
        "obs.tracer_calls": t("obs.tracer_request", "calls"),
        "obs.tracer_ns_per_req": _per(t("obs.tracer_request", "cpu"),
                                      t("obs.tracer_request", "calls"), 1e9),
        "obs.sampled_frac": _per(facts.get("tracer_written", 0),
                                 t("obs.tracer_request", "calls")),
        "obs.span_emits": t("obs.span_emit", "calls"),
        "obs.span_cpu_s": t("obs.span_emit", "cpu"),
        "obs.trace_bytes": facts.get("trace_bytes", 0),
        "net.encode_ns_per_req": _per(t("net.encode", "cpu"), requests, 1e9),
        "net.decode_ns_per_req": _per(t("net.decode_feed", "cpu"), requests, 1e9),
        "net.bytes_per_req": _per(facts.get("net_bytes", 0), requests),
        "net.server_p50_ms": facts.get("server_p50_ms", 0.0),
        "net.shed": facts.get("net_shed", 0),
        "net.deadline": facts.get("net_deadline", 0),
        "net.overloaded": facts.get("net_overloaded", 0),
        "cluster.forwards_per_submit": _per(facts.get("proxy_forwards", 0),
                                            facts.get("proxy_submits", 0)),
        "cluster.channel_cpu_s": t("cluster.submit_nowait", "cpu")
        + t("cluster.collect_any", "cpu"),
        "cluster.channel_wait_s": (t("cluster.submit_nowait", "wall")
                                   + t("cluster.collect_any", "wall")
                                   - t("cluster.submit_nowait", "cpu")
                                   - t("cluster.collect_any", "cpu")),
        "sut.cpu_s": sut_cpu,
        "sut.cpu_us_per_req": _per(sut_cpu, requests, 1e6),
        "sut.unattributed_cpu_frac": (max(0.0, 1.0 - layers_in["top_cpu"] / sut_cpu)
                                      if sut_cpu else 0.0),
    }
    for key in ("lp_s", "round_s", "lp_vars", "lp_rows", "schedules",
                "best_threshold", "sandwich_width", "cost_ratio"):
        m[f"offline.{key}"] = facts.get(key, 0.0) if "lp_s" in facts else 0.0
    return m
