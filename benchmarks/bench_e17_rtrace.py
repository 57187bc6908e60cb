"""E17 — Request tracing: propagation and sampling overhead through the proxy.

Distributed request tracing (:mod:`repro.obs.rtrace`) adds work at every
tier: the client derives a context per batch, the wire carries a v2
``trace`` field, the proxy and backends derive child spans, and sampled
requests write JSONL records.  This bench prices that pipeline on the
E16 cluster topology (2 backends behind one proxy, same workload and
constants) across three configurations:

* **baseline** — tracing entirely off (no contexts, v1 frames);
* **propagate** — contexts derived and carried on every batch but
  sampling 0.0, so no span is ever written (pure propagation tax);
* **sampled 1%** — the deployment default: 1-in-100 batches write a
  full client->proxy->backend->shard waterfall.

Asserted (shape, not absolutes):

* **Causal chain** — the sampled run stitches at least one trace whose
  longest causal chain is >= 5 spans (the cross-tier acceptance
  criterion), and the propagate run writes exactly zero spans.
* **Overhead gates** (only on >= 2 usable cores, self-described by
  ``overhead_gate_enforced``): propagation keeps >= 95% of baseline
  throughput, 1% sampling keeps >= 90%.  Each gate is paired
  (``_util.paired_gate``): interleaved baseline/traced pairs in ABBA
  order, gated on the median ratio, and an interquartile range that
  straddles the floor is ``unresolved`` and fails.

Results land in ``benchmarks/results/e17_rtrace.{txt,json}``.
"""

from __future__ import annotations

import itertools
import shutil
import tempfile
from pathlib import Path
from time import perf_counter

from repro.algorithms import KernelWaterFillingPolicy
from repro.analysis import Table
from repro.cluster import ClusterMap, ClusterProxy
from repro.net import AdmissionPolicy, NetServer, run_network_load
from repro.core.instance import WeightedPagingInstance
from repro.obs.rtrace import (
    SpanExporter,
    longest_chain,
    read_spans,
    stitch_spans,
)
from repro.service import PagingService, ServiceConfig
from repro.workloads import sample_weights, zipf_stream

from _util import emit, once, paired_gate, usable_cores

# E16's constants, verbatim: the overhead ratios only mean something if
# the two benches price the same cluster on the same stream.
N_PAGES, K, STREAM_LEN = 512, 64, 50_000
BATCH = 512
N_SHARDS = 4
WINDOW = 8
CONNECTIONS = 4
RATE = 1_000_000.0
N_BACKENDS = 2

PROPAGATE_FLOOR = 0.95   # sampling off: within 5% of baseline
SAMPLED_FLOOR = 0.90     # 1% sampling: within 10% of baseline
PAIRS = 7                # interleaved baseline/traced pairs per gate
SAMPLE = 0.01
#: Seed chosen so the 1% sampler hits at least one of the stream's 98
#: batch indices (t=69) — the deterministic sampler makes that a fixed
#: property of (seed, t), not a per-run coin flip.
TRACE_SEED = 64


def _workload():
    inst = WeightedPagingInstance(K, sample_weights(N_PAGES, rng=0, high=64.0))
    seq = zipf_stream(N_PAGES, STREAM_LEN, alpha=0.9, rng=1)
    return inst, seq


def _backend(inst, span_dir: Path | None):
    svc = PagingService(ServiceConfig(
        instance=inst, policy_factory=KernelWaterFillingPolicy,
        n_shards=N_SHARDS, batch_size=BATCH, queue_depth=256, seed=0,
        policy_name="waterfilling-kernel",
    ))
    exporter = None
    if span_dir is not None:
        svc.enable_request_tracing(span_dir, sample=SAMPLE, seed=TRACE_SEED)
        exporter = SpanExporter(span_dir / "net.spans.jsonl", wall=True)
    svc.start()
    srv = NetServer(svc, admission=AdmissionPolicy(
        max_connections=64, max_inflight=WINDOW + 8,
        request_deadline_s=60.0), span_exporter=exporter)
    srv.start()
    return svc, srv, exporter


def _run_config(inst, seq, *, span_dir: Path | None, sample: float) -> dict:
    """One proxied loadgen run; ``span_dir=None`` is the untraced baseline."""
    backends = [
        _backend(inst, span_dir / f"backend-{b}" if span_dir else None)
        for b in range(N_BACKENDS)
    ]
    cmap = ClusterMap.balanced([srv.address for _, srv, _ in backends],
                               N_SHARDS)
    proxy_spans = (SpanExporter(span_dir / "proxy.spans.jsonl", wall=True)
                   if span_dir is not None else None)
    proxy = ClusterProxy(cmap, window=WINDOW, timeout=60.0,
                         span_exporter=proxy_spans).start()
    started = perf_counter()
    try:
        report = run_network_load(
            proxy.address, seq, rate=RATE, batch_size=BATCH,
            connections=CONNECTIONS, window=WINDOW, timeout=60.0,
            trace_sample=sample, trace_seed=TRACE_SEED,
            span_dir=span_dir)
        elapsed = perf_counter() - started
    finally:
        proxy.stop()
        if proxy_spans is not None:
            proxy_spans.close()
        for svc, srv, exporter in backends:
            srv.stop()
            svc.stop()
            if exporter is not None:
                exporter.close()
    out = {
        "throughput_req_s": report.achieved_rate,
        "p50_ms": report.p50_ms,
        "p99_ms": report.p99_ms,
        "served": report.n_served,
        "dropped_batches": report.n_dropped_batches,
        "failed_batches": report.n_failed_batches,
        "duration_s": elapsed,
        "n_spans": 0,
        "n_traces": 0,
        "max_chain": 0,
    }
    if span_dir is not None:
        files = sorted(span_dir.rglob("*.spans.jsonl"))
        traces = stitch_spans(read_spans(*files))
        out["n_spans"] = sum(len(r) for r in traces.values())
        out["n_traces"] = len(traces)
        out["max_chain"] = max(
            (len(longest_chain(r)) for r in traces.values()), default=0)
    return out


def run_experiment() -> tuple[Table, dict]:
    inst, seq = _workload()
    root = Path(tempfile.mkdtemp(prefix="repro-e17-"))
    run_ids = itertools.count()

    def traced(sample: float) -> dict:
        # Every traced run writes into a directory of its own.
        return _run_config(inst, seq, span_dir=root / f"run-{next(run_ids)}",
                           sample=sample)

    def baseline() -> dict:
        return _run_config(inst, seq, span_dir=None, sample=0.0)

    try:
        gates = {
            "propagate": paired_gate(
                baseline, lambda: traced(0.0), metric="throughput_req_s",
                floor=PROPAGATE_FLOOR, pairs=PAIRS),
            "sampled": paired_gate(
                baseline, lambda: traced(SAMPLE), metric="throughput_req_s",
                floor=SAMPLED_FLOOR, pairs=PAIRS),
        }
    finally:
        shutil.rmtree(root, ignore_errors=True)
    cores = usable_cores()

    def median_run(runs: list[dict]) -> dict:
        return sorted(runs, key=lambda r: r["throughput_req_s"])[
            len(runs) // 2]

    base = median_run([run for gate in gates.values()
                       for run in gate["runs_a"]])
    table = Table(
        ["config", "req/s", "vs baseline", "IQR", "verdict", "p50 ms",
         "p99 ms", "spans", "max chain"],
        title=f"E17: request-tracing overhead through the proxy "
              f"(waterfilling-kernel, Zipf 0.9, n={N_PAGES}, k={K}, "
              f"{N_BACKENDS} backends, {cores} core(s); median of {PAIRS} "
              f"ABBA pairs)",
    )
    table.add_row("baseline (no tracing)", int(base["throughput_req_s"]),
                  "1.000x", "-", "-", base["p50_ms"], base["p99_ms"],
                  base["n_spans"], base["max_chain"])
    for name, gate in (("propagate (sample 0)", gates["propagate"]),
                       (f"sampled ({SAMPLE:g})", gates["sampled"])):
        run = median_run(gate["runs_b"])
        table.add_row(name, int(run["throughput_req_s"]),
                      f"{gate['median']:.3f}x",
                      f"{gate['q1']:.3f}-{gate['q3']:.3f}", gate["verdict"],
                      run["p50_ms"], run["p99_ms"], run["n_spans"],
                      run["max_chain"])
    propagate, sampled = gates["propagate"], gates["sampled"]
    extra = {
        "workload": {"n_pages": N_PAGES, "k": K, "requests": STREAM_LEN,
                     "batch_size": BATCH, "policy": "waterfilling-kernel",
                     "window": WINDOW, "shards": N_SHARDS,
                     "backends": N_BACKENDS, "sample": SAMPLE},
        "baseline": base,
        "propagate": median_run(propagate["runs_b"]),
        "sampled": median_run(sampled["runs_b"]),
        "propagate_vs_baseline": propagate["median"],
        "propagate_vs_baseline_q1": propagate["q1"],
        "propagate_vs_baseline_q3": propagate["q3"],
        "propagate_verdict": propagate["verdict"],
        "sampled_vs_baseline": sampled["median"],
        "sampled_vs_baseline_q1": sampled["q1"],
        "sampled_vs_baseline_q3": sampled["q3"],
        "sampled_verdict": sampled["verdict"],
        "propagate_floor": PROPAGATE_FLOOR,
        "sampled_floor": SAMPLED_FLOOR,
        "pairs": PAIRS,
        "usable_cores": cores,
        "overhead_gate_enforced": cores >= 2,
        "gates": gates,
    }
    return table, extra


def test_e17_rtrace_overhead(benchmark):
    table, extra = once(benchmark, run_experiment)
    emit(table, "e17_rtrace", extra=extra)
    gates = extra["gates"]
    # Every configuration delivers the entire stream, losslessly.
    for gate in gates.values():
        for run in gate["runs_a"] + gate["runs_b"]:
            assert run["served"] == STREAM_LEN, run
            assert run["dropped_batches"] == 0, run
            assert run["failed_batches"] == 0, run
    # Propagation with sampling 0.0 records nothing; 1% sampling records
    # at least one full cross-tier waterfall (>= 5 causally-linked spans,
    # the cross-tier acceptance criterion) on every run.
    for run in gates["propagate"]["runs_b"]:
        assert run["n_spans"] == 0, run
    for run in gates["sampled"]["runs_b"]:
        assert run["n_traces"] >= 1, run
        assert run["max_chain"] >= 5, run
    # Overhead gates are timing-sensitive: enforced only with real
    # parallelism, always recorded (see BENCH_SUMMARY.json stale logic).
    # Each must pass: the whole IQR of its paired ratios clears the floor.
    if extra["overhead_gate_enforced"]:
        for name in ("propagate", "sampled"):
            assert extra[f"{name}_verdict"] == "pass", (
                name, extra[f"{name}_verdict"], gates[name]["ratios"])
    else:
        print(f"E17 OVERHEAD GATES SKIPPED (usable_cores="
              f"{extra['usable_cores']} < 2): ratios recorded, not gated")
