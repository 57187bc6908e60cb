"""E12 — Serving: sharded service throughput and partitioned-cache cost.

The serving layer (`repro.service`) hash-partitions the page universe
across N shard engines, each with capacity k/N.  The heterogeneous-slots
literature (Chrobak et al.) predicts a bounded degradation from statically
partitioning a cache; this bench measures it: total sharded eviction cost
on the E1 Zipf workload must stay within a constant factor (asserted: 2x)
of the unsharded policy on the same seeded trace, while the single-shard
service must reproduce `simulate()` *exactly*.

Also measured: inline service throughput per shard count, and a threaded
load-generator round-trip (open-loop pacing at a target rate) reporting
achieved throughput and tail latency.
"""

from __future__ import annotations

from time import perf_counter

from repro.algorithms import KernelWaterFillingPolicy
from repro.analysis import Table
from repro.core.instance import WeightedPagingInstance
from repro.service import PagingService, ServiceConfig, run_load
from repro.sim import simulate
from repro.workloads import sample_weights, zipf_stream

from _util import emit, once

N_PAGES, K, STREAM_LEN = 512, 64, 50_000
BATCH = 512
SHARD_COUNTS = [1, 2, 4, 8]


def _workload():
    inst = WeightedPagingInstance(K, sample_weights(N_PAGES, rng=0, high=64.0))
    seq = zipf_stream(N_PAGES, STREAM_LEN, alpha=0.9, rng=1)
    return inst, seq


def _service(inst, n_shards):
    return PagingService(ServiceConfig(
        instance=inst, policy_factory=KernelWaterFillingPolicy,
        n_shards=n_shards, batch_size=BATCH, seed=0,
        policy_name="waterfilling-kernel",
    ))


def run_experiment() -> tuple[Table, dict[int, float], dict]:
    inst, seq = _workload()
    ref = simulate(inst, seq, KernelWaterFillingPolicy(), validate=False)

    table = Table(
        ["shards", "evict cost", "vs unsharded", "hit rate", "req/s", "p95 ms"],
        title=f"E12: sharded service vs simulate "
              f"(waterfilling-kernel, Zipf 0.9, n={N_PAGES}, k={K})",
    )
    table.add_row("simulate", ref.cost, 1.0, ref.hit_rate, "-", "-")
    ratios: dict[int, float] = {}
    # Machine-readable payload for results/e12_service.json: throughput,
    # latency percentiles, per-level eviction cost, and per-phase span
    # totals for every shard count.
    runs: dict[str, dict] = {}
    for n_shards in SHARD_COUNTS:
        svc = _service(inst, n_shards)
        started = perf_counter()
        for lo in range(0, len(seq), BATCH):
            svc.submit_batch(seq.pages[lo:lo + BATCH], seq.levels[lo:lo + BATCH])
        elapsed = perf_counter() - started
        snap = svc.snapshot()
        ratios[n_shards] = snap.eviction_cost / ref.cost
        p95 = max(s.p95_ms for s in snap.shards)
        table.add_row(n_shards, snap.eviction_cost, ratios[n_shards],
                      snap.hit_rate, int(len(seq) / elapsed), p95)
        evictions_by_level: dict[str, int] = {}
        for s in snap.shards:
            for level, n in s.evictions_by_level.items():
                key = str(level)
                evictions_by_level[key] = evictions_by_level.get(key, 0) + n
        runs[str(n_shards)] = {
            "throughput_req_s": len(seq) / elapsed,
            "p50_ms": max(s.p50_ms for s in snap.shards),
            "p95_ms": p95,
            "p99_ms": max(s.p99_ms for s in snap.shards),
            "eviction_cost": snap.eviction_cost,
            "cost_vs_unsharded": ratios[n_shards],
            "hit_rate": snap.hit_rate,
            "cost_by_level": {
                str(level): cost
                for level, cost in snap.cost_by_level().items()
            },
            "evictions_by_level": evictions_by_level,
            "spans": {
                name: {"n": s.n, "total_s": s.total_s,
                       "mean_ms": s.mean_ms, "max_ms": 1e3 * s.max_s}
                for name, s in snap.merged_spans().items()
            },
        }
    extra = {
        "workload": {"n_pages": N_PAGES, "k": K, "requests": STREAM_LEN,
                     "batch_size": BATCH, "policy": "waterfilling-kernel"},
        "unsharded_cost": ref.cost,
        "runs": runs,
    }
    return table, ratios, extra


def run_loadgen_experiment() -> tuple[Table, object]:
    inst, seq = _workload()
    table = Table(
        ["shards", "target req/s", "achieved req/s", "served", "dropped",
         "overloads", "p50 ms", "p95 ms", "p99 ms"],
        title="E12: threaded load-generator round-trip (open-loop pacing)",
    )
    last = None
    for n_shards, rate in [(4, 50_000.0), (4, 100_000.0)]:
        with _service(inst, n_shards) as svc:
            report = run_load(svc, seq, rate=rate)
            snap = svc.snapshot()
        table.add_row(n_shards, rate, int(report.achieved_rate),
                      report.n_served, report.n_dropped_batches,
                      report.n_overloaded, report.p50_ms, report.p95_ms,
                      report.p99_ms)
        last = (report, snap)
    return table, last


def test_e12_sharded_cost_and_throughput(benchmark):
    table, ratios, extra = once(benchmark, run_experiment)
    emit(table, "e12_service", extra=extra)
    # The JSON payload carries the machine-readable metrics CI archives.
    for run in extra["runs"].values():
        assert run["throughput_req_s"] > 0
        assert run["cost_by_level"] and run["evictions_by_level"]
        assert "evict" in run["spans"] and "ingest" in run["spans"]
    # Single-shard service is exactly the simulator, streamed.
    assert ratios[1] == 1.0
    # Partitioned-cache degradation stays within the constant-factor band.
    for n_shards, ratio in ratios.items():
        assert ratio <= 2.0, (
            f"{n_shards}-shard eviction cost degraded {ratio:.2f}x > 2x"
        )


def test_e12_loadgen_round_trip(benchmark):
    table, (report, snap) = once(benchmark, run_loadgen_experiment)
    emit(table, "e12_service_loadgen")
    # Shape claims only (absolute rates are machine-dependent): nothing is
    # dropped at these rates and every shard sees live traffic.
    assert report.n_served == STREAM_LEN
    assert report.n_dropped_batches == 0
    assert all(s.n_hits > 0 and s.n_misses > 0 for s in snap.shards)
    assert all(s.eviction_cost > 0 for s in snap.shards)
