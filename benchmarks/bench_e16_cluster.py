"""E16 — Cluster proxy: forwarding overhead and migration transparency.

The cluster proxy (:mod:`repro.cluster`) adds one hop to every batch:
front decode -> consistent-hash split -> per-backend pipelined forward ->
ack merge.  This bench prices that hop against the E14 direct-TCP
baseline on the same workload, then repeats the run with live shard
migrations mid-stream.

Asserted (shape, not absolutes):

* **Overhead floor** — proxied throughput stays >= 0.5x the direct
  single-backend TCP run: one extra loopback hop may tax latency but
  must not halve capacity.  The gate is paired (``_util.paired_gate``):
  5 interleaved direct/proxied pairs in ABBA order, gated on the median
  ratio, and an interquartile range that straddles the floor is
  ``unresolved`` and fails.  The same measurement with
  ``waterfilling-kernel`` backends is reported, not gated.
* **Lossless migration** — the migration run serves the *entire* stream
  with zero failed and zero dropped batches while shards move twice.
* **Exact ledger** — the migration run's merged cluster cost equals the
  same-seed inline reference cost ``==``-exactly: migration is invisible
  in the books.

Results land in ``benchmarks/results/e16_cluster.{txt,json}``; CI runs
this under the artifact-regen job next to E14 so the proxy tax is
diffable across commits.
"""

from __future__ import annotations

import threading
import time
from time import perf_counter

from repro.algorithms import HeapWaterFillingPolicy, KernelWaterFillingPolicy
from repro.analysis import Table
from repro.cluster import ClusterMap, ClusterProxy
from repro.core.instance import WeightedPagingInstance
from repro.net import AdmissionPolicy, NetServer, run_network_load
from repro.service import PagingService, ServiceConfig, run_load
from repro.workloads import sample_weights, zipf_stream

from _util import emit, once, paired_gate

N_PAGES, K, STREAM_LEN = 512, 64, 50_000
BATCH = 512
N_SHARDS = 4
WINDOW = 8
CONNECTIONS = 4          # throughput rows (reordering allowed)
RATE = 1_000_000.0       # effectively unpaced: measure capacity
FLOOR_RATIO = 0.5        # proxy must keep >= half the direct throughput
PAIRS = 5                # interleaved direct/proxied pairs per gate
N_BACKENDS = 2
#: Gated policy first; the kernel row is informational.
POLICIES = {"waterfilling-heap": HeapWaterFillingPolicy,
            "waterfilling-kernel": KernelWaterFillingPolicy}


def _workload():
    inst = WeightedPagingInstance(K, sample_weights(N_PAGES, rng=0, high=64.0))
    seq = zipf_stream(N_PAGES, STREAM_LEN, alpha=0.9, rng=1)
    return inst, seq


def _service(inst, policy="waterfilling-heap"):
    return PagingService(ServiceConfig(
        instance=inst, policy_factory=POLICIES[policy],
        n_shards=N_SHARDS, batch_size=BATCH, queue_depth=256, seed=0,
        policy_name=policy,
    ))


def _backend(inst, policy="waterfilling-heap"):
    svc = _service(inst, policy)
    svc.start()
    srv = NetServer(svc, admission=AdmissionPolicy(
        max_connections=64, max_inflight=WINDOW + 8,
        request_deadline_s=60.0))
    srv.start()
    return svc, srv


def _report_dict(report, elapsed) -> dict:
    return {
        "throughput_req_s": report.achieved_rate,
        "p50_ms": report.p50_ms,
        "p95_ms": report.p95_ms,
        "p99_ms": report.p99_ms,
        "served": report.n_served,
        "dropped_batches": report.n_dropped_batches,
        "failed_batches": report.n_failed_batches,
        "duration_s": elapsed,
    }


def _inline_reference_cost(inst, seq) -> float:
    """The exact eviction cost of this workload on a single node."""
    svc = _service(inst)
    svc.start()
    report = run_load(svc, seq, rate=RATE, batch_size=BATCH)
    assert report.n_served == STREAM_LEN
    cost = svc.total_cost()
    svc.stop()
    return cost


def _run_direct(inst, seq, policy="waterfilling-heap") -> dict:
    svc, srv = _backend(inst, policy)
    started = perf_counter()
    try:
        report = run_network_load(
            srv.address, seq, rate=RATE, batch_size=BATCH,
            connections=CONNECTIONS, window=WINDOW, timeout=60.0)
    finally:
        srv.stop()
        svc.stop()
    return _report_dict(report, perf_counter() - started)


def _run_proxied(inst, seq, *, migrate: bool,
                 policy="waterfilling-heap") -> dict:
    backends = [_backend(inst, policy) for _ in range(N_BACKENDS)]
    cmap = ClusterMap.balanced([srv.address for _, srv in backends], N_SHARDS)
    # The migration run uses one connection so the proxied stream is
    # order-identical to the inline reference and the ledgers must agree
    # exactly; the throughput row uses CONNECTIONS like the direct row.
    connections = 1 if migrate else CONNECTIONS
    proxy = ClusterProxy(cmap, window=WINDOW, timeout=60.0).start()
    outcomes: list[dict] = []

    def move_twice():
        addr2 = backends[1][1].address
        addr1 = backends[0][1].address
        time.sleep(0.2)
        outcomes.append(proxy.migrate(0, addr2))
        time.sleep(0.2)
        outcomes.append(proxy.migrate(0, addr1))

    mover = threading.Thread(target=move_twice) if migrate else None
    started = perf_counter()
    try:
        if mover is not None:
            mover.start()
        report = run_network_load(
            proxy.address, seq, rate=RATE, batch_size=BATCH,
            connections=connections, window=WINDOW, timeout=60.0,
            max_retries=8, retry_backoff=0.002)
        if mover is not None:
            mover.join(120.0)
        elapsed = perf_counter() - started
        from repro.net import PagingClient

        with PagingClient(proxy.address, timeout=60.0) as client:
            assert client.drain(60.0)
            merged = client.snapshot()
    finally:
        proxy.stop()
        for svc, srv in backends:
            srv.stop()
            svc.stop()
    out = _report_dict(report, elapsed)
    out["eviction_cost"] = merged["eviction_cost"]
    out["epoch"] = merged["cluster"]["epoch"]
    out["migrations"] = [o["moved"] for o in outcomes]
    return out


def _gate(inst, seq, policy) -> dict:
    return paired_gate(
        lambda: _run_direct(inst, seq, policy),
        lambda: _run_proxied(inst, seq, migrate=False, policy=policy),
        metric="throughput_req_s", floor=FLOOR_RATIO, pairs=PAIRS)


def _median_run(runs: list[dict]) -> dict:
    return sorted(runs, key=lambda r: r["throughput_req_s"])[len(runs) // 2]


def run_experiment() -> tuple[Table, dict]:
    inst, seq = _workload()
    reference_cost = _inline_reference_cost(inst, seq)
    gates = {policy: _gate(inst, seq, policy) for policy in POLICIES}
    migrated = _run_proxied(inst, seq, migrate=True)
    table = Table(
        ["backends", "path", "conns", "req/s", "vs direct", "IQR", "p50 ms",
         "p99 ms", "failed", "epoch"],
        title=f"E16: cluster proxy vs direct TCP "
              f"(Zipf 0.9, n={N_PAGES}, k={K}, {N_BACKENDS} backends, "
              f"window={WINDOW}; median of {PAIRS} ABBA pairs)",
    )
    for policy, gate in gates.items():
        direct, proxied = (_median_run(gate["runs_a"]),
                           _median_run(gate["runs_b"]))
        table.add_row(policy, "direct tcp", CONNECTIONS,
                      int(direct["throughput_req_s"]), "1.00x", "-",
                      direct["p50_ms"], direct["p99_ms"],
                      direct["failed_batches"], "-")
        table.add_row(policy, "proxy", CONNECTIONS,
                      int(proxied["throughput_req_s"]),
                      f"{gate['median']:.2f}x",
                      f"{gate['q1']:.2f}-{gate['q3']:.2f}",
                      proxied["p50_ms"], proxied["p99_ms"],
                      proxied["failed_batches"], proxied["epoch"])
    table.add_row("waterfilling-heap", "proxy+migration", 1,
                  int(migrated["throughput_req_s"]), "-", "-",
                  migrated["p50_ms"], migrated["p99_ms"],
                  migrated["failed_batches"], migrated["epoch"])
    heap, kernel = gates["waterfilling-heap"], gates["waterfilling-kernel"]
    extra = {
        "workload": {"n_pages": N_PAGES, "k": K, "requests": STREAM_LEN,
                     "batch_size": BATCH, "policy": "waterfilling-heap",
                     "window": WINDOW, "shards": N_SHARDS,
                     "backends": N_BACKENDS},
        "floor_ratio": FLOOR_RATIO,
        "usable_cores": heap["usable_cores"],
        "pairs": PAIRS,
        "reference_cost": reference_cost,
        "gates": gates,
        "migrated": migrated,
        "proxy_vs_direct": heap["median"],
        "proxy_vs_direct_q1": heap["q1"],
        "proxy_vs_direct_q3": heap["q3"],
        "gate_verdict": heap["verdict"],
        "kernel_proxy_vs_direct": kernel["median"],
        "kernel_proxy_vs_direct_q1": kernel["q1"],
        "kernel_proxy_vs_direct_q3": kernel["q3"],
        "kernel_verdict": kernel["verdict"],
    }
    return table, extra


def test_e16_cluster_proxy(benchmark):
    table, extra = once(benchmark, run_experiment)
    emit(table, "e16_cluster", extra=extra)
    # Every path delivers the entire stream, losslessly.
    runs = [extra["migrated"]]
    for gate in extra["gates"].values():
        runs += gate["runs_a"] + gate["runs_b"]
    for run in runs:
        assert run["served"] == STREAM_LEN, run
        assert run["dropped_batches"] == 0, run
        assert run["failed_batches"] == 0, run
    # One proxy hop keeps >= 0.5x direct: the whole IQR of the paired
    # ratios clears the floor (an IQR straddling it is 'unresolved').
    assert extra["gate_verdict"] == "pass", (
        extra["gate_verdict"], extra["gates"]["waterfilling-heap"]["ratios"])
    # Both migrations genuinely moved the shard (there and back).
    assert extra["migrated"]["migrations"] == [True, True]
    assert extra["migrated"]["epoch"] == 2
    # Migration is invisible in the books: the cluster's merged ledger is
    # the single-node ledger, == exactly.
    assert extra["migrated"]["eviction_cost"] == extra["reference_cost"]
