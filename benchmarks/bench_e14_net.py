"""E14 — Network frontend: wire overhead and connection scaling.

The asyncio TCP frontend (`repro.net`) must be a *transport*, not a
bottleneck: this bench replays the E12 workload through a loopback
`NetServer` and compares it with the same batches submitted inline,
sweeping the client connection count 1 -> 4 -> 16 (pipelined, window 8).

Measured per configuration: achieved throughput, p50/p95/p99 end-to-end
batch latency, and the wire byte volume per request.  Asserted (shape,
not absolutes): every networked run serves the full stream, throughput
does not collapse as connections scale, and the 16-connection sweep
clears the 10k req/s floor the issue pins — loopback framing plus JSON
codec overhead must stay comfortably inside service capacity.

Results land in ``benchmarks/results/e14_net.{txt,json}``; CI archives
the JSON next to the E12 artifact so the inline-vs-networked gap is
diffable across commits.
"""

from __future__ import annotations

from time import perf_counter

from repro.algorithms import KernelWaterFillingPolicy
from repro.analysis import Table
from repro.core.instance import WeightedPagingInstance
from repro.net import AdmissionPolicy, NetServer, run_network_load
from repro.obs import MetricsRegistry
from repro.service import PagingService, ServiceConfig
from repro.workloads import sample_weights, zipf_stream

from _util import emit, once

N_PAGES, K, STREAM_LEN = 512, 64, 50_000
BATCH = 512
CONNECTION_SWEEP = [1, 4, 16]
WINDOW = 8
RATE = 1_000_000.0  # effectively unpaced: measure capacity, not the clock
FLOOR_REQ_S = 10_000.0


def _workload():
    inst = WeightedPagingInstance(K, sample_weights(N_PAGES, rng=0, high=64.0))
    seq = zipf_stream(N_PAGES, STREAM_LEN, alpha=0.9, rng=1)
    return inst, seq


def _service(inst, registry=None):
    return PagingService(ServiceConfig(
        instance=inst, policy_factory=KernelWaterFillingPolicy,
        n_shards=4, batch_size=BATCH, queue_depth=256, seed=0,
        policy_name="waterfilling-kernel", metrics_registry=registry,
    ))


def _run_inline(inst, seq) -> dict:
    svc = _service(inst)
    svc.start()
    from repro.service import run_load

    report = run_load(svc, seq, rate=RATE, batch_size=BATCH)
    svc.stop()
    return {
        "throughput_req_s": report.achieved_rate,
        "p50_ms": report.p50_ms,
        "p95_ms": report.p95_ms,
        "p99_ms": report.p99_ms,
        "served": report.n_served,
    }


def _run_networked(inst, seq, connections) -> dict:
    registry = MetricsRegistry()
    svc = _service(inst, registry)
    svc.start()
    srv = NetServer(svc, admission=AdmissionPolicy(
        max_connections=connections + 4,
        max_inflight=WINDOW + 4,
        request_deadline_s=60.0,
    ), registry=registry)
    srv.start()
    started = perf_counter()
    try:
        report = run_network_load(
            srv.address, seq, rate=RATE, batch_size=BATCH,
            connections=connections, window=WINDOW, timeout=60.0,
        )
    finally:
        srv.stop()
        svc.stop()
    elapsed = perf_counter() - started
    wire = registry.collect()
    bytes_in = wire["repro_net_bytes_total"][("in",)]
    bytes_out = wire["repro_net_bytes_total"][("out",)]
    return {
        "connections": connections,
        "throughput_req_s": report.achieved_rate,
        "p50_ms": report.p50_ms,
        "p95_ms": report.p95_ms,
        "p99_ms": report.p99_ms,
        "served": report.n_served,
        "dropped_batches": report.n_dropped_batches,
        "duration_s": elapsed,
        "wire_bytes_in": bytes_in,
        "wire_bytes_out": bytes_out,
        "wire_bytes_per_request": (bytes_in + bytes_out) / max(report.n_served, 1),
    }


def run_experiment() -> tuple[Table, dict]:
    inst, seq = _workload()
    inline = _run_inline(inst, seq)
    table = Table(
        ["transport", "conns", "req/s", "p50 ms", "p95 ms", "p99 ms",
         "wire B/req"],
        title=f"E14: networked vs inline serving "
              f"(waterfilling-kernel, Zipf 0.9, n={N_PAGES}, k={K}, "
              f"window={WINDOW})",
    )
    table.add_row("inline", "-", int(inline["throughput_req_s"]),
                  inline["p50_ms"], inline["p95_ms"], inline["p99_ms"], "-")
    sweeps = []
    for connections in CONNECTION_SWEEP:
        run = _run_networked(inst, seq, connections)
        sweeps.append(run)
        table.add_row("tcp", connections, int(run["throughput_req_s"]),
                      run["p50_ms"], run["p95_ms"], run["p99_ms"],
                      round(run["wire_bytes_per_request"], 1))
    extra = {
        "workload": {"n_pages": N_PAGES, "k": K, "requests": STREAM_LEN,
                     "batch_size": BATCH, "policy": "waterfilling-kernel",
                     "window": WINDOW, "shards": 4},
        "floor_req_s": FLOOR_REQ_S,
        "inline": inline,
        "networked": sweeps,
    }
    return table, extra


def test_e14_networked_throughput(benchmark):
    table, extra = once(benchmark, run_experiment)
    emit(table, "e14_net", extra=extra)
    assert extra["inline"]["served"] == STREAM_LEN
    for run in extra["networked"]:
        # The wire must deliver the entire stream — drops would mean the
        # transport, not the service, is shedding load.
        assert run["served"] == STREAM_LEN, run
        assert run["dropped_batches"] == 0, run
        assert run["wire_bytes_per_request"] > 0
    by_conns = {run["connections"]: run for run in extra["networked"]}
    # The issue's acceptance floor: 16 pipelined connections sustain at
    # least 10k req/s through the loopback frontend.
    assert by_conns[16]["throughput_req_s"] >= FLOOR_REQ_S, by_conns[16]
    # Scaling shape: more connections must not collapse throughput (allow
    # generous jitter; absolutes are machine-dependent).
    assert by_conns[16]["throughput_req_s"] >= 0.5 * by_conns[1]["throughput_req_s"]
