"""E15 — Backend scaling: shards x execution backend throughput sweep.

The thread backend buys queueing, not parallelism: every shard's serve
loop contends for the GIL, so a CPU-bound policy gains nothing from more
shards.  The process backend runs each shard engine in its own OS
process, fed micro-batches over a pipe — the same workload then scales
with cores.  This bench sweeps shard count x backend on a CPU-bound
policy (the O(k)-scan ``landlord-ref``) and records throughput and cost.

Asserted shape claims:

* **Cost determinism** — for every shard count, inline, thread, and
  process backends produce the *exact* same eviction cost (``==``, not
  approx): the backend must be unobservable in the ledgers.
* **Scaling** (only on machines with >= 4 usable cores) — at 4 shards
  the process backend serves >= 1.8x the thread backend's throughput.
  On smaller machines the sweep still runs and records, but the ratio
  is machine-dependent and not asserted.

A fourth ``kernel`` cell per shard count runs the same sharded inline
service with the columnar ``landlord-kernel`` policy: what one core buys
from batch kernels before any parallelism.  Its cost joins the exact
equality assertion; the speedup itself is gated in E18, not here.
"""

from __future__ import annotations

from time import perf_counter

from repro.algorithms import policy_registry
from repro.analysis import Table
from repro.core.instance import WeightedPagingInstance
from repro.service import PagingService, ServiceConfig, run_load
from repro.workloads import sample_weights, zipf_stream

from _util import emit, once, usable_cores

N_PAGES, K, STREAM_LEN = 1024, 256, 40_000
BATCH = 512
SHARD_COUNTS = [1, 2, 4]
POLICY = "landlord-ref"  # O(k) victim scan per eviction: CPU-bound on purpose
KERNEL_POLICY = "landlord-kernel"  # columnar batch kernel, same ledgers
SPEEDUP_FLOOR = 1.8


def _workload():
    inst = WeightedPagingInstance(K, sample_weights(N_PAGES, rng=0, high=64.0))
    seq = zipf_stream(N_PAGES, STREAM_LEN, alpha=0.7, rng=1)
    return inst, seq


def _service(inst, n_shards, backend, policy=POLICY):
    return PagingService(ServiceConfig(
        instance=inst, policy_factory=policy_registry[policy],
        n_shards=n_shards, batch_size=BATCH, seed=0,
        policy_name=policy, backend=backend,
    ))


def _run(inst, seq, n_shards, backend, policy=POLICY):
    """One sweep cell: (eviction cost, requests/s)."""
    svc = _service(inst, n_shards, backend, policy)
    if backend == "inline":
        started = perf_counter()
        for lo in range(0, len(seq), BATCH):
            svc.submit_batch(seq.pages[lo:lo + BATCH],
                             seq.levels[lo:lo + BATCH])
        elapsed = perf_counter() - started
        cost = svc.total_cost()
        svc.stop()
        return cost, len(seq) / elapsed
    with svc:
        started = perf_counter()
        report = run_load(svc, seq, rate=1e9, max_retries=400,
                          retry_backoff=0.001)
        assert svc.drain(60.0)
        elapsed = perf_counter() - started
        assert report.n_served == STREAM_LEN
        return svc.total_cost(), len(seq) / elapsed


def run_experiment() -> tuple[Table, dict]:
    inst, seq = _workload()
    cores = usable_cores()
    table = Table(
        ["shards", "backend", "evict cost", "req/s", "vs thread"],
        title=f"E15: backend scaling sweep ({POLICY}, Zipf 0.7, "
              f"n={N_PAGES}, k={K}, {cores} core(s))",
    )
    runs: dict[str, dict] = {}
    speedups: dict[int, float] = {}
    for n_shards in SHARD_COUNTS:
        cell: dict[str, dict] = {}
        for backend in ("inline", "thread", "process"):
            cost, rate = _run(inst, seq, n_shards, backend)
            cell[backend] = {"eviction_cost": cost, "throughput_req_s": rate}
        # Same sharding, same ledgers, columnar batch kernel instead of
        # the scalar serve loop — the kernel cell shows what one core
        # buys before any parallelism (gated in E18, informational here).
        k_cost, k_rate = _run(inst, seq, n_shards, "inline",
                              policy=KERNEL_POLICY)
        cell["kernel"] = {"eviction_cost": k_cost,
                          "throughput_req_s": k_rate}
        speedup = (cell["process"]["throughput_req_s"]
                   / cell["thread"]["throughput_req_s"])
        kernel_speedup = k_rate / cell["inline"]["throughput_req_s"]
        speedups[n_shards] = speedup
        for backend in ("inline", "thread", "process", "kernel"):
            table.add_row(
                n_shards, backend, cell[backend]["eviction_cost"],
                int(cell[backend]["throughput_req_s"]),
                f"{speedup:.2f}x" if backend == "process"
                else f"{kernel_speedup:.2f}x vs inline"
                if backend == "kernel" else "-",
            )
        runs[str(n_shards)] = {**cell, "process_vs_thread": speedup,
                               "kernel_vs_inline": kernel_speedup}
    extra = {
        "workload": {"n_pages": N_PAGES, "k": K, "requests": STREAM_LEN,
                     "batch_size": BATCH, "policy": POLICY},
        "usable_cores": cores,
        "speedup_at_max_shards": speedups[SHARD_COUNTS[-1]],
        "kernel_vs_inline_at_max_shards":
            runs[str(SHARD_COUNTS[-1])]["kernel_vs_inline"],
        # Record whether the >= SPEEDUP_FLOOR claim was actually enforced
        # on this machine, so an archived artifact is self-describing: a
        # reader never has to guess whether "1.1x" passed a gate or
        # merely ran ungated on a small box.
        "speedup_gate": {
            "floor": SPEEDUP_FLOOR,
            "min_cores": 4,
            "enforced": cores >= 4,
        },
        # Scalar mirror of the gate verdict: survives into the one-line
        # headline BENCH_SUMMARY.json keeps per bench.
        "speedup_gate_enforced": cores >= 4,
        "runs": runs,
    }
    return table, extra


def test_e15_backend_scaling(benchmark):
    table, extra = once(benchmark, run_experiment)
    emit(table, "e15_scaling", extra=extra)
    runs = extra["runs"]
    # Backend must be unobservable in the ledgers: exact cost equality.
    # The kernel cell rides along — the columnar landlord-kernel must
    # charge the exact cost of the scalar landlord-ref it replaces.
    for n_shards, cell in runs.items():
        costs = {backend: cell[backend]["eviction_cost"]
                 for backend in ("inline", "thread", "process", "kernel")}
        assert len(set(costs.values())) == 1, (
            f"{n_shards}-shard costs diverge across backends: {costs}"
        )
        for backend in ("inline", "thread", "process", "kernel"):
            assert cell[backend]["throughput_req_s"] > 0
    # The parallelism claim needs actual cores to parallelize over.
    if extra["speedup_gate"]["enforced"]:
        speedup = runs["4"]["process_vs_thread"]
        assert speedup >= SPEEDUP_FLOOR, (
            f"process backend at 4 shards only {speedup:.2f}x thread "
            f"(floor {SPEEDUP_FLOOR}x on {extra['usable_cores']} cores)"
        )
    else:
        # Loud and machine-readable: recorded numbers from this run are
        # informational only, the scaling claim was NOT checked here.
        print(f"E15 SPEEDUP GATE SKIPPED (usable_cores="
              f"{extra['usable_cores']} < 4): recorded throughputs are "
              f"informational; the >= {SPEEDUP_FLOOR}x process-vs-thread "
              f"claim is only enforced on >= 4-core machines")
