"""E18 — Columnar kernel throughput: batch kernels vs scalar serve loops.

``landlord-kernel`` and ``waterfilling-kernel`` keep their policy state in
per-slot list columns and serve whole micro-batches per call (one fused
loop that reads each request's slot and level from the live columns,
then one ledger settlement per batch).  Victims
come off a lazy heap with one ``(death, seq, slot)`` entry per cached
slot: keys only grow, so a stale entry never overstates its slot's key
and the refreshed top is the exact minimum.  The arithmetic is the scalar
algorithms' arithmetic — same death-key additions in the same order, same
``(death, seq)`` tie-break — so the ledgers must match the scalar
implementations bit for bit while the per-request interpreter overhead
disappears.

This bench drives a single inline shard (the E15 inline cell: one
``submit_batch`` loop, no queueing) on the E10 and E15 workload shapes
and records requests/s for each implementation of a family:

* the O(k)-scan reference (``landlord-ref`` / ``waterfilling``) — the
  scalar oracle each kernel is pinned ``==`` against,
* the columnar kernel, each family's one production implementation
  (``landlord`` and ``waterfilling-heap`` are aliases of the kernels),
* the water-filling kernel again with 1% decision tracing
  (``enable_tracing(..., sample=0.01)``): sampled requests run the
  kernel's per-request ``serve``, the rest its ``serve_batch``.  This row
  is informational — its ratio to the untraced kernel is recorded as
  ``kernel_traced_1pct_vs_untraced`` with no floor (the >= 0.9 tracing
  gate belongs to the E21 ladder).

Asserted shape claims:

* **Exact cost equality** — per shape and family, all implementations
  produce ``==``-equal eviction costs (the kernel must be unobservable in
  the ledgers).
* **Kernel speedup** (enforced on every machine, 1-core CI included) —
  the kernel serves >= 3x the scan baseline's throughput on both shapes
  for both families.  The single-core >= 1M req/s target is recorded as
  an informational flag, not gated: the Zipf shapes here are ~50% misses,
  and each miss runs an eviction round in the interpreter (heap refresh
  and ``heapreplace``, list-column and cache-dict stores), so
  whether one core reaches it depends on the machine.
"""

from __future__ import annotations

from tempfile import TemporaryDirectory
from time import perf_counter

from repro.algorithms import policy_registry
from repro.analysis import Table, competitive_ratio
from repro.core.instance import WeightedPagingInstance
from repro.offline import best_opt_bound
from repro.service import PagingService, ServiceConfig
from repro.workloads import sample_weights, zipf_stream

from _util import emit, once, opt_bound_payload, usable_cores

BATCH = 512
STREAM_LEN = 40_000
SPEEDUP_FLOOR = 3.0  # kernel vs scan baseline, enforced unconditionally
TARGET_REQ_S = 1_000_000  # aspirational single-shard target (informational)
TRACE_SAMPLE = 0.01  # decision-trace rate of the informational traced row

SHAPES = {
    "e10": {"n_pages": 400, "k": 64, "alpha": 0.9},
    "e15": {"n_pages": 1024, "k": 256, "alpha": 0.7},
}
#: family -> implementation tier -> registered policy name
FAMILIES = {
    "landlord": {"baseline": "landlord-ref", "kernel": "landlord-kernel"},
    "waterfilling": {"baseline": "waterfilling",
                     "kernel": "waterfilling-kernel",
                     "traced": "waterfilling-kernel"},
}


def _workload(shape: dict):
    inst = WeightedPagingInstance(
        shape["k"], sample_weights(shape["n_pages"], rng=0, high=64.0))
    seq = zipf_stream(shape["n_pages"], STREAM_LEN, alpha=shape["alpha"],
                      rng=1)
    return inst, seq


def _run_inline(inst, seq, policy_name: str,
                trace_sample: float = 0.0) -> tuple[float, float]:
    """One inline single-shard run: (eviction cost, requests/s)."""
    svc = PagingService(ServiceConfig(
        instance=inst, policy_factory=policy_registry[policy_name],
        n_shards=1, batch_size=BATCH, seed=0,
        policy_name=policy_name, backend="inline",
    ))
    with TemporaryDirectory() as trace_dir:
        if trace_sample:
            svc.enable_tracing(trace_dir, sample=trace_sample, seed=0)
        started = perf_counter()
        for lo in range(0, len(seq), BATCH):
            svc.submit_batch(seq.pages[lo:lo + BATCH],
                             seq.levels[lo:lo + BATCH])
        elapsed = perf_counter() - started
        cost = svc.total_cost()
        svc.stop()
    return cost, len(seq) / elapsed


def run_experiment() -> tuple[Table, dict]:
    table = Table(
        ["shape", "family", "policy", "evict cost", "ratio vs OPT", "req/s",
         "vs baseline"],
        title=f"E18: columnar kernel throughput (inline single shard, "
              f"batch={BATCH}, {STREAM_LEN} reqs/run)",
    )
    runs: dict[str, dict] = {}
    speedups: dict[str, list[float]] = {f: [] for f in FAMILIES}
    traced_ratios: list[float] = []
    competitive_ratios: dict[str, dict[str, float]] = {}
    best_kernel = 0.0
    max_ratio = 0.0
    for shape_name, shape in SHAPES.items():
        inst, seq = _workload(shape)
        # At these shapes the exact DP is hopeless; the sparse interval
        # LP supplies the certified lower bound every row divides by.
        bound = best_opt_bound(inst, seq)
        competitive_ratios[shape_name] = {}
        shape_runs: dict[str, dict] = {}
        for family, names in FAMILIES.items():
            cell: dict[str, dict] = {}
            for tier, name in names.items():
                sample = TRACE_SAMPLE if tier == "traced" else 0.0
                cost, rate = _run_inline(inst, seq, name, sample)
                cell[tier] = {"policy": name, "eviction_cost": cost,
                              "throughput_req_s": rate}
                if sample:
                    cell[tier]["trace_sample"] = sample
            base_rate = cell["baseline"]["throughput_req_s"]
            speedup = cell["kernel"]["throughput_req_s"] / base_rate
            speedups[family].append(speedup)
            best_kernel = max(best_kernel,
                              cell["kernel"]["throughput_req_s"])
            for tier in names:
                ratio = competitive_ratio(cell[tier]["eviction_cost"],
                                          bound.value)
                cell[tier]["competitive_ratio"] = ratio
                label = cell[tier]["policy"]
                if tier == "traced":
                    label += f" +{TRACE_SAMPLE:.0%} trace"
                table.add_row(
                    shape_name, family, label,
                    cell[tier]["eviction_cost"], ratio,
                    int(cell[tier]["throughput_req_s"]),
                    "-" if tier == "baseline" else
                    f"{cell[tier]['throughput_req_s'] / base_rate:.2f}x",
                )
            family_ratio = cell["kernel"]["competitive_ratio"]
            competitive_ratios[shape_name][family] = family_ratio
            max_ratio = max(max_ratio, family_ratio)
            shape_runs[family] = {
                **cell,
                "kernel_vs_baseline": speedup,
                "competitive_ratio": family_ratio,
            }
            if "traced" in cell:
                vs_untraced = (cell["traced"]["throughput_req_s"]
                               / cell["kernel"]["throughput_req_s"])
                traced_ratios.append(vs_untraced)
                shape_runs[family]["kernel_traced_vs_untraced"] = vs_untraced
        runs[shape_name] = {"workload": {**shape, "requests": STREAM_LEN,
                                         "batch_size": BATCH},
                            "opt_bound": opt_bound_payload(bound),
                            **shape_runs}
    extra = {
        # Throughputs are single-core numbers; the count is recorded so
        # they are never quoted without the machine they came from.
        "usable_cores": usable_cores(),
        "kernel_speedup_floor": SPEEDUP_FLOOR,
        # Worst case across shapes per family: the gated claim.
        "kernel_speedup_landlord": min(speedups["landlord"]),
        "kernel_speedup_waterfilling": min(speedups["waterfilling"]),
        # This gate runs on every machine — the baseline is a scalar loop
        # on the same single core, so the ratio needs no parallelism.
        "kernel_speedup_gate": {"floor": SPEEDUP_FLOOR, "enforced": True},
        "kernel_speedup_gate_enforced": True,
        # Informational, worst shape: 1%-traced water-filling kernel over
        # the untraced one.  No floor here; E21 owns the tracing gate.
        "kernel_traced_1pct_vs_untraced": min(traced_ratios),
        "best_kernel_req_s": best_kernel,
        "target_req_s": TARGET_REQ_S,
        "target_req_s_met": best_kernel >= TARGET_REQ_S,
        "competitive_ratios": competitive_ratios,
        "max_competitive_ratio": max_ratio,
        "runs": runs,
    }
    return table, extra


def test_e18_kernel_throughput(benchmark):
    table, extra = once(benchmark, run_experiment)
    emit(table, "e18_kernels", extra=extra)
    # The kernel must be unobservable in the ledgers: exact cost equality
    # against every scalar implementation, per shape and family.
    for shape_name, shape_runs in extra["runs"].items():
        for family, names in FAMILIES.items():
            cell = shape_runs[family]
            costs = {tier: cell[tier]["eviction_cost"] for tier in names}
            assert len(set(costs.values())) == 1, (
                f"{shape_name}/{family} costs diverge across "
                f"implementations: {costs}"
            )
            for tier in names:
                assert cell[tier]["throughput_req_s"] > 0
                # l = 1: the LP bound sits below OPT, so every measured
                # cost/OPT-bound ratio is finite and >= 1.
                ratio = cell[tier]["competitive_ratio"]
                assert 1.0 - 1e-6 <= ratio < float("inf")
    # Enforced on every machine: kernel >= 3x the scan baseline.
    for family in FAMILIES:
        speedup = extra[f"kernel_speedup_{family}"]
        assert speedup >= SPEEDUP_FLOOR, (
            f"{family} kernel only {speedup:.2f}x the scan baseline "
            f"(floor {SPEEDUP_FLOOR}x)"
        )
