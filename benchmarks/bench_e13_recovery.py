"""E13 — Recovery: checkpoint/replay determinism and its throughput cost.

The fault-tolerance layer (`repro.faults` + the supervisor in
`repro.service.server`) claims two things:

1. **Determinism** — a run that loses a shard worker mid-stream and
   recovers from its last checkpoint ends with *exactly* the fault-free
   total eviction cost (checkpoints snapshot the policy/cache/ledger graph
   as one consistent unit; the replay log re-applies the suffix in arrival
   order).
2. **Cheap insurance** — at the default checkpoint interval, the
   checkpoint machinery (deep-copy snapshots + replay-log bookkeeping on
   every accepted batch) costs at most ~10% of fault-free throughput.

Both are asserted here; the checkpoint-interval sweep quantifies the
usual durability trade-off (frequent checkpoints: cheap recovery, more
steady-state overhead) for the results archive.  Every interval is gated
against the no-recovery baseline through ``_util.paired_gate``:
interleaved baseline/checkpointed pairs in ABBA order, gated on the
median ratio, and an interquartile range that straddles the floor is
``unresolved`` and fails.
"""

from __future__ import annotations

from time import perf_counter

from repro.algorithms import KernelWaterFillingPolicy
from repro.analysis import Table
from repro.core.instance import WeightedPagingInstance
from repro.faults import FaultPlan
from repro.service import PagingService, ServiceConfig, run_load
from repro.workloads import sample_weights, zipf_stream

from _util import emit, once, paired_gate

N_PAGES, K, STREAM_LEN = 512, 64, 50_000
BATCH = 512
N_SHARDS = 4
DEFAULT_INTERVAL = 10_000
SWEEP_INTERVALS = [500, 2_000, 10_000, 20_000]
#: Recovery-enabled throughput >= 90% of the no-recovery baseline at the
#: default interval, with timing slack for CI jitter.
MAX_OVERHEAD = 0.10
SLACK = 0.08
OVERHEAD_FLOOR = 1.0 - MAX_OVERHEAD - SLACK
#: Even the most aggressive interval keeps half the baseline throughput.
SWEEP_FLOOR = 0.5
PAIRS = 7  # interleaved baseline/checkpointed pairs per interval


def _workload():
    inst = WeightedPagingInstance(K, sample_weights(N_PAGES, rng=0, high=64.0))
    seq = zipf_stream(N_PAGES, STREAM_LEN, alpha=0.9, rng=1)
    return inst, seq


def _service(inst, **kwargs):
    return PagingService(ServiceConfig(
        instance=inst, policy_factory=KernelWaterFillingPolicy,
        n_shards=N_SHARDS, batch_size=BATCH, seed=0,
        policy_name="waterfilling-kernel", **kwargs,
    ))


def _fault_free_cost(inst, seq):
    """Reference inline run: the deterministic total the sweep must match."""
    svc = _service(inst)
    started = perf_counter()
    svc.submit_batch(seq.pages, seq.levels)
    elapsed = perf_counter() - started
    return svc.total_cost(), len(seq) / elapsed


def run_determinism_experiment() -> tuple[Table, dict]:
    """Kill a shard mid-run; recovered cost must equal the fault-free cost."""
    inst, seq = _workload()
    base = _service(inst)
    base.submit_batch(seq.pages, seq.levels)
    fault_free = base.total_cost()

    # Per-shard logical clocks reach ~STREAM_LEN / N_SHARDS; keep fault
    # times inside every shard's range.
    plan = FaultPlan.parse("kill:1@4000,drop:3@6000")
    svc = _service(inst, fault_plan=plan, checkpoint_interval=DEFAULT_INTERVAL)
    with svc:
        report = run_load(svc, seq, rate=1e9, max_retries=200)
    snap = svc.snapshot()

    table = Table(
        ["run", "evict cost", "served", "restores", "replayed", "faults"],
        title=f"E13: recovery determinism (waterfilling-kernel, "
              f"{N_SHARDS} shards, kill+drop mid-run)",
    )
    table.add_row("fault-free", fault_free, STREAM_LEN, 0, 0, 0)
    table.add_row("recovered", snap.eviction_cost, report.n_served,
                  sum(s.n_restores for s in snap.shards),
                  sum(s.n_replayed_batches for s in snap.shards),
                  snap.n_faults_injected)
    extra = {
        "fault_free_cost": fault_free,
        "recovered_cost": snap.eviction_cost,
        "n_served": report.n_served,
        "n_restores": sum(s.n_restores for s in snap.shards),
        "n_replayed_batches": sum(s.n_replayed_batches for s in snap.shards),
        "n_faults_injected": snap.n_faults_injected,
        "n_worker_restarts": snap.n_worker_restarts,
    }
    return table, extra


def run_overhead_experiment() -> tuple[Table, dict]:
    """No-recovery threaded baseline vs checkpoint-interval sweep.

    The sweep runs *threaded* — inline mode never takes checkpoints (the
    worker loop owns them), so only threaded runs pay the deep-copy
    snapshots and replay-log bookkeeping being measured here.
    """
    inst, seq = _workload()
    base_cost, inline_rps = _fault_free_cost(inst, seq)

    def threaded_once(**kwargs) -> dict:
        """One threaded feed: its throughput and checkpoint count."""
        svc = _service(inst, **kwargs)
        with svc:
            report = run_load(svc, seq, rate=1e9, max_retries=200)
        assert report.n_served == STREAM_LEN
        # Checkpointing must never change what the service computes.
        assert svc.total_cost() == base_cost, (
            f"{kwargs}: cost {svc.total_cost()} != baseline {base_cost}"
        )
        return {
            "throughput_req_s": report.achieved_rate,
            "n_checkpoints": sum(s.n_checkpoints
                                 for s in svc.snapshot().shards),
        }

    # One paired gate per interval: threaded throughput drifts over a run
    # (scheduler, turbo, noisy neighbors), and ABBA pairs load both sides
    # of every ratio alike instead of baking the drift into it.
    gates = {
        str(interval): paired_gate(
            threaded_once,
            lambda i=interval: threaded_once(checkpoint_interval=i),
            metric="throughput_req_s",
            floor=(OVERHEAD_FLOOR if interval == DEFAULT_INTERVAL
                   else SWEEP_FLOOR),
            pairs=PAIRS)
        for interval in SWEEP_INTERVALS
    }

    def median(values: list[float]) -> float:
        return sorted(values)[len(values) // 2]

    base_rps = median([run["throughput_req_s"] for gate in gates.values()
                       for run in gate["runs_a"]])
    table = Table(
        ["checkpoint interval", "req/s", "vs baseline", "IQR", "floor",
         "verdict", "checkpoints"],
        title=f"E13: checkpoint overhead sweep (waterfilling-kernel, "
              f"threaded, {N_SHARDS} shards, batch {BATCH}; median of "
              f"{PAIRS} ABBA pairs)",
    )
    table.add_row("off (baseline)", int(base_rps), "1.00x", "-", "-", "-", 0)
    sweep: dict[str, dict] = {}
    for interval, gate in gates.items():
        rps = median([run["throughput_req_s"] for run in gate["runs_b"]])
        n_checkpoints = min(run["n_checkpoints"] for run in gate["runs_b"])
        table.add_row(interval, int(rps), f"{gate['median']:.3f}x",
                      f"{gate['q1']:.3f}-{gate['q3']:.3f}",
                      f"{gate['floor']:.2f}", gate["verdict"], n_checkpoints)
        sweep[interval] = {
            "throughput_req_s": rps,
            "vs_baseline": gate["median"],
            "vs_baseline_q1": gate["q1"],
            "vs_baseline_q3": gate["q3"],
            "floor": gate["floor"],
            "verdict": gate["verdict"],
            "n_checkpoints": n_checkpoints,
        }
    default = gates[str(DEFAULT_INTERVAL)]
    extra = {
        "inline_baseline_req_s": inline_rps,
        "threaded_baseline_req_s": base_rps,
        "threaded_checkpointed_req_s":
            sweep[str(DEFAULT_INTERVAL)]["throughput_req_s"],
        "threaded_overhead_ratio": default["median"],
        "threaded_overhead_ratio_q1": default["q1"],
        "threaded_overhead_ratio_q3": default["q3"],
        "threaded_overhead_ratio_floor": OVERHEAD_FLOOR,
        "gate_verdict": default["verdict"],
        "default_interval": DEFAULT_INTERVAL,
        "max_overhead_gate": MAX_OVERHEAD,
        "pairs": PAIRS,
        "usable_cores": default["usable_cores"],
        "sweep": sweep,
        "gates": gates,
    }
    return table, extra


def test_e13_recovery_determinism(benchmark):
    table, extra = once(benchmark, run_determinism_experiment)
    emit(table, "e13_recovery_determinism", extra=extra)
    # The recovered run must be indistinguishable from fault-free in every
    # deterministic counter — this is the paper-grade reproducibility bar.
    assert extra["recovered_cost"] == extra["fault_free_cost"]
    assert extra["n_served"] == STREAM_LEN
    assert extra["n_faults_injected"] == 2
    assert extra["n_restores"] >= 2
    assert extra["n_worker_restarts"] == 2


def test_e13_checkpoint_overhead(benchmark):
    table, extra = once(benchmark, run_overhead_experiment)
    emit(table, "e13_recovery", extra=extra)
    # Gate: recovery at the default interval costs <= ~10% throughput
    # (with slack because CI timing is noisy): the whole IQR of the paired
    # ratios clears the floor (an IQR straddling it is 'unresolved').
    assert extra["gate_verdict"] == "pass", (
        f"checkpointing cost too much: {extra['gate_verdict']} at "
        f"{extra['threaded_overhead_ratio']:.2f} of baseline throughput "
        f"(floor {OVERHEAD_FLOOR:.2f}), ratios "
        f"{extra['gates'][str(DEFAULT_INTERVAL)]['ratios']}"
    )
    # Even the most aggressive interval in the sweep stays usable, and
    # checkpoints actually fired everywhere recovery was enabled.
    for interval, run in extra["sweep"].items():
        assert run["n_checkpoints"] > 0, f"interval={interval}: no checkpoints"
        assert run["verdict"] == "pass", (
            f"interval={interval}: {run['verdict']} at "
            f"{run['vs_baseline']:.2f} (floor {run['floor']})"
        )
