"""Quickstart: the public API in five minutes.

Builds a weighted paging instance, runs the paper's algorithms against
classical baselines on a skewed workload, and compares everything to the
exact offline optimum.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

import numpy as np

from repro import WeightedPagingInstance
from repro.algorithms import (
    KernelLandlordPolicy,
    LRUPolicy,
    RandomizedWeightedPagingPolicy,
    WaterFillingPolicy,
)
from repro.analysis import Table, competitive_ratio
from repro.offline import best_opt_bound
from repro.sim import simulate
from repro.workloads import sample_weights, zipf_stream


def main() -> None:
    # --- 1. An instance: 12 pages, cache of 4, log-uniform weights. -------
    weights = sample_weights(12, rng=0, low=1.0, high=32.0)
    instance = WeightedPagingInstance(cache_size=4, weights=weights)
    print(f"instance: {instance}  (weights {weights.min():.1f}..{weights.max():.1f})")

    # --- 2. A workload: 2000 Zipf-distributed requests. -------------------
    seq = zipf_stream(instance.n_pages, 2000, alpha=0.9, rng=1)
    print(f"workload: {seq}\n")

    # --- 3. The offline optimum (exact DP here; LP fallback on big runs). --
    opt = best_opt_bound(instance, seq)
    print(f"offline optimum ({opt.method}): {opt.value:.1f}\n")

    # --- 4. Online policies, paper's vs baselines. --------------------------
    policies = [
        LRUPolicy(),                        # weight-oblivious baseline
        KernelLandlordPolicy(),             # k-competitive weighted baseline
        WaterFillingPolicy(),               # paper Sec 4.1: deterministic O(k)
        RandomizedWeightedPagingPolicy(),   # paper Sec 4.3: O(log^2 k)
    ]
    table = Table(["policy", "cost", "hit rate", "ratio vs OPT"],
                  title="weighted paging quickstart")
    for policy in policies:
        result = simulate(instance, seq, policy, seed=42)
        table.add_row(
            result.policy,
            result.cost,
            result.hit_rate,
            competitive_ratio(result.cost, opt.value),
        )
    print(table)

    # --- 5. The randomized policy exposes its internal fractional cost. ----
    result = simulate(instance, seq, RandomizedWeightedPagingPolicy(), seed=7)
    print(
        f"randomized policy internals: fractional z-cost "
        f"{result.extra['fractional_z_cost']:.1f}, beta {result.extra['beta']:.2f}, "
        f"rounding overhead x{result.cost / result.extra['fractional_z_cost']:.2f}"
    )


if __name__ == "__main__":
    main()
