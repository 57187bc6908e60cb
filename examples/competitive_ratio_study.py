"""A small competitive-ratio study with the parallel sweep runner.

Sweeps the cache size k, runs the paper's deterministic and randomized
algorithms against Landlord and LRU (several seeds each, across worker
processes), measures ratios against the offline bound, fits the growth
shape, and renders the series as an ASCII chart — the complete workflow
the benchmark harness automates.

Run:  python examples/competitive_ratio_study.py
"""

from __future__ import annotations

import numpy as np

from repro.algorithms import (
    KernelLandlordPolicy,
    LRUPolicy,
    RandomizedWeightedPagingPolicy,
    WaterFillingPolicy,
)
from repro.analysis import Table, competitive_ratio, fit_growth, line_chart
from repro.core.instance import WeightedPagingInstance
from repro.offline import best_opt_bound
from repro.sim import RunSpec, run_sweep
from repro.workloads import sample_weights, zipf_stream

KS = [2, 4, 8, 16]
POLICIES = [LRUPolicy, KernelLandlordPolicy, WaterFillingPolicy,
            RandomizedWeightedPagingPolicy]


def main() -> None:
    specs, bounds = [], {}
    for k in KS:
        n = 3 * k
        inst = WeightedPagingInstance(k, sample_weights(n, rng=k, high=16.0))
        seq = zipf_stream(n, 1200, alpha=0.9, rng=100 + k)
        bounds[k] = best_opt_bound(inst, seq, max_states=6000)
        for factory in POLICIES:
            specs.append(RunSpec(inst, seq, factory, n_seeds=3,
                                 master_seed=k, params={"k": k}))

    results = run_sweep(specs, parallel=True)

    series: dict[str, list[float]] = {f.name: [] for f in POLICIES}
    table = Table(["k", "policy", "mean cost", "ratio", "opt method"],
                  title="competitive ratios vs cache size (Zipf 0.9)")
    for res in results:
        k = res.params["k"]
        ratio = competitive_ratio(res.aggregate.mean_cost, bounds[k].value)
        series[res.spec_label].append(ratio)
        table.add_row(k, res.spec_label, res.aggregate.mean_cost, ratio,
                      bounds[k].method)
    print(table)

    print(line_chart(KS, series, logx=True,
                     title="ratio vs k (log-spaced)", height=12))

    for name, ratios in series.items():
        fit = fit_growth(KS, ratios)
        print(f"{name:22s} best growth shape: {fit.summary()}")


if __name__ == "__main__":
    main()
