"""E9 — Ablations over the algorithm's knobs.

DESIGN.md calls out three design parameters; this bench sweeps each with
the others held at the paper's defaults:

* ``eta`` — the additive term in the fractional eviction rate (paper:
  ``1/k``).  Larger eta evicts low-mass pages faster (more uniform, less
  history-sensitive).
* ``beta`` — the rounding aggressiveness (paper: ``4 log k``).  Too
  small starves the reset argument; too large inflates local-rule cost.
* ``delta`` — the Lemma 4.5 quantization grid (paper: ``1/4k``; 0
  disables quantization).

Rows: knob, value, integral cost (mean over seeds), fractional z-cost.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms import RandomizedWeightedPagingPolicy, default_beta
from repro.analysis import Table
from repro.core.instance import WeightedPagingInstance
from repro.sim import simulate
from repro.workloads import sample_weights, zipf_stream

from _util import emit, once

N, K, STREAM_LEN, SEEDS = 24, 8, 1200, 4


def _mean_cost(policy_kwargs) -> tuple[float, float]:
    inst = WeightedPagingInstance(K, sample_weights(N, rng=0, high=16.0))
    seq = zipf_stream(N, STREAM_LEN, alpha=0.9, rng=1)
    runs = [
        simulate(inst, seq, RandomizedWeightedPagingPolicy(**policy_kwargs),
                 seed=s)
        for s in range(SEEDS)
    ]
    return (
        float(np.mean([r.cost for r in runs])),
        runs[0].extra["fractional_z_cost"],
    )


def run_experiment() -> tuple[Table, dict]:
    table = Table(
        ["knob", "value", "integral cost", "fractional z"],
        title="E9: eta / beta / delta ablations (paper defaults marked *)",
    )
    results: dict = {"eta": {}, "beta": {}, "delta": {}}

    default_eta = 1.0 / K
    for eta in [default_eta / 8, default_eta, 4 * default_eta, 1.0]:
        cost, frac = _mean_cost({"eta": eta})
        tag = f"{eta:g}*" if eta == default_eta else f"{eta:g}"
        results["eta"][eta] = cost
        table.add_row("eta", tag, cost, frac)

    beta_star = default_beta(K)
    for beta in [1.0, beta_star / 2, beta_star, 2 * beta_star]:
        cost, frac = _mean_cost({"beta": beta})
        tag = f"{beta:.2f}*" if beta == beta_star else f"{beta:.2f}"
        results["beta"][beta] = cost
        table.add_row("beta", tag, cost, frac)

    delta_star = 1.0 / (4 * K)
    for delta in [0.0, delta_star, 1.0 / K]:
        cost, frac = _mean_cost({"delta": delta})
        tag = f"{delta:g}*" if delta == delta_star else f"{delta:g}"
        results["delta"][delta] = cost
        table.add_row("delta", tag, cost, frac)

    # Reset victim rule: the paper allows any class-i page; measure the
    # obvious instantiations ("max-u" is this library's default).
    results["victim"] = {}
    for rule in ["max-u", "min-u", "random", "first"]:
        cost, frac = _mean_cost({"victim_rule": rule})
        tag = f"{rule}*" if rule == "max-u" else rule
        results["victim"][rule] = cost
        table.add_row("victim", tag, cost, frac)
    return table, results


def test_e9_ablation(benchmark):
    table, results = once(benchmark, run_experiment)
    emit(table, "e9_ablation")
    beta_star = default_beta(K)
    # More aggressive rounding is monotonically more expensive in beta.
    assert results["beta"][2 * beta_star] >= results["beta"][beta_star / 2]
    # Quantization at the paper's grid costs little vs no quantization.
    assert results["delta"][1.0 / (4 * K)] <= 1.5 * results["delta"][0.0]
    # All ablation runs completed with finite cost.
    for knob in results.values():
        assert all(np.isfinite(v) for v in knob.values())
    # The victim rule is a constant-factor detail: all four within 2x.
    victims = list(results["victim"].values())
    assert max(victims) <= 2.0 * min(victims)


if __name__ == "__main__":
    emit(run_experiment()[0], "e9_ablation")
