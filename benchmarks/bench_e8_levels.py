"""E8 — Theorem 1.5's remark: no dependence on the number of levels.

Claim reproduced: the competitive behavior of the paper's algorithms is
flat in the number of levels ``l`` (the bounds are O(k) and O(log^2 k)
with *no* ``l`` term).  Sweeping ``l`` at fixed ``k``, the measured
ratio against the LP lower bound must not trend upward with ``l``.

Rows: l; water-filling / randomized cost; LP bound; ratios.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms import RandomizedMultiLevelPolicy, WaterFillingPolicy
from repro.analysis import Table
from repro.offline import lp_divisor, sparse_fractional_opt
from repro.sim import simulate
from repro.workloads import geometric_instance, multilevel_stream

from _util import emit, once

LEVELS = [1, 2, 4, 6]
N_PAGES, K, STREAM_LEN, SEEDS = 36, 6, 900, 3


def run_experiment() -> tuple[Table, dict[int, float], dict[int, float]]:
    table = Table(
        ["l", "waterfill", "randomized (mean)", "LP bound", "wf ratio",
         "rand ratio"],
        title="E8: level-count independence at fixed k",
    )
    wf_ratios: dict[int, float] = {}
    rand_ratios: dict[int, float] = {}
    for l in LEVELS:
        inst = geometric_instance(N_PAGES, K, l)
        seq = multilevel_stream(N_PAGES, l, STREAM_LEN, rng=500 + l)
        bound = sparse_fractional_opt(inst, seq) / lp_divisor(inst)
        wf = simulate(inst, seq, WaterFillingPolicy(), seed=0).cost
        rand = float(np.mean([
            simulate(inst, seq, RandomizedMultiLevelPolicy(), seed=s).cost
            for s in range(SEEDS)
        ]))
        wf_ratios[l] = wf / max(bound, 1e-9)
        rand_ratios[l] = rand / max(bound, 1e-9)
        table.add_row(l, wf, rand, bound, wf_ratios[l], rand_ratios[l])
    return table, wf_ratios, rand_ratios


def test_e8_levels(benchmark):
    table, wf_ratios, rand_ratios = once(benchmark, run_experiment)
    emit(table, "e8_levels")
    # Flat in l: the largest-l ratio within a small factor of the l = 1
    # ratio (no linear-in-l growth).
    for ratios in (wf_ratios, rand_ratios):
        base = ratios[LEVELS[0]]
        for l in LEVELS[1:]:
            assert ratios[l] <= 3.0 * base + 1.0, (l, ratios)


if __name__ == "__main__":
    emit(run_experiment()[0], "e8_levels")
