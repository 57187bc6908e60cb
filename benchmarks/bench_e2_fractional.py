"""E2 — Section 4.2: the deterministic fractional algorithm is O(log k).

Claim reproduced: the online fractional solver's z-cost is within
O(log k) of the *offline* fractional LP optimum, with the measured ratio
growing no faster than log k across the sweep.

Rows: k, online fractional z-cost, LP optimum, ratio; a growth fit over
the sweep is asserted to prefer a (sub-)logarithmic shape over linear.
"""

from __future__ import annotations

import math

from repro.algorithms import (
    FractionalMultiLevelSolver,
    PrimalDualWeightedPaging,
)
from repro.analysis import Table, fit_growth
from repro.core.instance import WeightedPagingInstance
from repro.offline import sparse_fractional_opt
from repro.workloads import sample_weights, zipf_stream

from _util import emit, once

KS = [2, 4, 8, 16, 32]
STREAM_LEN = 600


def run_experiment() -> tuple[Table, list[float]]:
    table = Table(
        ["k", "online fractional", "LP optimum", "ratio", "log k",
         "dual certificate", "certified ratio"],
        title="E2: online fractional solver vs offline LP (Zipf 0.9)",
    )
    ratios: list[float] = []
    for k in KS:
        n = 3 * k
        inst = WeightedPagingInstance(k, sample_weights(n, rng=k, high=16.0))
        seq = zipf_stream(n, STREAM_LEN, alpha=0.9, rng=200 + k)
        online = FractionalMultiLevelSolver(inst).solve(seq).total_z_cost
        lp = sparse_fractional_opt(inst, seq)
        ratio = online / max(lp, 1e-9)
        ratios.append(ratio)
        # The primal-dual run certifies its own ratio via weak duality —
        # no OPT computation involved.
        cert = PrimalDualWeightedPaging(inst).solve(seq)
        assert cert.dual_value <= lp + 1e-6
        table.add_row(k, online, lp, ratio, math.log(k),
                      cert.dual_value, cert.certified_ratio)
    return table, ratios


def test_e2_fractional(benchmark):
    table, ratios = once(benchmark, run_experiment)
    emit(table, "e2_fractional")
    # O(log k): generous absolute cap and a shape check across the sweep.
    for k, ratio in zip(KS, ratios):
        assert ratio <= 6.0 * max(1.0, math.log(k)), f"k={k}: ratio {ratio}"
    fit = fit_growth(KS, ratios)
    assert fit.best_shape != "k", (
        f"fractional ratio grows linearly?! residuals {fit.residuals}"
    )


if __name__ == "__main__":
    emit(run_experiment()[0], "e2_fractional")
