"""E7 — Lemma 2.1: writeback-aware caching == RW-paging.

Claim reproduced: on reduction-paired instances the integral offline
optima are *equal* (computed independently by the native writeback DP
and the RW-paging DP), and any RW policy's cost transfers to the
writeback side without increase (the solution map S -> S').

Rows: random instance id; native writeback OPT; RW-paging OPT; adapter
policy's writeback cost vs its internal RW cost.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms import RWAdapterPolicy, WaterFillingPolicy
from repro.analysis import Table
from repro.core.instance import WritebackInstance
from repro.core.reductions import (
    writeback_to_rw_instance,
    writeback_to_rw_sequence,
)
from repro.core.requests import WBRequestSequence
from repro.offline import offline_opt_multilevel, offline_opt_writeback
from repro.sim import simulate_writeback

from _util import emit, once

N_INSTANCES = 6


def run_experiment() -> tuple[Table, list[dict]]:
    table = Table(
        ["instance", "wb OPT", "rw OPT", "equal", "wb(adapter)", "rw(inner)",
         "wb <= rw"],
        title="E7: Lemma 2.1 equivalence, exact optima and policy transfer",
    )
    records: list[dict] = []
    for i in range(N_INSTANCES):
        rng = np.random.default_rng(1000 + i)
        n = int(rng.integers(4, 6))
        k = int(rng.integers(1, n))
        w2 = rng.integers(1, 4, size=n).astype(float)
        w1 = w2 + rng.integers(0, 8, size=n).astype(float)
        inst = WritebackInstance(k, w1, w2)
        seq = WBRequestSequence(
            rng.integers(0, n, size=40), rng.random(40) < 0.4
        )
        wb_opt = offline_opt_writeback(inst, seq)
        rw_opt = offline_opt_multilevel(
            writeback_to_rw_instance(inst), writeback_to_rw_sequence(seq)
        )
        adapter = RWAdapterPolicy(WaterFillingPolicy())
        run = simulate_writeback(inst, seq, adapter, seed=i)
        rec = {
            "wb_opt": wb_opt, "rw_opt": rw_opt,
            "wb_cost": run.cost, "rw_cost": run.extra["rw_cost"],
        }
        records.append(rec)
        table.add_row(
            i, wb_opt, rw_opt, abs(wb_opt - rw_opt) < 1e-9,
            run.cost, run.extra["rw_cost"],
            run.cost <= run.extra["rw_cost"] + 1e-9,
        )
    return table, records


def test_e7_equivalence(benchmark):
    table, records = once(benchmark, run_experiment)
    emit(table, "e7_equivalence")
    for rec in records:
        assert rec["wb_opt"] == rec["rw_opt"], rec  # Lemma 2.1 equality
        assert rec["wb_cost"] <= rec["rw_cost"] + 1e-9, rec  # S -> S' map
        assert rec["wb_cost"] >= rec["wb_opt"] - 1e-9, rec  # sanity


if __name__ == "__main__":
    emit(run_experiment()[0], "e7_equivalence")
