"""E6 — Section 3 / Theorem 1.3: the set-cover lower bound construction.

Claim reproduced: on the RW-paging image of an online set cover
instance, (i) every finite-cost online run's evicted write pages form a
valid set cover (Lemma 3.3), (ii) the online covers are larger than the
offline optimum, and (iii) online paging cost exceeds the Lemma 3.2
offline bound by the cover gap — the mechanism that forces
Omega(log^2 k) for polynomial-time algorithms.

Rows: set system size m; offline cover size; per-policy committed cover
size and paging cost over the Lemma 3.2 bound.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms import KernelLandlordPolicy, LRUPolicy
from repro.analysis import Table
from repro.setcover import (
    completeness_bound,
    extract_cover,
    greedy_cover,
    hard_instance_family,
    reduce_to_rw_paging,
)
from repro.sim import simulate

from _util import emit, once

SIZES = [(16, 8, 3), (24, 12, 4), (32, 16, 5)]  # (n elements, m sets, planted c)


def run_experiment() -> tuple[Table, list[dict]]:
    table = Table(
        ["m sets", "offline c", "policy", "committed |D|", "valid",
         "cost / L3.2 bound"],
        title="E6: online policies on the set-cover reduction",
    )
    records: list[dict] = []
    for n_el, m, c in SIZES:
        fam = hard_instance_family(n_el, m, c, n_sequences=3, rng=m)
        for seq_idx, elements in enumerate(fam.sequences):
            offline = greedy_cover(fam.system, elements)
            red = reduce_to_rw_paging(
                fam.system, elements, w=6.0, repetitions=8
            )
            bound = completeness_bound(red, len(offline))
            for factory in [LRUPolicy, KernelLandlordPolicy]:
                r = simulate(red.instance, red.sequence, factory(),
                             seed=seq_idx, record_events=True)
                cover = extract_cover(red, r.events)
                valid = fam.system.is_cover(cover, elements)
                rec = {
                    "m": m, "offline": len(offline), "policy": factory.name,
                    "committed": len(cover), "valid": valid,
                    "cost_ratio": r.cost / bound,
                }
                records.append(rec)
                if seq_idx == 0:
                    table.add_row(m, len(offline), factory.name, len(cover),
                                  valid, rec["cost_ratio"])
    return table, records


def test_e6_lower_bound(benchmark):
    table, records = once(benchmark, run_experiment)
    emit(table, "e6_lower_bound")
    for rec in records:
        # Lemma 3.3 soundness: avoiding the `repetitions` penalty forces a
        # valid committed cover.
        assert rec["valid"], rec
        # The online cover commits at least the offline optimum's sets.
        assert rec["committed"] >= rec["offline"] - 1, rec
    # On average the online algorithms pay strictly above the offline
    # bound — the gap driving the Omega(log^2 k) separation.
    mean_ratio = np.mean([r["cost_ratio"] for r in records])
    assert mean_ratio > 1.0, mean_ratio


if __name__ == "__main__":
    emit(run_experiment()[0], "e6_lower_bound")
