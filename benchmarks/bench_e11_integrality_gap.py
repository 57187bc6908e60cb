"""E11 — Theorem 1.4: any rounding of a fractional solution loses Omega(log).

Claim reproduced: on the RW-paging image of a set system with a
fractional/integral cover gap, the *offline LP* is as cheap as the
fractional cover, but any online rounding of it must commit to an
*integral* cover (Lemma 3.3 applied to the rounded run), paying the
integrality gap — for the F_2^d parity system the gap is ~d/2 ~ log n.

This drives the source-agnostic rounding with a
:class:`~repro.algorithms.sources.TrajectorySource` fed by an exact
offline LP optimum — the sparse LP's solution replayed as a time-indexed
trajectory (:meth:`~repro.offline.SparseLPResult.trajectory`), precisely
the object Theorem 1.4 reasons about.

Rows: d; fractional cover |x|_1; integral (greedy) cover; LP value of the
image; rounded online cost; rounded / LP ratio; committed cover size.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms import RandomizedMultiLevelPolicy, TrajectorySource
from repro.analysis import Table
from repro.setcover import (
    SetSystem,
    extract_cover,
    greedy_cover,
    lp_cover_value,
    reduce_to_rw_paging,
)
from repro.sim import simulate

from _util import emit, once

DS = [3, 4]
SEEDS = 3


def parity_gap_system(d: int) -> SetSystem:
    """The F_2^d integrality-gap system: fractional ~2, integral >= d."""
    vecs = list(range(1, 2 ** d))
    sets = []
    for s in vecs:
        members = [
            i for i, v in enumerate(vecs) if bin(v & s).count("1") % 2 == 1
        ]
        sets.append(members)
    return SetSystem(len(vecs), sets)


def run_experiment() -> tuple[Table, list[dict]]:
    from repro.offline import solve_sparse_lp

    table = Table(
        ["d", "frac cover", "greedy cover", "image LP", "rounded (mean)",
         "rounded/LP", "committed |D| (mean)"],
        title="E11: integrality gap forces the rounding loss (Theorem 1.4)",
    )
    records: list[dict] = []
    for d in DS:
        system = parity_gap_system(d)
        # The gap only bites when the whole universe must be covered:
        # fractionally 2 sets suffice, integrally at least d are needed.
        elements = list(range(system.n_elements))
        frac = lp_cover_value(system, elements)
        integral = len(greedy_cover(system, elements))
        red = reduce_to_rw_paging(system, elements, w=6.0, repetitions=3)
        lp = solve_sparse_lp(red.instance, red.sequence)
        trajectory = lp.trajectory()

        costs, covers = [], []
        for seed in range(SEEDS):
            src = TrajectorySource(trajectory, lazy=True, seq=red.sequence)
            run = simulate(
                red.instance, red.sequence,
                RandomizedMultiLevelPolicy(source=src),
                seed=seed, record_events=True,
            )
            costs.append(run.cost)
            cover = extract_cover(red, run.events)
            covers.append(cover)
        mean_cost = float(np.mean(costs))
        mean_cover = float(np.mean([len(c) for c in covers]))
        rec = {
            "d": d, "frac": frac, "integral": integral,
            "lp": lp.value, "rounded": mean_cost,
            "ratio": mean_cost / max(lp.value, 1e-9),
            "covers_valid": [
                system.is_cover(c, elements) for c in covers
            ],
            "mean_cover": mean_cover,
        }
        records.append(rec)
        table.add_row(d, frac, integral, lp.value, mean_cost, rec["ratio"],
                      mean_cover)
    return table, records


def test_e11_integrality_gap(benchmark):
    table, records = once(benchmark, run_experiment)
    emit(table, "e11_integrality_gap")
    for rec in records:
        # The gap system: fractional cover ~2, integral >= d.
        assert rec["frac"] <= 2.0 + 1e-6
        assert rec["integral"] >= rec["d"]
        # Lemma 3.3 on the rounded runs: committed covers are valid...
        assert all(rec["covers_valid"]), rec
        # ...hence integral-sized, so the rounding pays over the LP.
        assert rec["mean_cover"] >= rec["integral"] - 1
        assert rec["ratio"] > 1.0
    # The loss grows with the gap (d), as Theorem 1.4 predicts.
    assert records[-1]["ratio"] >= records[0]["ratio"] * 0.9


if __name__ == "__main__":
    emit(run_experiment()[0], "e11_integrality_gap")
