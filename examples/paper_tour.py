"""The whole paper in one run.

Walks every theorem of Bansal-Naor-Talmon (SPAA'21) in order, executing a
miniature of each reproduction experiment and printing a PASS/FAIL verdict
— a two-minute end-to-end smoke of the entire library.  The full-size
versions live under benchmarks/ (E1-E11).

Run:  python examples/paper_tour.py
"""

from __future__ import annotations

import math

import numpy as np

CHECKS: list[tuple[str, bool, str]] = []


def check(claim: str, ok: bool, detail: str) -> None:
    CHECKS.append((claim, ok, detail))
    print(f"[{'PASS' if ok else 'FAIL'}] {claim}\n       {detail}")


def main() -> None:
    from repro.algorithms import (
        FractionalMultiLevelSolver,
        LRUPolicy,
        PrimalDualWeightedPaging,
        RandomizedMultiLevelPolicy,
        RandomizedWeightedPagingPolicy,
        RWAdapterPolicy,
        WaterFillingPolicy,
        WBLRUPolicy,
    )
    from repro.analysis import (
        verify_fractional_potential,
        verify_waterfilling_potential,
    )
    from repro.core.instance import WeightedPagingInstance, WritebackInstance
    from repro.core.reductions import (
        writeback_to_rw_instance,
        writeback_to_rw_sequence,
    )
    from repro.core.requests import WBRequestSequence
    from repro.offline import (
        best_opt_bound,
        offline_opt_multilevel,
        offline_opt_writeback,
        sparse_fractional_opt,
    )
    from repro.setcover import (
        extract_cover,
        greedy_cover,
        planted_cover_system,
        reduce_to_rw_paging,
    )
    from repro.sim import simulate, simulate_writeback
    from repro.workloads import (
        geometric_instance,
        hot_writer_stream,
        multilevel_stream,
        sample_weights,
        zipf_stream,
    )

    print("== Efficient Online Weighted Multi-Level Paging: the tour ==\n")

    # --- Lemma 2.1: writeback <-> RW-paging -------------------------------
    wb = WritebackInstance(2, [7.0, 5.0, 6.0, 4.0], [2.0, 1.0, 2.0, 1.0])
    rng = np.random.default_rng(0)
    wseq = WBRequestSequence(rng.integers(0, 4, size=30), rng.random(30) < 0.4)
    native = offline_opt_writeback(wb, wseq)
    reduced = offline_opt_multilevel(
        writeback_to_rw_instance(wb), writeback_to_rw_sequence(wseq)
    )
    check(
        "Lemma 2.1 — writeback OPT equals RW-paging OPT",
        abs(native - reduced) < 1e-9,
        f"native DP {native:.0f} == reduced DP {reduced:.0f}",
    )

    # --- Theorem 1.1 / 4.1: deterministic O(k) ----------------------------
    k = 4
    inst = WeightedPagingInstance(k, sample_weights(12, rng=1, high=16.0))
    seq = zipf_stream(12, 600, rng=2)
    opt = best_opt_bound(inst, seq)
    wf_cost = simulate(inst, seq, WaterFillingPolicy()).cost
    check(
        "Theorem 1.1 — water-filling within 2k of OPT",
        wf_cost <= 2 * k * opt.value,
        f"ratio {wf_cost / opt.value:.2f} (bound {2 * k})",
    )
    ml = geometric_instance(5, 2, 2)
    mseq = multilevel_stream(5, 2, 60, rng=3)
    rep = verify_waterfilling_potential(ml, mseq)
    check(
        "Theorem 4.1 — potential drift holds at every request",
        rep.holds,
        f"worst per-request slack {rep.worst_slack():+.4f} (c = k = 2)",
    )

    # --- Section 4.2: fractional O(log k) + dual certificate --------------
    frac = FractionalMultiLevelSolver(inst).solve(seq).total_z_cost
    lp = sparse_fractional_opt(inst, seq)
    check(
        "Section 4.2 — fractional solver within 4 log k of LP OPT",
        frac <= 4 * math.log(k) * lp + 64.0,
        f"online {frac:.0f} vs LP {lp:.0f} (ratio {frac / lp:.2f}, "
        f"4 log k = {4 * math.log(k):.2f})",
    )
    rep2 = verify_fractional_potential(ml, mseq)
    check(
        "Section 4.2 — its potential drift holds too",
        rep2.holds,
        f"worst slack {rep2.worst_slack():+.4f} (c = {rep2.c:.2f})",
    )
    cert = PrimalDualWeightedPaging(inst).solve(seq)
    check(
        "Primal-dual — the run certifies its own ratio (weak duality)",
        cert.dual_value <= lp + 1e-6,
        f"dual {cert.dual_value:.0f} <= LP {lp:.0f}; certified ratio "
        f"{cert.certified_ratio:.2f} <= 2 ln(1+k) = {2 * math.log(1 + k):.2f}",
    )

    # --- Theorem 1.2 / Section 4.3: randomized O(log^2 k) -----------------
    runs = [
        simulate(inst, seq, RandomizedWeightedPagingPolicy(), seed=s)
        for s in range(3)
    ]
    mean_cost = float(np.mean([r.cost for r in runs]))
    beta = runs[0].extra["beta"]
    check(
        "Theorem 1.2 — rounding loses O(log k) over the fractional cost",
        mean_cost <= 2 * beta * runs[0].extra["fractional_z_cost"],
        f"overhead x{mean_cost / runs[0].extra['fractional_z_cost']:.2f} "
        f"(beta = {beta:.2f})",
    )
    mli = geometric_instance(15, 4, 3)
    mls = multilevel_stream(15, 3, 300, rng=4)
    r = simulate(mli, mls, RandomizedMultiLevelPolicy(), seed=5)
    check(
        "Theorem 1.5 — Algorithm 2 feasible on multi-level instances",
        r.n_requests == 300,
        f"l = 3, every request served, cache never exceeded k = 4",
    )

    # --- Theorem 1.1/1.2 applied: writeback-aware caching -----------------
    wbi = WritebackInstance.uniform(60, 12, dirty_cost=24.0)
    hws = hot_writer_stream(60, 4000, hot_fraction=0.15, hot_write_prob=0.7,
                            rng=6)
    lru_cost = simulate_writeback(wbi, hws, WBLRUPolicy()).cost
    aware = simulate_writeback(wbi, hws, RWAdapterPolicy(WaterFillingPolicy()),
                               seed=7).cost
    check(
        "Writeback-aware beats dirty-oblivious LRU under write pressure",
        aware < lru_cost,
        f"aware {aware:.0f} vs wb-lru {lru_cost:.0f} "
        f"({aware / lru_cost:.2f}x)",
    )

    # --- Section 3 / Theorem 1.3: the lower bound --------------------------
    system, _ = planted_cover_system(12, 6, 3, rng=8)
    elements = [0, 4, 8, 11]
    red = reduce_to_rw_paging(system, elements, w=4.0, repetitions=5)
    run = simulate(red.instance, red.sequence, LRUPolicy(), seed=9,
                   record_events=True)
    cover = extract_cover(red, run.events)
    check(
        "Section 3 — the eviction trace encodes a valid set cover",
        system.is_cover(cover, elements),
        f"committed {len(cover)} sets vs offline "
        f"{len(greedy_cover(system, elements))} (the gap behind "
        "the Omega(log^2 k) hardness)",
    )

    failed = [c for c, ok, _ in CHECKS if not ok]
    print(f"\n{len(CHECKS) - len(failed)}/{len(CHECKS)} claims reproduced.")
    if failed:
        raise SystemExit(1)


if __name__ == "__main__":
    main()
