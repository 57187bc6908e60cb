"""The Section 3 lower bound, end to end.

Demonstrates how writeback-aware caching *encodes* online set cover:

1. build a set system with a planted optimal cover,
2. reduce it to an RW-paging request stream (the paper's Section 3
   construction: init writes, repeated rho(e) blocks, probes, terminate),
3. run online paging policies on the stream,
4. read the set cover each policy committed to straight out of its
   eviction trace (Lemma 3.3's soundness direction),
5. compare to the offline bound of Lemma 3.2.

Because online set cover is Omega(log m log n)-hard (Feige-Korman), no
polynomial-time online paging policy can beat O(log^2 k) here — the
separation of Theorem 1.3.

Run:  python examples/lower_bound_demo.py
"""

from __future__ import annotations

import numpy as np

from repro.algorithms import KernelLandlordPolicy, LRUPolicy, WaterFillingPolicy
from repro.analysis import Table
from repro.setcover import (
    completeness_bound,
    extract_cover,
    greedy_cover,
    lp_cover_value,
    planted_cover_system,
    reduce_to_rw_paging,
)
from repro.sim import simulate


def main() -> None:
    # A universe of 24 elements, 10 sets, planted optimal cover of 4.
    system, planted = planted_cover_system(24, 10, 4, rng=0)
    elements = [int(e) for e in np.random.default_rng(1).integers(0, 24, size=8)]
    offline = greedy_cover(system, elements)
    print(f"set system: {system}; planted cover size {len(planted)}")
    print(f"requested elements: {elements}")
    print(f"offline greedy cover: {sorted(offline)} "
          f"(LP bound {lp_cover_value(system, elements):.2f})\n")

    # The reduction: cache size = m, write copies cost w, reads cost 1.
    reduction = reduce_to_rw_paging(system, elements, w=8.0, repetitions=10)
    print(
        f"RW-paging image: {reduction.instance.n_pages} pages, "
        f"k={reduction.instance.cache_size}, "
        f"{len(reduction.sequence)} requests, w={reduction.w:g}, "
        f"{reduction.repetitions} repetitions per rho(e)\n"
    )

    bound = completeness_bound(reduction, len(offline))
    table = Table(
        ["policy", "paging cost", "cost / Lemma3.2 bound",
         "cover committed", "valid cover"],
        title="online policies on the set-cover image",
    )
    for policy in [LRUPolicy(), KernelLandlordPolicy(), WaterFillingPolicy()]:
        result = simulate(reduction.instance, reduction.sequence, policy,
                          seed=0, record_events=True)
        cover = extract_cover(reduction, result.events)
        table.add_row(
            policy.name,
            result.cost,
            result.cost / bound,
            len(cover),
            system.is_cover(cover, elements),
        )
    print(table)
    print(
        "Every low-cost run is forced to commit to a valid set cover\n"
        "(Lemma 3.3); the committed covers are larger than the offline\n"
        "optimum — the gap that makes o(log^2 k) impossible in polynomial\n"
        "time (Theorem 1.3)."
    )


if __name__ == "__main__":
    main()
