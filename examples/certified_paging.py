"""A self-certifying online cache.

The online primal-dual framework behind the paper's algorithms has a
practical side-effect: while serving requests it can maintain a feasible
*dual* solution whose value lower-bounds the cost of every possible
strategy — including the clairvoyant optimum.  The run thereby certifies
its own competitive ratio, with no offline computation at all.

This example streams a workload through the primal-dual solver and prints
the running certificate; at the end it cross-checks the certificate
against the true LP optimum (which the online algorithm never saw).

Run:  python examples/certified_paging.py
"""

from __future__ import annotations

import math

from repro.algorithms import PrimalDualWeightedPaging
from repro.analysis import Table
from repro.core.instance import WeightedPagingInstance
from repro.offline import sparse_fractional_opt
from repro.workloads import sample_weights, zipf_stream


def main() -> None:
    n, k = 24, 6
    instance = WeightedPagingInstance(k, sample_weights(n, rng=0, high=32.0))
    stream = zipf_stream(n, 4000, alpha=0.9, rng=1)
    solver = PrimalDualWeightedPaging(instance)

    table = Table(
        ["requests", "primal (our cost)", "dual (certified OPT >=)",
         "certified ratio"],
        title=f"self-certifying run, n={n}, k={k}",
    )
    checkpoints = {500, 1000, 2000, 4000}
    for t, page in enumerate(stream.pages.tolist(), start=1):
        solver.step(page)
        if t in checkpoints:
            s = solver.state()
            table.add_row(t, s.primal_cost, s.dual_value, s.certified_ratio)
    print(table)

    final = solver.state()
    lp = sparse_fractional_opt(instance, stream)
    print(f"theorem bound 2 ln(1 + k) = {2 * math.log(1 + k):.2f}")
    print(f"true LP optimum (computed offline, never shown to the solver): "
          f"{lp:.1f}")
    print(f"certificate validity: dual {final.dual_value:.1f} <= LP {lp:.1f}: "
          f"{final.dual_value <= lp + 1e-6}")
    print(f"certificate tightness: dual / LP = {final.dual_value / lp:.2f}")


if __name__ == "__main__":
    main()
