"""E20 — OPT bounds at scale: sparse interval LP + threshold rounding.

ROADMAP item 4 made concrete: every benchmark row should be a measured
``cost / OPT-bound`` — which needs a *scalable* offline bound.  The
sparse multi-level interval LP (:mod:`repro.offline.scale`) has ``O(T l)``
variables against the dense time-indexed LP's ``2 n l T``, and the
threshold-rounding sweep turns its fractional solution into a feasible
integral schedule, sandwiching OPT from both sides.

Asserted shape claims (all enforced on every machine):

* **Sandwich** — on every DP-feasible pinned instance (weighted ``l=1``,
  geometric ``l=2``, random ``l=3``), the chain
  ``dp/divisor <= LP/divisor <= dp <= cheapest rounded cost`` holds:
  the LP bound is certified and within the divisor of exact, and every
  rounded schedule really is a schedule.
* **Equality + speedup** — on a mid-size instance where both solve, the
  sparse optimum equals the dense time-indexed optimum to 1e-4 and the
  sparse solve is at least ``MIDSIZE_SPEEDUP_FLOOR``x faster (measured
  ~21x; a same-machine ratio, so no parallelism is assumed).
* **Scale** — the sparse LP solves a 100_000-request E10-shaped stream
  (n=400, k=64, Zipf 0.9) outright, where the dense formulation would
  need 80M variables (``DENSE_VAR_BUDGET`` caps what it may even
  attempt, so it is infeasible there — recorded, not timed); the
  rounding sweep then yields a two-sided sandwich and a Landlord run on
  the same stream becomes a measured competitive ratio >= 1.
"""

from __future__ import annotations

import platform
from time import perf_counter

import scipy

from repro.algorithms import policy_registry
from repro.analysis import Table, competitive_ratio
from repro.core.instance import WeightedPagingInstance
from repro.offline import (
    lp_divisor,
    offline_opt_multilevel,
    solve_offline_lp,
    solve_sparse_lp,
    threshold_round,
)
from repro.sim import simulate
from repro.workloads import (
    geometric_instance,
    multilevel_stream,
    random_multilevel_instance,
    sample_weights,
    zipf_stream,
)

from _util import emit, once, usable_cores

TOL = 1e-6
#: The dense LP may only be attempted below this variable count; the
#: scale instance sits ~16x above it, i.e. the dense path is infeasible
#: exactly where the sparse one is needed.
DENSE_VAR_BUDGET = 5_000_000
MIDSIZE_SPEEDUP_FLOOR = 2.0
SCALE_REQUESTS = 100_000
SCALE_N_PAGES, SCALE_K, SCALE_ALPHA = 400, 64, 0.9  # the E10/E18 shape


def _sandwich_cases():
    """DP-feasible pinned instances spanning l = 1, 2, 3."""
    cases = []
    for seed in range(3):
        inst = WeightedPagingInstance(2, [4.0, 2.0, 1.0, 3.0, 5.0, 2.0])
        cases.append((f"weighted l=1 seed {seed}", inst,
                      zipf_stream(6, 60, rng=seed)))
    for seed in range(3):
        cases.append((f"geometric l=2 seed {seed}", geometric_instance(5, 2, 2),
                      multilevel_stream(5, 2, 40, rng=seed)))
    for seed in range(2):
        cases.append((f"random l=3 seed {seed}",
                      random_multilevel_instance(5, 2, 3, rng=seed),
                      multilevel_stream(5, 3, 40, rng=seed + 10)))
    return cases


def run_experiment() -> tuple[Table, dict]:
    table = Table(
        ["case", "requests", "LP value", "lower bound", "exact DP",
         "rounded cost", "width"],
        title="E20: OPT sandwich — sparse interval LP lower bound vs "
              "threshold-rounded upper bound",
    )
    # The timings below are this machine's: record where they ran.
    extra: dict = {"usable_cores": usable_cores(),
                   "python_version": platform.python_version(),
                   "scipy_version": scipy.__version__}

    # -- 1. sandwich gate on DP-feasible instances ------------------------
    sandwich_ok = 0
    cases = _sandwich_cases()
    for name, inst, seq in cases:
        dp = offline_opt_multilevel(inst, seq)
        solution = solve_sparse_lp(inst, seq)
        rounded = threshold_round(solution)
        divisor = lp_divisor(inst)
        lower = solution.value / divisor
        chain = (dp / divisor <= lower + TOL
                 and lower <= dp + TOL
                 and dp <= rounded.cost + TOL
                 and all(s.cost >= dp - TOL for s in rounded.schedules))
        sandwich_ok += chain
        table.add_row(name, len(seq), solution.value, lower, dp,
                      rounded.cost, rounded.cost / max(lower, 1e-12))
        assert chain, (
            f"{name}: sandwich violated — lp={solution.value} "
            f"divisor={divisor} dp={dp} rounded={rounded.cost}"
        )
    extra["sandwich_cases"] = len(cases)
    extra["sandwich_cases_ok"] = sandwich_ok
    extra["sandwich_gate_enforced"] = True

    # -- 2. sparse == dense where both solve, and much faster -------------
    inst = WeightedPagingInstance(6, sample_weights(24, rng=3, high=16.0))
    seq = zipf_stream(24, 800, alpha=0.9, rng=4)
    started = perf_counter()
    dense_value = solve_offline_lp(inst, seq).value
    dense_s = perf_counter() - started
    started = perf_counter()
    sparse = solve_sparse_lp(inst, seq)
    sparse_s = perf_counter() - started
    speedup = dense_s / max(sparse_s, 1e-9)
    table.add_row("midsize dense-vs-sparse", len(seq), sparse.value,
                  sparse.value, "-", "-",
                  f"{speedup:.1f}x faster")
    extra.update({
        "midsize_lp_equal": abs(sparse.value - dense_value) < 1e-4,
        "midsize_dense_s": dense_s,
        "midsize_sparse_s": sparse_s,
        "midsize_speedup": speedup,
        "midsize_speedup_floor": MIDSIZE_SPEEDUP_FLOOR,
        "lp_equality_gate_enforced": True,
    })

    # -- 3. the scale gate: 100k requests, dense infeasible ---------------
    inst = WeightedPagingInstance(
        SCALE_K, sample_weights(SCALE_N_PAGES, rng=0, high=64.0))
    seq = zipf_stream(SCALE_N_PAGES, SCALE_REQUESTS, alpha=SCALE_ALPHA, rng=1)
    dense_vars = 2 * SCALE_N_PAGES * inst.n_levels * SCALE_REQUESTS
    started = perf_counter()
    solution = solve_sparse_lp(inst, seq)
    solve_s = perf_counter() - started
    started = perf_counter()
    rounded = threshold_round(solution)
    round_s = perf_counter() - started
    divisor = lp_divisor(inst)
    lower, upper = solution.value / divisor, rounded.cost
    landlord_cost = simulate(inst, seq, policy_registry["landlord-kernel"](),
                             seed=0, validate=False).cost
    landlord_ratio = competitive_ratio(landlord_cost, lower)
    table.add_row(f"scale n={SCALE_N_PAGES} k={SCALE_K}", len(seq),
                  solution.value, lower, "-", upper, upper / lower)
    table.add_row("scale landlord", len(seq), "-", "-", "-",
                  landlord_cost, landlord_ratio)
    extra.update({
        "scale_requests": SCALE_REQUESTS,
        "scale_n_variables": solution.n_variables,
        "scale_dense_variables": dense_vars,
        "scale_dense_var_budget": DENSE_VAR_BUDGET,
        "scale_dense_infeasible": dense_vars > DENSE_VAR_BUDGET,
        "scale_solve_s": solve_s,
        "scale_round_s": round_s,
        "scale_lp_value": solution.value,
        "scale_lower_bound": lower,
        "scale_rounded_upper": upper,
        "scale_sandwich_width": upper / max(lower, 1e-12),
        "scale_best_threshold": rounded.best.threshold,
        "scale_landlord_cost": landlord_cost,
        "scale_landlord_ratio": landlord_ratio,
        "scale_gate_enforced": True,
    })
    return table, extra


def test_e20_opt_bounds(benchmark):
    table, extra = once(benchmark, run_experiment)
    emit(table, "e20_opt_bounds", extra=extra)
    # Sandwich gate: every DP-feasible case held the full chain.
    assert extra["sandwich_cases_ok"] == extra["sandwich_cases"]
    # Equality + speedup gate: same optimum, sparse build wins big.
    assert extra["midsize_lp_equal"]
    assert extra["midsize_speedup"] >= MIDSIZE_SPEEDUP_FLOOR, (
        f"sparse LP only {extra['midsize_speedup']:.1f}x the dense build "
        f"(floor {MIDSIZE_SPEEDUP_FLOOR}x)"
    )
    # Scale gate: the 100k-request E10 shape solved, sandwich is sane,
    # and the dense formulation is out of budget by an order of magnitude.
    assert extra["scale_dense_infeasible"], (
        "dense LP fits the scale instance — tighten the scale gate: "
        f"{extra['scale_dense_variables']} vars vs budget "
        f"{extra['scale_dense_var_budget']}"
    )
    assert extra["scale_lower_bound"] > 0
    assert extra["scale_lower_bound"] <= extra["scale_rounded_upper"] + TOL
    # l = 1: online cost >= OPT >= LP bound, so the measured ratio is a
    # genuine competitive ratio and can never dip below 1.
    assert 1.0 - TOL <= extra["scale_landlord_ratio"] < float("inf")


if __name__ == "__main__":
    _t, _x = run_experiment()
    emit(_t, "e20_opt_bounds", extra=_x)
