"""Offline OPT bounds at scale: sparse interval LP + threshold rounding.

The dense time-indexed LP (:mod:`repro.offline.lp`) has ``2 n l T``
variables — hopeless at the stream lengths the E-series benches run at.
This module builds the *interval* formulation for general multi-level
instances; at ``l = 1`` it is the Bansal–Buchbinder–Naor interval LP for
weighted paging, whose variables are a page's inter-request intervals:

* Row ``i0`` of page ``p`` (the dense LP's ``u(p, i0, t)`` timeline)
  resets to 0 exactly at requests ``(p, i_t)`` with ``i_t <= i0 + 1``.
  Between consecutive resets an optimal ``u`` may be taken constant at
  its maximum (``z`` charges total increase >= the maximum, and raising
  ``u`` pointwise to that maximum only helps the covering rows), so one
  variable ``x(p, i0, s) in [0, 1]`` per *segment* suffices and the
  sparse optimum equals the dense LP optimum — asserted over random
  instances in the test suite.  The segment before a row's first reset
  starts at 1 (empty cache) and stays there for free: no variable.

* The covering row at time ``t`` sums the deepest-row value of every
  page over ~``n`` terms; materialised directly that is ``O(n T)``
  nonzeros.  Instead an auxiliary *running-sum* variable ``Z_t`` tracks
  ``sum_q x(q, l-1, open segment at t)`` through 4-nonzero equality
  rows (only the requested page's deep segment changes per step), so
  every covering row is 2 nonzeros and the whole matrix is ``O(T l)``.

* Prefix rows ``u(p, i0) <= u(p, i0 - 1)``: row ``i0 - 1`` resets on a
  subset of row ``i0``'s reset times, so the shallower open segment is
  constant across each deeper segment — one 2-nonzero row per opened
  segment (skipped while the shallower row is still pre-first-reset,
  where the constraint is ``<= 1``, vacuous).

:func:`solve_sparse_lp` runs HiGHS dual simplex with devex pricing at
every size: on these chain-structured LPs it beat both default pricing
and interior point from 5k to 100k requests.

:func:`threshold_round` turns the fractional solution into an integral
schedule by one replay of the stream: on a miss with a full cache it
evicts the cached page with the largest open deep-segment LP value
(furthest next use, then highest page, as tie-breaks), taking victims
off a lazy heap.  The sweep's thresholds only label that schedule (see
:func:`round_at` for why no threshold picks another victim).  The
schedule is feasible by construction and charged with the DP's
eviction-cost convention, so its cost is a true upper bound on OPT —
together with ``LP / lp_divisor`` the pair *sandwiches* the integral
optimum.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from heapq import heappop, heappush

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import csr_matrix

from repro.core.instance import MultiLevelInstance
from repro.core.requests import RequestSequence
from repro.errors import SolverError
from repro.offline.belady import next_use_indices

__all__ = [
    "DEFAULT_THRESHOLDS",
    "SparseLPResult",
    "RoundedSchedule",
    "ThresholdRoundingResult",
    "OptSandwich",
    "solve_sparse_lp",
    "sparse_fractional_opt",
    "round_at",
    "threshold_round",
    "opt_sandwich",
]

#: The rounding sweep's thresholds, 0.1 .. 0.9 (all round to one schedule).
DEFAULT_THRESHOLDS = tuple(round(0.1 * i, 1) for i in range(1, 10))


@dataclass(frozen=True)
class SparseLPResult:
    """Solution of the sparse multi-level interval LP.

    ``x`` maps ``(page, level_row, segment)`` to the evicted fraction of
    the prefix ``(page, levels 1..level_row+1)`` during that segment;
    segment ``s >= 1`` opens at the row's ``s``-th reset (segment 0 —
    before the first request touching the row — is identically 1 and
    carries no variable).  For ``l = 1`` the deep row's segments are the
    classic inter-request intervals.
    """

    value: float
    x: dict[tuple[int, int, int], float]
    n_variables: int
    n_constraints: int
    instance: MultiLevelInstance = field(repr=False)
    seq: RequestSequence = field(repr=False)

    def trajectory(self) -> np.ndarray:
        """The solution as a dense-LP trajectory ``u`` of shape ``(T+1, n, l)``.

        Replays the stream from ``u[0] = 1``: request ``t`` zeroes the
        requested page's rows ``i_t - 1 .. l - 1`` (serving it), the state
        is recorded as ``u[t + 1]``, and those rows then take the values of
        the segments the request opened, held until their next reset.  The
        result is feasible for the dense LP (:mod:`repro.offline.lp`) and
        its z-cost equals ``value``.  Memory is ``O(T n l)``.
        """
        n, l = self.instance.n_pages, self.instance.n_levels
        u = np.empty((len(self.seq) + 1, n, l), dtype=np.float64)
        state = np.ones((n, l), dtype=np.float64)
        u[0] = state
        seg = [[0] * l for _ in range(n)]  # open segment of each row
        for t, (p, lev) in enumerate(zip(self.seq.pages.tolist(),
                                         self.seq.levels.tolist())):
            state[p, lev - 1:] = 0.0
            u[t + 1] = state
            for i0 in range(lev - 1, l):
                seg[p][i0] += 1
                state[p, i0] = self.x[(p, i0, seg[p][i0])]
        return u


@dataclass(frozen=True)
class RoundedSchedule:
    """One feasible integral schedule from the threshold sweep."""

    threshold: float
    cost: float
    n_evictions: int


@dataclass(frozen=True)
class ThresholdRoundingResult:
    """The sweep's schedules and the cheapest one (a true OPT upper bound)."""

    best: RoundedSchedule
    schedules: tuple[RoundedSchedule, ...]

    @property
    def cost(self) -> float:
        return self.best.cost


@dataclass(frozen=True)
class OptSandwich:
    """``lower <= OPT <= upper`` from one fractional solve + rounding sweep."""

    lower: float
    upper: float
    lp_value: float
    divisor: float
    threshold: float  # the winning rounding threshold

    @property
    def width(self) -> float:
        """Multiplicative gap ``upper / lower`` (inf on a zero lower bound)."""
        if self.lower <= 0.0:
            return float("inf") if self.upper > 0.0 else 1.0
        return self.upper / self.lower


def solve_sparse_lp(
    instance: MultiLevelInstance, seq: RequestSequence
) -> SparseLPResult:
    """Solve the sparse interval LP (HiGHS); optimum equals the dense LP's.

    Scales to streams of hundreds of thousands of requests: ``O(T l)``
    variables, constraints, and nonzeros.  The solver is HiGHS dual
    simplex with devex pricing at every size.
    """
    instance.validate_sequence(seq.pages, seq.levels)
    n, l, k = instance.n_pages, instance.n_levels, instance.cache_size
    T = len(seq)
    pages = seq.pages.tolist()
    req_levels = seq.levels.tolist()
    w = instance.weights
    deep = l - 1

    # Columns 0..T-1 are the running sums Z_t; segment variables follow.
    seg: dict[tuple[int, int], int] = {}  # (page, row) -> open segment
    var_index: dict[tuple[int, int, int], int] = {}
    seg_costs: list[float] = []

    ub_rows: list[int] = []
    ub_cols: list[int] = []
    ub_vals: list[float] = []
    b_ub: list[float] = []
    eq_rows: list[int] = []
    eq_cols: list[int] = []
    eq_vals: list[float] = []
    n_ub = 0
    n_eq = 0
    n_distinct = 0  # |D(t)|: pages requested strictly before t

    for t in range(T):
        p, lev = pages[t], req_levels[t]
        cur_deep = seg.get((p, deep), 0)
        in_d = cur_deep >= 1  # p itself requested before?
        # Covering row at t (2 nonzeros), only when it can bind:
        #   Z_t - [p's own open deep segment] >= |D(t) + p| - k.
        rhs = n_distinct - k if in_d else n_distinct + 1 - k
        if rhs > 0:
            ub_rows.append(n_ub)
            ub_cols.append(t)
            ub_vals.append(-1.0)
            if in_d:
                ub_rows.append(n_ub)
                ub_cols.append(var_index[(p, deep, cur_deep)])
                ub_vals.append(1.0)
            b_ub.append(-float(rhs))
            n_ub += 1
        # The request resets rows lev-1 .. l-1 of page p, opening new
        # segments (shallowest first so prefix rows see fresh partners).
        for i0 in range(lev - 1, l):
            s_new = seg.get((p, i0), 0) + 1
            seg[(p, i0)] = s_new
            col = T + len(seg_costs)
            var_index[(p, i0, s_new)] = col
            seg_costs.append(float(w[p, i0]))
            if i0 >= 1:
                s_sh = seg.get((p, i0 - 1), 0)
                if s_sh >= 1:  # pre-first-reset shallow segment == 1: vacuous
                    eq_like = var_index[(p, i0 - 1, s_sh)]
                    ub_rows.extend((n_ub, n_ub))
                    ub_cols.extend((col, eq_like))
                    ub_vals.extend((1.0, -1.0))
                    b_ub.append(0.0)
                    n_ub += 1
        # Running-sum chain: Z_{t+1} = Z_t - old deep segment + new one.
        if t + 1 < T:
            new_deep = var_index[(p, deep, seg[(p, deep)])]
            cols = [t + 1, t, new_deep]
            vals = [1.0, -1.0, -1.0]
            if in_d:
                cols.append(var_index[(p, deep, cur_deep)])
                vals.append(1.0)
            eq_rows.extend([n_eq] * len(cols))
            eq_cols.extend(cols)
            eq_vals.extend(vals)
            n_eq += 1
        if not in_d:
            n_distinct += 1

    n_vars = T + len(seg_costs)
    n_constraints = n_ub + n_eq
    if T == 0 or n_ub == 0 or not b_ub:
        # Cache never overflows: the all-zero solution is optimal.
        x = {key: 0.0 for key in var_index}
        return SparseLPResult(0.0, x, n_vars, n_constraints, instance, seq)

    c = np.concatenate([np.zeros(T), np.asarray(seg_costs)])
    bounds = np.empty((n_vars, 2))
    bounds[:T] = (0.0, float(n))
    bounds[0] = (0.0, 0.0)  # Z_0: nothing requested yet
    bounds[T:] = (0.0, 1.0)
    a_ub = csr_matrix((ub_vals, (ub_rows, ub_cols)), shape=(n_ub, n_vars))
    a_eq = None
    b_eq = None
    if n_eq:
        a_eq = csr_matrix((eq_vals, (eq_rows, eq_cols)), shape=(n_eq, n_vars))
        b_eq = np.zeros(n_eq)
    res = linprog(
        c,
        A_ub=a_ub,
        b_ub=np.asarray(b_ub),
        A_eq=a_eq,
        b_eq=b_eq,
        bounds=bounds,
        method="highs-ds",
        options={"simplex_dual_edge_weight_strategy": "devex"},
    )
    if not res.success:
        raise SolverError(
            f"sparse interval LP failed on {instance.name}: {res.message}"
        )
    x = {key: float(res.x[idx]) for key, idx in var_index.items()}
    return SparseLPResult(
        value=float(res.fun),
        x=x,
        n_variables=n_vars,
        n_constraints=n_constraints,
        instance=instance,
        seq=seq,
    )


def sparse_fractional_opt(
    instance: MultiLevelInstance, seq: RequestSequence
) -> float:
    """Value of the sparse interval LP (== the fractional offline optimum)."""
    return solve_sparse_lp(instance, seq).value


def round_at(solution: SparseLPResult, threshold: float) -> RoundedSchedule:
    """Round at one threshold: replay the stream with LP-guided evictions.

    The threshold rule evicts, on a miss with a full cache, the maximum
    of a *pool* under the key ``(x_q, next_use_q, q)``, where ``x_q`` is
    the LP value of cached page ``q``'s open deep segment.  The pool is
    the cached pages with ``x_q >= threshold``, or the whole cache when
    none clears it (the feasibility repair).  Whenever some page clears
    the threshold, the cache's maximum under that key has the largest
    ``x`` of all, so it is in the pool and is the pool's maximum.  So
    every threshold evicts the cache's maximum, and ``threshold`` only
    labels the schedule.

    A page's key changes only when the page is requested, so the
    replay keeps one lazy max-heap entry per request, stamped with its
    request index; an entry whose page was requested again, or left the
    cache, since is stale and is dropped when it reaches the top.  Cost
    follows the DP convention — a copy pays its (old) level's weight
    when its level changes or it leaves — so the result is the cost of a
    genuine feasible schedule: an upper bound on OPT.
    """
    inst, seq = solution.instance, solution.seq
    k = inst.cache_size
    deep = inst.n_levels - 1
    w = inst.weights
    x = solution.x
    next_use = next_use_indices(seq.pages, inst.n_pages).tolist()

    cache: dict[int, int] = {}  # page -> held level (1-based)
    stamp: dict[int, int] = {}  # cached page -> its last request
    seg_deep: dict[int, int] = {}  # page -> open deep segment
    heap: list[tuple[float, int, int, int]] = []  # (-x, -next use, -page, t)
    cost = 0.0
    n_evictions = 0

    for t, (p, lev) in enumerate(zip(seq.pages.tolist(),
                                     seq.levels.tolist())):
        held = cache.get(p)
        if held is None or held > lev:
            if held is not None:
                # Level change: the old copy pays its weight (DP rule).
                cost += float(w[p, held - 1])
                n_evictions += 1
            elif len(cache) >= k:
                while True:
                    _, _, neg_q, at = heappop(heap)
                    if stamp.get(-neg_q) == at:
                        break
                victim = -neg_q
                cost += float(w[victim, cache[victim] - 1])
                n_evictions += 1
                del cache[victim], stamp[victim]
            cache[p] = lev
        seg = seg_deep.get(p, 0) + 1
        seg_deep[p] = seg
        stamp[p] = t
        heappush(heap, (-x.get((p, deep, seg), 0.0), -next_use[t], -p, t))
    return RoundedSchedule(threshold=float(threshold), cost=cost,
                           n_evictions=n_evictions)


def threshold_round(
    solution: SparseLPResult,
    thresholds: tuple[float, ...] = DEFAULT_THRESHOLDS,
) -> ThresholdRoundingResult:
    """The rounding sweep: one schedule per threshold, and the cheapest.

    Every threshold evicts the same victims (see :func:`round_at`), so
    the stream is replayed once and each threshold labels that schedule;
    ``best`` is the first.  The schedule is feasible, so ``result.cost``
    upper-bounds OPT.
    """
    if not thresholds:
        raise ValueError("need at least one rounding threshold")
    first = round_at(solution, thresholds[0])
    schedules = tuple(replace(first, threshold=float(th)) for th in thresholds)
    return ThresholdRoundingResult(best=schedules[0], schedules=schedules)


def opt_sandwich(
    instance: MultiLevelInstance,
    seq: RequestSequence,
    *,
    thresholds: tuple[float, ...] = DEFAULT_THRESHOLDS,
) -> OptSandwich:
    """Certified two-sided bound: ``lp/divisor <= OPT <= best rounded cost``."""
    from repro.offline.bounds import lp_divisor

    solution = solve_sparse_lp(instance, seq)
    divisor = lp_divisor(instance)
    rounded = threshold_round(solution, thresholds)
    return OptSandwich(
        lower=solution.value / divisor,
        upper=rounded.cost,
        lp_value=solution.value,
        divisor=divisor,
        threshold=rounded.best.threshold,
    )
