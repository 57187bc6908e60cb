"""The paper's LP, time-indexed: the reference the sparse LP is pinned to.

:mod:`repro.offline.scale` solves the same LP in interval form, with the
same optimum, and is the one production solver (bounds, CLI, benches).
This dense formulation is kept deliberately simple as the oracle the
tests and E20's mid-size comparison check the sparse LP against.

This is the paper's LP (Section 2) in polynomial size.  The paper writes
the covering family over *all* subsets ``S`` of pages::

    sum_{p in S} u(p, l, t) >= |S| - k        for all S subset [n]

Under the box constraints ``u <= 1`` (valid by Claim 2.2) this family is
equivalent to the single constraint ``sum_p u(p, l, t) >= n - k``: for any
``S``, ``sum_{p in S} u >= sum_p u - (n - |S|) >= (n - k) - (n - |S|)
= |S| - k``.  Conversely ``S = [n]`` is in the family.  So the LP below,
with one covering row per time step, has exactly the paper's optimum.

Variables (per time step ``t = 1..T``, page ``p``, level ``i``):

* ``u(p, i, t) in [0, 1]`` — evicted fraction of the prefix ``(p, 1..i)``;
  ``u(p, i, 0) = 1`` (empty cache); fixed to 0 for ``i >= i_t`` when
  ``p = p_t`` (the request must be served);
* ``z(p, i, t) >= 0`` with ``z >= u(p, i, t) - u(p, i, t-1)`` — the paid
  increase.

Objective: ``min sum w(p, i) * z(p, i, t)``.

The LP optimum lower-bounds the integral optimum in the *z-accounting*.
Relative to the eviction-cost accounting used by the simulator, an
integral eviction of ``(p, i)`` costs ``sum_{j>=i} w(p, j)`` in
z-accounting — at most twice ``w(p, i)`` for geometric weights (at most
``l`` times in general).  :mod:`repro.offline.bounds` applies the correct
divisor when a bound on the eviction-cost optimum is needed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import csr_matrix

from repro.core.instance import MultiLevelInstance
from repro.core.requests import RequestSequence
from repro.errors import SolverError

__all__ = ["OfflineLPResult", "solve_offline_lp"]


@dataclass(frozen=True)
class OfflineLPResult:
    """Solution of the offline fractional LP.

    ``u`` has shape ``(T + 1, n, l)`` with ``u[0] = 1`` (empty cache);
    ``value`` is the optimal z-cost.
    """

    value: float
    u: np.ndarray


def solve_offline_lp(
    instance: MultiLevelInstance, seq: RequestSequence
) -> OfflineLPResult:
    """Solve the offline fractional multi-level paging LP exactly."""
    instance.validate_sequence(seq.pages, seq.levels)
    n, l, k = instance.n_pages, instance.n_levels, instance.cache_size
    T = len(seq)
    if T == 0:
        return OfflineLPResult(0.0, np.ones((1, n, l)))

    nl = n * l
    n_vars = 2 * nl * T  # u block then z block

    def u_idx(t: int, p: int, i0: int) -> int:
        # t is 1-based (1..T), i0 is the 0-based level column.
        return (t - 1) * nl + p * l + i0

    def z_idx(t: int, p: int, i0: int) -> int:
        return nl * T + (t - 1) * nl + p * l + i0

    rows: list[int] = []
    cols: list[int] = []
    vals: list[float] = []
    b_ub: list[float] = []
    row = 0

    pages = seq.pages.tolist()
    levels = seq.levels.tolist()

    for t in range(1, T + 1):
        # Covering: -sum_p u(p, l, t) <= -(n - k).
        for p in range(n):
            rows.append(row)
            cols.append(u_idx(t, p, l - 1))
            vals.append(-1.0)
        b_ub.append(-(n - k))
        row += 1
        # Monotone prefixes: u(p, i, t) - u(p, i-1, t) <= 0.
        for p in range(n):
            for i0 in range(1, l):
                rows.extend([row, row])
                cols.extend([u_idx(t, p, i0), u_idx(t, p, i0 - 1)])
                vals.extend([1.0, -1.0])
                b_ub.append(0.0)
                row += 1
        # Movement: u(p, i, t) - u(p, i, t-1) - z(p, i, t) <= rhs.
        for p in range(n):
            for i0 in range(l):
                if t == 1:
                    rows.extend([row, row])
                    cols.extend([u_idx(t, p, i0), z_idx(t, p, i0)])
                    vals.extend([1.0, -1.0])
                    b_ub.append(1.0)  # u(p, i, 0) = 1
                else:
                    rows.extend([row, row, row])
                    cols.extend(
                        [u_idx(t, p, i0), u_idx(t - 1, p, i0), z_idx(t, p, i0)]
                    )
                    vals.extend([1.0, -1.0, -1.0])
                    b_ub.append(0.0)
                row += 1

    A_ub = csr_matrix((vals, (rows, cols)), shape=(row, n_vars))

    # Bounds: u in [0, 1] (0 where serving forces it), z >= 0.
    ub = np.ones(n_vars)
    lb = np.zeros(n_vars)
    ub[nl * T :] = np.inf
    for t in range(1, T + 1):
        p_t, i_t = pages[t - 1], levels[t - 1]
        for i0 in range(i_t - 1, l):
            ub[u_idx(t, p_t, i0)] = 0.0

    c = np.zeros(n_vars)
    w = instance.weights
    for t in range(1, T + 1):
        base = nl * T + (t - 1) * nl
        c[base : base + nl] = w.reshape(-1)

    res = linprog(
        c,
        A_ub=A_ub,
        b_ub=np.asarray(b_ub),
        bounds=np.stack([lb, ub], axis=1),
        method="highs",
    )
    if not res.success:
        raise SolverError(f"offline LP failed: {res.message}")

    u = np.empty((T + 1, n, l), dtype=np.float64)
    u[0] = 1.0
    u[1:] = res.x[: nl * T].reshape(T, n, l)
    return OfflineLPResult(value=float(res.fun), u=u)
