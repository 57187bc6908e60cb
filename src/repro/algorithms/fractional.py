"""The paper's deterministic fractional O(log k)-competitive algorithm.

Section 4.2, in the prefix variables ``u(p, i) = 1 - sum_{j<=i} y(p, j)``
(``y(p, i)`` = cached fraction of copy ``(p, i)``; ``u(p, 0) = 1``):

on request ``(p_t, i_t)``:

1. set ``u(p_t, j) = 0`` for ``j >= i_t`` (serve the request: evict lower
   copies, fetch enough of ``(p_t, i_t)``), leaving ``u(p_t, j)`` for
   ``j < i_t`` unchanged;
2. while the cache is fractionally over-full (``sum_q u(q, l) < n - k``),
   for every page ``q != p_t`` with some cached mass, decrease its lowest
   positive copy ``y(q, i_q)`` at rate ``(u(q, i_q) + eta) / w(q, i_q)``,
   with ``eta = 1/k``.

The continuous dynamics have the closed form
``u(tau) = (u0 + eta) * exp(tau / w) - eta`` for the rising tail of each
page, so this implementation integrates the process *exactly* by
event-driven simulation: between events (a ``y`` hitting zero, i.e. the
tail absorbing the next level up, or the total mass reaching ``n - k``)
every tail follows its exponential, and the stopping time is found by
``scipy.optimize.brentq`` on the monotone total-mass function.

Costs are tracked in both accountings used in the paper:

* ``z_cost`` — the LP objective: each *increase* of ``u(p, i)`` costs
  ``w(p, i)`` per unit (Section 2's linear program);
* ``y_cost`` — weighted movement of the ``y`` variables (evictions),
  including the free-in-LP evictions of lower copies in step 1.

Under the geometric-weights normalization the two agree within a factor 2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from repro.core.instance import MultiLevelInstance
from repro.core.requests import RequestSequence
from repro.errors import InfeasibleError

__all__ = ["FractionalStep", "FractionalTrajectory", "FractionalMultiLevelSolver"]

_TOL = 1e-10


@dataclass(frozen=True)
class FractionalStep:
    """Per-request outcome of the fractional solver.

    ``serve_y_cost`` is the step-1 component of ``y_cost`` (mass of lower
    copies displaced while serving the request) — charged nothing by the
    LP and excluded from the Section 4.2 potential argument (Lemma 4.3);
    ``y_cost - serve_y_cost`` is the step-2 eviction movement the analysis
    bounds.  ``tau`` is the step's total raise, the sum of its event
    rounds' raises: every tail active through the whole step, on the same
    level, moved as ``(a + eta) * exp(tau / w) - eta``.
    """

    z_cost: float
    y_cost: float
    serve_y_cost: float = 0.0
    tau: float = 0.0

    @property
    def evict_y_cost(self) -> float:
        """Step-2 weighted eviction movement (the Lemma 4.4 quantity)."""
        return self.y_cost - self.serve_y_cost


@dataclass(frozen=True)
class FractionalTrajectory:
    """A full fractional run: ``u[t]`` is the state after request ``t``.

    ``u`` has shape ``(T + 1, n, l)``; ``u[0]`` is the initial (empty
    cache) state where every entry is 1.
    """

    u: np.ndarray
    z_costs: np.ndarray
    y_costs: np.ndarray

    @property
    def total_z_cost(self) -> float:
        """Total LP-objective cost of the run."""
        return float(self.z_costs.sum())

    @property
    def total_y_cost(self) -> float:
        """Total weighted y-movement (eviction) cost of the run."""
        return float(self.y_costs.sum())

    def __len__(self) -> int:
        return int(self.z_costs.size)


class FractionalMultiLevelSolver:
    """Online deterministic fractional solver (Section 4.2).

    Parameters
    ----------
    instance:
        The multi-level instance.  The analysis assumes geometric level
        weights; the algorithm itself runs on any valid instance.
    eta:
        The additive term in the eviction rate; defaults to the paper's
        ``1 / k``.
    """

    def __init__(self, instance: MultiLevelInstance, *, eta: float | None = None) -> None:
        if eta is not None and eta <= 0:
            raise ValueError(f"eta must be positive, got {eta}")
        self.instance = instance
        self.eta = float(eta) if eta is not None else 1.0 / instance.cache_size
        self._w = instance.weights  # (n, l)
        # Suffix weight sums: _wsuf[:, i] = sum_{j >= i} w[:, j] (0-based).
        self._wsuf = np.cumsum(self._w[:, ::-1], axis=1)[:, ::-1].copy()
        self.reset()

    def reset(self) -> None:
        """Restart from the empty cache (every ``u = 1``)."""
        n, l = self.instance.n_pages, self.instance.n_levels
        self._u = np.ones((n, l), dtype=np.float64)

    # -- state access --------------------------------------------------------
    @property
    def u(self) -> np.ndarray:
        """A copy of the current ``(n, l)`` prefix state."""
        return self._u.copy()

    def total_mass(self) -> float:
        """Current ``sum_q u(q, l)`` (must be >= n - k when feasible)."""
        return float(self._u[:, -1].sum())

    def check_feasible(self) -> None:
        """Raise :class:`InfeasibleError` if the state violates the LP."""
        n, k = self.instance.n_pages, self.instance.cache_size
        if self.total_mass() < n - k - 1e-6:
            raise InfeasibleError(
                f"total mass {self.total_mass():.6f} < n - k = {n - k}"
            )
        if np.any(self._u < -1e-9) or np.any(self._u > 1 + 1e-9):
            raise InfeasibleError("u out of [0, 1]")
        if np.any(np.diff(self._u, axis=1) > 1e-9):
            raise InfeasibleError("u not non-increasing across levels")

    # -- the online step -------------------------------------------------------
    def step(self, page: int, level: int) -> FractionalStep:
        """Process request ``(page, level)``; returns the step's costs."""
        self.instance.check_copy(page, level)
        n, l, k = self.instance.n_pages, self.instance.n_levels, self.instance.cache_size
        u, eta = self._u, self.eta
        z_cost = 0.0
        y_cost = 0.0
        serve_y_cost = 0.0
        tau_total = 0.0

        # Step 1 — serve: u(p_t, j) = 0 for j >= i_t.  The y-accounting
        # charges the eviction of the lower copies' mass (free in the LP).
        lo = level - 1  # first 0-based column to clear
        if u[page, lo] > _TOL:
            prev_col = u[page, lo:].copy()
            # y(p, j) for j > i_t (0-based columns lo+1..l-1):
            # y = u(p, j-1) - u(p, j).
            if lo + 1 < l:
                y_lower = prev_col[:-1] - prev_col[1:]
                serve_y_cost = float((y_lower * self._w[page, lo + 1:]).sum())
                y_cost += serve_y_cost
            u[page, lo:] = 0.0

        # Step 2 — fractionally evict until the cache constraint holds.
        target_total = float(n - k)
        total = float(u[:, -1].sum())
        while total < target_total - _TOL:
            a = u[:, -1]
            active = a < 1.0 - _TOL
            active[page] = False
            act = np.flatnonzero(active)
            if act.size == 0:  # cannot happen on valid instances (k >= 1)
                raise InfeasibleError("no evictable mass but cache over-full")

            # Active index i_q (1-based): the lowest level with positive y,
            # i.e. one past the last prefix entry strictly above the tail.
            ua = u[act]  # (m, l)
            aa = a[act]  # (m,)
            ext = np.concatenate([np.ones((act.size, 1)), ua[:, :-1]], axis=1)
            gt = ext > (aa[:, None] + _TOL)
            iq0 = (l - 1) - np.argmax(gt[:, ::-1], axis=1)  # 0-based column
            barrier = ext[np.arange(act.size), iq0]
            w_act = self._w[act, iq0]

            # Each tail follows (a0 + eta) * exp(tau / w) - eta until it
            # meets its barrier; the earliest event bounds this round.
            shifted = aa + eta
            tau_barrier = w_act * np.log((barrier + eta) / shifted)
            tau_max = float(tau_barrier.min())
            frozen = total - float(aa.sum())  # mass of inactive pages

            def total_at(tau: float) -> float:
                return frozen + float(
                    (shifted * np.exp(tau / w_act)).sum()
                ) - eta * act.size

            f0 = total_at(0.0)
            f_max = total_at(tau_max)
            if f0 >= target_total - _TOL:
                tau_stop, done = 0.0, True
            elif f_max > target_total:
                # The stopping event strictly precedes every barrier.
                tau_stop = float(
                    brentq(
                        lambda tau: total_at(tau) - target_total,
                        0.0,
                        tau_max,
                        xtol=1e-13,
                        rtol=1e-15,
                    )
                )
                done = True
            elif f_max >= target_total - _TOL:
                # Grazing: the barrier event and the stop coincide.
                tau_stop, done = tau_max, True
            else:
                tau_stop, done = tau_max, False

            tau_total += tau_stop
            a_new = np.minimum(shifted * np.exp(tau_stop / w_act) - eta, barrier)
            delta = a_new - aa
            z_cost += float((delta * self._wsuf[act, iq0]).sum())
            y_cost += float((delta * w_act).sum())

            # Raise the whole flat tail of each active page to its new level.
            cols = np.arange(l)
            mask = cols[None, :] >= iq0[:, None]
            u[act] = np.where(mask, a_new[:, None], ua)
            total = float(u[:, -1].sum())
            if done:
                break

        return FractionalStep(
            z_cost=z_cost, y_cost=y_cost, serve_y_cost=serve_y_cost,
            tau=tau_total,
        )

    # -- batch driver ----------------------------------------------------------
    def solve(self, seq: RequestSequence, *, check: bool = False) -> FractionalTrajectory:
        """Run the solver over a whole sequence, recording every state."""
        self.instance.validate_sequence(seq.pages, seq.levels)
        self.reset()
        T = len(seq)
        n, l = self.instance.n_pages, self.instance.n_levels
        traj = np.empty((T + 1, n, l), dtype=np.float64)
        traj[0] = self._u
        z_costs = np.empty(T, dtype=np.float64)
        y_costs = np.empty(T, dtype=np.float64)
        for t, (p, i) in enumerate(zip(seq.pages.tolist(), seq.levels.tolist())):
            step = self.step(p, i)
            traj[t + 1] = self._u
            z_costs[t] = step.z_cost
            y_costs[t] = step.y_cost
            if check:
                self.check_feasible()
        return FractionalTrajectory(u=traj, z_costs=z_costs, y_costs=y_costs)
