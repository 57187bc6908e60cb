"""Online primal-dual fractional weighted paging, with a dual certificate.

The paper's randomized algorithms build on the primal-dual framework of
Bansal-Buchbinder-Naor (reference [5]; the paper's full version also gives
a primal-dual proof of the deterministic result).  This module implements
the framework explicitly for weighted paging (``l = 1``), because its key
practical payoff is a *certificate*: alongside the fractional primal
solution it maintains a feasible solution to the dual LP whose value
lower-bounds **every** solution's cost — so a run can prove its own
competitive ratio without ever computing OPT.

Primal (covering) LP, per Section 2 with ``l = 1``: ``x_p(t)`` = evicted
fraction, constraints ``sum_p x_p(t) >= n - k`` (the binding member of the
subset family) and ``x <= 1``, cost ``w_p`` per unit increase of ``x_p``.
In interval form, each page's lifetime splits at its requests; variable
``x_{p,j}`` is the evicted fraction during interval ``j``.

Dual: a variable ``y_t >= 0`` per request (the covering row raised at
time ``t``) and ``z_{p,j} >= 0`` per interval (the ``x <= 1`` cap), with

    maximize  sum_t (n - k) y_t  -  sum_{p,j} z_{p,j}
    s.t.      sum_{t in interval j of p} y_t  -  z_{p,j}  <=  w_p * C
                                                    for every (p, j)

where ``C = ln(1 + k * eta') / ...`` — concretely, the multiplicative
update ``x_p = eta * (exp(Y_p / w_p) - 1)`` (``Y_p`` = accumulated raise
during the current interval, ``eta = 1/k``) caps at ``x_p = 1`` exactly
when ``Y_p = w_p ln(1 + k)``, so dividing all duals by ``ln(1 + k)``
restores feasibility.  :meth:`PrimalDualWeightedPaging.dual_value`
returns the scaled (feasible) dual objective; weak duality then gives

    dual_value  <=  fractional OPT  <=  integral OPT,

and the classic analysis bounds ``primal <= 2 ln(1 + k) * dual + O(1)``
— both facts are asserted against the exact LP/DP in the test suite.

The primal *is* the Section 4.2 solver at ``l = 1`` and ``eta = 1/k``
(same ODE ``dx/dY = (x + eta)/w_p``): :class:`PrimalDualWeightedPaging`
runs :class:`~repro.algorithms.fractional.FractionalMultiLevelSolver` and
adds only the dual bookkeeping, once per step, from the step's total raise
``tau`` (:attr:`~repro.algorithms.fractional.FractionalStep.tau`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.algorithms.fractional import FractionalMultiLevelSolver
from repro.core.instance import WeightedPagingInstance
from repro.core.requests import RequestSequence
from repro.errors import InvalidInstanceError

__all__ = ["PrimalDualState", "PrimalDualWeightedPaging"]


@dataclass(frozen=True)
class PrimalDualState:
    """Summary of a primal-dual run."""

    primal_cost: float
    dual_value: float
    n_requests: int

    @property
    def certified_ratio(self) -> float:
        """``primal / dual`` — an *upper bound* on the run's competitive
        ratio that the run proved about itself (no OPT computation)."""
        return self.primal_cost / max(self.dual_value, 1e-12)


class PrimalDualWeightedPaging:
    """Online primal-dual solver for weighted paging.

    On request ``p_t``: reset ``x_{p_t}`` to 0 (new interval; fetching is
    free).  While ``sum_p x_p < n - k``, raise the dual ``y_t``; every
    page ``p != p_t`` with ``x_p < 1`` follows

        x_p(Y_p) = eta * (exp(Y_p / w_p) - 1),      eta = 1 / k,

    i.e. ``dx/dy = (x_p + eta) / w_p``.  A page whose ``x`` reaches 1 is
    fully evicted; further raise accumulated against its interval is
    absorbed by the cap dual ``z`` (it no longer helps the dual).
    """

    def __init__(self, instance: WeightedPagingInstance) -> None:
        if instance.n_levels != 1:
            raise InvalidInstanceError(
                "the primal-dual solver handles weighted paging (l = 1)"
            )
        self.instance = instance
        self.eta = 1.0 / instance.cache_size
        self._cap = instance.weights[:, 0] * math.log(1.0 + instance.cache_size)
        self._solver = FractionalMultiLevelSolver(instance, eta=self.eta)
        self.reset()

    def reset(self) -> None:
        """Restart from the empty cache."""
        n = self.instance.n_pages
        self._solver.reset()
        self._Y = np.zeros(n, dtype=np.float64)  # raise in current interval
        self._requested = np.zeros(n, dtype=bool)
        self._primal = 0.0
        self._raw_dual = 0.0  # sum_t (|S_t| - k + 1) y_t, unscaled
        self._raw_caps = 0.0  # sum z_{p,j}, unscaled
        self._n_requests = 0

    # -- accounting ----------------------------------------------------------
    @property
    def x(self) -> np.ndarray:
        """Current evicted fractions (copy)."""
        return self._solver.u[:, 0]

    @property
    def primal_cost(self) -> float:
        """Weighted eviction movement so far."""
        return self._primal

    def dual_value(self) -> float:
        """The *feasible* dual objective (scaled by ``1 / ln(1 + k)``)."""
        k = self.instance.cache_size
        return (self._raw_dual - self._raw_caps) / math.log(1.0 + k)

    def state(self) -> PrimalDualState:
        """Snapshot of primal cost, dual value and certified ratio."""
        return PrimalDualState(
            primal_cost=self._primal,
            dual_value=self.dual_value(),
            n_requests=self._n_requests,
        )

    # -- the online step -------------------------------------------------------
    def step(self, page: int) -> None:
        """Process a request for ``page``.

        The covering row raised at time ``t`` is the BBN one:
        ``sum_{p in S_t} x_p >= |S_t| - k + 1`` with
        ``S_t =`` pages requested so far except ``p_t`` — valid because
        ``p_t`` itself must occupy a cache slot, leaving ``k - 1`` for the
        rest.  Never-requested pages are constants (trivially evicted) and
        appear in neither the row nor the dual constraints.  The solver's
        row ``sum_q x_q >= n - k`` is the same row plus those constants.
        """
        step = self._solver.step(page, 1)
        self._primal += step.z_cost
        self._n_requests += 1
        self._requested[page] = True
        self._Y[page] = 0.0  # a new interval, fetched for free
        if step.tau <= 0.0:
            return
        s_mask = self._requested.copy()
        s_mask[page] = False
        s_idx = np.flatnonzero(s_mask)
        # Every page of S_t accrues y_t against its current interval's dual
        # constraint — including fully-evicted (capped) pages, whose excess
        # is absorbed by the cap dual z to stay feasible.  z grows by the
        # step's change in max(Y_p - cap_p, 0), i.e. min(max(Y_p - cap_p, 0),
        # tau) with Y_p already raised; the per-round raises telescope.
        tau = step.tau
        Y = self._Y
        Y[s_idx] += tau
        burn = np.minimum(np.maximum(Y[s_idx] - self._cap[s_idx], 0.0), tau)
        self._raw_dual += (s_idx.size - self.instance.cache_size + 1) * tau
        self._raw_caps += float(burn.sum())

    def solve(self, seq: RequestSequence) -> PrimalDualState:
        """Run over a whole sequence; returns the final summary."""
        self.instance.validate_sequence(seq.pages, seq.levels)
        self.reset()
        for p in seq.pages.tolist():
            self.step(p)
        return self.state()
