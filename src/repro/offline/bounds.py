"""Choosing the strongest available lower bound on the offline optimum.

Competitive ratios are measured against a *lower bound* on OPT so that the
reported ratio is an upper bound on the true one.  Two bounds are
available, tried in order under ``prefer="auto"``:

* the exact DP (:mod:`repro.offline.dp`) — equals OPT, but only feasible
  for small state spaces;
* the sparse interval LP (:mod:`repro.offline.scale`) — the paper's LP,
  scaling to streams of hundreds of thousands of requests.

The dense time-indexed LP (:mod:`repro.offline.lp`) has the same optimum
and is kept only as the reference the sparse LP is tested against.  The
LP's z-accounting over-charges integral solutions of multi-level
instances by up to a factor 2 (geometric weights) or ``l`` (general), so
the bound on the eviction-cost OPT is ``LP / divisor``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.instance import MultiLevelInstance
from repro.core.requests import RequestSequence
from repro.errors import SolverError, StateSpaceTooLargeError
from repro.offline.dp import DEFAULT_MAX_STATES, offline_opt_multilevel

__all__ = ["OptBound", "lp_divisor", "best_opt_bound"]

_PREFERENCES = ("auto", "dp", "sparse-lp")


@dataclass(frozen=True)
class OptBound:
    """A lower bound on the integral offline optimum (eviction cost).

    ``lp_value`` carries the raw (undivided) LP optimum when an LP
    produced the bound; ``upper`` carries a rounded feasible schedule's
    cost when the caller asked for the full sandwich — together
    ``value <= OPT <= upper``.
    """

    value: float
    method: str  # "dp" (exact) or "sparse-lp"
    lp_value: float | None = None
    upper: float | None = None

    @property
    def exact(self) -> bool:
        """True when the bound equals OPT."""
        return self.method == "dp"


def lp_divisor(instance: MultiLevelInstance) -> float:
    """Factor by which the LP's z-cost may exceed integral eviction cost."""
    if instance.n_levels == 1:
        return 1.0
    if instance.has_geometric_levels():
        return 2.0
    return float(instance.n_levels)


def best_opt_bound(
    instance: MultiLevelInstance,
    seq: RequestSequence,
    *,
    max_states: int = DEFAULT_MAX_STATES,
    prefer: str = "auto",
    with_upper: bool = False,
) -> OptBound:
    """Best available lower bound on the eviction-cost OPT of ``seq``.

    ``prefer`` may be ``"auto"`` (exact DP when the state space fits,
    else the sparse interval LP), ``"dp"`` (raise if infeasible) or
    ``"sparse-lp"``.

    Only :class:`~repro.errors.StateSpaceTooLargeError` triggers the
    DP -> LP fallback: any other failure (invalid sequence, solver
    breakdown) propagates — retrying a different method would mask a
    real defect.  LP solver failures are re-raised as
    :class:`~repro.errors.SolverError` naming the instance.

    With ``with_upper=True`` an LP-produced bound also threshold-rounds
    the fractional solution (:func:`repro.offline.scale.threshold_round`)
    and records the cheapest feasible integral cost in ``upper``; a DP
    bound sets ``upper`` to its own (exact) value.
    """
    from repro.offline.scale import solve_sparse_lp, threshold_round

    if prefer not in _PREFERENCES:
        raise ValueError(f"unknown preference {prefer!r}")
    if prefer in ("auto", "dp"):
        try:
            value = offline_opt_multilevel(instance, seq, max_states=max_states)
            return OptBound(value=value, method="dp",
                            upper=value if with_upper else None)
        except StateSpaceTooLargeError:
            if prefer == "dp":
                raise
    try:
        solution = solve_sparse_lp(instance, seq)
    except SolverError as exc:
        raise SolverError(
            f"sparse interval LP failed on instance {instance.name!r}: {exc}"
        ) from exc
    divisor = lp_divisor(instance)
    upper = threshold_round(solution).cost if with_upper else None
    return OptBound(value=solution.value / divisor, method="sparse-lp",
                    lp_value=solution.value, upper=upper)
