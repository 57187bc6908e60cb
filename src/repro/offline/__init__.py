"""Offline optima: the sparse LP (and its dense reference), exact DP,
Belady, bound selection."""

from repro.offline.belady import belady_cost, next_use_indices
from repro.offline.bounds import OptBound, best_opt_bound, lp_divisor
from repro.offline.dp import (
    DEFAULT_MAX_STATES,
    enumerate_states,
    offline_opt_multilevel,
    offline_opt_writeback,
)
from repro.offline.dp import offline_opt_multilevel_trace
from repro.offline.lp import OfflineLPResult, solve_offline_lp
from repro.offline.scale import (
    DEFAULT_THRESHOLDS,
    OptSandwich,
    RoundedSchedule,
    SparseLPResult,
    ThresholdRoundingResult,
    opt_sandwich,
    round_at,
    solve_sparse_lp,
    sparse_fractional_opt,
    threshold_round,
)

__all__ = [
    "belady_cost",
    "next_use_indices",
    "OptBound",
    "best_opt_bound",
    "lp_divisor",
    "DEFAULT_MAX_STATES",
    "enumerate_states",
    "offline_opt_multilevel",
    "offline_opt_writeback",
    "OfflineLPResult",
    "solve_offline_lp",
    "offline_opt_multilevel_trace",
    "DEFAULT_THRESHOLDS",
    "OptSandwich",
    "RoundedSchedule",
    "SparseLPResult",
    "ThresholdRoundingResult",
    "opt_sandwich",
    "round_at",
    "solve_sparse_lp",
    "sparse_fractional_opt",
    "threshold_round",
]
