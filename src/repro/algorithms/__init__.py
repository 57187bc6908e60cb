"""Online algorithms: the paper's, plus classical baselines.

========================  =====================================================
Policy                    What it is
========================  =====================================================
``waterfilling-kernel``   Section 4.1 deterministic O(k), columnar numpy
                          batch kernel (``waterfilling-heap`` is an alias)
``waterfilling``          same algorithm, O(k)-scan reference oracle
``randomized-weighted``   Algorithm 1 + fractional solver (weighted paging)
``randomized-multilevel`` Algorithm 2 + fractional solver (Theorem 1.2/1.5)
``lru`` / ``fifo`` /
``random`` / ``marking``
/ ``randomized-marking``  classical weight-oblivious baselines
``landlord-kernel``       k-competitive weighted baseline, columnar numpy
                          batch kernel (``landlord`` is an alias of it)
``landlord-ref``          same algorithm, O(k)-scan reference oracle
``wb-lru``                dirty-oblivious LRU on a writeback cache
``wb-landlord``           dirty-aware Landlord heuristic
``rw[<inner>]``           any multi-level policy lifted to writeback caching
                          via the Lemma 2.1 reduction
========================  =====================================================
"""

from repro.algorithms.base import (
    Policy,
    WritebackPolicy,
    policy_registry,
    register_policy,
)
from repro.algorithms.classical import (
    FIFOPolicy,
    LRUPolicy,
    MarkingPolicy,
    RandomEvictionPolicy,
    RandomizedMarkingPolicy,
)
from repro.algorithms.frequency import ClockPolicy, GDSFPolicy, LFUPolicy
from repro.algorithms.fractional import (
    FractionalMultiLevelSolver,
    FractionalStep,
    FractionalTrajectory,
)
from repro.algorithms.kernels import (
    KernelLandlordPolicy,
    KernelWaterFillingPolicy,
)
from repro.algorithms.landlord import LandlordRefPolicy
from repro.algorithms.primal_dual import (
    PrimalDualState,
    PrimalDualWeightedPaging,
)
from repro.algorithms.quantize import default_delta, movement_cost, quantize_state
from repro.algorithms.rounding import (
    RandomizedMultiLevelPolicy,
    RandomizedWeightedPagingPolicy,
    default_beta,
)
from repro.algorithms.sources import (
    FractionalSource,
    SolverSource,
    TrajectorySource,
    lazify_trajectory,
)
from repro.algorithms.waterfilling import WaterFillingPolicy
from repro.algorithms.writeback_adapters import (
    RWAdapterPolicy,
    WBLandlordPolicy,
    WBLRUPolicy,
)

__all__ = [
    "Policy",
    "WritebackPolicy",
    "policy_registry",
    "register_policy",
    "LRUPolicy",
    "FIFOPolicy",
    "RandomEvictionPolicy",
    "MarkingPolicy",
    "RandomizedMarkingPolicy",
    "LandlordRefPolicy",
    "KernelLandlordPolicy",
    "KernelWaterFillingPolicy",
    "LFUPolicy",
    "ClockPolicy",
    "GDSFPolicy",
    "WaterFillingPolicy",
    "FractionalMultiLevelSolver",
    "FractionalStep",
    "FractionalTrajectory",
    "PrimalDualState",
    "PrimalDualWeightedPaging",
    "default_delta",
    "movement_cost",
    "quantize_state",
    "default_beta",
    "RandomizedWeightedPagingPolicy",
    "RandomizedMultiLevelPolicy",
    "FractionalSource",
    "SolverSource",
    "TrajectorySource",
    "lazify_trajectory",
    "RWAdapterPolicy",
    "WBLRUPolicy",
    "WBLandlordPolicy",
]
