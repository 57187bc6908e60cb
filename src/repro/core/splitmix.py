"""The splitmix64 finalizer, vectorized over uint64 arrays.

Shard routing (:class:`repro.service.router.ShardRouter`) and decision
sampling (:meth:`repro.obs.DecisionTracer.sample_offsets`) hash with the
same function; it lives here so that neither package imports the other.
"""

from __future__ import annotations

import numpy as np

__all__ = ["splitmix64"]

_MASK = np.uint64(0xFFFFFFFFFFFFFFFF)


def splitmix64(values: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finalizer over a uint64 array."""
    z = (values + np.uint64(0x9E3779B97F4A7C15)) & _MASK
    z = ((z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)) & _MASK
    z = ((z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)) & _MASK
    return z ^ (z >> np.uint64(31))
