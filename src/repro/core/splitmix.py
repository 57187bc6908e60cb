"""The splitmix64 finalizer and the ``(seed, t)`` sampling rule built on it.

Shard routing (:class:`repro.service.router.ShardRouter`) hashes pages
with :func:`splitmix64`; decision tracing
(:class:`repro.obs.DecisionTracer`) and request tracing
(:class:`repro.obs.rtrace.RequestSampler`) sample logical times through
:class:`SeedSampler`.  They live here so that neither package imports
the other.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["splitmix64", "mix64", "SeedSampler"]

_MASK = np.uint64(0xFFFFFFFFFFFFFFFF)
_MASK64 = 0xFFFFFFFFFFFFFFFF


def splitmix64(values: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finalizer over a uint64 array."""
    z = (values + np.uint64(0x9E3779B97F4A7C15)) & _MASK
    z = ((z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)) & _MASK
    z = ((z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)) & _MASK
    return z ^ (z >> np.uint64(31))


def mix64(z: int) -> int:
    """Scalar splitmix64 finalizer of a Python int, reduced mod 2**64."""
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


class SeedSampler:
    """The deterministic sampling decision for logical times ``t``.

    ``t`` is sampled iff ``mix64((seed << 1 | 1) ^ t) < ceil(sample *
    2**64)``: a pure function of ``(seed, t)``, so two same-seed runs
    sample the same requests however they are threaded.  The hashed
    value doubles as the request-trace id.
    """

    __slots__ = ("seed", "sample", "_threshold")

    def __init__(self, seed: int = 0, sample: float = 1.0) -> None:
        if not 0.0 <= sample <= 1.0:
            raise ValueError(f"sample must be in [0, 1], got {sample}")
        self.seed = int(seed)
        self.sample = float(sample)
        self._threshold = math.ceil(self.sample * 2.0 ** 64)

    def trace_id(self, t: int) -> int:
        """The hash of ``(seed, t)`` that :meth:`want` compares."""
        return mix64((self.seed << 1 | 1) ^ t)

    def want(self, t: int) -> bool:
        """True when logical time ``t`` is sampled."""
        threshold = self._threshold
        if threshold <= 0:
            return False
        return mix64((self.seed << 1 | 1) ^ t) < threshold

    def sample_offsets(self, t0: int, n: int) -> np.ndarray:
        """The offsets ``i`` in ``[0, n)`` with ``want(t0 + i)``, ascending.

        :meth:`want` over a whole batch at once, bit for bit: the seed is
        reduced mod 2**64 exactly as the scalar mix reduces it.
        """
        if self._threshold <= 0:
            return np.arange(0)
        key = np.uint64((self.seed << 1 | 1) & _MASK64)
        mixed = splitmix64(np.arange(t0, t0 + n, dtype=np.uint64) ^ key)
        # threshold - 1 fits in 64 bits even at sample == 1.0 (2**64).
        return np.flatnonzero(mixed <= np.uint64(self._threshold - 1))
