"""The paper's deterministic O(k)-competitive water-filling algorithm.

Section 4.1: every cached copy ``(q, i_q)`` carries a water level
``f(q, i_q) in [0, w(q, i_q)]``, reset to 0 on fetch.  On a request
``(p_t, i_t)``:

1. if some cached ``(p_t, j)`` with ``j <= i_t`` serves it — do nothing;
2. otherwise fetch ``(p_t, i_t)`` with ``f = 0``;
   (a) if a lower copy ``(p_t, j)``, ``j > i_t``, is cached, evict it
   (an in-place upgrade — the cache size is unchanged);
   (b) otherwise, if the cache is full, raise the water level of every
   cached copy at rate 1 until some ``f(q, i_q)`` reaches ``w(q, i_q)``
   and evict that copy.

Theorem 4.1 proves 2k-competitiveness under the geometric-weights
normalization (4k in general).

:class:`WaterFillingPolicy` is the direct transcription, O(cache size)
work per miss: the scan oracle.  The production implementation is the
columnar kernel :class:`~repro.algorithms.kernels.KernelWaterFillingPolicy`
(``waterfilling-kernel``; ``waterfilling-heap`` is an alias of it).  Both
key each copy on the cumulative raise at which it drowns and break ties
by insertion sequence number, so their behavior is *exactly* equal — a
property the test suite checks request-by-request.
"""

from __future__ import annotations

from repro.algorithms.base import Policy, register_policy

__all__ = ["WaterFillingPolicy"]


@register_policy
class WaterFillingPolicy(Policy):
    """Reference water-filling (Section 4.1), O(cache size) per miss."""

    name = "waterfilling"

    def bind(self, instance, cache, rng) -> None:
        super().bind(instance, cache, rng)
        # Water is raised uniformly across the whole cache, so we track the
        # cumulative raise ("offset") once and, per copy, the offset value
        # at which it drowns: death(q) = w(q, i_q) + offset_at_insert(q)
        # (equivalently f(q) = offset - offset_at_insert(q); the copy dies
        # when f reaches its weight).  Storing death keys instead of f
        # avoids accumulating per-page floating-point drift and makes this
        # reference bit-identical to the kernel.
        self._offset = 0.0
        self._death: dict[int, float] = {}
        self._seq: dict[int, int] = {}
        self._counter = 0

    def _insert(self, page: int, level: int) -> None:
        self._death[page] = self.instance.weight(page, level) + self._offset
        self._seq[page] = self._counter
        self._counter += 1

    def serve(self, t: int, page: int, level: int) -> None:
        cache = self.cache
        current = cache.level_of(page)
        if current is not None and current <= level:
            return  # step 1: already satisfied
        if current is not None:
            # step 2a: upgrade in place, resetting the water level.
            cache.replace(page, level, reason="upgrade")
            self._insert(page, level)
            return
        # step 2b: make room if needed, raising water levels uniformly
        # until the copy with the smallest remaining headroom drowns.
        while cache.is_full:
            tracer = self.tracer
            if tracer is not None and tracer.sampled:
                # Candidate set with remaining headroom f-distance-to-death;
                # only materialized for sampled requests, so the untraced
                # path pays a single attribute load per eviction round.
                tracer.candidates(t, [
                    (q, lv, self._death[q] - self._offset)
                    for q, lv in cache.items()
                ])
            victim = min(
                cache.pages(), key=lambda q: (self._death[q], self._seq[q])
            )
            self._offset = self._death[victim]
            cache.evict(victim, reason="waterfill")
            del self._death[victim]
            del self._seq[victim]
        cache.fetch(page, level)
        self._insert(page, level)
