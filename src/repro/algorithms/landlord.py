"""Landlord / greedy-dual: the classical k-competitive weighted baseline.

Landlord (Young; equivalently greedy-dual for unit sizes) maintains a
credit for each cached page, initialized to the page's weight.  On a miss
with a full cache it lowers all credits by the minimum credit and evicts a
zero-credit page; on a hit it restores the page's credit.  It is
k-competitive for weighted paging and is the natural open-source comparator
for the paper's algorithms (it is *not* writeback- or level-aware beyond
using the weight of the currently cached copy).

The uniform credit decrement is the same structure as water-filling's
uniform raise, so both Landlord implementations use the global-offset trick
from :mod:`repro.algorithms.waterfilling`: instead of mutating every
credit per eviction round (O(k) float subtractions whose accumulated
drift used to require a ``credit <= 1e-12`` epsilon compare to find the
victim), each page stores the *death key* ``credit_at_set + offset`` —
the cumulative decrement at which its credit hits zero.  Victims are the
exact minimum ``(death, seq)``; no epsilon, no drift, and the choice is
bit-identical across platforms.

This module holds the deliberately simple oracle,
:class:`LandlordRefPolicy` (``landlord-ref``): a direct O(cache
size)-per-eviction scan.  The production Landlord is the columnar
:class:`~repro.algorithms.kernels.KernelLandlordPolicy`
(``landlord-kernel``, also registered as ``landlord``), which uses the
identical deterministic tie-break (credit-set sequence number), so the
two are *exactly* equal — a property the test suite checks request by
request.
"""

from __future__ import annotations

from repro.algorithms.base import Policy, register_policy

__all__ = ["LandlordRefPolicy"]


@register_policy
class LandlordRefPolicy(Policy):
    """Reference Landlord: O(cache size) victim scan, exact arithmetic."""

    name = "landlord-ref"

    def bind(self, instance, cache, rng) -> None:
        super().bind(instance, cache, rng)
        # Cumulative credit decrement applied (conceptually) to every
        # cached page; a page whose credit was set to w when the offset
        # was L dies when the offset reaches w + L.
        self._offset = 0.0
        self._death: dict[int, float] = {}
        self._seq: dict[int, int] = {}
        self._counter = 0

    def _set_credit(self, page: int, level: int) -> None:
        self._death[page] = self.instance.weight(page, level) + self._offset
        self._seq[page] = self._counter
        self._counter += 1

    def serve(self, t: int, page: int, level: int) -> None:
        cache = self.cache
        current = cache.level_of(page)
        if current is not None:
            if current <= level:
                # Hit: restore credit to the cached copy's full weight.
                self._set_credit(page, current)
            else:
                cache.replace(page, level, reason="upgrade")
                self._set_credit(page, level)
            return
        while cache.is_full:
            victim = min(
                cache.pages(), key=lambda q: (self._death[q], self._seq[q])
            )
            self._offset = self._death[victim]
            cache.evict(victim, reason="capacity")
            del self._death[victim]
            del self._seq[victim]
        cache.fetch(page, level)
        self._set_credit(page, level)
