"""Writeback-aware policies, native and via the Lemma 2.1 reduction.

:class:`RWAdapterPolicy` turns *any* multi-level policy into a
writeback-aware policy: it runs the wrapped policy on the RW-paging image
of the instance (write copy = dirty cost, read copy = clean cost; writes
request level 1, reads level 2) and mirrors the RW cache's *page set* onto
the writeback cache.  By Lemma 2.1 the induced writeback solution never
costs more than the RW solution, so competitive guarantees transfer.

Native baselines:

* :class:`WBLRUPolicy` — dirty-oblivious LRU (what a conventional buffer
  pool does);
* :class:`WBLandlordPolicy` — Landlord run on the *current* eviction cost
  (``w1`` when dirty, ``w2`` when clean), a natural dirty-aware heuristic.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.algorithms.base import Policy, WritebackPolicy, register_policy
from repro.core.cache import MultiLevelCache
from repro.core.ledger import CostLedger
from repro.core.reductions import READ_LEVEL, WRITE_LEVEL, writeback_to_rw_instance

__all__ = ["RWAdapterPolicy", "WBLRUPolicy", "WBLandlordPolicy"]


class RWAdapterPolicy(WritebackPolicy):
    """Run a multi-level policy on the RW image; mirror pages writeback-side.

    Parameters
    ----------
    inner:
        Any multi-level :class:`~repro.algorithms.base.Policy`.  It sees an
        RW-paging instance (``l = 2``) and its own private cache; this
        adapter keeps the writeback cache's page set identical to the RW
        cache's page set after every request.

    The writeback-side cost (the returned metric) is at most the inner RW
    cost — Lemma 2.1's solution map S -> S'.  The inner RW cost is exposed
    through :meth:`extras` as ``rw_cost``.
    """

    def __init__(self, inner: Policy) -> None:
        super().__init__()
        self.inner = inner
        self.name = f"rw[{inner.name}]"

    def bind(self, instance, cache, rng) -> None:
        super().bind(instance, cache, rng)
        self._rw_instance = writeback_to_rw_instance(instance)
        self._rw_ledger = CostLedger()
        self._rw_cache = MultiLevelCache(self._rw_instance, self._rw_ledger)
        self.inner.bind(self._rw_instance, self._rw_cache, rng)

    def serve(self, t: int, page: int, is_write: bool) -> None:
        level = WRITE_LEVEL if is_write else READ_LEVEL
        self._rw_ledger.set_time(t)
        self.inner.serve(t, page, level)
        # Mirror the RW page set onto the writeback cache.  Evict first so
        # capacity is available for the newly fetched pages.
        for p in list(self.cache.pages()):
            if p not in self._rw_cache:
                self.cache.evict(p, reason="mirror")
        for p in self._rw_cache.pages():
            if p not in self.cache:
                self.cache.fetch(p)

    def extras(self) -> dict[str, float]:
        extra = {f"inner_{k}": v for k, v in self.inner.extras().items()}
        extra["rw_cost"] = self._rw_ledger.eviction_cost
        return extra


@register_policy
class WBLRUPolicy(WritebackPolicy):
    """Dirty-oblivious LRU on a writeback cache."""

    name = "wb-lru"

    def bind(self, instance, cache, rng) -> None:
        super().bind(instance, cache, rng)
        self._recency: OrderedDict[int, None] = OrderedDict()

    def serve(self, t: int, page: int, is_write: bool) -> None:
        cache = self.cache
        if page in cache:
            self._recency.pop(page, None)
            self._recency[page] = None
            return
        while cache.is_full:
            victim = next(iter(self._recency))
            cache.evict(victim, reason="capacity")
            del self._recency[victim]
        cache.fetch(page)
        self._recency[page] = None


@register_policy
class WBLandlordPolicy(WritebackPolicy):
    """Landlord with dirtiness-aware credit refresh.

    A cached page's credit is refreshed to its *current* eviction cost —
    ``w1`` once dirty, ``w2`` while clean — so dirty pages are stickier,
    mimicking what the paper's algorithms achieve in a principled way.
    """

    name = "wb-landlord"

    def bind(self, instance, cache, rng) -> None:
        super().bind(instance, cache, rng)
        self._credit: dict[int, float] = {}

    def _current_cost(self, page: int) -> float:
        return self.instance.eviction_cost(page, self.cache.is_dirty(page))

    def serve(self, t: int, page: int, is_write: bool) -> None:
        cache = self.cache
        if page in cache:
            if is_write and not cache.is_dirty(page):
                # The page is about to become dirty: refresh to w1.
                self._credit[page] = float(self.instance.dirty_weights[page])
            else:
                self._credit[page] = max(
                    self._credit.get(page, 0.0), self._current_cost(page)
                )
            return
        while cache.is_full:
            delta = min(self._credit[q] for q in cache.pages())
            victim = None
            for q in cache.pages():
                self._credit[q] -= delta
                if victim is None and self._credit[q] <= 1e-12:
                    victim = q
            cache.evict(victim, reason="capacity")
            self._credit.pop(victim, None)
        cache.fetch(page)
        self._credit[page] = (
            float(self.instance.dirty_weights[page])
            if is_write
            else float(self.instance.clean_weights[page])
        )
