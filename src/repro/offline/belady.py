"""Belady's MIN: the optimal offline policy for *unweighted* paging.

On each miss with a full cache, evict the cached page whose next request
is furthest in the future.  This is the textbook clairvoyant optimum for
unit weights and single-level requests; for weighted or multi-level
instances it is only a heuristic (the exact DP in
:mod:`repro.offline.dp` covers those).

The implementation precomputes next-use indices in one backward pass, so
the whole run is O(T log k)-ish with a lazy heap.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.core.instance import MultiLevelInstance
from repro.core.requests import RequestSequence
from repro.errors import InvalidInstanceError

__all__ = ["belady_cost", "min_evictions", "next_use_indices"]

_NEVER = np.iinfo(np.int64).max


def next_use_indices(pages: np.ndarray, n_pages: int) -> np.ndarray:
    """``next_use[t]`` = index of the next request for ``pages[t]`` after ``t``.

    ``_NEVER`` (int64 max) marks "never requested again".
    """
    T = pages.size
    next_use = np.full(T, _NEVER, dtype=np.int64)
    last_seen = np.full(n_pages, _NEVER, dtype=np.int64)
    for t in range(T - 1, -1, -1):
        p = pages[t]
        next_use[t] = last_seen[p]
        last_seen[p] = t
    return next_use


def belady_cost(instance: MultiLevelInstance, seq: RequestSequence) -> float:
    """Eviction cost of Belady's MIN on a single-level unit-weight instance.

    Raises :class:`InvalidInstanceError` if the instance is weighted or
    multi-level — MIN is only optimal for the classical setting.
    """
    if instance.n_levels != 1:
        raise InvalidInstanceError("Belady's MIN requires a single-level instance")
    if not np.all(instance.weights == 1.0):
        raise InvalidInstanceError("Belady's MIN requires unit weights")
    instance.validate_sequence(seq.pages, seq.levels)

    pages = seq.pages
    next_use = next_use_indices(pages, instance.n_pages)
    return float(min_evictions(pages, next_use, instance.cache_size))


def min_evictions(pages: np.ndarray, next_use: np.ndarray, k: int) -> int:
    """Evictions of MIN with a size-``k`` cache, given
    :func:`next_use_indices` of ``pages``.

    The misses that evict nothing fill the empty slots, so MIN misses
    ``min_evictions(...) + min(k, #distinct pages)`` times.
    """
    cached: dict[int, int] = {}  # page -> next use at the time it was keyed
    heap: list[tuple[int, int]] = []  # (-next_use, page), lazy entries
    evictions = 0
    for t in range(pages.size):
        p = int(pages[t])
        nu = int(next_use[t])
        if p in cached:
            cached[p] = nu
            heapq.heappush(heap, (-nu, p))
            continue
        if len(cached) >= k:
            while True:
                neg_nu, q = heapq.heappop(heap)
                if q in cached and cached[q] == -neg_nu:
                    break
            del cached[q]
            evictions += 1
        cached[p] = nu
        heapq.heappush(heap, (-nu, p))
    return evictions
