"""Miss-ratio curves via LRU stack distances (one pass, all cache sizes).

LRU has the *inclusion property*: the cache of size ``k`` is always a
subset of the cache of size ``k + 1``, so a single pass computing each
request's **stack distance** (the number of distinct pages referenced
since the previous reference to the same page) yields the LRU hit count
for *every* cache size at once: a request with stack distance ``d`` hits
iff ``k >= d``.

Stack distances are computed with a Fenwick (binary indexed) tree over
time indices — O(T log T) total, array-based and allocation-free in the
hot loop, which is what makes million-request traces practical in pure
Python + NumPy.

For unweighted paging this gives exact LRU miss counts; Belady's MIN
also has the inclusion property, and :func:`opt_miss_curve` computes its
curve by running :func:`~repro.offline.belady.min_evictions` per size on
one shared next-use precompute.
"""

from __future__ import annotations

import numpy as np

from repro.core.requests import RequestSequence
from repro.offline.belady import min_evictions, next_use_indices

__all__ = ["FenwickTree", "stack_distances", "lru_miss_curve", "opt_miss_curve"]

_INF_DIST = np.iinfo(np.int64).max


class FenwickTree:
    """A Fenwick tree over ``size`` slots supporting point add / prefix sum."""

    __slots__ = ("_tree", "size")

    def __init__(self, size: int) -> None:
        if size < 1:
            raise ValueError(f"size must be >= 1, got {size}")
        self.size = size
        self._tree = np.zeros(size + 1, dtype=np.int64)

    def add(self, index: int, value: int) -> None:
        """Add ``value`` at 0-based ``index``."""
        i = index + 1
        tree = self._tree
        while i <= self.size:
            tree[i] += value
            i += i & (-i)

    def prefix_sum(self, index: int) -> int:
        """Sum of entries at positions ``0..index`` (0-based, inclusive)."""
        i = index + 1
        tree = self._tree
        total = 0
        while i > 0:
            total += tree[i]
            i -= i & (-i)
        return int(total)

    def range_sum(self, lo: int, hi: int) -> int:
        """Sum over ``[lo, hi]`` inclusive."""
        if lo > hi:
            return 0
        upper = self.prefix_sum(hi)
        return upper - (self.prefix_sum(lo - 1) if lo > 0 else 0)


def stack_distances(pages: np.ndarray) -> np.ndarray:
    """LRU stack distance of every request (int64; INT64_MAX = cold miss).

    ``distance[t]`` = number of *distinct* pages referenced strictly
    between the previous reference to ``pages[t]`` and time ``t``.  A
    request with ``distance[t] < k`` is an LRU hit at cache size ``k``
    (the referenced page itself is not counted).
    """
    pages = np.asarray(pages, dtype=np.int64)
    T = pages.size
    out = np.empty(T, dtype=np.int64)
    if T == 0:
        return out
    tree = FenwickTree(T)
    last_pos: dict[int, int] = {}
    for t in range(T):
        p = int(pages[t])
        prev = last_pos.get(p)
        if prev is None:
            out[t] = _INF_DIST
        else:
            # Distinct pages in (prev, t): each contributes its *latest*
            # occurrence marker, which the tree maintains.
            out[t] = tree.range_sum(prev + 1, t - 1)
            tree.add(prev, -1)
        tree.add(t, 1)
        last_pos[p] = t
    return out


def lru_miss_curve(seq: RequestSequence, max_k: int) -> np.ndarray:
    """LRU miss counts for every cache size ``1..max_k`` in one pass.

    Returns an ``(max_k,)`` int64 array: entry ``k-1`` is the number of
    LRU misses with a size-``k`` cache, exact for unweighted single-level
    paging.
    """
    if max_k < 1:
        raise ValueError(f"max_k must be >= 1, got {max_k}")
    dist = stack_distances(seq.pages)
    finite = dist[dist < _INF_DIST]
    # Hits at size k = #requests with stack distance < k; cold misses
    # (first references) have infinite distance and always miss.
    hist = np.bincount(np.minimum(finite, max_k), minlength=max_k + 1)
    hits_at_k = np.cumsum(hist[:max_k])
    return dist.size - hits_at_k


def opt_miss_curve(seq: RequestSequence, max_k: int) -> np.ndarray:
    """Belady MIN miss counts for cache sizes ``1..max_k``.

    MIN is simulated per size (sharing one next-use precompute); exact
    for unweighted single-level paging.  O(max_k * T log k).
    """
    if max_k < 1:
        raise ValueError(f"max_k must be >= 1, got {max_k}")
    pages = seq.pages
    n = int(pages.max()) + 1 if pages.size else 1
    next_use = next_use_indices(pages, n)
    distinct = int(np.unique(pages).size)
    return np.array([min_evictions(pages, next_use, k) + min(k, distinct)
                     for k in range(1, max_k + 1)], dtype=np.int64)
