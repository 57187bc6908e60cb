"""Deterministic hash routing of pages to shards.

Routing must be (a) stable across processes and Python versions — so no
builtin ``hash`` — and (b) uncorrelated with page ids, since workload
generators hand out ids in frequency order (page 0 is the hottest Zipf
page) and a naive ``page % n_shards`` would alias hot pages onto one
shard for power-of-two shard counts.  We use the splitmix64 finalizer,
vectorized over uint64 page arrays, and reduce modulo the shard count.

Every copy of a page lives on exactly one shard, so the one-copy-per-page
invariant is preserved globally, and per-shard request order equals the
arrival order of that shard's pages — which is what makes sharded runs
bit-reproducible regardless of worker-thread scheduling.
"""

from __future__ import annotations

import numpy as np

from repro.core.splitmix import splitmix64
from repro.errors import ServiceConfigError

__all__ = ["ShardRouter", "splitmix64"]


class ShardRouter:
    """Stable ``page -> shard`` assignment plus order-preserving batch splits."""

    __slots__ = ("n_shards", "_salt")

    def __init__(self, n_shards: int, *, salt: int = 0) -> None:
        if n_shards < 1:
            raise ServiceConfigError(f"n_shards must be >= 1, got {n_shards}")
        self.n_shards = int(n_shards)
        self._salt = np.uint64(salt)

    def shard_of(self, page: int) -> int:
        """The shard that owns ``page``."""
        mixed = splitmix64(np.asarray([page], dtype=np.uint64) ^ self._salt)
        return int(mixed[0] % np.uint64(self.n_shards))

    def shards_of(self, pages: np.ndarray) -> np.ndarray:
        """Vectorized shard assignment for an int page array."""
        mixed = splitmix64(pages.astype(np.uint64) ^ self._salt)
        return (mixed % np.uint64(self.n_shards)).astype(np.int64)

    def split(
        self, pages: np.ndarray, levels: np.ndarray
    ) -> list[tuple[np.ndarray, np.ndarray]]:
        """Partition a batch by owning shard, preserving arrival order.

        Returns one ``(pages, levels)`` pair per shard; empty shards get
        empty arrays.  With one shard the input arrays are passed through
        unsplit (so the single-shard service adds no routing overhead).
        """
        pages = np.ascontiguousarray(pages, dtype=np.int64)
        levels = np.ascontiguousarray(levels, dtype=np.int64)
        if self.n_shards == 1:
            return [(pages, levels)]
        owners = self.shards_of(pages)
        return [
            (pages[owners == s], levels[owners == s])
            for s in range(self.n_shards)
        ]

    def page_partition(self, n_pages: int) -> list[np.ndarray]:
        """All page ids owned by each shard (diagnostics / balance checks)."""
        owners = self.shards_of(np.arange(n_pages, dtype=np.int64))
        return [np.flatnonzero(owners == s) for s in range(self.n_shards)]

    def __repr__(self) -> str:
        return f"ShardRouter(n_shards={self.n_shards})"
