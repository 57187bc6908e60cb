"""Columnar (structure-of-arrays) batch kernels for the death-key policies.

``landlord-kernel`` is the one production Landlord and
``waterfilling-kernel`` the one production water-filling (the registry
names ``landlord`` and ``waterfilling-heap`` are aliases of them).

Both water-filling and Landlord reduce, via the global-offset trick, to
the same eviction core: every cached copy carries a *death key*
``weight_at_set + offset_at_set`` and the victim is the exact minimum of
``(death, seq)``.  This module stores the policy state in preallocated
per-slot columns instead of per-page dicts:

========================  ====================================================
Column                    Meaning
========================  ====================================================
``_death   list[k]``      death key per cache slot (meaningless when free)
``_seqc    list[k]``      key-set sequence number per slot (tie-break)
``_heap``                 lazy binary heap of ``(death, seq, slot)`` entries,
                          exactly one per cached slot
``_slot_level_np i64[k]`` cached level per slot (0 for free slots)
``_page_slot_np  i64[n]`` page -> slot index (-1 when not cached)
========================  ====================================================

:meth:`serve_batch` (the override of :meth:`Policy.serve_batch`) serves a
whole micro-batch:

1. one vectorized pass classifies every request against the numpy
   index columns (``slot = page_slot[pages]; hit = cached &
   (level_of_slot <= level)``),
2. water-filling skips the leading run of pure hits outright (its hits
   are free; Landlord's credit restores run through the loop below),
3. the rest runs a lean scalar loop that *trusts* the batch
   classification for any page not yet touched by a miss/upgrade in
   this batch (a "dirty" set), and re-derives state only for dirty
   pages.  Evictions are collected and settled with the ledger once per
   batch (:meth:`~repro.core.ledger.CostLedger.charge_evictions`).

There is no second path: the per-request :meth:`serve` (validation,
sampled decision traces) is that loop run on a batch of one.

Keys only grow: a cached slot's ``(death, seq)`` changes on a Landlord
hit, an upgrade or a re-insert, and each adds a non-negative weight
(rows are non-increasing, so an upgrade never lowers it) to an offset
that never decreases (it only ever moves up to the minimal key), with a
fresh ``seq``.  So hits and upgrades just overwrite the slot's columns
and leave its heap entry stale — never larger than the live key.  To
evict, a stale top is refreshed in place (``heapreplace``) until the top
entry matches its slot; that slot is then the exact ``(death, seq)``
minimum, and the incoming copy takes over its slot and heap entry.  The
heap therefore never grows past ``k`` entries and needs no compaction.

Exactness: the kernels perform the *same* double-precision additions in
the same order as the scalar policies (``weights[p, l-1] + offset`` on
the same read-only array), pick victims by the same exact ``(death,
seq)`` minimum, and charge the ledger with identical reasons in
identical order — so costs, eviction event streams, and final cache
contents are ``==``-equal to the scan oracles ``landlord-ref`` and
``waterfilling``.  The test suite pins this
request-by-request (hypothesis suite in
``tests/algorithms/test_kernel_equivalence.py``).

The kernels write ``cache._contents`` directly (one dict store per
mutation) instead of going through :meth:`MultiLevelCache.fetch` /
``evict`` / ``replace``: the cache dict stays authoritative and in sync
after every request — invariant checks and ``serves()`` still work —
but the per-call validation layers are skipped on the hot path.  Run
with ``validate=True`` (per-request serving + invariant checks) when
auditing.

Checkpointing: the policies pickle their columns and heap and rebuild
the derived python-list mirrors and weight list in ``__setstate__``,
so supervisor restore, process workers, and cluster migration
round-trip them exactly like the scalar policies.
"""

from __future__ import annotations

from heapq import heappush, heapreplace

import numpy as np

from repro.algorithms.base import Policy, policy_registry, register_policy
from repro.errors import CacheInvariantError

__all__ = ["KernelLandlordPolicy", "KernelWaterFillingPolicy"]


class _ColumnarPolicy(Policy):
    """Shared SoA state + batch dispatch for the death-key policy family.

    Subclasses provide the eviction reason and the hit behavior
    (Landlord restores credit, water-filling does nothing).
    """

    #: Ledger reason charged on capacity evictions.
    _evict_reason = "capacity"

    #: Whether a hit rewrites the copy's death key (Landlord restores
    #: credit; water-filling hits are free).
    _hit_restores = False

    def bind(self, instance, cache, rng) -> None:
        super().bind(instance, cache, rng)
        n, k = instance.n_pages, instance.cache_size
        self._n = n
        self._k = k
        self._L = instance.n_levels
        self._offset = 0.0
        self._counter = 0
        self._ncached = 0
        self._death = [0.0] * k
        self._seqc = [0] * k
        self._heap: list[tuple[float, int, int]] = []
        # Index columns; the batch classification reads them vectorized.
        self._page_slot_np = np.full(n, -1, dtype=np.int64)
        self._slot_level_np = np.zeros(k, dtype=np.int64)
        self._free = list(range(k - 1, -1, -1))
        self._slot_page = [-1] * k
        self._rebuild_derived()

    def _rebuild_derived(self) -> None:
        """(Re)derive the hot-loop mirrors from the pickled/bound state.

        Python-list mirrors of the index columns exist because scalar
        reads from a list are ~2x faster than numpy scalar indexing —
        the batch path still reads the numpy columns vectorized.
        """
        self._wlist = self.instance.weights.ravel().tolist()
        self._page_slot = self._page_slot_np.tolist()
        self._slot_level = self._slot_level_np.tolist()
        self._contents = self.cache._contents
        self._ledger = self.cache.ledger

    def rebind_instance(self) -> None:
        """Re-derive the weight list from the re-pointed (equal) ``instance``."""
        self._wlist = self.instance.weights.ravel().tolist()

    # -- pickling ----------------------------------------------------------
    def __getstate__(self) -> dict:
        state = super().__getstate__()
        # Derived mirrors are rebuilt on unpickle; dropping them keeps
        # checkpoints small and avoids pickling the cache dict twice.
        for name in ("_wlist", "_page_slot", "_slot_level",
                     "_contents", "_ledger"):
            state.pop(name, None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        if state.get("instance") is not None and "_page_slot_np" in state:
            self._rebuild_derived()

    # -- batch loop --------------------------------------------------------
    def _serve_rest(self, i0, pages_l, levels_l, hit_l, slot_l, level_l) -> int:
        """Scalar loop over ``[i0, n)`` trusting the batch classification.

        One fused loop with every piece of state hoisted into locals: a
        page not yet touched by a miss/upgrade in this batch (the
        ``dirty`` set) keeps its classification-pass verdict, slot, and
        cached level; anything else re-derives from the live columns.
        This is the kernel's only serving code — :meth:`serve` runs it on
        a batch of one with no trusted hits.  Evictions and fetches are
        settled with the ledger once, at the end of the batch.
        """
        death = self._death
        seqc = self._seqc
        heap = self._heap
        wlist = self._wlist
        L = self._L
        page_slot = self._page_slot
        slot_page = self._slot_page
        slot_level = self._slot_level
        page_slot_np = self._page_slot_np
        slot_level_np = self._slot_level_np
        contents = self._contents
        free = self._free
        k = self._k
        restores = self._hit_restores
        reason = self._evict_reason
        offset = self._offset
        counter = self._counter
        ncached = self._ncached
        evictions: list[tuple[int, int, float, str]] = []
        charge = evictions.append
        fetched = 0
        dirty: set[int] = set()
        dirty_add = dirty.add
        hits = 0
        try:
            for i in range(i0, len(pages_l)):
                page = pages_l[i]
                if hit_l[i] and page not in dirty:
                    # Trusted hit: slot and cached level come from the
                    # classification pass.
                    hits += 1
                    if restores:
                        slot = slot_l[i]
                        death[slot] = (
                            wlist[page * L + level_l[i] - 1] + offset
                        )
                        seqc[slot] = counter
                        counter += 1
                    continue
                level = levels_l[i]
                slot = page_slot[page]
                if slot >= 0:
                    current = slot_level[slot]
                    if current <= level:
                        hits += 1
                        if restores:
                            death[slot] = (
                                wlist[page * L + current - 1] + offset
                            )
                            seqc[slot] = counter
                            counter += 1
                        continue
                    # In-place level upgrade: charge the old copy.
                    charge((page, current,
                            wlist[page * L + current - 1], "upgrade"))
                    contents[page] = level
                    fetched += 1
                    slot_level[slot] = level
                    slot_level_np[slot] = level
                    death[slot] = wlist[page * L + level - 1] + offset
                    seqc[slot] = counter
                    counter += 1
                    dirty_add(page)
                    continue
                # Miss: evict the (death, seq)-minimal copy if full; the
                # new copy then takes over the victim's slot and entry.
                if ncached >= k:
                    try:
                        key, seq, slot = heap[0]
                    except IndexError:
                        raise CacheInvariantError(
                            f"policy {self.name!r}: eviction heap exhausted "
                            f"while the cache holds {len(contents)}/{k} "
                            "copies — kernel state is corrupt (e.g. a bad "
                            "restore)") from None
                    while seqc[slot] != seq:
                        heapreplace(heap, (death[slot], seqc[slot], slot))
                        key, seq, slot = heap[0]
                    offset = key
                    vpage = slot_page[slot]
                    vlevel = slot_level[slot]
                    del contents[vpage]
                    charge((vpage, vlevel,
                            wlist[vpage * L + vlevel - 1], reason))
                    page_slot[vpage] = -1
                    page_slot_np[vpage] = -1
                    dirty_add(vpage)
                    push = heapreplace
                else:
                    slot = free.pop()
                    ncached += 1
                    push = heappush
                key = wlist[page * L + level - 1] + offset
                push(heap, (key, counter, slot))
                contents[page] = level
                fetched += 1
                page_slot[page] = slot
                page_slot_np[page] = slot
                slot_page[slot] = page
                slot_level[slot] = level
                slot_level_np[slot] = level
                death[slot] = key
                seqc[slot] = counter
                counter += 1
                dirty_add(page)
        finally:
            self._offset = offset
            self._counter = counter
            self._ncached = ncached
            ledger = self._ledger
            ledger.count_fetch(fetched)
            if evictions:
                ledger.charge_evictions(evictions)
        return hits

    def serve(self, t: int, page: int, level: int) -> None:
        """Serve one request: the fused batch loop on a batch of one."""
        self._serve_rest(0, (page,), (level,), (False,), None, None)

    # -- batch entry point -------------------------------------------------
    def serve_batch(self, t0: int, pages: np.ndarray, levels: np.ndarray) -> int:
        """Serve a whole micro-batch; returns the number of hits.

        Requests are served in order with semantics identical to calling
        :meth:`serve` per request; ``t0`` is the logical time of the
        first request (kept for protocol symmetry — the death-key
        policies are clock-free).
        """
        n = int(pages.size)
        if n == 0:
            return 0
        slots = self._page_slot_np[pages]
        # slots == -1 reads the last row of the level column; the value
        # is garbage but the `cached` mask below discards it.
        cached_levels = self._slot_level_np[slots]
        is_hit = (slots >= 0) & (cached_levels <= levels)
        start = 0
        if not self._hit_restores:
            # Hits touch no state: skip the leading run of them outright.
            start = int(is_hit.argmin())
            if is_hit[start]:
                return n  # argmin found no False: the batch is all hits
        return start + self._serve_rest(
            start, pages.tolist(), levels.tolist(), is_hit.tolist(),
            slots.tolist(), cached_levels.tolist(),
        )


@register_policy
class KernelLandlordPolicy(_ColumnarPolicy):
    """Landlord on columnar state; ``==``-equal to ``landlord-ref``.

    Hits restore the cached copy's credit (a death-key rewrite at the
    *current* level), so every request of a batch goes through the
    fused loop; a hit only overwrites its slot's key, in request order.
    """

    name = "landlord-kernel"
    _evict_reason = "capacity"
    _hit_restores = True


# The old name of the production Landlord keeps resolving (CLI flags,
# benches, recorded experiences); reports print the canonical name.
policy_registry["landlord"] = KernelLandlordPolicy


@register_policy
class KernelWaterFillingPolicy(_ColumnarPolicy):
    """Water-filling on columnar state; ``==``-equal to ``waterfilling``.

    Hits are free (no state change), so the batch path reduces to the
    classification pass plus scalar work on misses and upgrades only —
    the fastest policy in the registry on hit-heavy streams.
    """

    name = "waterfilling-kernel"
    _evict_reason = "waterfill"
    _hit_restores = False


# The old lazy-heap water-filling's name resolves to the kernel, as
# ``landlord`` does; reports print the canonical name.
policy_registry["waterfilling-heap"] = KernelWaterFillingPolicy
