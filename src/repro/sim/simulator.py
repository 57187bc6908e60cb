"""The verifying simulator.

The simulator owns the authoritative cache, drives a policy over a request
sequence, and — unlike a trusting replay loop — *verifies* the model's
invariants after every request:

* the request is actually served,
* the cache holds at most ``k`` copies / pages,
* (multi-level) at most one copy per page, levels in range.

A policy that cheats raises :class:`~repro.errors.CacheInvariantError`
immediately, with the failing time step in the message.  Pass
``validate=False`` on hot benchmark paths: the stream then goes, in
chunks, to :meth:`~repro.algorithms.base.Policy.serve_batch`, which the
columnar kernels serve whole and every other policy serves with the
plain per-request loop.  :func:`repro.algorithms.base.drive` is the
serving loop either way, shared with the shard engine.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.base import Policy, WritebackPolicy, drive
from repro.core.cache import MultiLevelCache, WritebackCache
from repro.core.instance import MultiLevelInstance, WritebackInstance
from repro.core.ledger import CostLedger
from repro.core.requests import RequestSequence, WBRequestSequence
from repro.errors import CacheInvariantError
from repro.sim.metrics import RunResult

__all__ = ["simulate", "simulate_writeback"]

#: Chunk size for the ``serve_batch`` fast path in :func:`simulate`.
_BATCH_CHUNK = 4096


def simulate(
    instance: MultiLevelInstance,
    seq: RequestSequence,
    policy: Policy,
    *,
    seed: int | np.random.Generator | None = None,
    record_events: bool = False,
    validate: bool = True,
    tracer=None,
) -> RunResult:
    """Run ``policy`` over ``seq`` on ``instance`` from an empty cache.

    Returns a :class:`~repro.sim.metrics.RunResult` with the eviction cost
    (the paper's objective), hit statistics and, optionally, the full
    eviction event log.

    ``tracer`` is an optional :class:`repro.obs.DecisionTracer`: sampled
    requests, their evictions and (for policies that expose them) the
    candidate sets are written to its JSONL sink.  Only the sampled
    requests leave ``serve_batch``, and a tracer whose sample rate is 0
    is never attached, so it costs nothing on the ``validate=False``
    fast path.
    """
    instance.validate_sequence(seq.pages, seq.levels)
    ledger = CostLedger(record_events=record_events)
    cache = MultiLevelCache(instance, ledger)
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    policy.bind(instance, cache, rng)

    if tracer is not None and not tracer.active:
        tracer = None  # samples nothing: keep it off the eviction path
    ledger.tracer = policy.tracer = tracer
    hits = 0
    try:
        # Chunking (rather than one giant call) only bounds the memory of
        # the Python lists each ``serve_batch`` makes of its chunk.
        for lo in range(0, len(seq), _BATCH_CHUNK):
            hi = lo + _BATCH_CHUNK
            hits += drive(policy, lo, seq.pages[lo:hi], seq.levels[lo:hi],
                          validate=validate, tracer=tracer)
    finally:
        ledger.tracer = policy.tracer = None
    ledger.n_hits += hits
    ledger.n_misses += len(seq) - hits

    return RunResult(
        policy=policy.name,
        cost=ledger.eviction_cost,
        n_requests=len(seq),
        n_hits=ledger.n_hits,
        n_misses=ledger.n_misses,
        n_evictions=ledger.n_evictions,
        n_fetches=ledger.n_fetches,
        cost_by_reason=dict(ledger.cost_by_reason),
        events=list(ledger.events),
        final_cache=cache.contents(),
        extra=policy.extras(),
    )


def simulate_writeback(
    instance: WritebackInstance,
    seq: WBRequestSequence,
    policy: WritebackPolicy,
    *,
    seed: int | np.random.Generator | None = None,
    record_events: bool = False,
    validate: bool = True,
) -> RunResult:
    """Run a writeback-aware policy over a read/write stream.

    The simulator — not the policy — marks a served write's page dirty,
    since dirtying is model semantics rather than a policy decision.
    """
    instance.validate_sequence(seq.pages, seq.writes)
    ledger = CostLedger(record_events=record_events)
    cache = WritebackCache(instance, ledger)
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    policy.bind(instance, cache, rng)

    pages = seq.pages.tolist()
    writes = seq.writes.tolist()
    # Same hot-loop structure as simulate(): per-mode loops, hoisted bound
    # methods, and batched hit/miss counting on the validation-free path.
    cached = cache.__contains__
    serve = policy.serve
    mark_dirty = cache.mark_dirty
    if validate:
        set_time = ledger.set_time
        count_hit = ledger.count_hit
        count_miss = ledger.count_miss
        check = cache.check_invariants
        for t, (page, is_write) in enumerate(zip(pages, writes)):
            set_time(t)
            if cached(page):
                count_hit()
            else:
                count_miss()
            serve(t, page, is_write)
            if not cached(page):
                raise CacheInvariantError(
                    f"policy {policy.name!r} left request t={t} "
                    f"(page={page}, write={is_write}) unserved"
                )
            check()
            if is_write:
                mark_dirty(page)
    else:
        hits = 0
        if record_events:
            set_time = ledger.set_time
            for t, (page, is_write) in enumerate(zip(pages, writes)):
                set_time(t)
                if cached(page):
                    hits += 1
                serve(t, page, is_write)
                if is_write:
                    mark_dirty(page)
        else:
            for t, (page, is_write) in enumerate(zip(pages, writes)):
                if cached(page):
                    hits += 1
                serve(t, page, is_write)
                if is_write:
                    mark_dirty(page)
        ledger.n_hits += hits
        ledger.n_misses += len(pages) - hits

    final = {page: (1 if dirty else 2) for page, dirty in cache.items()}
    return RunResult(
        policy=policy.name,
        cost=ledger.eviction_cost,
        n_requests=len(seq),
        n_hits=ledger.n_hits,
        n_misses=ledger.n_misses,
        n_evictions=ledger.n_evictions,
        n_fetches=ledger.n_fetches,
        cost_by_reason=dict(ledger.cost_by_reason),
        events=list(ledger.events),
        final_cache=final,
        extra=policy.extras(),
    )
