"""Policy protocol and registry.

A :class:`Policy` is an online algorithm for multi-level paging (weighted
paging and RW-paging are the ``l = 1`` / ``l = 2`` cases).  The simulator
owns the authoritative :class:`~repro.core.cache.MultiLevelCache` and calls
:meth:`Policy.serve` on **every** request — including hits — because
fractional-state policies (the paper's randomized algorithm) move even when
the integral cache already serves the request.  After ``serve`` returns, the
simulator verifies that the request is served and that all cache invariants
hold.

Unverified runs enter through :meth:`Policy.serve_batch` instead, one call
per micro-batch: the default is the per-request ``serve`` loop, and the
columnar kernels override it with a whole-batch implementation.
:func:`drive` is the one loop that picks between the two, for the
simulator and the shard engine alike.

:class:`WritebackPolicy` is the analogous protocol for writeback-aware
caching; the simulator marks the page dirty after a served write.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.core.cache import MultiLevelCache, WritebackCache
from repro.core.instance import MultiLevelInstance, WritebackInstance
from repro.errors import CacheInvariantError

__all__ = ["Policy", "WritebackPolicy", "drive", "register_policy",
           "policy_registry"]


class Policy(ABC):
    """Base class for online multi-level paging policies."""

    #: Short name used in reports and tables.
    name: str = "policy"

    #: Optional :class:`repro.obs.DecisionTracer`, attached by the simulator
    #: or shard engine for the duration of a traced run.  :func:`drive`
    #: serves every sampled request through :meth:`serve`, so policies that
    #: can enumerate their eviction candidates cheaply guard on
    #: ``self.tracer is not None and self.tracer.sampled`` there and call
    #: ``self.tracer.candidates(t, [(page, level, score), ...])`` before
    #: choosing a victim; ``serve_batch`` only sees unsampled requests.
    tracer = None

    def __init__(self) -> None:
        self.instance: MultiLevelInstance | None = None
        self.cache: MultiLevelCache | None = None
        self.rng: np.random.Generator | None = None

    def bind(
        self,
        instance: MultiLevelInstance,
        cache: MultiLevelCache,
        rng: np.random.Generator,
    ) -> None:
        """Attach the policy to a fresh simulation run.

        Subclasses overriding this must call ``super().bind(...)`` and then
        (re)initialize all per-run state — ``bind`` is the reset point.
        """
        self.instance = instance
        self.cache = cache
        self.rng = rng

    @abstractmethod
    def serve(self, t: int, page: int, level: int) -> None:
        """Handle the request ``(page, level)`` arriving at time ``t``.

        Called on every request.  On return the cache must serve the
        request: some copy ``(page, j)`` with ``j <= level`` is cached.
        """

    def serve_batch(self, t0: int, pages: np.ndarray, levels: np.ndarray) -> int:
        """Serve ``pages[i], levels[i]`` at time ``t0 + i``; returns the hits.

        A hit is a request the cache served before :meth:`serve` ran.  The
        default is that per-request loop; overrides must keep its
        semantics exactly (same decisions, same ledger, same hit count).
        """
        serves = self.cache.serves
        serve = self.serve
        hits = 0
        for t, (page, level) in enumerate(zip(pages.tolist(), levels.tolist()),
                                          t0):
            if serves(page, level):
                hits += 1
            serve(t, page, level)
        return hits

    def rebind_instance(self) -> None:
        """Re-derive cached views of ``instance`` after a restore re-points
        it at its live (equal, shared) twin; the default caches none."""

    def extras(self) -> dict[str, float]:
        """Per-run extra metrics merged into ``RunResult.extra``.

        Composed policies report internal quantities here (e.g. the
        fractional solver's cost alongside the rounded integral cost).
        """
        return {}

    def __getstate__(self) -> dict:
        """Instance dict minus the tracer (an open-file handle).

        Checkpoints pickle the bound policy graph; the tracer is re-attached
        by the restoring engine, so the pickled copy falls back to the
        class-level ``tracer = None``.
        """
        state = self.__dict__.copy()
        state.pop("tracer", None)
        return state

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


def drive(policy: Policy, t0: int, pages: np.ndarray, levels: np.ndarray,
          *, validate: bool = False, tracer=None) -> int:
    """Serve ``pages[i], levels[i]`` at time ``t0 + i``; returns the hits.

    The one serving loop of :func:`repro.sim.simulate` and
    :meth:`repro.service.engine.ShardEngine.process_batch`.  Requests go
    through :meth:`Policy.serve_batch`, except that

    * with ``validate`` or an event-recording ledger, each request is
      served through :meth:`Policy.serve` with the ledger clock at its
      ``t``, and ``validate`` checks it is served and the cache invariants;
    * an active ``tracer`` (a :class:`repro.obs.DecisionTracer` attached
      to the policy and ledger) splits the batch at its sampled requests:
      each is served that way right after its ``req`` record, so its
      ``evict`` and ``cand`` events follow it.
    """
    if tracer is not None and not tracer.active:
        tracer = None
    if validate or policy.cache.ledger.record_events:
        return _serve_each(policy, t0, pages, levels, validate, tracer)
    if tracer is None:
        return policy.serve_batch(t0, pages, levels)
    hits = lo = 0
    for i in tracer.sample_offsets(t0, len(pages)).tolist():
        tracer.skip(i - lo)
        if i > lo:
            hits += policy.serve_batch(t0 + lo, pages[lo:i], levels[lo:i])
        hits += _serve_each(policy, t0 + i, pages[i:i + 1], levels[i:i + 1],
                            False, tracer)
        lo = i + 1
    tracer.skip(len(pages) - lo)
    return hits + policy.serve_batch(t0 + lo, pages[lo:], levels[lo:])


def _serve_each(policy, t0, pages, levels, validate, tracer) -> int:
    """:func:`drive`'s per-request loop: clock, trace, serve, check."""
    cache = policy.cache
    set_time = cache.ledger.set_time
    serves = cache.serves
    serve = policy.serve
    hits = 0
    for t, (page, level) in enumerate(zip(pages.tolist(), levels.tolist()),
                                      t0):
        set_time(t)
        hit = serves(page, level)
        hits += hit
        if tracer is not None:
            tracer.request(t, page, level, hit)
        serve(t, page, level)
        if validate:
            if not serves(page, level):
                raise CacheInvariantError(
                    f"policy {policy.name!r} left request t={t} "
                    f"(page={page}, level={level}) unserved"
                )
            cache.check_invariants()
    return hits


class WritebackPolicy(ABC):
    """Base class for online writeback-aware caching policies."""

    #: Short name used in reports and tables.
    name: str = "wb-policy"

    def __init__(self) -> None:
        self.instance: WritebackInstance | None = None
        self.cache: WritebackCache | None = None
        self.rng: np.random.Generator | None = None

    def bind(
        self,
        instance: WritebackInstance,
        cache: WritebackCache,
        rng: np.random.Generator,
    ) -> None:
        """Attach the policy to a fresh simulation run (the reset point)."""
        self.instance = instance
        self.cache = cache
        self.rng = rng

    @abstractmethod
    def serve(self, t: int, page: int, is_write: bool) -> None:
        """Handle the request arriving at time ``t``.

        Called on every request.  On return ``page`` must be cached; the
        simulator marks it dirty afterwards when ``is_write``.
        """

    def extras(self) -> dict[str, float]:
        """Per-run extra metrics merged into ``RunResult.extra``."""
        return {}

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


#: Global name -> factory registry for benchmark/CLI lookups.
policy_registry: dict[str, type] = {}


def register_policy(cls):
    """Class decorator adding a policy class to :data:`policy_registry`."""
    policy_registry[cls.name] = cls
    return cls
