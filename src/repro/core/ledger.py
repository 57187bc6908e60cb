"""Cost accounting shared by every cache and simulator.

Following the paper's convention (Section 2, footnote 1) the primary cost is
*eviction cost*: evicting copy ``(p, i)`` costs ``w(p, i)``; evicting a dirty
writeback page costs ``w1(p)``, a clean one ``w2(p)``.  Fetches are free but
counted so hit/miss statistics can be reported.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

__all__ = ["EvictionRecord", "CostLedger"]


@dataclass(frozen=True, slots=True)
class EvictionRecord:
    """One eviction event: which copy, when, for how much, and why."""

    time: int
    page: int
    level: int
    cost: float
    reason: str = ""


class CostLedger:
    """Accumulates eviction cost and event counts for one simulation run.

    Parameters
    ----------
    record_events:
        When true, every eviction is appended to :attr:`events` — useful for
        the lower-bound experiments that reconstruct a set cover from the
        eviction trace (Lemma 3.3), but memory-heavy for long runs.
    """

    __slots__ = (
        "eviction_cost",
        "n_evictions",
        "n_fetches",
        "n_hits",
        "n_misses",
        "cost_by_reason",
        "record_events",
        "events",
        "tracer",
        "_time",
    )

    def __init__(self, *, record_events: bool = False) -> None:
        self.eviction_cost: float = 0.0
        self.n_evictions: int = 0
        self.n_fetches: int = 0
        self.n_hits: int = 0
        self.n_misses: int = 0
        self.cost_by_reason: dict[str, float] = {}
        self.record_events = record_events
        self.events: list[EvictionRecord] = []
        #: Optional :class:`repro.obs.DecisionTracer` (duck-typed — anything
        #: with an ``eviction(t, page, level, cost, reason)`` method).  The
        #: simulator / engine attaches it only while tracing, so the fast
        #: paths keep this None and pay one attribute load per eviction.
        self.tracer = None
        self._time: int = 0

    # -- clock -------------------------------------------------------------
    @property
    def time(self) -> int:
        """Current logical time (index of the request being processed)."""
        return self._time

    def set_time(self, t: int) -> None:
        """Advance the logical clock; used by the simulator per request."""
        self._time = int(t)

    # -- charging ----------------------------------------------------------
    def charge_eviction(self, page: int, level: int, cost: float,
                        reason: str = "") -> None:
        """Record the eviction of copy ``(page, level)`` for ``cost``."""
        if cost < 0:
            raise ValueError(f"eviction cost must be non-negative, got {cost}")
        self.eviction_cost += cost
        self.n_evictions += 1
        if reason:
            self.cost_by_reason[reason] = self.cost_by_reason.get(reason, 0.0) + cost
        if self.record_events:
            self.events.append(EvictionRecord(self._time, page, level, cost, reason))
        if self.tracer is not None:
            self.tracer.eviction(self._time, page, level, cost, reason)

    def charge_evictions(
            self, events: Sequence[tuple[int, int, float, str]]) -> None:
        """Charge ``(page, level, cost, reason)`` evictions, in order.

        The batch form of :meth:`charge_eviction`, bit-identical to one
        call per event: the same float additions in the same order, the
        same records, the same tracer calls.  A negative cost raises
        :class:`ValueError` with the events before it charged, as the
        per-event calls would leave them.
        """
        total = self.eviction_cost
        charged = 0
        by_reason = self.cost_by_reason
        record = self.events.append if self.record_events else None
        tracer = self.tracer
        t = self._time
        try:
            for page, level, cost, reason in events:
                if cost < 0:
                    raise ValueError(
                        f"eviction cost must be non-negative, got {cost}")
                total += cost
                charged += 1
                if reason:
                    by_reason[reason] = by_reason.get(reason, 0.0) + cost
                if record is not None:
                    record(EvictionRecord(t, page, level, cost, reason))
                if tracer is not None:
                    tracer.eviction(t, page, level, cost, reason)
        finally:
            self.eviction_cost = total
            self.n_evictions += charged

    def count_fetch(self, n: int = 1) -> None:
        """Record ``n`` (free) fetches."""
        self.n_fetches += n

    def count_hit(self) -> None:
        """Record a request served without any cache change."""
        self.n_hits += 1

    def count_miss(self) -> None:
        """Record a request that required cache changes."""
        self.n_misses += 1

    # -- pickling ----------------------------------------------------------
    def __getstate__(self) -> dict:
        """Slot dict minus the live tracer handle (an open file).

        Checkpoints round-trip ledgers through pickle; the tracer is a
        per-process observability attachment that the restoring engine
        re-attaches, never part of the replayable state.
        """
        state = {}
        for cls in type(self).__mro__:
            for slot in getattr(cls, "__slots__", ()):
                if hasattr(self, slot):
                    state[slot] = getattr(self, slot)
        state["tracer"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        for name, value in state.items():
            setattr(self, name, value)

    # -- reporting ---------------------------------------------------------
    def merge(self, other: "CostLedger") -> None:
        """Fold another ledger's totals into this one (for phased runs)."""
        self.eviction_cost += other.eviction_cost
        self.n_evictions += other.n_evictions
        self.n_fetches += other.n_fetches
        self.n_hits += other.n_hits
        self.n_misses += other.n_misses
        for reason, cost in other.cost_by_reason.items():
            self.cost_by_reason[reason] = self.cost_by_reason.get(reason, 0.0) + cost
        if self.record_events:
            self.events.extend(other.events)

    def snapshot(self) -> dict[str, float]:
        """A plain-dict summary (stable keys, safe to serialize)."""
        return {
            "eviction_cost": self.eviction_cost,
            "n_evictions": float(self.n_evictions),
            "n_fetches": float(self.n_fetches),
            "n_hits": float(self.n_hits),
            "n_misses": float(self.n_misses),
        }

    def __repr__(self) -> str:
        return (
            f"CostLedger(cost={self.eviction_cost:.3f}, evictions={self.n_evictions}, "
            f"fetches={self.n_fetches}, hits={self.n_hits}, misses={self.n_misses})"
        )
