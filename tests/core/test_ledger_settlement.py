"""``charge_evictions`` must be bit-identical to per-event ``charge_eviction``.

The columnar kernels settle a whole batch's evictions with one
:meth:`~repro.core.ledger.CostLedger.charge_evictions` call.  That is only
sound if a ledger charged in batches is ``==`` to one charged event by
event: the same float sums in the same order (totals, ``cost_by_reason``,
``cost_by_level``, registry children), the same counts, the same
``EvictionRecord`` list and the same tracer calls — including when a
negative cost stops the batch part-way.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ledger import CostLedger
from repro.obs import MetricsRegistry
from repro.service import ServiceLedger

# A small pool of costs makes ties common; the spread of magnitudes makes
# float sums depend on the order of additions, so a reordering would show.
_COSTS = st.one_of(
    st.sampled_from([0.0, 1.0, 2.5, 0.1, 1e16, 3.0000000000000004]),
    st.floats(min_value=0.0, max_value=1e9, allow_nan=False,
              allow_infinity=False),
)
_EVENT = st.tuples(
    st.integers(min_value=0, max_value=64),
    st.integers(min_value=1, max_value=4),
    _COSTS,
    st.sampled_from(["capacity", "waterfill", "upgrade", ""]),
)


class _RecordingTracer:
    def __init__(self) -> None:
        self.calls: list[tuple] = []

    def eviction(self, t, page, level, cost, reason="") -> None:
        self.calls.append((t, page, level, cost, reason))


def _make(kind: str, registry: MetricsRegistry | None):
    if kind == "cost":
        ledger = CostLedger(record_events=True)
    else:
        ledger = ServiceLedger(record_events=True, registry=registry,
                               shard=3)
    ledger.tracer = _RecordingTracer()
    ledger.set_time(17)
    return ledger


def _state(ledger, registry) -> dict:
    state = {
        "eviction_cost": ledger.eviction_cost,
        "n_evictions": ledger.n_evictions,
        "n_fetches": ledger.n_fetches,
        "cost_by_reason": dict(ledger.cost_by_reason),
        "reason_order": list(ledger.cost_by_reason),
        "events": list(ledger.events),
        "tracer": list(ledger.tracer.calls),
    }
    if isinstance(ledger, ServiceLedger):
        state["cost_by_level"] = dict(ledger.cost_by_level)
        state["evictions_by_level"] = dict(ledger.evictions_by_level)
    if registry is not None:
        state["registry"] = registry.collect()
    return state


def _per_event(ledger, batches) -> None:
    for batch in batches:
        for event in batch:
            ledger.charge_eviction(*event)


def _settled(ledger, batches) -> None:
    for batch in batches:
        ledger.charge_evictions(batch)


@pytest.mark.parametrize("kind,live", [("cost", False), ("service", False),
                                       ("service", True)])
class TestChargeEvictions:
    @given(batches=st.lists(st.lists(_EVENT, max_size=30), max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_equal_to_per_event_charges(self, kind, live, batches):
        states = []
        for charge in (_per_event, _settled):
            registry = MetricsRegistry() if live else None
            ledger = _make(kind, registry)
            charge(ledger, batches)
            states.append(_state(ledger, registry))
        assert states[0] == states[1]

    @given(before=st.lists(_EVENT, max_size=12),
           bad=st.floats(max_value=-1e-9, min_value=-1e6),
           after=st.lists(_EVENT, max_size=12))
    @settings(max_examples=40, deadline=None)
    def test_negative_cost_raises_after_the_prefix(self, kind, live, before,
                                                   bad, after):
        batch = before + [(1, 2, bad, "waterfill")] + after
        states = []
        for charge in (_per_event, _settled):
            registry = MetricsRegistry() if live else None
            ledger = _make(kind, registry)
            with pytest.raises(ValueError, match="non-negative"):
                charge(ledger, [batch])
            states.append(_state(ledger, registry))
        assert states[0] == states[1]

    def test_empty_batch_is_a_no_op(self, kind, live):
        states = []
        for settle in (False, True):
            registry = MetricsRegistry() if live else None
            ledger = _make(kind, registry)
            if settle:
                ledger.charge_evictions([])
            states.append(_state(ledger, registry))
        assert states[0] == states[1]


def test_count_fetch_settles_many_at_once():
    ledger = CostLedger()
    ledger.count_fetch()
    ledger.count_fetch(41)
    assert ledger.n_fetches == 42
