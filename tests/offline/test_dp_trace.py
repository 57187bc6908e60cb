"""Tests for optimal-trace reconstruction from the exact DP."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.instance import WeightedPagingInstance
from repro.core.requests import RequestSequence
from repro.offline.dp import (
    offline_opt_multilevel,
    offline_opt_multilevel_trace,
)
from repro.workloads import multilevel_stream, random_multilevel_instance


def trace_cost(instance, trace):
    """Replay eviction cost of a state trace (fetches free, empty start)."""
    cost = 0.0
    prev: dict[int, int] = {}
    for state in trace:
        for p, lvl in prev.items():
            if state.get(p) != lvl:
                cost += instance.weight(p, lvl)
        prev = state
    return cost


class TestTrace:
    def test_value_matches_plain_dp(self):
        inst = WeightedPagingInstance(2, [4.0, 2.0, 1.0, 3.0])
        seq = RequestSequence.from_pages([0, 1, 2, 0, 3, 1])
        value, trace = offline_opt_multilevel_trace(inst, seq)
        assert value == offline_opt_multilevel(inst, seq)

    def test_trace_replays_to_value(self):
        inst = WeightedPagingInstance(2, [4.0, 2.0, 1.0, 3.0])
        seq = RequestSequence.from_pages([0, 1, 2, 0, 3, 1, 2, 0])
        value, trace = offline_opt_multilevel_trace(inst, seq)
        assert trace_cost(inst, trace) == pytest.approx(value)

    def test_trace_serves_every_request(self):
        inst = random_multilevel_instance(4, 2, 2, rng=0)
        seq = multilevel_stream(4, 2, 30, rng=1)
        _, trace = offline_opt_multilevel_trace(inst, seq)
        for state, req in zip(trace, seq):
            assert req.page in state
            assert state[req.page] <= req.level

    def test_trace_respects_capacity(self):
        inst = random_multilevel_instance(5, 2, 2, rng=2)
        seq = multilevel_stream(5, 2, 40, rng=3)
        _, trace = offline_opt_multilevel_trace(inst, seq)
        assert all(len(s) <= 2 for s in trace)

    def test_empty_sequence(self):
        inst = WeightedPagingInstance.uniform(3, 1)
        value, trace = offline_opt_multilevel_trace(
            inst, RequestSequence.from_pages([])
        )
        assert value == 0.0
        assert trace == []

    @given(st.integers(min_value=0, max_value=5000))
    @settings(max_examples=15, deadline=None)
    def test_property_trace_consistency(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 6))
        k = int(rng.integers(1, n))
        l = int(rng.integers(1, 3))
        inst = random_multilevel_instance(n, k, l, rng=rng, high=8.0)
        seq = multilevel_stream(n, l, 30, rng=rng)
        value, trace = offline_opt_multilevel_trace(inst, seq)
        # The trace is a feasible solution achieving exactly the optimum.
        assert trace_cost(inst, trace) == pytest.approx(value)
        for state, req in zip(trace, seq):
            assert state.get(req.page, 99) <= req.level
            assert len(state) <= k
