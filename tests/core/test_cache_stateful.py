"""Stateful (rule-based) fuzzing of the cache classes.

Hypothesis drives random legal operation sequences against a pure-Python
model; after every step the cache must agree with the model on contents,
dirtiness, cost, and invariants.  Illegal operations must raise the typed
errors and leave state unchanged.
"""

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    rule,
)

from repro.core.cache import MultiLevelCache, WritebackCache
from repro.core.instance import MultiLevelInstance, WritebackInstance
from repro.errors import CacheInvariantError, CacheOverflowError

N_PAGES, N_LEVELS, K = 8, 3, 3
WEIGHTS = np.tile([8.0, 4.0, 2.0], (N_PAGES, 1))


class MultiLevelCacheMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.instance = MultiLevelInstance(K, WEIGHTS)
        self.cache = MultiLevelCache(self.instance)
        self.model: dict[int, int] = {}
        self.model_cost = 0.0

    pages = st.integers(min_value=0, max_value=N_PAGES - 1)
    levels = st.integers(min_value=1, max_value=N_LEVELS)

    @rule(page=pages, level=levels)
    def fetch(self, page, level):
        if page in self.model:
            try:
                self.cache.fetch(page, level)
                raise AssertionError("second copy accepted")
            except CacheInvariantError:
                return
        if len(self.model) >= K:
            try:
                self.cache.fetch(page, level)
                raise AssertionError("overflow accepted")
            except CacheOverflowError:
                return
        self.cache.fetch(page, level)
        self.model[page] = level

    @rule(page=pages)
    def evict(self, page):
        if page not in self.model:
            try:
                self.cache.evict(page)
                raise AssertionError("evicted absent page")
            except CacheInvariantError:
                return
        level = self.cache.evict(page)
        assert level == self.model[page]
        self.model_cost += WEIGHTS[page, level - 1]
        del self.model[page]

    @rule(page=pages, level=levels)
    def replace(self, page, level):
        old = self.model.get(page)
        if old is None or old == level:
            try:
                self.cache.replace(page, level)
                raise AssertionError("bad replace accepted")
            except CacheInvariantError:
                return
        self.cache.replace(page, level)
        self.model_cost += WEIGHTS[page, old - 1]
        self.model[page] = level

    @invariant()
    def contents_agree(self):
        assert self.cache.contents() == self.model

    @invariant()
    def cost_agrees(self):
        assert abs(self.cache.ledger.eviction_cost - self.model_cost) < 1e-9

    @invariant()
    def serves_agrees(self):
        for page, level in self.model.items():
            assert self.cache.serves(page, level)
            assert self.cache.serves(page, N_LEVELS)
            if level > 1:
                assert not self.cache.serves(page, level - 1)

    @invariant()
    def internal_invariants_hold(self):
        self.cache.check_invariants(deep=True)


class WritebackCacheMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.instance = WritebackInstance(
            K, np.full(N_PAGES, 10.0), np.full(N_PAGES, 1.0)
        )
        self.cache = WritebackCache(self.instance)
        self.model: dict[int, bool] = {}
        self.model_cost = 0.0

    pages = st.integers(min_value=0, max_value=N_PAGES - 1)

    @rule(page=pages)
    def fetch(self, page):
        if page in self.model:
            try:
                self.cache.fetch(page)
                raise AssertionError("double fetch accepted")
            except CacheInvariantError:
                return
        if len(self.model) >= K:
            try:
                self.cache.fetch(page)
                raise AssertionError("overflow accepted")
            except CacheOverflowError:
                return
        self.cache.fetch(page)
        self.model[page] = False

    @rule(page=pages)
    def write(self, page):
        if page not in self.model:
            try:
                self.cache.mark_dirty(page)
                raise AssertionError("dirtied absent page")
            except CacheInvariantError:
                return
        self.cache.mark_dirty(page)
        self.model[page] = True

    @rule(page=pages)
    def evict(self, page):
        if page not in self.model:
            try:
                self.cache.evict(page)
                raise AssertionError("evicted absent page")
            except CacheInvariantError:
                return
        dirty = self.cache.evict(page)
        assert dirty == self.model[page]
        self.model_cost += 10.0 if dirty else 1.0
        del self.model[page]

    @invariant()
    def contents_agree(self):
        assert self.cache.contents() == self.model

    @invariant()
    def cost_agrees(self):
        assert abs(self.cache.ledger.eviction_cost - self.model_cost) < 1e-9

    @invariant()
    def internal_invariants_hold(self):
        self.cache.check_invariants(deep=True)


TestMultiLevelCacheStateful = MultiLevelCacheMachine.TestCase
TestMultiLevelCacheStateful.settings = settings(
    max_examples=40, stateful_step_count=60, deadline=None
)
TestWritebackCacheStateful = WritebackCacheMachine.TestCase
TestWritebackCacheStateful.settings = settings(
    max_examples=40, stateful_step_count=60, deadline=None
)
