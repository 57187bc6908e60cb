"""``Policy.serve_batch`` is the per-request loop, for every policy.

Every unverified run — :func:`repro.sim.simulate` with ``validate=False``
and :meth:`~repro.service.engine.ShardEngine.process_batch` without
validation — enters a policy through one ``serve_batch`` call per chunk
(an active tracer splits a chunk at its sampled requests).  The columnar
kernels override it with a whole-batch path; every other policy inherits
:class:`Policy`'s loop over ``serve``.  Either way, serving a stream in arbitrary chunks must be
``==`` to calling ``serve`` once per request under the same seed: the
same eviction stream (page, level, cost, reason), total cost, final cache
and hit count.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import Policy, policy_registry
from repro.core.cache import MultiLevelCache
from repro.core.ledger import CostLedger
from repro.workloads import multilevel_stream, random_multilevel_instance

#: Every registered multi-level policy class, once (aliases share a class).
ML_POLICIES = sorted(
    {cls for cls in policy_registry.values() if issubclass(cls, Policy)},
    key=lambda cls: cls.name,
)
#: Policies restricted to single-level instances by contract.
SINGLE_LEVEL_ONLY = {"randomized-weighted"}


def _bound(policy_cls, inst, seed):
    ledger = CostLedger(record_events=True)
    cache = MultiLevelCache(inst, ledger)
    policy = policy_cls()
    policy.bind(inst, cache, np.random.default_rng(seed))
    return policy, cache, ledger


def _outcome(cache, ledger, hits):
    return (ledger.eviction_cost,
            [(e.page, e.level, e.cost, e.reason) for e in ledger.events],
            dict(cache.items()), hits)


@pytest.mark.parametrize("policy_cls", ML_POLICIES, ids=lambda cls: cls.name)
@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=15, deadline=None)
def test_random_chunkings_equal_per_request_loop(policy_cls, seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 14))
    k = int(rng.integers(1, n))
    levels = (1 if policy_cls.name in SINGLE_LEVEL_ONLY
              else int(rng.integers(1, 4)))
    inst = random_multilevel_instance(n, k, levels, rng=rng)
    seq = multilevel_stream(n, levels, int(rng.integers(20, 160)), rng=rng)

    policy, cache, ledger = _bound(policy_cls, inst, seed)
    hits = 0
    for t, (page, level) in enumerate(zip(seq.pages.tolist(),
                                          seq.levels.tolist())):
        hits += cache.serves(page, level)
        policy.serve(t, page, level)
    expected = _outcome(cache, ledger, hits)

    policy, cache, ledger = _bound(policy_cls, inst, seed)
    hits, t = 0, 0
    while t < len(seq):
        size = int(rng.integers(0, 40))  # empty chunks included
        hits += policy.serve_batch(t, seq.pages[t:t + size],
                                   seq.levels[t:t + size])
        t += size
    assert _outcome(cache, ledger, hits) == expected
