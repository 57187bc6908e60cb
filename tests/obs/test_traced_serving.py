"""Decision tracing rides the production serving loop, byte for byte.

:func:`repro.algorithms.base.drive` serves the runs between sampled
requests through ``Policy.serve_batch`` and each sampled request alone
through ``Policy.serve``.  A trace must not show which loop ran: over
random multi-level instances, streams and chunkings, sample rates from 0
to 1 and seeds that need masking to 64 bits,

* traced ``simulate(validate=False)`` writes the bytes of traced
  ``simulate(validate=True)`` — the per-request reference — with the same
  outcome,
* a :class:`~repro.service.engine.ShardEngine` fed the same stream in
  random chunks writes the same bytes and ends with an equal ledger,
* ``DecisionTracer.sample_offsets`` equals ``want(t)`` at every ``t``.
"""

import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import policy_registry
from repro.obs import DecisionTracer
from repro.service.engine import ShardEngine
from repro.sim import simulate
from repro.workloads import multilevel_stream, random_multilevel_instance

POLICIES = ["waterfilling-kernel", "landlord-kernel", "waterfilling",
            "landlord-ref"]
SAMPLES = [0.0, 1e-3, 0.01, 0.25, 1.0]
#: A negative seed and seeds >= 2**63 exercise the mod-2**64 reduction.
SEEDS = [0, 7, -3, 2**63 + 5, 2**64 - 1, 2**70 + 9]


def _traced_simulate(inst, seq, name, sample, seed, validate):
    buf = io.StringIO()
    with DecisionTracer(buf, sample=sample, seed=seed) as tracer:
        result = simulate(inst, seq, policy_registry[name](), seed=0,
                          validate=validate, tracer=tracer)
    return buf.getvalue(), result


@pytest.mark.parametrize("name", POLICIES)
@given(case=st.integers(min_value=0, max_value=10_000),
       sample=st.sampled_from(SAMPLES), seed=st.sampled_from(SEEDS))
@settings(max_examples=25, deadline=None)
def test_traced_serving_writes_the_reference_bytes(name, case, sample, seed):
    rng = np.random.default_rng(case)
    n = int(rng.integers(3, 14))
    levels = int(rng.integers(1, 4))
    inst = random_multilevel_instance(n, int(rng.integers(1, n)), levels,
                                      rng=rng)
    seq = multilevel_stream(n, levels, int(rng.integers(20, 400)), rng=rng)

    ref_bytes, ref = _traced_simulate(inst, seq, name, sample, seed, True)
    fast_bytes, fast = _traced_simulate(inst, seq, name, sample, seed, False)
    assert fast_bytes == ref_bytes
    assert (fast.cost, fast.n_hits, fast.n_evictions, fast.n_fetches,
            fast.cost_by_reason, fast.final_cache) == \
           (ref.cost, ref.n_hits, ref.n_evictions, ref.n_fetches,
            ref.cost_by_reason, ref.final_cache)

    buf = io.StringIO()
    engine = ShardEngine(0, inst, policy_registry[name](),
                         np.random.default_rng(0))
    with DecisionTracer(buf, sample=sample, seed=seed) as tracer:
        engine.set_tracer(tracer)
        t = 0
        while t < len(seq):
            size = int(rng.integers(1, 40))
            engine.process_batch(seq.pages[t:t + size],
                                 seq.levels[t:t + size])
            t += size
    assert buf.getvalue() == ref_bytes
    ledger = engine.ledger
    assert (ledger.eviction_cost, ledger.n_hits, ledger.n_misses,
            ledger.n_evictions, ledger.n_fetches, ledger.cost_by_reason,
            dict(engine.cache.items())) == \
           (ref.cost, ref.n_hits, ref.n_misses, ref.n_evictions,
            ref.n_fetches, ref.cost_by_reason, ref.final_cache)


@given(t0=st.integers(min_value=0, max_value=2**40),
       n=st.integers(min_value=0, max_value=600),
       sample=st.sampled_from(SAMPLES) | st.floats(min_value=0.0,
                                                    max_value=1.0),
       seed=st.sampled_from(SEEDS) | st.integers(min_value=-2**70,
                                                 max_value=2**70))
@settings(max_examples=200, deadline=None)
def test_sample_offsets_equal_want(t0, n, sample, seed):
    tracer = DecisionTracer(io.StringIO(), sample=sample, seed=seed)
    offsets = tracer.sample_offsets(t0, n)
    assert offsets.tolist() == [i for i in range(n) if tracer.want(t0 + i)]
