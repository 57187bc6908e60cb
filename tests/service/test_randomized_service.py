"""The paper's randomized policies served through :class:`PagingService`.

Algorithm 2 (``randomized-multilevel``) and its ``l = 1`` case
(``randomized-weighted``) carry a fractional solver and an RNG per shard.
Every backend must reproduce the same per-shard ledgers, and a checkpoint
must carry both, so a killed shard recovers to the fault-free ledger.
"""

import pytest

from repro.faults import FaultPlan
from repro.service import PagingService, ServiceConfig, run_load
from repro.workloads import multilevel_stream, random_multilevel_instance

N_REQUESTS = 1200
#: policy name -> number of levels of its instance
LEVELS = {"randomized-multilevel": 2, "randomized-weighted": 1}


def serve(policy, backend, **kwargs):
    """Serve the stream; returns (total cost, per-shard ledgers)."""
    levels = LEVELS[policy]
    inst = random_multilevel_instance(24, 8, levels, rng=0)
    seq = multilevel_stream(24, levels, N_REQUESTS, rng=1)
    config = ServiceConfig.from_policy_name(
        policy, inst, n_shards=2, batch_size=64, backend=backend, **kwargs)
    svc = PagingService(config)
    if backend == "inline":
        svc.submit_batch(seq.pages, seq.levels)
        svc.stop()
    else:
        with svc:
            report = run_load(svc, seq, rate=1e9, max_retries=200,
                              retry_backoff=0.001)
            assert svc.drain(30.0)
        assert report.n_served == N_REQUESTS
        assert report.n_failed_batches == 0
    ledgers = [(e.ledger.eviction_cost, e.ledger.n_hits, e.ledger.n_misses,
                e.ledger.n_evictions, dict(e.ledger.cost_by_level))
               for e in svc.engines]
    return svc.total_cost(), ledgers, svc.snapshot()


@pytest.mark.parametrize("policy", sorted(LEVELS))
def test_backends_and_recovery_give_equal_ledgers(policy):
    inline = serve(policy, "inline")
    thread = serve(policy, "thread")
    process = serve(policy, "process")
    recovered = serve(policy, "thread", checkpoint_interval=200,
                      fault_plan=FaultPlan.parse("kill:0@300"))
    assert inline[0] > 0
    assert inline[:2] == thread[:2] == process[:2] == recovered[:2]
    snap = recovered[2]
    assert snap.n_worker_restarts == 1
    assert snap.n_failed_shards == 0
