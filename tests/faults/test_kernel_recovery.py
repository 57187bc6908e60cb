"""Fault recovery with columnar kernel policies.

The chaos smoke test pins the fault/checkpoint/replay stack on a scalar
policy; this one re-runs the same shape with the batch kernels.  The
checkpoint payload carries the kernel's columns and heap (minus the derived
views its ``__getstate__`` drops), a restore rebuilds those views against
the live instance, and replayed batches go back through ``serve_batch`` —
so a mid-run kill must still land on the exact fault-free cost.
"""

import pytest

from repro.algorithms import KernelLandlordPolicy, KernelWaterFillingPolicy
from repro.core.instance import WeightedPagingInstance
from repro.faults import FaultPlan
from repro.service import PagingService, ServiceConfig, run_load
from repro.workloads import sample_weights, zipf_stream

N_SHARDS = 4
N_REQUESTS = 6000

KERNELS = [KernelLandlordPolicy, KernelWaterFillingPolicy]


def make_service(policy, **kwargs):
    inst = WeightedPagingInstance(16, sample_weights(128, rng=0, high=16.0))
    config = ServiceConfig(instance=inst, policy_factory=policy,
                           n_shards=N_SHARDS, batch_size=128, **kwargs)
    return PagingService(config)


def make_workload():
    return zipf_stream(128, N_REQUESTS, alpha=0.9, rng=1)


class TestKernelRecovery:
    @pytest.mark.parametrize("policy", KERNELS)
    def test_kill_mid_loadgen_recovers_exact_cost(self, policy):
        seq = make_workload()
        clean = make_service(policy)
        clean.submit_batch(seq.pages, seq.levels)

        chaos = make_service(
            policy,
            fault_plan=FaultPlan.parse("kill:1@700,delay:0@400:0.005"),
            checkpoint_interval=500,
        )
        with chaos:
            report = run_load(chaos, seq, rate=1e9, max_retries=200,
                              retry_backoff=0.001)
            assert chaos.drain(30.0)
        assert report.n_served == N_REQUESTS
        assert report.n_failed_batches == 0
        assert chaos.total_cost() == clean.total_cost()
        snap = chaos.snapshot()
        assert snap.n_worker_restarts == 1
        assert snap.n_failed_shards == 0

    @pytest.mark.parametrize("policy", KERNELS)
    def test_random_plan_cost_determinism(self, policy):
        seq = make_workload()
        clean = make_service(policy)
        clean.submit_batch(seq.pages, seq.levels)

        plan = FaultPlan.random(11, N_SHARDS, N_REQUESTS // N_SHARDS,
                                n_faults=2)
        svc = make_service(policy, fault_plan=plan, checkpoint_interval=300)
        with svc:
            report = run_load(svc, seq, rate=1e9, max_retries=200)
        assert report.n_served == N_REQUESTS
        assert svc.total_cost() == pytest.approx(clean.total_cost(), abs=0.0)
