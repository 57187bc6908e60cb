"""Cross-module integration tests: whole pipelines, end to end."""

import numpy as np
import pytest

from repro.algorithms import (
    KernelLandlordPolicy,
    LRUPolicy,
    RandomizedMultiLevelPolicy,
    RandomizedWeightedPagingPolicy,
    RWAdapterPolicy,
    WaterFillingPolicy,
    WBLRUPolicy,
)
from repro.analysis import Table, competitive_ratio
from repro.core.instance import WeightedPagingInstance, WritebackInstance
from repro.core.normalize import normalize_instance
from repro.core.reductions import (
    writeback_to_rw_instance,
    writeback_to_rw_sequence,
)
from repro.offline import best_opt_bound, offline_opt_writeback
from repro.sim import RunSpec, run_sweep, simulate, simulate_writeback
from repro.workloads import (
    dumps_trace,
    loads_trace,
    multilevel_stream,
    random_multilevel_instance,
    readwrite_stream,
    sample_weights,
    zipf_stream,
)

ALL_ML_POLICIES = [
    LRUPolicy,
    KernelLandlordPolicy,
    WaterFillingPolicy,
    RandomizedMultiLevelPolicy,
]


class TestFullPipelines:
    def test_every_policy_dominates_opt(self):
        inst = WeightedPagingInstance(3, sample_weights(8, rng=0, high=8.0))
        seq = zipf_stream(8, 200, rng=1)
        opt = best_opt_bound(inst, seq)
        assert opt.exact
        for factory in ALL_ML_POLICIES + [RandomizedWeightedPagingPolicy]:
            cost = simulate(inst, seq, factory(), seed=2).cost
            assert competitive_ratio(cost, opt.value) >= 1.0 - 1e-9

    def test_multilevel_policies_dominate_opt(self):
        inst = random_multilevel_instance(6, 2, 2, rng=3)
        seq = multilevel_stream(6, 2, 100, rng=4)
        opt = best_opt_bound(inst, seq)
        for factory in ALL_ML_POLICIES:
            cost = simulate(inst, seq, factory(), seed=5).cost
            assert cost >= opt.value - 1e-9

    def test_trace_roundtrip_preserves_simulation(self):
        inst = random_multilevel_instance(10, 3, 2, rng=6)
        seq = multilevel_stream(10, 2, 300, rng=7)
        replayed = loads_trace(dumps_trace(seq))
        a = simulate(inst, seq, WaterFillingPolicy())
        b = simulate(inst, replayed, WaterFillingPolicy())
        assert a.cost == b.cost

    def test_normalized_instance_costs_comparable(self):
        # Normalization loses at most a factor 2 on the optimum; online
        # costs on the normalized instance stay in the same ballpark.
        rng = np.random.default_rng(8)
        w = np.sort(rng.uniform(1, 10, size=(8, 3)), axis=1)[:, ::-1]
        from repro.core.instance import MultiLevelInstance

        inst = MultiLevelInstance(3, w)
        norm = normalize_instance(inst)
        seq = multilevel_stream(8, 3, 400, rng=9)
        mapped = norm.map_sequence(seq)
        orig_cost = simulate(inst, seq, WaterFillingPolicy()).cost
        norm_cost = simulate(norm.instance, mapped, WaterFillingPolicy()).cost
        assert norm_cost <= 4.0 * orig_cost + 50.0
        assert orig_cost <= 4.0 * norm_cost + 50.0

    def test_writeback_pipeline_with_opt(self):
        inst = WritebackInstance(2, [6.0, 5.0, 4.0, 7.0, 3.0],
                                 [2.0, 1.0, 1.0, 2.0, 1.0])
        seq = readwrite_stream(5, 80, write_fraction=0.4, rng=10)
        opt = offline_opt_writeback(inst, seq)
        for policy in [WBLRUPolicy(), RWAdapterPolicy(WaterFillingPolicy())]:
            cost = simulate_writeback(inst, seq, policy, seed=11).cost
            assert cost >= opt - 1e-9

    def test_adapter_inherits_rw_guarantee_chain(self):
        # writeback cost <= rw cost <= (waterfilling online on RW image).
        inst = WritebackInstance.uniform(10, 3, dirty_cost=8.0)
        seq = readwrite_stream(10, 300, write_fraction=0.3, rng=12)
        adapter = RWAdapterPolicy(WaterFillingPolicy())
        run = simulate_writeback(inst, seq, adapter, seed=13)
        direct = simulate(
            writeback_to_rw_instance(inst),
            writeback_to_rw_sequence(seq),
            WaterFillingPolicy(),
            seed=13,
        )
        assert run.extra["rw_cost"] == pytest.approx(direct.cost)
        assert run.cost <= run.extra["rw_cost"] + 1e-9

    def test_sweep_to_table_report(self):
        inst = WeightedPagingInstance(4, sample_weights(12, rng=14))
        seq = zipf_stream(12, 300, rng=15)
        specs = [
            RunSpec(inst, seq, factory, n_seeds=2, params={"policy": factory.name})
            for factory in ALL_ML_POLICIES
        ]
        results = run_sweep(specs)
        table = Table(["policy", "mean cost"])
        for res in results:
            table.add_row(res.spec_label, res.aggregate.mean_cost)
        text = table.render()
        for factory in ALL_ML_POLICIES:
            assert factory.name in text


class TestSeededReproducibility:
    """The same master seed reproduces whole experiments bit-for-bit."""

    def test_randomized_end_to_end(self):
        inst = random_multilevel_instance(12, 4, 2, rng=20)
        seq = multilevel_stream(12, 2, 400, rng=21)
        spec = RunSpec(inst, seq, RandomizedMultiLevelPolicy, n_seeds=3,
                       master_seed=99)
        a = [r.cost for r in run_sweep([spec])[0].runs]
        b = [r.cost for r in run_sweep([spec])[0].runs]
        assert a == b

    def test_workload_and_instance_generation(self):
        a = random_multilevel_instance(9, 3, 2, rng=22)
        b = random_multilevel_instance(9, 3, 2, rng=22)
        assert a == b
        assert multilevel_stream(9, 2, 50, rng=23) == multilevel_stream(9, 2, 50, rng=23)
