"""Experience record/replay: the ``==``-exact determinism pin.

Record a live run (threaded backend, so arrival interleaving is real),
replay it through fresh engines with the recorded configuration, and
require the eviction cost to be ``==``-equal — not approximately equal.
Alternative policies replay the *same* per-shard streams, making A/B
cost diffs exact rather than workload-resampled.
"""

import numpy as np
import pytest

from repro.algorithms import KernelWaterFillingPolicy
from repro.control import Experience, ExperienceRecorder, ReplayEngine
from repro.core.instance import WeightedPagingInstance
from repro.errors import ServiceConfigError
from repro.service import PagingService, ServiceConfig
from repro.workloads import sample_weights, zipf_stream

N_PAGES = 64


def record_run(*, backend="thread", n_requests=4000, seed=7):
    inst = WeightedPagingInstance(12, sample_weights(N_PAGES, rng=0,
                                                     high=16.0))
    seq = zipf_stream(N_PAGES, n_requests, rng=11)
    config = ServiceConfig.from_policy_name(
        "waterfilling", inst, n_shards=4, batch_size=128, seed=seed,
        queue_depth=256, backend=backend)
    service = PagingService(config)
    recorder = ExperienceRecorder(4)
    service.attach_recorder(recorder)
    with service:
        for lo in range(0, len(seq), 128):
            result = service.submit_batch(seq.pages[lo:lo + 128],
                                          seq.levels[lo:lo + 128])
            while not result.accepted:
                service.drain(0.01)
                result = service.submit_batch(seq.pages[lo:lo + 128],
                                              seq.levels[lo:lo + 128])
        service.drain()
        experience = recorder.experience(service)
        live = service.snapshot().to_dict()
    return experience, live


@pytest.fixture(scope="module")
def recorded():
    return record_run()


class TestRecorder:
    def test_captures_every_admitted_request(self, recorded):
        experience, live = recorded
        assert experience.n_requests == live["n_requests"] == 4000

    def test_meta_carries_config_and_ledger(self, recorded):
        experience, live = recorded
        meta = experience.meta
        assert meta["policy"] == "waterfilling"
        assert meta["cache_size"] == 12
        assert meta["n_shards"] == 4
        assert meta["live"]["eviction_cost"] == live["eviction_cost"]

    def test_recorder_validates_shards(self):
        with pytest.raises(ServiceConfigError):
            ExperienceRecorder(0)

    def test_detach_stops_recording(self):
        experience, _ = record_run(n_requests=256)
        inst = WeightedPagingInstance(12, sample_weights(N_PAGES, rng=0,
                                                         high=16.0))
        config = ServiceConfig.from_policy_name(
            "waterfilling", inst, n_shards=4, batch_size=128, seed=7,
            backend="inline")
        service = PagingService(config)
        recorder = ExperienceRecorder(4)
        service.attach_recorder(recorder)
        service.attach_recorder(None)
        with service:
            service.submit_batch(np.arange(64), np.ones(64, np.int64))
            service.drain()
        assert recorder.n_requests == 0


class TestReplayExactness:
    def test_recorded_config_replays_cost_exactly(self, recorded):
        experience, live = recorded
        engine = ReplayEngine(experience)
        result = engine.run()
        assert result.eviction_cost == live["eviction_cost"]
        assert result.n_hits == live["n_hits"]
        assert result.n_misses == live["n_misses"]
        assert result.cost_by_level == {
            str(k): v for k, v in live["cost_by_level"].items()}
        assert engine.matches_live(result)

    def test_inline_backend_records_identically(self):
        experience, live = record_run(backend="inline", n_requests=1500)
        result = ReplayEngine(experience).run()
        assert result.eviction_cost == live["eviction_cost"]

    def test_paced_replay_matches_too(self, recorded):
        experience, live = recorded
        result = ReplayEngine(experience).run(rate=1e6)
        assert result.eviction_cost == live["eviction_cost"]
        assert result.report is not None
        assert result.report.n_served == experience.n_requests

    def test_alternative_policy_changes_the_ledger(self, recorded):
        experience, live = recorded
        engine = ReplayEngine(experience)
        alt = engine.run(policy="lru")
        assert alt.policy == "lru"
        assert alt.eviction_cost != live["eviction_cost"]
        assert not engine.matches_live(alt)

    def test_alternative_cache_size(self, recorded):
        experience, live = recorded
        bigger = ReplayEngine(experience).run(cache_size=24)
        assert bigger.cache_size == 24
        assert bigger.eviction_cost < live["eviction_cost"]

    def test_unknown_policy_raises(self, recorded):
        with pytest.raises(ServiceConfigError):
            ReplayEngine(recorded[0]).run(policy="nope")

    def test_factory_built_service_replays(self):
        # A library config names no policy: the recording must carry the
        # factory's registry name, or replay cannot rebuild the policy.
        inst = WeightedPagingInstance(12, sample_weights(N_PAGES, rng=0,
                                                         high=16.0))
        seq = zipf_stream(N_PAGES, 1500, rng=11)
        service = PagingService(ServiceConfig(
            instance=inst, policy_factory=KernelWaterFillingPolicy,
            n_shards=4, batch_size=128, seed=7, backend="inline"))
        recorder = ExperienceRecorder(4)
        service.attach_recorder(recorder)
        for lo in range(0, len(seq), 128):
            service.submit_batch(seq.pages[lo:lo + 128],
                                 seq.levels[lo:lo + 128])
        experience = recorder.experience(service)
        assert experience.meta["policy"] == "waterfilling-kernel"
        engine = ReplayEngine(experience)
        result = engine.run()
        assert result.policy == "waterfilling-kernel"
        assert engine.matches_live(result)

    def test_heap_waterfilling_recording_replays_on_the_kernel(self):
        # Recordings made under the deleted lazy-heap water-filling name
        # it in their meta; the name is an alias of the kernel, whose
        # ledger is == the heap's, so they still replay == to live.
        inst = WeightedPagingInstance(12, sample_weights(N_PAGES, rng=0,
                                                         high=16.0))
        seq = zipf_stream(N_PAGES, 1500, rng=11)
        service = PagingService(ServiceConfig.from_policy_name(
            "waterfilling-heap", inst, n_shards=4, batch_size=128, seed=7,
            backend="inline"))
        recorder = ExperienceRecorder(4)
        service.attach_recorder(recorder)
        for lo in range(0, len(seq), 128):
            service.submit_batch(seq.pages[lo:lo + 128],
                                 seq.levels[lo:lo + 128])
        assert isinstance(service.engines[0].policy, KernelWaterFillingPolicy)
        experience = recorder.experience(service)
        assert experience.meta["policy"] == "waterfilling-heap"
        engine = ReplayEngine(experience)
        result = engine.run()
        assert result.eviction_cost == experience.meta["live"]["eviction_cost"]
        assert engine.matches_live(result)


class TestPersistenceRoundTrip:
    @pytest.mark.parametrize("suffix", [".npz", ".jsonl"])
    def test_save_load_replays_exactly(self, recorded, tmp_path, suffix):
        experience, live = recorded
        path = experience.save(tmp_path / f"run{suffix}")
        loaded = Experience.load(path)
        assert loaded.meta == experience.meta
        assert np.array_equal(loaded.weights, experience.weights)
        for (p1, l1), (p2, l2) in zip(loaded.shards, experience.shards):
            assert np.array_equal(p1, p2) and np.array_equal(l1, l2)
        result = ReplayEngine(loaded).run()
        assert result.eviction_cost == live["eviction_cost"]

    def test_stats_summarize_the_traffic(self, recorded):
        stats = recorded[0].stats()
        assert stats["n_requests"] == 4000
        assert sum(stats["per_shard"]) == 4000
        assert stats["level_counts"] == {"1": 4000}
        assert 0 < stats["unique_pages"] <= N_PAGES

    def test_merged_preserves_per_shard_order(self, recorded):
        experience, _ = recorded
        pages, levels = experience.merged()
        assert pages.size == experience.n_requests
        # Route the merged stream back: per-shard subsequences must be
        # exactly the recorded streams.
        from repro.service.router import ShardRouter

        router = ShardRouter(4)
        shards = router.shards_of(pages)
        for shard in range(4):
            assert np.array_equal(pages[shards == shard],
                                  experience.shards[shard][0])


class TestCompareTable:
    def test_compare_includes_live_and_exact_marker(self, recorded):
        experience, _ = recorded
        table = ReplayEngine(experience).compare(["waterfilling", "lru"])
        render = table.render()
        assert "live (waterfilling)" in render
        assert "0 (exact)" in render
        assert "lru" in render
