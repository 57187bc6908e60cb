"""ShardCheckpoint: capture/restore round-trips, shared handles, trace marks."""

import numpy as np
import pytest

from repro.algorithms import WaterFillingPolicy
from repro.core.instance import WeightedPagingInstance
from repro.faults import ShardCheckpoint
from repro.obs import DecisionTracer, MetricsRegistry
from repro.service.engine import ShardEngine
from repro.workloads import sample_weights, zipf_stream


def make_engine(registry=None, seed=0):
    inst = WeightedPagingInstance(8, sample_weights(32, rng=0, high=16.0))
    return ShardEngine(0, inst, WaterFillingPolicy(),
                       np.random.default_rng(seed), registry=registry)


def make_workload(length=2000, rng=1):
    return zipf_stream(32, length, alpha=0.9, rng=rng)


def ledger_key(engine):
    ledger = engine.ledger
    return (engine.n_requests, ledger.eviction_cost, ledger.n_hits,
            ledger.n_misses, ledger.n_evictions,
            dict(ledger.cost_by_level), dict(ledger.evictions_by_level))


class TestRoundTrip:
    def test_restore_rewinds_to_capture_point(self):
        seq = make_workload()
        engine = make_engine()
        engine.process_batch(seq.pages[:1000], seq.levels[:1000])
        ckpt = ShardCheckpoint.capture(engine, seq=7)
        before = ledger_key(engine)

        engine.process_batch(seq.pages[1000:], seq.levels[1000:])
        assert ledger_key(engine) != before

        ckpt.restore(engine)
        assert ckpt.seq == 7
        assert ckpt.t == 1000
        assert ledger_key(engine) == before

    def test_replay_after_restore_is_deterministic(self):
        """Restoring and re-feeding the suffix reproduces the exact cost."""
        seq = make_workload()
        engine = make_engine()
        engine.process_batch(seq.pages[:1000], seq.levels[:1000])
        ckpt = ShardCheckpoint.capture(engine)
        engine.process_batch(seq.pages[1000:], seq.levels[1000:])
        final = ledger_key(engine)

        ckpt.restore(engine)
        engine.process_batch(seq.pages[1000:], seq.levels[1000:])
        assert ledger_key(engine) == final

    def test_checkpoint_survives_repeated_restores(self):
        """The stored state stays pristine: restore deep-copies it again."""
        seq = make_workload()
        engine = make_engine()
        engine.process_batch(seq.pages[:500], seq.levels[:500])
        ckpt = ShardCheckpoint.capture(engine)
        final = None
        for _ in range(3):
            ckpt.restore(engine)
            engine.process_batch(seq.pages[500:], seq.levels[500:])
            key = ledger_key(engine)
            assert final is None or key == final
            final = key

    def test_capture_does_not_alias_live_state(self):
        """Mutating the engine after capture must not corrupt the checkpoint."""
        seq = make_workload()
        engine = make_engine()
        engine.process_batch(seq.pages[:300], seq.levels[:300])
        before = ledger_key(engine)
        ckpt = ShardCheckpoint.capture(engine)
        engine.process_batch(seq.pages[300:], seq.levels[300:])
        ckpt.restore(engine)
        assert ledger_key(engine) == before


class TestSharedHandles:
    def test_instance_is_shared_not_copied(self):
        engine = make_engine()
        seq = make_workload(300)
        engine.process_batch(seq.pages, seq.levels)
        inst = engine.instance
        ckpt = ShardCheckpoint.capture(engine)
        ckpt.restore(engine)
        assert engine.instance is inst
        assert engine.policy.instance is inst

    def test_registry_children_survive_restore(self):
        """Exposition metrics keep flowing to the same children after restore.

        Metric families hold locks (pickling them would crash) and a
        restored shard must keep publishing to the exact counters a scrape
        already saw — the engine's meter holds the handles, outside the
        pickled state.
        """
        registry = MetricsRegistry()
        engine = make_engine(registry=registry)
        seq = make_workload(600)
        engine.process_batch(seq.pages[:300], seq.levels[:300])
        family = registry.counter("repro_evictions_total", "",
                                  ("shard", "level"))
        children_before = dict(family.children())
        ckpt = ShardCheckpoint.capture(engine)
        engine.process_batch(seq.pages[300:], seq.levels[300:])
        ckpt.restore(engine)
        assert engine.meter._f_evictions is family
        for labels, child in family.children().items():
            if labels in children_before:
                assert child is children_before[labels]
        # The restored ledger still publishes without error...
        engine.process_batch(seq.pages[300:], seq.levels[300:])
        text = registry.render()
        assert "repro_evictions_total" in text

    def test_restored_cache_graph_is_one_consistent_unit(self):
        engine = make_engine()
        seq = make_workload(300)
        engine.process_batch(seq.pages, seq.levels)
        ckpt = ShardCheckpoint.capture(engine)
        engine.process_batch(seq.pages, seq.levels)
        ckpt.restore(engine)
        # policy -> cache -> ledger must be the *same* restored objects.
        assert engine.policy.cache is engine.cache
        assert engine.cache.ledger is engine.ledger


class TestTraceMark:
    def test_rewind_truncates_to_mark(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = DecisionTracer(path, sample=1.0, seed=0)
        tracer.request(0, 5, 1, False)
        mark = tracer.mark()
        bytes_at_mark = path.read_bytes()
        tracer.request(1, 6, 1, True)
        tracer.rewind(mark)
        tracer.mark()  # flush so the truncation is visible on disk
        assert path.read_bytes() == bytes_at_mark
        tracer.close()

    def test_rewind_restores_counters(self, tmp_path):
        tracer = DecisionTracer(tmp_path / "t.jsonl", sample=1.0, seed=0)
        tracer.request(0, 1, 1, False)
        mark = tracer.mark()
        tracer.request(1, 2, 1, False)
        tracer.request(2, 3, 1, False)
        assert tracer.n_requests == 3
        tracer.rewind(mark)
        assert tracer.n_requests == 1
        assert tracer.n_written == mark[1]
        tracer.close()

    def test_rewind_closed_tracer_rejected(self, tmp_path):
        tracer = DecisionTracer(tmp_path / "t.jsonl", sample=1.0, seed=0)
        mark = tracer.mark()
        tracer.close()
        with pytest.raises(ValueError, match="closed"):
            tracer.rewind(mark)

    def test_checkpoint_restore_replay_is_byte_identical(self, tmp_path):
        """A crash-restore-replay cycle leaves the exact fault-free trace."""
        seq = make_workload(1200)

        def traced_engine(path):
            engine = make_engine()
            tracer = DecisionTracer(path, sample=0.5, seed=3, source="shard-0")
            engine.set_tracer(tracer)
            return engine, tracer

        ref_path = tmp_path / "ref.jsonl"
        engine, tracer = traced_engine(ref_path)
        engine.process_batch(seq.pages[:600], seq.levels[:600])
        engine.process_batch(seq.pages[600:], seq.levels[600:])
        tracer.close()

        crash_path = tmp_path / "crash.jsonl"
        engine, tracer = traced_engine(crash_path)
        engine.process_batch(seq.pages[:600], seq.levels[:600])
        ckpt = ShardCheckpoint.capture(engine)
        # "Crash" partway through the suffix, then restore + replay it all.
        engine.process_batch(seq.pages[600:900], seq.levels[600:900])
        ckpt.restore(engine)
        engine.process_batch(seq.pages[600:], seq.levels[600:])
        tracer.close()

        assert crash_path.read_bytes() == ref_path.read_bytes()
        assert ref_path.stat().st_size > 0
