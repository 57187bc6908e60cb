"""``/metrics`` parity: every engine backend meters a stream the same way.

Each shard batch is counted through one ``ShardMeter`` on every backend,
so one config and one stream must leave ``==`` counter families on the
inline, thread and process backends.  That holds across a kill-and-recover
too (replayed batches count again, on every backend alike), and an
installed shard's history counts on no backend.
"""

from time import sleep

import numpy as np
import pytest

from repro.algorithms import KernelWaterFillingPolicy
from repro.faults import FaultPlan
from repro.obs import MetricsRegistry
from repro.service import PagingService, ServiceConfig, ShardEngine
from repro.workloads import multilevel_stream, random_multilevel_instance

N_REQUESTS = 6000
BATCH = 256
COUNTERS = ("repro_requests_total", "repro_hits_total", "repro_misses_total",
            "repro_batches_total", "repro_evictions_total",
            "repro_eviction_cost_total")
FAMILIES = COUNTERS + ("repro_batch_latency_seconds",)


def make_service(seed, backend, registry, **kwargs):
    inst = random_multilevel_instance(128, 24, 3, rng=seed)
    config = ServiceConfig.from_policy_name(
        "waterfilling-kernel", inst, n_shards=2, batch_size=BATCH,
        seed=seed, backend=backend, metrics_registry=registry, **kwargs)
    return PagingService(config)


def make_workload(seed, length=N_REQUESTS):
    return multilevel_stream(128, 3, length, alpha=0.9, rng=seed + 100)


def feed(svc, seq):
    for lo in range(0, len(seq), BATCH):
        while not svc.submit_batch(seq.pages[lo:lo + BATCH],
                                   seq.levels[lo:lo + BATCH]).accepted:
            sleep(0.001)


def serve(seed, backend, **kwargs):
    """Serve the seed's stream; returns (counter families, snapshot)."""
    registry = MetricsRegistry()
    svc = make_service(seed, backend, registry, **kwargs)
    with svc:
        feed(svc, make_workload(seed))
        assert svc.drain(30.0)
        snap = svc.snapshot()
    collected = registry.collect()
    return {name: collected[name] for name in COUNTERS}, snap


def families(registry):
    collected = registry.collect()
    return {name: collected.get(name, {}) for name in FAMILIES}


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_counter_families_equal_across_backends(seed):
    inline, snap = serve(seed, "inline")
    assert serve(seed, "thread")[0] == inline
    assert serve(seed, "process")[0] == inline
    for shard in snap.shards:
        label = (str(shard.shard),)
        assert inline["repro_requests_total"][label] == shard.n_requests
        assert inline["repro_hits_total"][label] == shard.n_hits
        assert inline["repro_misses_total"][label] == shard.n_misses
        assert inline["repro_batches_total"][label] == shard.n_batches
        for level, n in shard.evictions_by_level.items():
            key = (str(shard.shard), str(level))
            assert inline["repro_evictions_total"][key] == n
            assert inline["repro_eviction_cost_total"][key] == \
                pytest.approx(shard.cost_by_level[level])


@pytest.mark.parametrize("seed,interval", [(0, 700), (1, 1500), (2, 700)])
def test_kill_and_recover_counts_the_same_on_thread_and_process(seed,
                                                                 interval):
    """Replayed work counts again, and identically, on both backends."""
    def run(backend):
        return serve(seed, backend, checkpoint_interval=interval,
                     max_restarts=4,
                     fault_plan=FaultPlan.parse("kill:0@900,kill:1@1300"))

    thread, thread_snap = run("thread")
    process, process_snap = run("process")
    assert thread_snap.n_worker_restarts == process_snap.n_worker_restarts == 2
    assert thread == process
    # At-least-once: the replayed batches are on top of the stream.
    assert sum(thread["repro_requests_total"].values()) > N_REQUESTS


@pytest.mark.parametrize("backend", ["thread", "process"])
def test_installed_shard_history_counts_nowhere(backend):
    source = make_service(0, backend, MetricsRegistry())
    registry = MetricsRegistry()
    target = make_service(0, backend, registry)
    with source, target:
        feed(source, make_workload(0))
        assert source.drain(30.0)
        checkpoint = source.capture_shard(0, timeout=10.0)
        assert checkpoint.t > 0

        before = families(registry)
        target.install_shard(0, checkpoint, timeout=10.0)
        assert target.snapshot().shards[0].n_requests == checkpoint.t
        assert families(registry) == before

        # One more batch, all on shard 0, moves the families by exactly
        # that batch.
        seq = make_workload(1)
        on_zero = target.router.shards_of(seq.pages) == 0
        pages, levels = seq.pages[on_zero][:64], seq.levels[on_zero][:64]
        shard_before = target.snapshot().shards[0]
        assert target.submit_batch(pages, levels).accepted
        assert target.drain(30.0)
        shard_after = target.snapshot().shards[0]
    after = families(registry)

    def moved(name, key=("0",)):
        return after[name][key] - before[name].get(key, 0.0)

    assert moved("repro_requests_total") == len(pages)
    assert moved("repro_batches_total") == 1
    assert moved("repro_hits_total") == \
        shard_after.n_hits - shard_before.n_hits
    assert moved("repro_misses_total") == \
        shard_after.n_misses - shard_before.n_misses
    hist = after["repro_batch_latency_seconds"][("0",)]
    assert hist["count"] == \
        before["repro_batch_latency_seconds"][("0",)]["count"] + 1
    levels_moved = {
        level for level, n in shard_after.evictions_by_level.items()
        if n != shard_before.evictions_by_level.get(level, 0)}
    for level in levels_moved:
        key = ("0", str(level))
        assert moved("repro_evictions_total", key) == (
            shard_after.evictions_by_level[level]
            - shard_before.evictions_by_level.get(level, 0))
        assert moved("repro_eviction_cost_total", key) == (
            shard_after.cost_by_level[level]
            - shard_before.cost_by_level.get(level, 0.0))
    # No other shard or level moved.
    for name in COUNTERS:
        for key, value in after[name].items():
            if key[0] != "0" or (len(key) == 2
                                 and int(key[1]) not in levels_moved):
                assert value == before[name].get(key, 0.0), (name, key)


def test_unmetered_step_advances_the_ledger_only():
    """``ShardEngine.serve`` — what a process worker runs per batch —
    counts the batch in the ledger and leaves the meter as it was, so
    the parent's meter is the only meter of a process-backed shard."""
    registry = MetricsRegistry()
    engine = ShardEngine(0, random_multilevel_instance(128, 24, 3, rng=0),
                         KernelWaterFillingPolicy(), np.random.default_rng(0),
                         registry=registry)
    seq = make_workload(0, length=BATCH)
    engine.serve(seq.pages, seq.levels)
    ledger = engine.ledger
    assert (ledger.n_requests, ledger.n_batches) == (BATCH, 1)
    assert ledger.n_misses > 0
    assert ledger.n_hits + ledger.n_misses == BATCH
    assert engine.meter.latency.empty
    assert engine.meter.profiler.stats() == {}
    unmetered = families(registry)
    assert all(value == 0 for name in COUNTERS
               for value in unmetered[name].values())
    assert unmetered["repro_batch_latency_seconds"][("0",)]["count"] == 0
