"""Worker recovery: checkpoint + replay reproduces fault-free state; shards
past their restart budget fail pending tickets instead of hanging them."""

from time import sleep

import pytest

from repro.algorithms import WaterFillingPolicy
from repro.core.instance import WeightedPagingInstance
from repro.errors import InjectedFault, ServiceStateError
from repro.faults import FaultPlan
from repro.service import Failed, PagingService, ServiceConfig
from repro.service import server as service_server
from repro.workloads import sample_weights, zipf_stream

N_SHARDS = 4
BATCH = 128
N_REQUESTS = 6000  # ~1500 per shard: fault times must stay below that


def make_service(**kwargs):
    inst = WeightedPagingInstance(16, sample_weights(128, rng=0, high=16.0))
    config = ServiceConfig(instance=inst, policy_factory=WaterFillingPolicy,
                           n_shards=N_SHARDS, batch_size=BATCH, **kwargs)
    return PagingService(config)


def make_workload():
    return zipf_stream(128, N_REQUESTS, alpha=0.9, rng=1)


def feed(svc, seq, batch=BATCH):
    """Stream the workload, retrying transient rejections; returns results."""
    results = []
    for lo in range(0, len(seq), batch):
        while True:
            r = svc.submit_batch(seq.pages[lo:lo + batch],
                                 seq.levels[lo:lo + batch])
            if r.accepted or not getattr(r, "retryable", True):
                results.append(r)
                break
            sleep(0.001)
    return results


@pytest.fixture(scope="module")
def fault_free_cost():
    svc = make_service()
    seq = make_workload()
    svc.submit_batch(seq.pages, seq.levels)
    return svc.total_cost()


class TestRecovery:
    def test_kill_recovers_to_fault_free_cost(self, fault_free_cost):
        seq = make_workload()
        svc = make_service(fault_plan=FaultPlan.parse("kill:1@700"),
                           checkpoint_interval=500)
        with svc:
            tickets = feed(svc, seq)
            assert svc.drain(30.0)
        assert all(t.accepted and t.ok for t in tickets)
        assert svc.total_cost() == fault_free_cost
        snap = svc.snapshot()
        assert snap.n_requests == N_REQUESTS
        assert snap.n_faults_injected == 1
        assert snap.n_worker_restarts == 1
        assert snap.n_failed_shards == 0
        assert snap.shards[1].n_restores == 1
        assert snap.shards[1].n_checkpoints >= 1

    def test_drop_fault_replays_lost_slice(self, fault_free_cost):
        # The dropped batch dies with the worker; only the replay log can
        # restore it — total cost still matches the fault-free run.
        seq = make_workload()
        svc = make_service(fault_plan=FaultPlan.parse("drop:2@600"),
                           checkpoint_interval=400)
        with svc:
            tickets = feed(svc, seq)
            assert svc.drain(30.0)
        assert all(t.ok for t in tickets)
        assert svc.total_cost() == fault_free_cost
        assert svc.snapshot().shards[2].n_restores == 1

    def test_delay_fault_only_adds_latency(self, fault_free_cost):
        seq = make_workload()
        svc = make_service(fault_plan=FaultPlan.parse("delay:0@300:0.02"),
                           checkpoint_interval=500)
        with svc:
            tickets = feed(svc, seq)
            assert svc.drain(30.0)
        assert all(t.ok for t in tickets)
        assert svc.total_cost() == fault_free_cost
        snap = svc.snapshot()
        assert snap.n_faults_injected == 1
        assert snap.n_worker_restarts == 0

    def test_multiple_kills_within_budget(self, fault_free_cost):
        seq = make_workload()
        # Splitmix64 routing is uneven: shard 0 sees only ~1050 of the 6000
        # requests, so all per-shard fault times must stay well below that.
        plan = FaultPlan.parse("kill:0@400,kill:3@800,kill:0@900")
        svc = make_service(fault_plan=plan, checkpoint_interval=300,
                           max_restarts=3)
        with svc:
            tickets = feed(svc, seq)
            assert svc.drain(30.0)
        assert all(t.ok for t in tickets)
        assert svc.total_cost() == fault_free_cost
        snap = svc.snapshot()
        assert snap.n_faults_injected == 3
        assert snap.n_worker_restarts == 3
        assert snap.shards[0].n_restores == 2

    def test_replayed_batches_counted(self):
        seq = make_workload()
        svc = make_service(fault_plan=FaultPlan.parse("kill:1@900"),
                           checkpoint_interval=500)
        with svc:
            feed(svc, seq)
            assert svc.drain(30.0)
        snap = svc.snapshot()
        # The kill landed mid-interval, so at least the in-hand batch was
        # replayed from the log after the restore.
        assert snap.shards[1].n_replayed_batches >= 1


class TestReplayLogCap:
    def test_cap_forces_checkpoints_and_recovery_stays_exact(
            self, monkeypatch, fault_free_cost):
        # An interval this long never checkpoints: only the replay-log cap
        # keeps the log short, and the kill must replay from that log.
        cap = 3
        monkeypatch.setattr(service_server, "REPLAY_LOG_CAP", cap)
        seq = make_workload()
        svc = make_service(fault_plan=FaultPlan.parse("kill:1@700"),
                           checkpoint_interval=10 ** 9)
        longest = 0
        with svc:
            for lo in range(0, len(seq), BATCH):
                feed(svc, seq[lo:lo + BATCH])
                assert svc.drain(30.0)
                longest = max(longest,
                              *(len(state.log) for state in svc._states))
        assert longest <= cap
        snap = svc.snapshot()
        assert snap.n_worker_restarts == 1
        # One seed checkpoint plus the ones the cap forced.
        assert all(s.n_checkpoints > 1 for s in snap.shards)
        clean = make_service()
        clean.submit_batch(seq.pages, seq.levels)
        assert svc.total_cost() == fault_free_cost
        assert ([(e.ledger.n_hits, e.ledger.n_misses, e.ledger.eviction_cost)
                 for e in svc.engines]
                == [(e.ledger.n_hits, e.ledger.n_misses, e.ledger.eviction_cost)
                    for e in clean.engines])


class TestUnrecoverableShard:
    def test_failed_shard_fails_tickets_without_hanging(self):
        seq = make_workload()
        svc = make_service(fault_plan=FaultPlan.parse("kill:1@300"),
                           checkpoint_interval=500, max_restarts=0)
        with svc:
            results = feed(svc, seq)
            assert svc.drain(30.0)  # never hangs on the dead shard
            tickets = [r for r in results if r.accepted]
            # Every accepted ticket resolves promptly, ok or not.
            assert all(t.wait(5.0) for t in tickets)
            failed = [t for t in tickets if not t.ok]
            assert failed, "the killed shard had in-flight slices"
            assert all(t.failed and t.errors for t in failed)
            # Work not touching the dead shard kept flowing.
            assert any(t.ok for t in tickets)
            # Further submissions touching shard 1 are rejected terminally.
            post = svc.submit_batch(seq.pages[:256], seq.levels[:256])
            assert isinstance(post, Failed)
            assert post.shard == 1
            assert isinstance(post.error, InjectedFault)
            assert not post.retryable
        # stop() inside __exit__ must not raise in recovery mode.
        snap = svc.snapshot()
        assert snap.n_failed_shards == 1
        assert snap.n_worker_restarts == 0
        text = snap.render(include_latency=False)
        assert "failed shards: 1" in text

    def test_budget_exhaustion_fails_shard(self):
        # One restart allowed; the second kill is terminal.
        seq = make_workload()
        plan = FaultPlan.parse("kill:2@300,kill:2@700")
        svc = make_service(fault_plan=plan, checkpoint_interval=400,
                          max_restarts=1)
        with svc:
            results = feed(svc, seq)
            assert svc.drain(30.0)
        snap = svc.snapshot()
        assert snap.n_worker_restarts == 1
        assert snap.n_failed_shards == 1
        tickets = [r for r in results if r.accepted]
        assert all(t.done for t in tickets)


class TestNoRecoveryMode:
    def test_crash_fails_pending_tickets_and_raises(self):
        """Regression: a dead worker used to leave tickets incomplete forever."""
        seq = make_workload()
        svc = make_service(fault_plan=FaultPlan.parse("kill:1@300"))
        svc.start()
        try:
            results = []
            for lo in range(0, len(seq), BATCH):
                try:
                    r = svc.submit_batch(seq.pages[lo:lo + BATCH],
                                         seq.levels[lo:lo + BATCH])
                except ServiceStateError:
                    break
                if r.accepted:
                    results.append(r)
                else:
                    sleep(0.001)
            # No accepted ticket hangs: every slice resolves, ok or failed.
            assert all(t.wait(5.0) for t in results)
            assert any(not t.ok for t in results)
            with pytest.raises(ServiceStateError, match="worker failed"):
                svc.submit_batch(seq.pages[:128], seq.levels[:128])
                svc.drain(5.0)
        finally:
            with pytest.raises(ServiceStateError):
                svc.stop(10.0)

    def test_checkpointing_disabled_takes_no_checkpoints(self):
        seq = make_workload()
        svc = make_service()  # checkpoint_interval=0
        with svc:
            feed(svc, seq)
            assert svc.drain(30.0)
        snap = svc.snapshot()
        assert all(s.n_checkpoints == 0 for s in snap.shards)
        assert all(s.n_restores == 0 for s in snap.shards)
