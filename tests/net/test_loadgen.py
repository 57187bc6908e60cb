"""run_network_load: merged accounting across connections, pacing, and
parameter validation — the networked twin of tests/service/test_loadgen.
"""

import math

import pytest

from repro.algorithms import WaterFillingPolicy
from repro.core.instance import WeightedPagingInstance
from repro.net import AdmissionPolicy, NetServer, run_network_load
from repro.service import PagingService, ServiceConfig
from repro.workloads import sample_weights, zipf_stream

N_PAGES = 128


@pytest.fixture()
def served():
    inst = WeightedPagingInstance(16, sample_weights(N_PAGES, rng=0, high=16.0))
    svc = PagingService(ServiceConfig(
        instance=inst, policy_factory=WaterFillingPolicy,
        n_shards=2, batch_size=128, queue_depth=64))
    svc.start()
    srv = NetServer(svc, admission=AdmissionPolicy(max_inflight=64)).start()
    yield srv
    srv.stop()
    svc.stop()


def make_workload(length=6000):
    return zipf_stream(N_PAGES, length, alpha=0.9, rng=3)


class TestNetworkLoad:
    @pytest.mark.parametrize("connections,window", [(1, 1), (4, 1), (4, 8)])
    def test_all_requests_served(self, served, connections, window):
        seq = make_workload()
        report = run_network_load(served.address, seq, rate=300_000.0,
                                  batch_size=128, connections=connections,
                                  window=window)
        assert report.n_served == len(seq)
        assert report.n_requests == len(seq)
        assert report.n_batches == math.ceil(len(seq) / 128)
        assert report.n_dropped_batches == 0
        assert report.n_failed_batches == 0
        assert not report.rejected_all
        assert report.achieved_rate > 0
        assert report.p50_ms > 0 and report.p99_ms >= report.p50_ms

    def test_server_sees_every_request_once(self, served):
        seq = make_workload(length=4000)
        run_network_load(served.address, seq, rate=500_000.0,
                         batch_size=128, connections=4, window=4)
        # The drain inside run_network_load already fenced all accepted
        # work, so the service counters must account for every request.
        snap = served.service.snapshot()
        assert snap.n_requests == len(seq)

    def test_open_loop_pacing_holds_rate_down(self, served):
        # 2000 requests at 10k req/s must take >= ~0.2s: the due-time
        # clock is global, so even 4 connections cannot run ahead of it.
        seq = make_workload(length=2000)
        report = run_network_load(served.address, seq, rate=10_000.0,
                                  batch_size=100, connections=4, window=2)
        assert report.duration_s >= 0.18
        assert report.achieved_rate <= 12_000.0

    def test_report_renders(self, served):
        seq = make_workload(length=1000)
        report = run_network_load(served.address, seq, rate=200_000.0,
                                  batch_size=128, connections=2)
        text = report.render()
        assert "target req/s" in text and "p99 ms" in text

    def test_connection_failure_propagates(self):
        seq = make_workload(length=256)
        with pytest.raises(OSError):
            run_network_load("127.0.0.1:1", seq, rate=10_000.0,
                             batch_size=128)

    def test_parameter_validation(self, served):
        seq = make_workload(length=128)
        with pytest.raises(ValueError):
            run_network_load(served.address, seq, rate=0.0)
        with pytest.raises(ValueError):
            run_network_load(served.address, seq, connections=0)
        with pytest.raises(ValueError):
            run_network_load(served.address, seq, window=0)
        with pytest.raises(ValueError):
            run_network_load(served.address, seq, batch_size=0)
        with pytest.raises(ValueError):
            run_network_load(served.address, seq, on_overload="panic")
        # The inline generator's checks, shared: negative retry budgets too.
        with pytest.raises(ValueError, match="max_retries"):
            run_network_load(served.address, seq, max_retries=-1)
