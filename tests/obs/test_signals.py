"""Control signals: occupancy / shed-rate derivation + published gauges."""

import pytest

from repro.obs import MetricsRegistry, SignalReader
from repro.obs.signals import ControlSignals


class FakeClock:
    def __init__(self, t=0.0):
        self.t = t

    def __call__(self):
        return self.t


def populated_registry(*, depth=8.0, cap=16.0, inflight=4.0, window=8.0,
                       conns=1.0, shed=0.0, overload=0.0):
    reg = MetricsRegistry()
    d = reg.gauge("repro_queue_depth", "d", ("shard",))
    d.labels("0").set(depth)
    d.labels("1").set(depth / 2)
    reg.gauge("repro_queue_capacity", "c").set(cap)
    reg.gauge("repro_net_inflight", "i").set(inflight)
    reg.gauge("repro_net_max_inflight", "w").set(window)
    reg.gauge("repro_net_active_connections", "n").set(conns)
    reg.counter("repro_net_shed_total", "s").inc(shed)
    reg.counter("repro_overloaded_total", "o").inc(overload)
    return reg


class TestSignalReaderFromRegistry:
    def test_occupancies_from_live_registry(self):
        reg = populated_registry(depth=8.0, cap=16.0, inflight=4.0,
                                 window=8.0)
        reader = SignalReader(reg, clock=FakeClock())
        signals = reader.sample()
        assert signals.queue_occupancy == pytest.approx(0.5)
        assert signals.inflight_occupancy == pytest.approx(0.5)
        assert signals.shed_rate == 0.0  # first sample: no interval yet
        assert signals.pressure == pytest.approx(0.5)

    def test_counter_deltas_become_rates(self):
        reg = populated_registry(depth=0.0, inflight=0.0)
        clock = FakeClock()
        reader = SignalReader(reg, clock=clock, full_scale_rate=100.0)
        reader.sample()
        reg.counter("repro_net_shed_total", "s").inc(50)
        reg.counter("repro_overloaded_total", "o").inc(25)
        clock.t = 1.0
        signals = reader.sample()
        assert signals.shed_rate == pytest.approx(50.0)
        assert signals.overload_rate == pytest.approx(25.0)
        assert signals.pressure == pytest.approx(0.75)

    def test_pressure_clamped_to_one(self):
        reg = populated_registry(depth=64.0, cap=16.0, inflight=100.0,
                                 window=8.0)
        reader = SignalReader(reg, clock=FakeClock())
        assert reader.sample().pressure == 1.0

    def test_publishes_first_class_gauges(self):
        reg = populated_registry()
        SignalReader(reg, clock=FakeClock()).sample()
        page = reg.render()
        for name in ("repro_queue_occupancy", "repro_inflight_occupancy",
                     "repro_shed_rate", "repro_overload_rate"):
            assert name in page

    def test_reader_is_callable(self):
        reader = SignalReader(populated_registry(), clock=FakeClock())
        assert isinstance(reader(), ControlSignals)

    def test_one_collect_per_sample(self, monkeypatch):
        reg = populated_registry()
        calls = []
        collect = reg.collect
        monkeypatch.setattr(reg, "collect",
                            lambda: calls.append(1) or collect())
        reader = SignalReader(reg, clock=FakeClock())
        for n in (1, 2, 3):
            reader.sample()
            assert len(calls) == n

    def test_empty_registry_reads_zero(self):
        signals = SignalReader(MetricsRegistry(), clock=FakeClock()).sample()
        assert signals.pressure == 0.0

    def test_rejects_non_source(self):
        with pytest.raises(TypeError):
            SignalReader(object())
        with pytest.raises(ValueError):
            SignalReader(MetricsRegistry(), full_scale_rate=0.0)


class TestSignalReaderFromExposition:
    def test_reads_federated_page_excluding_synthetic_backends(self):
        page = "\n".join([
            '# TYPE repro_queue_depth gauge',
            'repro_queue_depth{backend="b1",shard="0"} 8',
            'repro_queue_depth{backend="b2",shard="0"} 4',
            'repro_queue_depth{backend="all",shard="0"} 12',
            'repro_queue_depth{backend="max",shard="0"} 8',
            '# TYPE repro_queue_capacity gauge',
            'repro_queue_capacity{backend="b1"} 16',
            'repro_queue_capacity{backend="b2"} 16',
            'repro_queue_capacity{backend="all"} 32',
            "",
        ])
        publish = MetricsRegistry()
        reader = SignalReader(lambda: page, publish=publish,
                              clock=FakeClock())
        signals = reader.sample()
        # max over real backends only: 8 / 16, not the "all" row's 12.
        assert signals.queue_occupancy == pytest.approx(0.5)
        assert "repro_queue_occupancy 0.5" in publish.render()

    def test_page_counter_deltas(self):
        shed = [0.0]
        def page():
            return ("# TYPE repro_net_shed_total counter\n"
                    f'repro_net_shed_total{{backend="b1"}} {shed[0]}\n')
        clock = FakeClock()
        reader = SignalReader(page, clock=clock, full_scale_rate=10.0)
        reader.sample()
        shed[0] = 5.0
        clock.t = 1.0
        assert reader.sample().shed_rate == pytest.approx(5.0)
