"""Admission controller: hysteresis bands, AIMD moves, the no-flap pin.

The load-bearing property (hypothesis-checked): for ANY pressure
sequence — however adversarial — the governor reverses direction at
most once per dwell window.  Oscillation across the band cannot make
the knobs flap.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.control import (
    Actuator,
    AdmissionController,
    ControllerConfig,
    HysteresisGovernor,
)
from repro.errors import ServiceConfigError
from repro.obs import MetricsRegistry

DIRECTION = {"tighten": 1, "relax": -1}


class TestControllerConfig:
    def test_defaults_validate(self):
        config = ControllerConfig()
        assert config.low_water < config.high_water

    @pytest.mark.parametrize("kwargs", [
        {"interval_s": 0.0},
        {"low_water": 0.8, "high_water": 0.5},
        {"low_water": -0.1},
        {"high_water": 1.5},
        {"dwell_s": -1.0},
        {"decrease": 1.0},
        {"decrease": 0.0},
        {"increase_frac": 0.0},
    ])
    def test_rejects_bad_knobs(self, kwargs):
        with pytest.raises(ServiceConfigError):
            ControllerConfig(**kwargs)


class TestGovernorBands:
    def test_band_interior_holds(self):
        g = HysteresisGovernor(ControllerConfig(high_water=0.75,
                                                low_water=0.30))
        assert g.decide(0.0, 0.5) is None

    def test_above_high_tightens(self):
        g = HysteresisGovernor(ControllerConfig())
        assert g.decide(0.0, 0.9) == "tighten"

    def test_below_low_relaxes(self):
        g = HysteresisGovernor(ControllerConfig())
        assert g.decide(0.0, 0.1) == "relax"

    def test_sustained_overload_keeps_tightening(self):
        g = HysteresisGovernor(ControllerConfig(dwell_s=10.0))
        assert [g.decide(0.01 * i, 0.9) for i in range(5)] \
            == ["tighten"] * 5

    def test_reversal_suppressed_within_dwell(self):
        g = HysteresisGovernor(ControllerConfig(dwell_s=1.0))
        assert g.decide(0.0, 0.9) == "tighten"
        assert g.decide(0.5, 0.1) is None       # reversal too soon
        assert g.decide(0.9, 0.9) == "tighten"  # same direction still fine
        assert g.decide(1.1, 0.1) == "relax"    # dwell elapsed

    def test_first_move_is_free(self):
        g = HysteresisGovernor(ControllerConfig(dwell_s=100.0))
        assert g.decide(0.0, 0.1) == "relax"


class TestNoFlapProperty:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(min_value=0.0, max_value=1.0,
                              allow_nan=False), min_size=1, max_size=200),
           st.floats(min_value=0.05, max_value=5.0, allow_nan=False))
    def test_at_most_one_reversal_per_dwell_window(self, pressures, dwell):
        """Any pressure sequence: direction changes >= dwell apart."""
        config = ControllerConfig(dwell_s=dwell)
        g = HysteresisGovernor(config)
        interval = dwell / 7.3  # polls much faster than the dwell
        reversal_times = []
        direction = 0
        for i, pressure in enumerate(pressures):
            now = i * interval
            decision = g.decide(now, pressure)
            if decision is None:
                continue
            want = DIRECTION[decision]
            if direction != 0 and want != direction:
                reversal_times.append(now)
            direction = want
        for earlier, later in zip(reversal_times, reversal_times[1:]):
            assert later - earlier >= dwell - 1e-9

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=2, max_value=50))
    def test_square_wave_across_band_cannot_flap(self, n_cycles):
        """The adversarial case: pressure alternates 0.9 / 0.1 each poll."""
        config = ControllerConfig(dwell_s=1.0)
        g = HysteresisGovernor(config)
        moves = []
        for i in range(2 * n_cycles):
            decision = g.decide(i * 0.05, 0.9 if i % 2 == 0 else 0.1)
            if decision is not None:
                moves.append(decision)
        # 20 polls per dwell window, alternating: after the free first
        # move, at most one reversal per full second.
        flips = sum(1 for a, b in zip(moves, moves[1:]) if a != b)
        assert flips <= (2 * n_cycles * 0.05) / config.dwell_s + 1


class TestActuator:
    def test_tighten_is_multiplicative_and_clamped(self):
        act = Actuator("win", lo=4, hi=64)
        assert act.value == 64
        assert act.tighten(0.5) and act.value == 32
        for _ in range(10):
            act.tighten(0.5)
        assert act.value == 4
        assert act.tighten(0.5) is False  # already at the floor

    def test_relax_is_additive_and_clamped(self):
        act = Actuator("win", lo=4, hi=64, initial=4)
        assert act.relax(0.125) and act.value == 4 + 7
        for _ in range(20):
            act.relax(0.125)
        assert act.value == 64

    def test_apply_called_only_on_change(self):
        applied = []
        act = Actuator("win", lo=1, hi=8, initial=8, apply=applied.append)
        act.relax(0.5)            # clamped at hi: no change
        assert applied == []
        act.tighten(0.5)
        assert applied == [4]

    def test_validation(self):
        with pytest.raises(ServiceConfigError):
            Actuator("w", lo=0, hi=8)
        with pytest.raises(ServiceConfigError):
            Actuator("w", lo=4, hi=2)
        with pytest.raises(ServiceConfigError):
            Actuator("w", lo=4, hi=8, initial=100)


class TestAdmissionController:
    def make(self, pressures, registry=None, **config_kwargs):
        readings = iter(pressures)
        clock_state = {"t": 0.0}

        def clock():
            clock_state["t"] += 1.0
            return clock_state["t"]

        acts = [Actuator("inflight", lo=4, hi=64),
                Actuator("queue", lo=8, hi=128)]
        ctl = AdmissionController(
            lambda: next(readings), acts,
            config=ControllerConfig(dwell_s=0.5, **config_kwargs),
            registry=registry, clock=clock)
        return ctl, acts

    def test_step_moves_all_actuators(self):
        ctl, acts = self.make([0.9])
        assert ctl.step() == "tighten"
        assert ctl.setpoints() == {"inflight": 32, "queue": 64}

    def test_step_in_band_holds(self):
        ctl, acts = self.make([0.5, 0.5])
        assert ctl.step() is None
        assert ctl.setpoints() == {"inflight": 64, "queue": 128}

    def test_saturated_actuators_report_no_move(self):
        ctl, acts = self.make([0.1, 0.1])
        assert ctl.step() is None  # relax from hi: clamped, nothing moved
        assert ctl.n_moves == 0

    def test_decisions_are_observable(self):
        reg = MetricsRegistry()
        ctl, acts = self.make([0.9, 0.9], registry=reg)
        ctl.step()
        page = reg.render()
        assert "repro_ctl_pressure 0.9" in page
        assert 'repro_ctl_setpoint{actuator="inflight"} 32' in page
        assert 'repro_ctl_moves_total{direction="tighten"} 1' in page

    def test_thread_loop_runs_and_stops(self):
        ctl = AdmissionController(
            lambda: 0.9, [Actuator("w", lo=1, hi=1 << 20)],
            config=ControllerConfig(interval_s=0.005, dwell_s=0.0))
        with ctl:
            import time
            deadline = time.monotonic() + 5.0
            while ctl.n_moves == 0 and time.monotonic() < deadline:
                time.sleep(0.005)
        assert ctl.n_moves > 0
        with pytest.raises(ServiceConfigError):
            AdmissionController(lambda: 0.5, [])

    def test_a_step_that_raises_does_not_end_the_loop(self, capsys):
        calls = []

        def signals():
            calls.append(None)
            if len(calls) == 1:
                raise OSError("signal source unreachable")
            return 0.9

        ctl = AdmissionController(
            signals, [Actuator("w", lo=1, hi=1 << 20)],
            config=ControllerConfig(interval_s=0.005, dwell_s=0.0))
        with ctl:
            import time
            deadline = time.monotonic() + 5.0
            while ctl.n_moves == 0 and time.monotonic() < deadline:
                time.sleep(0.005)
        assert len(calls) > 1 and ctl.n_moves > 0
        assert "OSError: signal source unreachable" in capsys.readouterr().err

    def test_duplicate_actuator_names_rejected(self):
        with pytest.raises(ServiceConfigError):
            AdmissionController(
                lambda: 0.5,
                [Actuator("w", lo=1, hi=2), Actuator("w", lo=1, hi=2)])

    def test_bare_float_reading_accepted(self):
        ctl, _ = self.make([])
        ctl.signals = lambda: 0.95
        assert ctl.step() == "tighten"
