"""Closed-loop admission control with hysteresis.

The controller closes the loop the metrics plane opened: it polls a
:class:`~repro.obs.SignalReader` (single node or a federated cluster
page), folds the reading into one *pressure* scalar in ``[0, 1]``, and
moves the admission actuators — the net frontend's in-flight window and
the service's soft queue limit — through a banded, dwell-gated decision
rule:

* pressure above ``high_water`` → **tighten** (multiplicative decrease:
  back off fast when the system is drowning),
* pressure below ``low_water``  → **relax** (additive increase: reopen
  gradually once the system is demonstrably healthy),
* in between → hold.

The band alone is not enough to prevent flapping — a load oscillating
*across* the band would still reverse the knobs every poll — so
:class:`HysteresisGovernor` additionally refuses to reverse direction
within ``dwell_s`` of the last reversal.  The pinned property (see the
hypothesis suite): any pressure sequence, however adversarial, produces
at most one direction change per dwell window.

Every decision is observable: setpoints are exported as
``repro_ctl_setpoint{actuator=...}`` gauges, pressure as
``repro_ctl_pressure``, and moves as
``repro_ctl_moves_total{direction=...}`` — so ``repro top`` and the
federated page show the controller acting live.

:class:`GovernedLoop` is the one poll loop of the control plane: the
admission controller and the autoscaler
(:class:`~repro.control.autoscale.Autoscaler`) differ only in what they
do with a decision.
"""

from __future__ import annotations

import threading
import traceback
from dataclasses import dataclass
from time import monotonic

from repro.errors import ServiceConfigError
from repro.obs.registry import NULL_METRIC, MetricsRegistry, null_registry

__all__ = [
    "Actuator",
    "AdmissionController",
    "ControllerConfig",
    "GovernedLoop",
    "HysteresisGovernor",
]


@dataclass(frozen=True)
class ControllerConfig:
    """The control loop's knobs, validated once at construction."""

    interval_s: float = 0.05
    high_water: float = 0.75
    low_water: float = 0.30
    dwell_s: float = 0.5
    #: Multiplicative tighten factor (AIMD's MD half).
    decrease: float = 0.5
    #: Additive relax step as a fraction of each actuator's range.
    increase_frac: float = 0.125

    def __post_init__(self) -> None:
        if self.interval_s <= 0:
            raise ServiceConfigError(
                f"interval_s must be > 0, got {self.interval_s}")
        if not 0.0 <= self.low_water < self.high_water <= 1.0:
            raise ServiceConfigError(
                "need 0 <= low_water < high_water <= 1, got "
                f"low={self.low_water}, high={self.high_water}")
        if self.dwell_s < 0:
            raise ServiceConfigError(
                f"dwell_s must be >= 0, got {self.dwell_s}")
        if not 0.0 < self.decrease < 1.0:
            raise ServiceConfigError(
                f"decrease must be in (0, 1), got {self.decrease}")
        if not 0.0 < self.increase_frac <= 1.0:
            raise ServiceConfigError(
                f"increase_frac must be in (0, 1], got {self.increase_frac}")


class HysteresisGovernor:
    """Banded tighten/relax decisions that never flap.

    Pure decision state — no threads, no clock of its own — so property
    tests can drive it with synthetic time.  ``decide(now, pressure)``
    returns ``"tighten"``, ``"relax"`` or ``None``; a decision that
    *reverses* the previous direction is suppressed until ``dwell_s``
    has elapsed since the last reversal.  Repeated moves in the same
    direction are never suppressed (sustained overload keeps tightening).
    """

    __slots__ = ("config", "_direction", "_last_reversal")

    def __init__(self, config: ControllerConfig) -> None:
        self.config = config
        self._direction = 0  # +1 tightening, -1 relaxing, 0 never moved
        self._last_reversal: float | None = None

    def decide(self, now: float, pressure: float) -> str | None:
        """The move (if any) for one ``pressure`` reading at time ``now``."""
        if pressure > self.config.high_water:
            want = 1
        elif pressure < self.config.low_water:
            want = -1
        else:
            return None
        if want != self._direction:
            # A reversal: gated on the dwell since the previous reversal.
            if (self._direction != 0 and self._last_reversal is not None
                    and now - self._last_reversal < self.config.dwell_s):
                return None
            self._last_reversal = now
            self._direction = want
        return "tighten" if want == 1 else "relax"


class Actuator:
    """One integer admission knob under controller management.

    ``apply`` is the side-effecting setter (e.g.
    :meth:`~repro.net.NetServer.set_max_inflight`); the actuator owns the
    current setpoint and clamps every move into ``[lo, hi]``.
    """

    __slots__ = ("name", "lo", "hi", "value", "_apply")

    def __init__(self, name: str, *, lo: int, hi: int,
                 initial: int | None = None, apply=None) -> None:
        if not 1 <= lo <= hi:
            raise ServiceConfigError(
                f"actuator {name!r} needs 1 <= lo <= hi, got [{lo}, {hi}]")
        self.name = name
        self.lo = lo
        self.hi = hi
        self.value = hi if initial is None else int(initial)
        if not lo <= self.value <= hi:
            raise ServiceConfigError(
                f"actuator {name!r} initial {self.value} outside "
                f"[{lo}, {hi}]")
        self._apply = apply

    def _set(self, value: int) -> bool:
        value = max(self.lo, min(self.hi, value))
        if value == self.value:
            return False
        self.value = value
        if self._apply is not None:
            self._apply(value)
        return True

    def tighten(self, factor: float) -> bool:
        """Multiplicative decrease; True when the setpoint moved."""
        return self._set(int(self.value * factor))

    def relax(self, frac: float) -> bool:
        """Additive increase by ``frac`` of the range; True when moved."""
        return self._set(self.value + max(1, int((self.hi - self.lo) * frac)))


class GovernedLoop:
    """Read the pressure, ask the governor, act: every ``interval_s`` on a
    daemon thread, or once per :meth:`step`.

    ``signals`` is any zero-argument callable returning an object with a
    ``pressure`` attribute, or a bare float — normally a
    :class:`~repro.obs.SignalReader`.  Subclasses implement :meth:`_act`,
    which carries out a ``"tighten"`` or ``"relax"`` decision and returns
    what it did (``None`` when nothing moved).  A step that raises is
    reported on stderr and does not end the loop.
    """

    #: Where each reading's pressure is published (a no-op by default).
    _m_pressure = NULL_METRIC

    def __init__(self, signals, config: ControllerConfig, clock) -> None:
        self.signals = signals
        self.config = config
        self.governor = HysteresisGovernor(config)
        self._clock = clock
        self._thread: threading.Thread | None = None
        self._stop = threading.Event()

    def step(self, now: float | None = None) -> str | None:
        """One iteration; returns what :meth:`_act` did, if anything."""
        now = self._clock() if now is None else now
        reading = self.signals()
        pressure = float(getattr(reading, "pressure", reading))
        self._m_pressure.set(pressure)
        decision = self.governor.decide(now, pressure)
        return None if decision is None else self._act(decision)

    def _act(self, decision: str) -> str | None:
        raise NotImplementedError

    def start(self) -> "GovernedLoop":
        """Poll-and-act every ``interval_s`` on a daemon thread."""
        if self._thread is not None:
            raise ServiceConfigError(
                f"{type(self).__name__} already started")
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name=type(self).__name__, daemon=True)
        self._thread.start()
        return self

    def stop(self, timeout: float | None = 10.0) -> None:
        """Stop the loop (idempotent)."""
        if self._thread is None:
            return
        self._stop.set()
        self._thread.join(timeout)
        self._thread = None

    def _run(self) -> None:
        while not self._stop.wait(self.config.interval_s):
            try:
                self.step()
            except Exception:  # a failed read or move must not end the loop
                traceback.print_exc()

    def __enter__(self) -> "GovernedLoop":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


class AdmissionController(GovernedLoop):
    """The admission loop: one governor's decision moves every actuator."""

    def __init__(self, signals, actuators, *,
                 config: ControllerConfig | None = None,
                 registry: MetricsRegistry | None = None,
                 clock=monotonic) -> None:
        if not actuators:
            raise ServiceConfigError(
                "the controller needs at least one actuator")
        names = [a.name for a in actuators]
        if len(set(names)) != len(names):
            raise ServiceConfigError(f"duplicate actuator name in {names}")
        super().__init__(signals, config if config is not None
                         else ControllerConfig(), clock)
        self.actuators = list(actuators)
        reg = registry if registry is not None else null_registry()
        self._m_pressure = reg.gauge(
            "repro_ctl_pressure", "Folded control pressure in [0, 1]")
        self._m_setpoint = reg.gauge(
            "repro_ctl_setpoint",
            "Current admission setpoint per actuator", ("actuator",))
        self._m_moves = reg.counter(
            "repro_ctl_moves_total",
            "Setpoint adjustments by direction", ("direction",))
        for act in self.actuators:
            self._m_setpoint.labels(act.name).set(act.value)
        self.n_moves = 0

    def setpoints(self) -> dict[str, int]:
        """Current setpoint per actuator name."""
        return {a.name: a.value for a in self.actuators}

    def _act(self, decision: str) -> str | None:
        """Move every actuator; returns the decision if one moved."""
        moved = False
        for act in self.actuators:
            if decision == "tighten":
                changed = act.tighten(self.config.decrease)
            else:
                changed = act.relax(self.config.increase_frac)
            if changed:
                self._m_setpoint.labels(act.name).set(act.value)
                moved = True
        if not moved:
            return None
        self.n_moves += 1
        self._m_moves.labels(decision).inc()
        return decision

    def __repr__(self) -> str:
        points = ", ".join(f"{a.name}={a.value}" for a in self.actuators)
        state = "running" if self._thread is not None else "idle"
        return f"AdmissionController({state}, {points})"
