"""Control-plane signals: first-class occupancy and shed-rate gauges.

The admission controller and autoscaler need three load facts the raw
metric families only partially express:

* **queue occupancy** — the fullest shard queue as a fraction of the
  effective queue limit (``repro_queue_depth`` over
  ``repro_queue_capacity``),
* **in-flight occupancy** — outstanding network submits as a fraction
  of the total window budget (``repro_net_inflight`` over
  ``repro_net_max_inflight`` × live connections),
* **shed / overload rates** — requests-per-second derivatives of the
  ``repro_net_shed_total``, ``repro_net_overloaded_total`` and
  ``repro_overloaded_total`` counters.

:class:`SignalReader` computes them from either a live
:class:`~repro.obs.MetricsRegistry` (single node) or a federated text
exposition page (cluster mode, read through
:func:`~repro.obs.federation.select`), and *publishes* them
back as first-class gauges — ``repro_queue_occupancy``,
``repro_inflight_occupancy``, ``repro_shed_rate``,
``repro_overload_rate`` — so ``/metrics``, federation and ``repro top``
all show exactly the numbers the controller is acting on.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import monotonic

from repro.obs.federation import parse_exposition, select
from repro.obs.registry import MetricsRegistry

__all__ = ["ControlSignals", "SignalReader"]


@dataclass(frozen=True)
class ControlSignals:
    """One sampled set of control inputs, plus the scalar they fold to."""

    queue_occupancy: float
    inflight_occupancy: float
    shed_rate: float
    overload_rate: float
    interval_s: float
    pressure: float

    def __str__(self) -> str:
        return (f"pressure={self.pressure:.3f} "
                f"(queue={self.queue_occupancy:.3f}, "
                f"inflight={self.inflight_occupancy:.3f}, "
                f"shed={self.shed_rate:.1f}/s, "
                f"overload={self.overload_rate:.1f}/s)")


class SignalReader:
    """Samples control signals from a registry or a federated page.

    ``source`` is either a :class:`MetricsRegistry` (read via
    ``collect()``) or a zero-argument callable returning Prometheus text
    exposition (e.g. ``lambda: scrape(federated_url)``).  Successive
    :meth:`sample` calls difference the shed/overload counters into
    rates; the first call reports rate 0 (no interval yet).

    ``publish`` (default: the source registry, when there is one) names
    the registry that receives the derived first-class gauges.

    ``full_scale_rate`` is the shed+overload rate, in events/s, that
    saturates the pressure scalar at 1.0 — any rejection pushes pressure
    up, sustained rejection pins it high.
    """

    def __init__(self, source, *, publish: MetricsRegistry | None = None,
                 full_scale_rate: float = 200.0,
                 clock=monotonic) -> None:
        if full_scale_rate <= 0:
            raise ValueError(
                f"full_scale_rate must be > 0, got {full_scale_rate}")
        self._registry = source if isinstance(source, MetricsRegistry) else None
        self._page = None if self._registry is not None else source
        if self._page is not None and not callable(self._page):
            raise TypeError(
                "source must be a MetricsRegistry or a callable "
                f"returning exposition text, got {type(source).__name__}")
        self._clock = clock
        self._full_scale = full_scale_rate
        self._last_t: float | None = None
        self._last_shed = 0.0
        self._last_overload = 0.0
        self._families: dict = {}
        publish = publish if publish is not None else self._registry
        if publish is not None:
            self._g_queue = publish.gauge(
                "repro_queue_occupancy",
                "Fullest shard queue / effective queue limit")
            self._g_inflight = publish.gauge(
                "repro_inflight_occupancy",
                "Outstanding net submits / total window budget")
            self._g_shed = publish.gauge(
                "repro_shed_rate", "Net-layer sheds per second")
            self._g_overload = publish.gauge(
                "repro_overload_rate",
                "Overloaded rejections per second (net + service)")
        else:
            self._g_queue = self._g_inflight = None
            self._g_shed = self._g_overload = None

    # -- raw family access -------------------------------------------------
    def _values(self, name: str) -> list[float]:
        """Every child value of one family, synthetic aggregates excluded."""
        if self._registry is not None:
            fam = self._registry.collect().get(name, {})
            return [v for v in fam.values() if isinstance(v, (int, float))]
        return [value for _labels, value in select(self._families, name)]

    def _refresh_page(self) -> None:
        self._families = parse_exposition(self._page())

    # -- sampling ----------------------------------------------------------
    def sample(self) -> ControlSignals:
        """One coherent reading; publishes the derived gauges as a side
        effect."""
        if self._page is not None:
            self._refresh_page()
        now = self._clock()
        dt = 0.0 if self._last_t is None else max(now - self._last_t, 1e-9)

        depths = self._values("repro_queue_depth")
        caps = self._values("repro_queue_capacity")
        cap = max(caps) if caps else 0.0
        queue_occ = (max(depths) / cap) if depths and cap > 0 else 0.0

        inflight = sum(self._values("repro_net_inflight"))
        window = self._values("repro_net_max_inflight")
        conns = sum(self._values("repro_net_active_connections"))
        budget = sum(window) * max(conns / max(len(window), 1), 1.0) \
            if window else 0.0
        inflight_occ = (inflight / budget) if budget > 0 else 0.0

        shed = sum(self._values("repro_net_shed_total"))
        overload = (sum(self._values("repro_overloaded_total"))
                    + sum(self._values("repro_net_overloaded_total")))
        if self._last_t is None:
            shed_rate = overload_rate = 0.0
        else:
            shed_rate = max(shed - self._last_shed, 0.0) / dt
            overload_rate = max(overload - self._last_overload, 0.0) / dt
        self._last_t, self._last_shed, self._last_overload = \
            now, shed, overload

        pressure = max(
            min(queue_occ, 1.0),
            min(inflight_occ, 1.0),
            min((shed_rate + overload_rate) / self._full_scale, 1.0),
        )
        if self._g_queue is not None:
            self._g_queue.set(queue_occ)
            self._g_inflight.set(inflight_occ)
            self._g_shed.set(shed_rate)
            self._g_overload.set(overload_rate)
        return ControlSignals(
            queue_occupancy=queue_occ,
            inflight_occupancy=inflight_occ,
            shed_rate=shed_rate,
            overload_rate=overload_rate,
            interval_s=dt,
            pressure=pressure,
        )

    def __call__(self) -> ControlSignals:
        return self.sample()
